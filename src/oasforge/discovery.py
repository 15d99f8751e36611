"""Find controller and advice classes and group them by Spring profile."""

from __future__ import annotations

from typing import Optional

from .diagnostics import Diagnostic, PROFILE_NEGATION
from .javasrc import ClassDecl, SourceModel
from .spring import (ADVICE_MARKERS, CONTROLLER_MARKERS, PROFILE_MARKER,
                     attr_strings, find_annotation)
from .values import Record


DEFAULT_PROFILE = "default"


class ControllerSet(Record):
    __slots__ = ("controllers", "advices")

    def __init__(self, controllers: Optional[list[ClassDecl]] = None,
                 advices: Optional[list[ClassDecl]] = None):
        self.controllers = [] if controllers is None else controllers
        self.advices = [] if advices is None else advices


class ProfileUnit(Record):
    __slots__ = ("profile_name", "controller_set")

    def __init__(self, profile_name: str, controller_set: ControllerSet):
        self.profile_name = profile_name
        self.controller_set = controller_set


def discover_rest_classes(model: SourceModel) -> ControllerSet:
    """The classes Spring's component scan registers, which are concrete,
    as controllers and advices. A controller marker on a class or on one
    of its superclasses makes it a controller, so an abstract base class
    that carries it is not one, but each concrete subclass is."""
    result = ControllerSet()
    # Whether a class or one of its superclasses carries a controller
    # marker, decided once per class from its superclass's answer, so a
    # chain of any depth is walked once.
    marked: dict[str, bool] = {}
    for cls in model.classes.values():
        if cls.kind not in ("class", "record") or cls.is_abstract:
            continue
        undecided = []
        cur = cls
        while cur is not None and cur.qualified_name not in marked:
            undecided.append(cur)
            cur = model.superclass_of(cur)
        answer = cur is not None and marked[cur.qualified_name]
        for c in reversed(undecided):
            answer = answer or find_annotation(
                c.annotations, CONTROLLER_MARKERS) is not None
            marked[c.qualified_name] = answer
        if answer:
            result.controllers.append(cls)
        if find_annotation(cls.annotations, ADVICE_MARKERS) is not None:
            result.advices.append(cls)
    return result


def assign_profiles(cls: ClassDecl, model: SourceModel,
                    diagnostics: list[Diagnostic]) -> Optional[frozenset[str]]:
    """Profile names from @Profile; None, for every profile, without one or
    when it names none. An unresolved name is reported and left out."""
    anno = find_annotation(cls.annotations, PROFILE_MARKER)
    if anno is None:
        return None
    names: set[str] = set()
    for _, text in attr_strings(anno, ("value",), "profile name", cls, model,
                                cls.source_file, 0, diagnostics):
        if text is None:
            continue
        if text.startswith("!"):
            diagnostics.append(Diagnostic(
                PROFILE_NEGATION,
                f"negated profile expression {text!r} on "
                f"{cls.qualified_name} treated as all profiles",
                cls.source_file))
            return None
        names.add(text)
    return frozenset(names) or None


def group_by_profile(controller_set: ControllerSet, model: SourceModel,
                     diagnostics: list[Diagnostic]) -> list[ProfileUnit]:
    assignments: dict[str, Optional[frozenset[str]]] = {}
    for cls in controller_set.controllers + controller_set.advices:
        assignments[cls.qualified_name] = assign_profiles(cls, model,
                                                          diagnostics)
    observed = sorted({name for profiles in assignments.values()
                       for name in profiles or ()} - {DEFAULT_PROFILE})
    profile_names = [DEFAULT_PROFILE] + observed

    def active(classes: list[ClassDecl], profile: str) -> list[ClassDecl]:
        return [cls for cls in classes
                if assignments[cls.qualified_name] is None
                or profile in assignments[cls.qualified_name]]

    units = [ProfileUnit(profile, ControllerSet(
        active(controller_set.controllers, profile),
        active(controller_set.advices, profile)))
        for profile in profile_names]
    # With explicit profiles in play, an empty "default" unit would emit an
    # empty description; keep it only when something is active in it.
    if observed and not (units[0].controller_set.controllers
                         or units[0].controller_set.advices):
        units = units[1:]
    return units
