"""Find controller and advice classes and group them by Spring profile."""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagnostics import Diagnostic, PROFILE_NEGATION
from .javasrc import (ArrayVal, AttributeValue, ClassDecl, SourceModel,
                      resolve_string_constant, supertype_chain)
from .spring import (ADVICE_MARKERS, CONTROLLER_MARKERS, PROFILE_MARKER,
                     find_annotation)


class _AllProfiles(frozenset):
    """Sentinel set: the class is active in every profile."""

    def __repr__(self):
        return "ALL"


ALL = _AllProfiles()

DEFAULT_PROFILE = "default"


@dataclass
class ControllerSet:
    controllers: list[ClassDecl] = field(default_factory=list)
    advices: list[ClassDecl] = field(default_factory=list)


@dataclass
class ProfileUnit:
    profile_name: str
    controller_set: ControllerSet


def discover_rest_classes(model: SourceModel) -> ControllerSet:
    result = ControllerSet()
    for cls in model.classes.values():
        if cls.kind not in ("class", "record"):
            continue
        chain = supertype_chain(cls, model)
        if any(find_annotation(c.annotations, m, c)
               for c in chain for m in CONTROLLER_MARKERS):
            # only concrete leaf controllers expose endpoints; a superclass
            # carrying the marker makes every subclass a controller too
            result.controllers.append(cls)
        if any(find_annotation(cls.annotations, m, cls)
               for m in ADVICE_MARKERS):
            result.advices.append(cls)
    return result


def _profile_values(value: AttributeValue) -> list[AttributeValue]:
    if isinstance(value, ArrayVal):
        return list(value.items)
    return [value]


def assign_profiles(cls: ClassDecl, model: SourceModel,
                    diagnostics: list[Diagnostic]) -> frozenset[str]:
    """Profile names from @Profile; absent/empty annotation means ALL."""
    anno = find_annotation(cls.annotations, PROFILE_MARKER, cls)
    if anno is None or "value" not in anno.attributes:
        return ALL
    names: set[str] = set()
    for item in _profile_values(anno.attributes["value"]):
        text = resolve_string_constant(item, cls, model)
        if text is None:
            continue
        if text.startswith("!"):
            diagnostics.append(Diagnostic(
                PROFILE_NEGATION,
                f"negated profile expression {text!r} on "
                f"{cls.qualified_name} treated as all profiles",
                cls.source_file))
            return ALL
        names.add(text)
    return frozenset(names) if names else ALL


def group_by_profile(controller_set: ControllerSet, model: SourceModel,
                     diagnostics: list[Diagnostic]) -> list[ProfileUnit]:
    assignments: dict[str, frozenset[str]] = {}
    for cls in controller_set.controllers + controller_set.advices:
        assignments[cls.qualified_name] = assign_profiles(cls, model,
                                                          diagnostics)
    observed = sorted({name for profiles in assignments.values()
                       if profiles is not ALL for name in profiles})
    profile_names = [DEFAULT_PROFILE] + observed

    units = []
    for profile in profile_names:
        unit = ProfileUnit(profile, ControllerSet())
        for cls in controller_set.controllers:
            profiles = assignments[cls.qualified_name]
            if profiles is ALL or profile in profiles:
                unit.controller_set.controllers.append(cls)
        for cls in controller_set.advices:
            profiles = assignments[cls.qualified_name]
            if profiles is ALL or profile in profiles:
                unit.controller_set.advices.append(cls)
        units.append(unit)
    # With explicit profiles in play, an empty "default" unit would emit an
    # empty description; keep it only when something is active in it.
    if observed and not (units[0].controller_set.controllers
                         or units[0].controller_set.advices):
        units = units[1:]
    return units
