"""Extract (path, verb) operations with parameters and responses from the
controller classes of one profile unit, each as its OAS operation dict.

A handler is analyzed once per project and finished once per list of
advices. Its dicts are shared by its paths, verbs and the profiles with
those advices, so none is changed after it is built.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from .diagnostics import (BAD_PATH_SEGMENT, Diagnostic, DUPLICATE_METHOD,
                          SERVLET_PARAMETER, SKIPPED_PARAMETER,
                          UNBOUND_PATH_VARIABLE, UNRESOLVED_CONSTANT,
                          UNRESOLVED_STATUS, UNRESOLVED_TYPE)
from .discovery import ProfileUnit
from .javasrc import (AnnotationUse, AttributeValue, ClassDecl, ClassRef,
                      Concat, MethodDecl, NameRef, SourceModel, TypeRef,
                      resolve_string_constant, spelling, supertype_chain)
from .schemas import (SchemaRegistry, primitive, schema_for_type,
                      unwrap_response_wrapper)
from .spring import (EXCEPTION_HANDLER, EXCEPTION_SUPERCLASSES, HTTP_VERBS,
                     MAPPING_ANNOTATIONS, PARAM_ANNOTATIONS, PARAM_LOCATIONS,
                     REQUEST_MAPPING, REQUEST_METHODS, RESPONSE_STATUS,
                     SERVLET_TYPES, VERB_MAPPINGS, attr_strings,
                     find_annotation, reason_phrase, status_code_for)
from .values import Record, replace


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

def normalize_path(*parts: str) -> str:
    segments = [seg for part in parts for seg in part.split("/") if seg]
    return "/" + "/".join(segments)


def split_template(path: str, file: str, line: int,
                   diagnostics: list[Diagnostic]
                   ) -> tuple[str, dict[str, Optional[str]]]:
    """Read each `{name}` or `{name:regex}` group of a path template, by
    brace depth so that a regex may hold braces: "/f/{n}.{ext:[a-z]+}"
    gives ("/f/{n}.{ext}", {"n": None, "ext": "[a-z]+"}).

    Variables are in order of first use, and a later regex for a name wins.
    A `{` that is never closed stays as text, and a group with an empty
    name or a brace in its name is dropped; both give BAD_PATH_SEGMENT.
    """
    out: list[str] = []
    variables: dict[str, Optional[str]] = {}
    pos = 0
    while (start := path.find("{", pos)) >= 0:
        out.append(path[pos:start])
        depth = 0
        for end in range(start, len(path)):
            depth += (path[end] == "{") - (path[end] == "}")
            if depth == 0:
                break
        if depth:
            diagnostics.append(Diagnostic(
                BAD_PATH_SEGMENT, f"unclosed '{{' in path {path!r}; kept as "
                "text", file, line))
            out.append("{")
            pos = start + 1
            continue
        name, colon, regex = path[start + 1:end].partition(":")
        pos = end + 1
        if not name or "{" in name or "}" in name:
            diagnostics.append(Diagnostic(
                BAD_PATH_SEGMENT, f"variable {path[start:pos]!r} of path "
                f"{path!r} has no usable name; dropped", file, line))
            continue
        out.append("{" + name + "}")
        if colon or name not in variables:
            variables[name] = regex if colon else None
    out.append(path[pos:])
    return normalize_path("".join(out)), variables


# ---------------------------------------------------------------------------
# Annotation attributes
# ---------------------------------------------------------------------------

def _partial_string(value: AttributeValue, ctx: ClassDecl,
                    model: SourceModel) -> str:
    """`value` as a string, each part that does not resolve spelled as in
    the source: `Missing.BASE + "/x"` gives "Missing.BASE/x"."""
    resolved = resolve_string_constant(value, ctx, model)
    if resolved is not None:
        return resolved
    if isinstance(value, Concat):
        return "".join(_partial_string(p, ctx, model) for p in value.parts)
    return spelling(value)


# ---------------------------------------------------------------------------
# Mapping annotations
# ---------------------------------------------------------------------------

def _mapping(anno: AnnotationUse, ctx: ClassDecl, line: int,
             model: SourceModel, diagnostics: list[Diagnostic]
             ) -> tuple[list[str], Optional[list[str]]]:
    """The paths ([""] when none is set) and verbs of a type- or method-level
    mapping, named in `ctx`, with diagnostics at `line` of its file. The
    verbs are a `@GetMapping`-style mapping's one, else the request methods
    `method` names, less each element naming none (UNRESOLVED_CONSTANT), or
    None when `method` is unset or `{}`."""
    paths = [_partial_string(item, ctx, model) if text is None else text
             for item, text in attr_strings(
                 anno, ("value", "path"), "path constant", ctx, model,
                 ctx.source_file, line, diagnostics)] or [""]
    if anno.simple_name in VERB_MAPPINGS:
        return paths, [VERB_MAPPINGS[anno.simple_name]]
    items = anno.items("method")
    verbs = []
    for item in items:
        if isinstance(item, NameRef) and item.parts[-1] in REQUEST_METHODS:
            verbs.append(item.parts[-1])
        else:
            diagnostics.append(Diagnostic(
                UNRESOLVED_CONSTANT, f"cannot resolve request method "
                f"{spelling(item)!r} in {ctx.qualified_name}",
                ctx.source_file, line))
    return paths, verbs if items else None


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

def _attr_bool(anno: AnnotationUse, attr: str, default: bool) -> bool:
    value = anno.attributes.get(attr)
    return value if isinstance(value, bool) else default


def _parameter(name: str, location: str, required: bool,
               schema: dict) -> dict:
    return {"name": name, "in": location, "required": required,
            "schema": schema}


def expand_model_attribute(obj_type: TypeRef, model: SourceModel,
                           reg: SchemaRegistry, ctx: ClassDecl,
                           diagnostics: list[Diagnostic]) -> list[dict]:
    """One query parameter per instance field, subclass fields first."""
    cls = model.find_class(obj_type.raw_name, ctx)
    if cls is None:
        diagnostics.append(Diagnostic(
            UNRESOLVED_TYPE,
            f"model attribute type {obj_type.raw_name!r} not in source tree",
            ctx.source_file))
        return []
    params: list[dict] = []
    seen: set[str] = set()
    for level in supertype_chain(cls, model):
        for f in level.fields:
            if f.is_static or f.name in seen:
                continue
            seen.add(f.name)
            params.append(_parameter(
                f.name, "query", False,
                schema_for_type(f.type, model, reg, level)))
    return params


def extract_parameters(handler: MethodDecl, model: SourceModel,
                       reg: SchemaRegistry, ctx: ClassDecl, file: str,
                       diagnostics: list[Diagnostic]
                       ) -> tuple[list[dict], Optional[dict]]:
    """The parameter dicts and the `requestBody` dict of `handler`, its
    types named in `ctx`; diagnostics point at the handler's line in
    `file`."""
    params: list[dict] = []
    body: Optional[dict] = None
    for p in handler.parameters:
        if p.type.simple_name in SERVLET_TYPES:
            diagnostics.append(Diagnostic(
                SERVLET_PARAMETER,
                f"servlet parameter {p.name!r} of {handler.name} skipped; "
                "encapsulated parameters are not statically visible",
                file, handler.line))
            continue
        anno = find_annotation(p.annotations, PARAM_ANNOTATIONS)
        if anno is None:
            diagnostics.append(Diagnostic(
                SKIPPED_PARAMETER,
                f"parameter {p.name!r} of {handler.name} has no recognized "
                "binding annotation", file, handler.line))
            continue
        kind = anno.simple_name
        if kind == "RequestBody":
            body = {
                "content": {"application/json": {
                    "schema": schema_for_type(p.type, model, reg, ctx)}},
                "required": _attr_bool(anno, "required", True)}
            continue
        if kind == "ModelAttribute":
            params.extend(expand_model_attribute(p.type, model, reg, ctx,
                                                 diagnostics))
            continue
        name = next(iter([text for _, text in attr_strings(
            anno, ("value", "name"), "parameter name", ctx, model, file,
            handler.line, diagnostics)]), None) or p.name
        schema = schema_for_type(p.type, model, reg, ctx)
        if kind == "PathVariable":
            params.append(_parameter(name, "path", True, schema))
        else:
            required = _attr_bool(anno, "required", True) \
                and "defaultValue" not in anno.attributes
            params.append(_parameter(name, PARAM_LOCATIONS[kind], required,
                                     schema))
    return params, body


def _with_pattern(param: dict, regex: Optional[str]) -> dict:
    """`param`, or a copy of it whose schema has the regex of its path
    variable when there is one and the schema is not a $ref."""
    if not regex or "$ref" in param["schema"]:
        return param
    return {**param, "schema": {**param["schema"], "pattern": regex}}


def _bind_to_template(params: list[dict], path: str,
                      variables: dict[str, Optional[str]],
                      handler: MethodDecl, file: str,
                      diagnostics: list[Diagnostic]) -> list[dict]:
    """Make the parameters fit the path template: drop a path parameter the
    template does not name and each later parameter with an earlier one's
    (name, location), give each path parameter its variable's regex, then
    add a string path parameter for each variable that no parameter
    binds."""
    kept: list[dict] = []
    seen: set[tuple[str, str]] = set()
    for param in params:
        name, location = key = (param["name"], param["in"])
        if location == "path" and name not in variables:
            reason = f"is not a variable of path {path!r}"
        elif key in seen:
            reason = "repeats an earlier parameter"
        else:
            seen.add(key)
            if location == "path":
                # `params` is shared by every path of the handler
                param = _with_pattern(param, variables[name])
            kept.append(param)
            continue
        diagnostics.append(Diagnostic(
            SKIPPED_PARAMETER,
            f"{location} parameter {name!r} of {handler.name} {reason}",
            file, handler.line))
    for name, regex in variables.items():
        if (name, "path") in seen:
            continue
        kept.append(_with_pattern(
            _parameter(name, "path", True, primitive("string")), regex))
        diagnostics.append(Diagnostic(
            UNBOUND_PATH_VARIABLE,
            f"variable {name!r} of path {path!r} is bound by no parameter "
            f"of {handler.name}; typed as string", file, handler.line))
    return kept


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------

Holder = tuple[ClassDecl, Optional[MethodDecl]]


def _annotated_status(holders: Iterable[Holder],
                      diagnostics: list[Diagnostic]) -> Optional[str]:
    """The code of the @ResponseStatus of the first of `holders` with one,
    each a method of a class or, with None, the class itself: None without
    one, "500" when it sets neither `value` nor `code`, as `code` defaults
    to INTERNAL_SERVER_ERROR. A value that maps to no code is reported at
    the method's line, or at line 0 for a class, and gives ""."""
    for cls, method in holders:
        holder = cls if method is None else method
        if anno := find_annotation(holder.annotations, RESPONSE_STATUS):
            break
    else:
        return None
    value = anno.attributes.get("value", anno.attributes.get("code"))
    if value is None:
        return "500"
    code = isinstance(value, NameRef) and status_code_for(value.parts[-1])
    if code:
        return code
    what, line = (cls.qualified_name, 0) if method is None \
        else (method.name, method.line)
    diagnostics.append(Diagnostic(
        UNRESOLVED_STATUS, f"@ResponseStatus of {what} maps to no HTTP "
        "status code; ignored", cls.source_file, line))
    return ""


def _literal_statuses(method: MethodDecl, file: str,
                      diagnostics: list[Diagnostic]) -> set[str]:
    """The codes of the status literals in `method`'s body. Each literal
    that maps to no code is reported at the method's line in `file` and
    ignored."""
    codes: set[str] = set()
    for literal in sorted(method.body_facts.returned_status_literals):
        code = status_code_for(literal)
        if code is None:
            diagnostics.append(Diagnostic(
                UNRESOLVED_STATUS,
                f"status {literal!r} in {method.name} maps to no HTTP "
                "status code; ignored", file, method.line))
        else:
            codes.add(code)
    return codes


def _exception_handler_targets(method: MethodDecl) -> list[str]:
    anno = find_annotation(method.annotations, EXCEPTION_HANDLER)
    if anno is None:
        return []
    return [item.name for item in anno.items("value")
            if isinstance(item, ClassRef)] \
        or [p.type.raw_name for p in method.parameters]


def _ancestry(exc: str, cls: Optional[ClassDecl], model: SourceModel
              ) -> list[tuple[str, str]]:
    """`exc`, whose model class is `cls` if it has one, and its
    superclasses, nearest first, as (qualified name, simple name) pairs;
    past the model's edge the chain goes on through EXCEPTION_SUPERCLASSES,
    with no qualified name."""
    chain = supertype_chain(cls, model) if cls else []
    ancestry = [(c.qualified_name, c.simple_name) for c in chain]
    parent = chain[-1].superclass if chain else TypeRef(exc)
    outside = parent.simple_name if parent else ""
    while outside:
        ancestry.append(("", outside))
        outside = EXCEPTION_SUPERCLASSES.get(outside)
    return ancestry


def resolve_exception_status(exc: str, local: ClassDecl,
                             advices: list[ClassDecl], model: SourceModel,
                             diagnostics: list[Diagnostic]) -> str:
    """The status `exc`, named in `local`, maps to. `local`, then each
    advice, with its superclasses, is a scope; the first that handles `exc`
    decides. In it, as in Spring, the handler whose target is nearest in
    `exc`'s ancestry wins, then the first declared, subclass first. A
    target that resolves where it is declared matches a model class by
    qualified name, any other a class by simple name. A handler's
    @ResponseStatus, else the nearest in its scope's `type_hierarchy`, wins
    over its body's status, which must be unique.
    Unhandled, the nearest @ResponseStatus in the `type_hierarchy` of
    `exc`'s model class applies, else 500."""
    exc_class = model.find_class(exc, local)
    ancestry = _ancestry(exc, exc_class, model)
    for scope in [local, *advices]:
        chain = supertype_chain(scope, model)
        methods = [(cls, method) for cls in chain for method in cls.methods]
        hits = [(distance, i) for i, (cls, method) in enumerate(methods)
                for name in _exception_handler_targets(method)
                for fq in [model.resolve_type_name(name, cls)]
                for distance, (q, s) in enumerate(ancestry)
                if (q == fq if fq else s == name.rsplit(".", 1)[-1])]
        if hits:
            cls, method = methods[min(hits)[1]]
            codes = _literal_statuses(method, cls.source_file, diagnostics)
            scoped = ((c, None) for c in model.type_hierarchy(scope))
            annotated = _annotated_status(
                itertools.chain([(cls, method)], scoped), diagnostics)
            if annotated:
                return annotated
            if len(codes) == 1:
                return codes.pop()
            diagnostics.append(Diagnostic(
                UNRESOLVED_STATUS,
                f"exception handler {method.name} for {exc} has no "
                "statically readable status; assuming 500",
                cls.source_file, method.line))
            return "500"
    hierarchy = model.type_hierarchy(exc_class) if exc_class else ()
    return _annotated_status(((c, None) for c in hierarchy), diagnostics) \
        or "500"


def _success_responses(handler: MethodDecl, holders: list[Holder],
                       model: SourceModel, reg: SchemaRegistry,
                       ctx: ClassDecl, file: str,
                       diagnostics: list[Diagnostic]) -> dict[str, dict]:
    """The response of each success code of `handler`, with a body schema
    on each 1xx-3xx one; the @ResponseStatus of the first of `holders` with
    one applies to it (see `_analyze`)."""
    explicit = _literal_statuses(handler, file, diagnostics)
    annotated = _annotated_status(holders, diagnostics)
    success = set(explicit)
    if not explicit or handler.body_facts.has_plain_return \
            or annotated is not None:
        success.add(annotated or "200")

    return_type = unwrap_response_wrapper(handler.return_type)
    content: Optional[dict] = None
    if return_type.raw_name not in ("void", "Void") and not (
            return_type.simple_name == "Object"
            and return_type.array_depth == 0):
        content = {"application/json": {
            "schema": schema_for_type(return_type, model, reg, ctx)}}

    responses: dict[str, dict] = {}
    for code in sorted(success):
        responses[code] = {"description": reason_phrase(code)}
        if content and code.startswith(("1", "2", "3")):
            responses[code]["content"] = content
    return responses


def extract_responses(handler: MethodDecl, success: dict[str, dict],
                      advices: list[ClassDecl], model: SourceModel,
                      ctx: ClassDecl, diagnostics: list[Diagnostic]
                      ) -> dict[str, dict]:
    """The `responses` dict of `handler` under `advices`, in code order: its
    `success` responses and the codes its exceptions map to, as named in
    `ctx`, through `ctx`'s and then the `advices`' exception handlers."""
    codes = set(success)
    error_sources = set(handler.declared_throws) \
        | handler.body_facts.thrown_exception_types
    for exc in sorted(error_sources):
        codes.add(resolve_exception_status(exc, ctx, advices, model,
                                           diagnostics))
    return {code: success.get(code) or {"description": reason_phrase(code)}
            for code in sorted(codes)}


# ---------------------------------------------------------------------------
# Endpoint extraction
# ---------------------------------------------------------------------------

class HandlerAnalysis(Record):
    """What a handler gives every profile: each path's operation less
    `responses`, and by a profile's advice names each finished operation."""
    __slots__ = ("method", "file", "verbs", "operations", "success",
                 "finished")

    def __init__(self, method: MethodDecl, file: str, verbs: list[str],
                 operations: list[tuple[str, dict]],
                 success: dict[str, dict]):
        self.method = method
        self.file = file  # of the class that declares it, for diagnostics
        self.verbs = verbs
        self.operations = operations
        self.success = success
        self.finished: dict[tuple[str, ...], list[tuple[str, dict]]] = {}


def _analyze(controller: ClassDecl, model: SourceModel, reg: SchemaRegistry,
             diagnostics: list[Diagnostic]) -> list[HandlerAnalysis]:
    """Each handler of the hierarchy, in the order its mapping is found, under
    the type-level mapping of the nearest class with one. A signature's
    handler is its nearest declaration. Its mapping and @ResponseStatus are
    the nearest declared, each named in its class, as Spring finds them on
    overridden methods; an unannotated parameter takes the mapped one's.
    Without a declared @ResponseStatus, the nearest in the controller's
    `type_hierarchy` applies."""
    type_level = None
    declarations: dict[tuple, list[Holder]] = {}  # sig -> nearest first
    mapped: dict[tuple, tuple[ClassDecl, MethodDecl, AnnotationUse]] = {}
    for cls in supertype_chain(controller, model):
        if type_level is None and (anno := find_annotation(
                cls.annotations, REQUEST_MAPPING)):
            type_level = _mapping(anno, cls, 0, model, diagnostics)
        for method in cls.methods:
            sig = (method.name, tuple((p.type.simple_name, p.type.array_depth)
                                      for p in method.parameters))
            declarations.setdefault(sig, []).append((cls, method))
            if sig not in mapped and (anno := find_annotation(
                    method.annotations, MAPPING_ANNOTATIONS)):
                mapped[sig] = (cls, method, anno)
    base_paths, base_verbs = type_level or ([""], None)
    beans = [(c, None) for c in model.type_hierarchy(controller)]

    handlers: list[HandlerAnalysis] = []
    for sig, (cls, declaration, anno) in mapped.items():
        owner, handler = declarations[sig][0]
        if handler is not declaration:
            handler = replace(handler, parameters=tuple(
                replace(p, annotations=p.annotations or q.annotations)
                for p, q in zip(handler.parameters, declaration.parameters)))
        file = owner.source_file
        method_paths, verbs = _mapping(anno, cls, declaration.line, model,
                                       diagnostics)
        # as in Spring: paths by product, verbs by union
        verbs = list(HTTP_VERBS) if base_verbs is verbs is None else \
            list(dict.fromkeys((base_verbs or []) + (verbs or [])))
        params, body = extract_parameters(handler, model, reg, controller,
                                          file, diagnostics)
        with_body = {} if body is None else {"requestBody": body}
        operations = []
        for base in base_paths:
            for raw_path in method_paths:
                path, variables = split_template(normalize_path(
                    base, raw_path), file, handler.line, diagnostics)
                path_params = _bind_to_template(params, path, variables,
                                                handler, file, diagnostics)
                operations.append((path, {"parameters": path_params,
                                          **with_body}
                                   if path_params else with_body))
        # After the parameters, so schema names are allocated in the order
        # the golden corpus fixes.
        handlers.append(HandlerAnalysis(handler, file, verbs, operations, (
            _success_responses(handler, declarations[sig] + beans, model,
                               reg, controller, file, diagnostics))))
    return handlers


def extract_endpoints(unit: ProfileUnit, model: SourceModel,
                      reg: SchemaRegistry,
                      analyses: dict[str, list[HandlerAnalysis]],
                      diagnostics: list[Diagnostic]
                      ) -> dict[tuple[str, str], dict]:
    """The operation dict of each (path, VERB) of `unit`, in the order the
    handlers are found; a later handler of a taken (path, VERB) is dropped
    with DUPLICATE_METHOD. Each controller is analyzed once, into `analyses`
    by qualified name, and each handler finished once per advice list."""
    operations: dict[tuple[str, str], dict] = {}
    advices = unit.controller_set.advices
    advice_names = tuple(advice.qualified_name for advice in advices)
    for controller in unit.controller_set.controllers:
        key = controller.qualified_name
        if key not in analyses:
            analyses[key] = _analyze(controller, model, reg, diagnostics)
        for handler in analyses[key]:
            if advice_names not in handler.finished:
                responses = extract_responses(handler.method, handler.success,
                                              advices, model, controller,
                                              diagnostics)
                handler.finished[advice_names] = [
                    (path, {**template, "responses": responses})
                    for path, template in handler.operations]
            for path, operation in handler.finished[advice_names]:
                for verb in handler.verbs:
                    if (path, verb) in operations:
                        diagnostics.append(Diagnostic(
                            DUPLICATE_METHOD, f"duplicate operation {verb} "
                            f"{path} in profile {unit.profile_name!r}",
                            handler.file, handler.method.line))
                        continue
                    operations[path, verb] = operation
    return operations
