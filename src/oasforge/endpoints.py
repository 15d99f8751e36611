"""Extract (path, verb) operations with parameters and responses from the
controller classes of one profile unit."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .diagnostics import (BAD_PATH_SEGMENT, Diagnostic, DUPLICATE_METHOD,
                          SERVLET_PARAMETER, SKIPPED_PARAMETER,
                          UNBOUND_PATH_VARIABLE, UNRESOLVED_CONSTANT,
                          UNRESOLVED_STATUS, UNRESOLVED_TYPE)
from .discovery import ProfileUnit
from .javasrc import (AnnotationUse, ArrayVal, AttributeValue, ClassDecl,
                      ClassRef, IntLit, MethodDecl, NameRef, SourceModel,
                      StrLit, TypeRef, resolve_string_constant,
                      supertype_chain)
from .schemas import (SchemaNode, SchemaRegistry, UNSPECIFIED, primitive,
                      schema_for_type, unwrap_response_wrapper)
from .spring import (HTTP_VERBS, MAPPING_ANNOTATIONS, PARAM_ANNOTATIONS,
                     REQUEST_MAPPING, SERVLET_TYPES, VERB_MAPPINGS,
                     find_annotation, status_code_for)


@dataclass
class ParameterDesc:
    name: str
    location: str  # path | query | header
    required: bool
    schema: SchemaNode
    pattern: Optional[str] = None


@dataclass
class RequestBodyDesc:
    schema: SchemaNode
    required: bool = True


@dataclass
class ResponseDesc:
    status: str
    schema: Optional[SchemaNode] = None


@dataclass
class EndpointMethod:
    path: str
    verb: str
    handler: MethodDecl
    controller: ClassDecl
    parameters: list[ParameterDesc] = field(default_factory=list)
    request_body: Optional[RequestBodyDesc] = None
    responses: list[ResponseDesc] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

def normalize_path(*parts: str) -> str:
    segments = [seg for part in parts for seg in part.split("/") if seg]
    return "/" + "/".join(segments)


def split_path_pattern(segment: str, diagnostics: list[Diagnostic]
                       ) -> tuple[str, Optional[tuple[str, str]]]:
    """Strip an inline regex constraint from one path segment.

    "{id:[0-9]+}" becomes ("{id}", ("id", "[0-9]+")); plain segments pass
    through unchanged.
    """
    if not (segment.startswith("{") and ":" in segment):
        return segment, None
    if not segment.endswith("}") or segment.count("{") != segment.count("}"):
        diagnostics.append(Diagnostic(
            BAD_PATH_SEGMENT,
            f"unbalanced braces in path segment {segment!r}"))
        return segment, None
    inner = segment[1:-1]
    name, _, regex = inner.partition(":")
    return "{" + name + "}", (name, regex)


def _split_template(joined: str, diagnostics: list[Diagnostic]
                    ) -> tuple[str, dict[str, str]]:
    """The path template without inline regexes, and each variable's
    regex."""
    constraints: dict[str, str] = {}
    clean_segments = []
    for segment in joined.split("/"):
        clean, constraint = split_path_pattern(segment, diagnostics)
        clean_segments.append(clean)
        if constraint:
            constraints[constraint[0]] = constraint[1]
    return normalize_path("/".join(clean_segments)), constraints


# ---------------------------------------------------------------------------
# Mapping annotations
# ---------------------------------------------------------------------------

def _string_values(value: AttributeValue, ctx: ClassDecl, model: SourceModel,
                   diagnostics: list[Diagnostic]) -> list[str]:
    items = value.items if isinstance(value, ArrayVal) else (value,)
    out: list[str] = []
    for item in items:
        resolved = resolve_string_constant(item, ctx, model)
        if resolved is None:
            raw = _raw_token(item)
            diagnostics.append(Diagnostic(
                UNRESOLVED_CONSTANT,
                f"cannot resolve path constant {raw!r} in {ctx.qualified_name}",
                ctx.source_file))
            out.append(raw)
        else:
            out.append(resolved)
    return out


def _raw_token(value: AttributeValue) -> str:
    if isinstance(value, StrLit):
        return value.value
    if isinstance(value, NameRef):
        return ".".join(value.parts)
    return str(value)


def _mapping_paths(anno: AnnotationUse, ctx: ClassDecl, model: SourceModel,
                   diagnostics: list[Diagnostic]) -> list[str]:
    for attr in ("value", "path"):
        if attr in anno.attributes:
            paths = _string_values(anno.attributes[attr], ctx, model,
                                   diagnostics)
            if paths:
                return paths
    return [""]


def _mapping_verbs(anno: AnnotationUse) -> list[str]:
    if anno.simple_name in VERB_MAPPINGS:
        return [VERB_MAPPINGS[anno.simple_name]]
    value = anno.attributes.get("method")
    if value is None:
        return list(HTTP_VERBS)
    items = value.items if isinstance(value, ArrayVal) else (value,)
    verbs = []
    for item in items:
        if isinstance(item, NameRef):
            candidate = item.parts[-1]
            if candidate in HTTP_VERBS:
                verbs.append(candidate)
    return verbs or list(HTTP_VERBS)


def _find_mapping(method: MethodDecl, cls: ClassDecl
                  ) -> Optional[AnnotationUse]:
    for name in MAPPING_ANNOTATIONS:
        anno = find_annotation(method.annotations, name, cls)
        if anno is not None:
            return anno
    return None


def _class_base_paths(chain: list[ClassDecl], model: SourceModel,
                      diagnostics: list[Diagnostic]) -> list[str]:
    for cls in chain:  # nearest class in the hierarchy wins
        anno = find_annotation(cls.annotations, REQUEST_MAPPING, cls)
        if anno is not None:
            return _mapping_paths(anno, cls, model, diagnostics)
    return [""]


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

def _attr_string(anno: AnnotationUse, names: tuple[str, ...],
                 ctx: ClassDecl, model: SourceModel) -> Optional[str]:
    for attr in names:
        value = anno.attributes.get(attr)
        if value is not None:
            return resolve_string_constant(value, ctx, model)
    return None


def _attr_bool(anno: AnnotationUse, attr: str, default: bool) -> bool:
    value = anno.attributes.get(attr)
    if value is None:
        return default
    from .javasrc import BoolLit
    if isinstance(value, BoolLit):
        return value.value
    return default


def expand_model_attribute(obj_type: TypeRef, model: SourceModel,
                           reg: SchemaRegistry, ctx: ClassDecl,
                           diagnostics: list[Diagnostic]
                           ) -> list[ParameterDesc]:
    """One query parameter per instance field, subclass fields first."""
    cls = model.find_class(obj_type.raw_name, ctx)
    if cls is None:
        diagnostics.append(Diagnostic(
            UNRESOLVED_TYPE,
            f"model attribute type {obj_type.raw_name!r} not in source tree",
            ctx.source_file))
        return []
    params: list[ParameterDesc] = []
    seen: set[str] = set()
    for level in supertype_chain(cls, model):
        for f in level.fields:
            if f.is_static or f.name in seen:
                continue
            seen.add(f.name)
            params.append(ParameterDesc(
                name=f.name, location="query", required=False,
                schema=schema_for_type(f.type, model, reg, level)))
    return params


def extract_parameters(handler: MethodDecl, model: SourceModel,
                       reg: SchemaRegistry, ctx: ClassDecl,
                       constraints: dict[str, str],
                       diagnostics: list[Diagnostic]
                       ) -> tuple[list[ParameterDesc], Optional[RequestBodyDesc]]:
    params: list[ParameterDesc] = []
    body: Optional[RequestBodyDesc] = None
    for p in handler.parameters:
        if p.type.simple_name in SERVLET_TYPES:
            diagnostics.append(Diagnostic(
                SERVLET_PARAMETER,
                f"servlet parameter {p.name!r} of {handler.name} skipped; "
                "encapsulated parameters are not statically visible",
                ctx.source_file, handler.line))
            continue
        anno = None
        for name in PARAM_ANNOTATIONS:
            anno = find_annotation(p.annotations, name, ctx)
            if anno is not None:
                break
        if anno is None:
            diagnostics.append(Diagnostic(
                SKIPPED_PARAMETER,
                f"parameter {p.name!r} of {handler.name} has no recognized "
                "binding annotation",
                ctx.source_file, handler.line))
            continue
        kind = anno.simple_name
        if kind == "RequestBody":
            body = RequestBodyDesc(
                schema=schema_for_type(p.type, model, reg, ctx),
                required=_attr_bool(anno, "required", True))
            continue
        if kind == "ModelAttribute":
            params.extend(expand_model_attribute(p.type, model, reg, ctx,
                                                 diagnostics))
            continue
        name = _attr_string(anno, ("value", "name"), ctx, model) or p.name
        if kind == "PathVariable":
            params.append(ParameterDesc(
                name=name, location="path", required=True,
                schema=schema_for_type(p.type, model, reg, ctx),
                pattern=constraints.get(name)))
        else:  # RequestParam or RequestHeader
            required = _attr_bool(anno, "required", True) \
                and "defaultValue" not in anno.attributes
            params.append(ParameterDesc(
                name=name,
                location="query" if kind == "RequestParam" else "header",
                required=required,
                schema=schema_for_type(p.type, model, reg, ctx)))
    return params, body


_TEMPLATE_VARIABLE = re.compile(r"\{([^{}]+)\}")


def _bind_to_template(params: list[ParameterDesc], path: str,
                      constraints: dict[str, str], handler: MethodDecl,
                      ctx: ClassDecl, diagnostics: list[Diagnostic]
                      ) -> list[ParameterDesc]:
    """Make the parameters fit the path template: drop a path parameter the
    template does not name and each later parameter with an earlier one's
    (name, location), then add a string path parameter for each template
    variable that no parameter binds."""
    template = _TEMPLATE_VARIABLE.findall(path)
    kept: list[ParameterDesc] = []
    seen: set[tuple[str, str]] = set()
    for param in params:
        key = (param.name, param.location)
        if param.location == "path" and param.name not in template:
            reason = f"is not a variable of path {path!r}"
        elif key in seen:
            reason = "repeats an earlier parameter"
        else:
            seen.add(key)
            kept.append(param)
            continue
        diagnostics.append(Diagnostic(
            SKIPPED_PARAMETER,
            f"{param.location} parameter {param.name!r} of {handler.name} "
            f"{reason}", ctx.source_file, handler.line))
    for name in template:
        if (name, "path") in seen:
            continue
        seen.add((name, "path"))
        kept.append(ParameterDesc(name, "path", True, primitive("string"),
                                  constraints.get(name)))
        diagnostics.append(Diagnostic(
            UNBOUND_PATH_VARIABLE,
            f"variable {name!r} of path {path!r} is bound by no parameter "
            f"of {handler.name}; typed as string",
            ctx.source_file, handler.line))
    return kept


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------

def _response_status_code(anno: AnnotationUse) -> Optional[str]:
    for attr in ("value", "code"):
        value = anno.attributes.get(attr)
        if isinstance(value, NameRef):
            return status_code_for(value.parts[-1])
        if isinstance(value, IntLit):
            return status_code_for(str(value.value))
    return None


def _exception_handler_targets(method: MethodDecl, cls: ClassDecl
                               ) -> list[str]:
    anno = find_annotation(method.annotations, "ExceptionHandler", cls)
    if anno is None:
        return []
    value = anno.attributes.get("value")
    targets: list[str] = []
    if value is not None:
        items = value.items if isinstance(value, ArrayVal) else (value,)
        for item in items:
            if isinstance(item, ClassRef):
                targets.append(item.name)
    if not targets:
        for p in method.parameters:
            targets.append(p.type.raw_name)
    return targets


def _exception_matches(declared: str, thrown: str, ctx: ClassDecl,
                       model: SourceModel) -> bool:
    """Whether a handler for `declared` catches `thrown`, both as named in
    `ctx`. A name outside the model is compared by its simple name."""
    d_simple = declared.rsplit(".", 1)[-1]
    thrown_cls = model.find_class(thrown, ctx)
    if thrown_cls is None:
        return d_simple == thrown.rsplit(".", 1)[-1]
    declared_fq = model.resolve_type_name(declared, ctx)
    return any(c.qualified_name == declared_fq if declared_fq
               else c.simple_name == d_simple
               for c in supertype_chain(thrown_cls, model))


def resolve_exception_status(exc: str, local: ClassDecl,
                             advices: list[ClassDecl], model: SourceModel,
                             diagnostics: list[Diagnostic]) -> str:
    """Local @ExceptionHandler methods win over advice handlers; no match
    means 500."""
    scopes = [local] + list(advices)
    for scope in scopes:
        for method in scope.methods:
            targets = _exception_handler_targets(method, scope)
            if not targets:
                continue
            if not any(_exception_matches(t, exc, scope, model)
                       for t in targets):
                continue
            anno = find_annotation(method.annotations, "ResponseStatus", scope)
            if anno is not None:
                code = _response_status_code(anno)
                if code is not None:
                    return code
            body_codes = {status_code_for(s)
                          for s in method.body_facts.returned_status_literals}
            body_codes.discard(None)
            if len(body_codes) == 1:
                return body_codes.pop()  # type: ignore[return-value]
            diagnostics.append(Diagnostic(
                UNRESOLVED_STATUS,
                f"exception handler {method.name} for {exc} has no "
                "statically readable status; assuming 500",
                scope.source_file, method.line))
            return "500"
    return "500"


def extract_responses(handler: MethodDecl, unit: ProfileUnit,
                      model: SourceModel, reg: SchemaRegistry,
                      ctx: ClassDecl, diagnostics: list[Diagnostic]
                      ) -> list[ResponseDesc]:
    facts = handler.body_facts
    explicit: set[str] = set()
    for literal in sorted(facts.returned_status_literals):
        code = status_code_for(literal)
        if code is None:
            diagnostics.append(Diagnostic(
                UNRESOLVED_STATUS,
                f"status {literal!r} in {handler.name} maps to no HTTP "
                "status code; ignored", ctx.source_file, handler.line))
        else:
            explicit.add(code)

    anno = find_annotation(handler.annotations, "ResponseStatus", ctx)
    default_code = "200"
    if anno is not None:
        code = _response_status_code(anno)
        if code is None and anno.attributes.keys() & {"value", "code"}:
            diagnostics.append(Diagnostic(
                UNRESOLVED_STATUS,
                f"@ResponseStatus of {handler.name} maps to no HTTP status "
                "code; assuming 200", ctx.source_file, handler.line))
        default_code = code or "200"

    success: set[str] = set(explicit)
    if not explicit or facts.has_plain_return or anno is not None:
        success.add(default_code)

    return_type = unwrap_response_wrapper(handler.return_type)
    schema: Optional[SchemaNode] = None
    if return_type.raw_name not in ("void", "Void"):
        schema = schema_for_type(return_type, model, reg, ctx)
        if schema is UNSPECIFIED and return_type.simple_name == "Object":
            schema = None

    responses: dict[str, ResponseDesc] = {}
    for code in sorted(success):
        body_schema = schema if code.startswith(("1", "2", "3")) else None
        responses[code] = ResponseDesc(code, body_schema)

    error_sources = set(handler.declared_throws) | facts.thrown_exception_types
    for exc in sorted(error_sources):
        code = resolve_exception_status(exc, ctx,
                                        unit.controller_set.advices, model,
                                        diagnostics)
        if code not in responses:
            responses[code] = ResponseDesc(code, None)
    return [responses[c] for c in sorted(responses)]


# ---------------------------------------------------------------------------
# Endpoint extraction
# ---------------------------------------------------------------------------

def _handlers(chain: list[ClassDecl]) -> list[tuple[ClassDecl, MethodDecl]]:
    """Mapped methods across the hierarchy; overriding subclass wins."""
    out: list[tuple[ClassDecl, MethodDecl]] = []
    seen: set[tuple] = set()
    for cls in chain:
        for method in cls.methods:
            sig = (method.name, tuple((p.type.simple_name, p.type.array_depth)
                                      for p in method.parameters))
            if sig in seen:
                continue
            seen.add(sig)
            if _find_mapping(method, cls) is not None:
                out.append((cls, method))
    return out


def extract_endpoints(unit: ProfileUnit, model: SourceModel,
                      reg: SchemaRegistry, diagnostics: list[Diagnostic]
                      ) -> list[EndpointMethod]:
    endpoints: list[EndpointMethod] = []
    seen: dict[tuple[str, str], EndpointMethod] = {}
    for controller in unit.controller_set.controllers:
        chain = supertype_chain(controller, model)
        base_paths = _class_base_paths(chain, model, diagnostics)
        for owner, handler in _handlers(chain):
            anno = _find_mapping(handler, owner)
            assert anno is not None
            method_paths = _mapping_paths(anno, owner, model, diagnostics)
            verbs = _mapping_verbs(anno)
            per_path = []
            for base in base_paths:
                for raw_path in method_paths:
                    path, constraints = _split_template(
                        normalize_path(base, raw_path), diagnostics)
                    params, body = extract_parameters(
                        handler, model, reg, controller, constraints,
                        diagnostics)
                    params = _bind_to_template(params, path, constraints,
                                               handler, controller,
                                               diagnostics)
                    per_path.append((path, params, body))
            # After the parameters, so schema names are allocated in the
            # order the golden corpus fixes.
            responses = extract_responses(handler, unit, model, reg,
                                          controller, diagnostics)
            for path, params, body in per_path:
                for verb in verbs:
                    key = (path, verb)
                    if key in seen:
                        diagnostics.append(Diagnostic(
                            DUPLICATE_METHOD,
                            f"duplicate operation {verb} {path} in "
                            f"profile {unit.profile_name!r}",
                            controller.source_file, handler.line))
                        continue
                    endpoint = EndpointMethod(
                        path=path, verb=verb, handler=handler,
                        controller=controller, parameters=list(params),
                        request_body=body, responses=list(responses))
                    seen[key] = endpoint
                    endpoints.append(endpoint)
    return endpoints
