"""Seeded generator of Spring-like source trees and their ground truth.

Each workload builds a `Corpus`: the Java files of one project, the
command-line flags `oasforge generate` runs with, and a ground truth in the
format `oasforge evaluate --gt` reads. The truth is derived from the
generator's own specification of every endpoint (paths, verbs, bound
parameters, request-body fields through inheritance, response statuses
through exception advice), never from oasforge output.

The same (workload, seed, scale) always gives byte-identical files. The seed
changes names, paths, field types and which handlers throw what; the scale
fixes the number of classes, so every seed does the same amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

ALL_VERBS = ("GET", "POST", "PUT", "DELETE", "PATCH", "HEAD", "OPTIONS")

# Default scales, sized so one `oasforge generate` takes about two seconds
# on a 2-core x86 VM. Tests use tiny scales.
DEFAULT_SCALE = {
    "profile-fanout": 240,
    "model-graph": 1200,
    "monorepo-sparse": 900,
}

# Controllers per model-graph tree and chain length of profile-fanout DTOs.
MODEL_GRAPH_CONTROLLERS = 20
CHAIN_LENGTH = 20
# model-graph DTO reference depth; schema building recurses once per level.
MODEL_GRAPH_LEVELS = 20

NOUNS = (
    "Order", "Invoice", "Customer", "Account", "Payment", "Shipment",
    "Product", "Ticket", "Booking", "Vendor", "Report", "Contract", "Asset",
    "Device", "Policy", "Claim", "Tenant", "Project", "Task", "Message",
    "Refund", "Coupon", "Review", "Station", "Route", "Parcel", "Ledger",
    "Quote", "Budget", "Sensor", "Badge", "Course", "Lesson", "Member",
    "Folder", "Ballot", "Cargo", "Recipe", "Voucher", "Warrant",
)
SUFFIXES = ("Info", "Line", "Entry", "Part", "Ref", "Summary", "Item",
            "Note", "Spec", "Record", "Slot", "Stats")
ORGS = ("acme", "globex", "initech", "umbrella", "hooli", "stark", "wayne",
        "wonka", "tyrell", "cyberdyne")
PROFILE_NAMES = ("eu", "us", "apac", "staging", "internal", "partner",
                 "legacy", "beta")
DOMAINS = ("billing", "catalog", "shipping", "identity", "support",
           "pricing", "inventory", "audit", "loyalty", "media")
MODULES = ("core", "batch", "report", "sync", "notify", "search", "ingest",
           "export", "cache", "metrics", "scheduler", "gateway")

# (java type, imports) of simple DTO fields; every one maps to an inline
# schema, so none of them needs a named schema or a class lookup.
SIMPLE_FIELDS = (
    ("String", ()), ("int", ()), ("long", ()), ("boolean", ()),
    ("Integer", ()), ("Double", ()),
    ("BigDecimal", ("java.math.BigDecimal",)),
    ("LocalDate", ("java.time.LocalDate",)),
    ("Instant", ("java.time.Instant",)),
    ("UUID", ("java.util.UUID",)),
    ("List<String>", ("java.util.List",)),
    ("Set<Long>", ("java.util.Set",)),
)
FIELD_WORDS = (
    "title", "quantity", "amount", "price", "active", "dueDate", "createdAt",
    "reference", "note", "rank", "ratio", "tags", "label", "code", "weight",
    "score", "status", "owner", "region", "channel", "origin", "level",
    "comment", "priority", "total", "currency", "locale", "source", "target",
    "summary", "flags", "limit",
)
# Library types that are not in any generated tree; each one forces a
# model-wide simple-name lookup in oasforge.
LIBRARY_FIELDS = (
    ("URI", "java.net.URI", "link"),
    ("Duration", "java.time.Duration", "timeout"),
    ("Optional<String>", "java.util.Optional", "alias"),
)

SPRING_WEB = "org.springframework.web.bind.annotation.*"


class Truth:
    """Ground truth as flat (path, verb[, name|status]) sets."""

    def __init__(self):
        self.methods: set[tuple[str, str]] = set()
        self.parameters: set[tuple[str, str, str]] = set()
        self.responses: set[tuple[str, str, str]] = set()

    def add(self, path: str, verbs, params, statuses):
        for verb in verbs:
            self.methods.add((path, verb))
            for name in params:
                self.parameters.add((path, verb, name))
            for status in statuses:
                self.responses.add((path, verb, status))

    def as_json(self) -> dict:
        return {
            "methods": [{"path": p, "verb": v}
                        for p, v in sorted(self.methods)],
            "parameters": [{"path": p, "verb": v, "name": n}
                           for p, v, n in sorted(self.parameters)],
            "responses": [{"path": p, "verb": v, "status": s}
                          for p, v, s in sorted(self.responses)],
        }


@dataclass
class Corpus:
    workload: str
    seed: int
    scale: int
    flags: list[str]
    files: dict[str, str] = field(default_factory=dict)  # relpath -> text
    truth: Truth = field(default_factory=Truth)
    classes: int = 0

    def add_java(self, package: str, name: str, imports, body: str,
                 classes: int = 1):
        lines = [f"package {package};", ""]
        lines += [f"import {imp};" for imp in sorted(set(imports))]
        if imports:
            lines.append("")
        path = "src/main/java/" + package.replace(".", "/") + f"/{name}.java"
        self.files[path] = "\n".join(lines) + body
        self.classes += classes

    def size(self) -> dict:
        return {"files": len(self.files),
                "bytes": sum(len(t.encode("utf-8"))
                             for t in self.files.values()),
                "classes": self.classes}

    def write(self, root: Path):
        """Write the project under `root`; the truth is not part of it."""
        for rel, text in self.files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(text.encode("utf-8"))

    def truth_bytes(self) -> bytes:
        return (json.dumps(self.truth.as_json(), indent=1) + "\n").encode()


def _indent(text: str, depth: int = 1) -> str:
    pad = "    " * depth
    return "\n".join(pad + line if line else line
                     for line in text.strip("\n").split("\n"))


def _field_decl(jtype: str, name: str, annotations=()) -> str:
    annos = "".join(f"@{a} " for a in annotations)
    return f"    {annos}private {jtype} {name};"


def _getter(jtype: str, name: str) -> str:
    return (f"    public {jtype} get{name[0].upper()}{name[1:]}() {{\n"
            f"        return {name};\n    }}")


def _kebab(word: str) -> str:
    return "".join("-" + c.lower() if c.isupper() else c
                   for c in word).lstrip("-")


def _simple_fields(rng: random.Random, count: int, taken: set[str]
                   ) -> list[tuple[str, str, tuple]]:
    """`count` (type, name, imports) fields with names not in `taken`."""
    out = []
    for word in rng.sample([w for w in FIELD_WORDS if w not in taken], count):
        jtype, imports = rng.choice(SIMPLE_FIELDS)
        out.append((jtype, word, imports))
        taken.add(word)
    return out


# ---------------------------------------------------------------------------
# Shared error types and advice
# ---------------------------------------------------------------------------

def _errors(corpus: Corpus, pkg: str, handlers: dict[str, str]):
    """Exception classes under `pkg` and one advice mapping them.

    `handlers` maps exception name to the HttpStatus constant the advice
    answers with. The first exception is signalled with @ResponseStatus,
    the rest with a ResponseEntity built in the handler body.
    """
    for name in handlers:
        corpus.add_java(pkg, name, (), f"""
public class {name} extends RuntimeException {{

    public {name}(String message) {{
        super(message);
    }}
}}
""")
    corpus.add_java(pkg, "ErrorBody", (), """
public class ErrorBody {

    private final String message;
    private final long timestamp = System.currentTimeMillis();

    public ErrorBody(String message) {
        this.message = message;
    }

    public String getMessage() {
        return message;
    }
}
""")
    methods = []
    for i, (name, status) in enumerate(handlers.items()):
        handler = name[0].lower() + name[1:].replace("Exception", "")
        if i == 0:
            methods.append(f"""
    @ExceptionHandler({name}.class)
    @ResponseStatus(HttpStatus.{status})
    public ErrorBody {handler}({name} ex) {{
        return new ErrorBody(ex.getMessage());
    }}""")
        else:
            methods.append(f"""
    @ExceptionHandler({name}.class)
    public ResponseEntity<ErrorBody> {handler}({name} ex) {{
        log.warn("rejected: {{}}", ex.getMessage());
        return ResponseEntity.status(HttpStatus.{status})
                .body(new ErrorBody(ex.getMessage()));
    }}""")
    corpus.add_java(pkg, "ApiErrorAdvice", (
        "org.springframework.http.HttpStatus",
        "org.springframework.http.ResponseEntity",
        "org.slf4j.Logger", "org.slf4j.LoggerFactory", SPRING_WEB), f"""
@RestControllerAdvice
public class ApiErrorAdvice {{

    private static final Logger log = LoggerFactory.getLogger(ApiErrorAdvice.class);
{"".join(methods)}
}}
""")


# ---------------------------------------------------------------------------
# profile-fanout
# ---------------------------------------------------------------------------

def _profile_fanout(corpus: Corpus, rng: random.Random, n: int):
    """N controllers over one shared Paths class, a third of them behind
    one of four profiles, each owning one DTO in a chain of 20 over ten
    base classes."""
    root = f"com.{rng.choice(ORGS)}"
    common, errors, model, web = (f"{root}.common", f"{root}.errors",
                                  f"{root}.model", f"{root}.web")
    profiles = rng.sample(PROFILE_NAMES, 4)
    api = rng.choice(("/api", "/api/v1", "/api/v2", "/rest"))
    statuses = {"NotFoundException": "NOT_FOUND",
                "ConflictException": "CONFLICT"}
    _errors(corpus, errors, statuses)
    status_code = {"NotFoundException": "404", "ConflictException": "409"}

    # Entity <- ten bases <- N DTOs; body fields expand through all three.
    corpus.add_java(model, "Entity", (), """
public abstract class Entity {

    private static final long serialVersionUID = 1L;

    private Long id;
    private int version;

    public Long getId() {
        return id;
    }
}
""")
    entity_fields = ["id", "version"]
    bases = []
    base_nouns = rng.sample(("Audited", "Tracked", "Owned", "Versioned",
                             "Tagged", "Scoped", "Signed", "Archived",
                             "Shared", "Ranked", "Priced", "Dated"), 10)
    for noun in base_nouns:
        name = f"{noun}Record"
        taken = set(entity_fields)
        fields = _simple_fields(rng, 2, taken)
        imports = [imp for _, _, imps in fields for imp in imps]
        body = "\n".join(_field_decl(t, f) for t, f, _ in fields)
        corpus.add_java(model, name, imports, f"""
public abstract class {name} extends Entity {{

{body}
}}
""")
        bases.append((name, entity_fields + [f for _, f, _ in fields]))

    nouns = [rng.choice(NOUNS) for _ in range(n)]
    dto_names = [f"{nouns[i]}{i}Dto" for i in range(n)]
    dto_fields: list[list[str]] = []
    for i in range(n):
        base_name, inherited = rng.choice(bases)
        taken = set(inherited)
        fields = _simple_fields(rng, rng.randint(3, 5), taken)
        imports = [imp for _, _, imps in fields for imp in imps]
        decls = [_field_decl(t, f, ("NotNull",) if rng.random() < 0.3 else ())
                 for t, f, _ in fields]
        own = [f for _, f, _ in fields]
        if i % CHAIN_LENGTH < CHAIN_LENGTH - 1 and i + 1 < n:
            decls.append(_field_decl(dto_names[i + 1], "next"))
            own.append("next")
        getter = _getter(fields[0][0], fields[0][1])
        corpus.add_java(model, dto_names[i],
                        imports + ["javax.validation.constraints.NotNull"], f"""
public class {dto_names[i]} extends {base_name} {{

    private static final long serialVersionUID = {i + 1}L;

{chr(10).join(decls)}

{getter}
}}
""")
        dto_fields.append(own + inherited)

    # Shared path constants: every class path is API + "/<segment>".
    consts = []
    segments = []
    for i in range(n):
        const = f"{nouns[i].upper()}_{i}"
        segment = f"{_kebab(nouns[i])}s-{i}"
        consts.append(const)
        segments.append(segment)
    lines = [f'    public static final String API = "{api}";',
             '    public static final String BY_ID = "/{id:[0-9]+}";',
             '    public static final String RAW = "/raw";']
    lines += [f'    public static final String {c} = API + "/{s}";'
              for c, s in zip(consts, segments)]
    corpus.add_java(common, "Paths", (), f"""
public final class Paths {{

    private Paths() {{
    }}

{chr(10).join(lines)}
}}
""")

    profiled = rng.sample(range(n), n // 3)
    profile_of = {c: profiles[k % 4] for k, c in enumerate(sorted(profiled))}
    conflict = set(rng.sample(range(n), n // 2))
    unhandled = set(rng.sample(range(n), n // 4))
    headers = ("X-Tenant", "X-Request-Id", "X-Client", "X-Region")
    for i in range(n):
        dto = dto_names[i]
        name = f"{nouns[i]}{i}Controller"
        header = rng.choice(headers)
        path_var = ('@PathVariable("id") long id' if rng.random() < 0.5
                    else "@PathVariable long id")
        profile = (f'\n@Profile("{profile_of[i]}")' if i in profile_of
                   else "")
        get_body = [f"{dto} found = store.get(id);",
                    "if (found == null) {",
                    f'    throw new NotFoundException("no {nouns[i].lower()} " + id);',
                    "}"]
        if i in unhandled:
            get_body += ["if (!tenant.equals(found.toString())) {",
                         '    throw new IllegalStateException("tenant mismatch");',
                         "}"]
        get_body.append("return found;")
        post_body = []
        if i in conflict:
            post_body += ["if (store.containsKey(body.getId())) {",
                          '    throw new ConflictException("duplicate");',
                          "}"]
        post_body += ["store.put(body.getId(), body);", "return body;"]
        corpus.add_java(web, name, (
            f"{common}.Paths", f"{errors}.NotFoundException",
            f"{errors}.ConflictException", f"{model}.{dto}",
            "java.util.HashMap", "java.util.Map",
            "javax.servlet.http.HttpServletRequest",
            "org.springframework.context.annotation.Profile",
            "org.springframework.http.HttpStatus", SPRING_WEB), f"""
@RestController
@RequestMapping(Paths.{consts[i]}){profile}
public class {name} {{

    private final Map<Long, {dto}> store = new HashMap<>();

    @GetMapping(Paths.BY_ID)
    public {dto} get({path_var},
            @RequestHeader("{header}") String tenant) {{
{_indent(chr(10).join(get_body), 2)}
    }}

    @PostMapping
    @ResponseStatus(HttpStatus.CREATED)
    public {dto} create(@RequestBody {dto} body,
            @RequestParam(value = "mode", defaultValue = "fast") String mode) {{
{_indent(chr(10).join(post_body), 2)}
    }}

    @RequestMapping(Paths.RAW)
    public void raw(HttpServletRequest request) {{
        request.setAttribute("seen", Boolean.TRUE);
    }}
}}
""")
        base = f"{api}/{segments[i]}"
        get_status = ["200", status_code["NotFoundException"]]
        if i in unhandled:
            get_status.append("500")
        corpus.truth.add(f"{base}/{{id}}", ["GET"], ["id", header],
                         get_status)
        post_status = ["201"]
        if i in conflict:
            post_status.append(status_code["ConflictException"])
        corpus.truth.add(base, ["POST"], ["mode"] + dto_fields[i],
                         post_status)
        corpus.truth.add(f"{base}/raw", ALL_VERBS, [], ["200"])


# ---------------------------------------------------------------------------
# model-graph
# ---------------------------------------------------------------------------

@dataclass
class _Dto:
    package: str
    name: str
    level: int
    extends_base: bool = False  # extends its package's BaseModel
    refs: list = field(default_factory=list)  # (kind, target _Dto)

    @property
    def qualified(self) -> str:
        return f"{self.package}.{self.name}"


def _model_graph(corpus: Corpus, rng: random.Random, n: int):
    """~20 controllers over `n` DTOs in several packages, with repeated
    simple names, generics, inheritance, maps of lists, enums and library
    types."""
    root = f"com.{rng.choice(ORGS)}"
    domains = rng.sample(DOMAINS, 6)
    common, errors = f"{root}.common", f"{root}.errors"
    _errors(corpus, errors, {"NotFoundException": "NOT_FOUND",
                             "ValidationFailedException": "BAD_REQUEST"})
    corpus.add_java(common, "Page", ("java.util.List",), """
public class Page<T> {

    private List<T> content;
    private long totalElements;
    private int number;
    private int size;

    public List<T> getContent() {
        return content;
    }
}
""")
    corpus.add_java(common, "Identified",
                    ("javax.validation.constraints.NotNull",), """
public abstract class Identified {

    @NotNull
    private Long id;
    private String etag;
}
""")
    identified_fields = ["id", "etag"]

    # One base class and two enums per domain package, same simple names in
    # every package.
    base_fields: dict[str, list[str]] = {}
    enums: dict[str, list[str]] = {}
    for domain in domains:
        pkg = f"{root}.{domain}.model"
        fields = _simple_fields(rng, 2, set(identified_fields))
        imports = [imp for _, _, imps in fields for imp in imps]
        corpus.add_java(pkg, "BaseModel", imports + [f"{common}.Identified"],
                        f"""
public abstract class BaseModel extends Identified {{

{chr(10).join(_field_decl(t, f) for t, f, _ in fields)}
}}
""")
        base_fields[pkg] = [f for _, f, _ in fields] + identified_fields
        enums[pkg] = []
        for enum in ("Status", "Kind"):
            values = rng.sample(("ACTIVE", "PENDING", "CLOSED", "DRAFT",
                                 "ARCHIVED", "LOCKED", "PRIMARY", "SECONDARY",
                                 "INTERNAL", "EXTERNAL"), 4)
            corpus.add_java(pkg, enum, (), f"""
public enum {enum} {{
    {", ".join(values)};

    public boolean isTerminal() {{
        return this == {values[-1]};
    }}
}}
""")
            enums[pkg].append(enum)

    # DTO names: unique within a package, repeated across packages.
    taken: dict[str, set[str]] = {f"{root}.{d}.model": {"BaseModel", "Status",
                                                        "Kind"}
                                  for d in domains}

    def new_name(pkg: str, stem: str = "") -> str:
        for _ in range(50):
            name = stem or rng.choice(NOUNS) + rng.choice(SUFFIXES)
            if name not in taken[pkg]:
                taken[pkg].add(name)
                return name
            stem = ""
        k = 2
        base = rng.choice(NOUNS) + rng.choice(SUFFIXES)
        while f"{base}{k}" in taken[pkg]:
            k += 1
        taken[pkg].add(f"{base}{k}")
        return f"{base}{k}"

    resources = rng.sample(NOUNS, MODEL_GRAPH_CONTROLLERS)
    levels: list[list[_Dto]] = [[] for _ in range(MODEL_GRAPH_LEVELS)]
    roots = []
    for c, resource in enumerate(resources):
        pkg = f"{root}.{domains[c % len(domains)]}.model"
        trio = [_Dto(pkg, new_name(pkg, resource + kind), 0)
                for kind in ("View", "Details", "Request")]
        roots.append(trio)
        levels[0].extend(trio)
    # 5 in 12 DTOs hang off the controllers; the rest are model classes no
    # endpoint reaches, which the parser and name lookups still see.
    reachable = 5 * n // 12
    rest = reachable - len(levels[0])
    if rest < MODEL_GRAPH_LEVELS:
        raise ValueError(f"model-graph scale {n} is too small; use >= 200")
    for i in range(rest):
        level = 1 + i * (MODEL_GRAPH_LEVELS - 1) // rest
        pkg = f"{root}.{rng.choice(domains)}.model"
        levels[level].append(_Dto(pkg, new_name(pkg), level))
    # Tree edges keep every DTO reachable; cross edges make a DAG. Every
    # edge points one or more levels down, so no reference path is longer
    # than MODEL_GRAPH_LEVELS.
    kinds = ("one", "list", "map", "array")
    for level in range(1, MODEL_GRAPH_LEVELS):
        for dto in levels[level]:
            rng.choice(levels[level - 1]).refs.append(
                (rng.choice(kinds), dto))
    for level in range(MODEL_GRAPH_LEVELS - 2):
        for dto in levels[level]:
            for _ in range(rng.randint(0, 2)):
                target = rng.choice(levels[rng.randint(
                    level + 1, MODEL_GRAPH_LEVELS - 1)])
                if all(t is not target for _, t in dto.refs):
                    dto.refs.append((rng.choice(kinds), target))

    dtos = [d for lvl in levels for d in lvl]
    for _ in range(n - reachable):
        pkg = f"{root}.{rng.choice(domains)}.model"
        dtos.append(_Dto(pkg, new_name(pkg), MODEL_GRAPH_LEVELS))
    for dto in dtos:
        if rng.random() < 0.3:
            dto.extends_base = True
    fields_of: dict[str, list[str]] = {}
    for dto in dtos:
        fields_of[dto.qualified] = _model_dto(corpus, rng, dto, enums,
                                              base_fields)

    # Controllers: list/get/create/update/delete over each root trio.
    for c, resource in enumerate(resources):
        domain = domains[c % len(domains)]
        view, details, request = roots[c]
        base = f"/api/{domain}/{_kebab(resource)}s"
        name = f"{resource}Controller"
        corpus.add_java(f"{root}.{domain}.web", name, (
            f"{common}.Page", f"{errors}.NotFoundException",
            f"{errors}.ValidationFailedException", view.qualified,
            details.qualified, request.qualified,
            "javax.validation.Valid", "java.util.List",
            "java.util.concurrent.ConcurrentHashMap",
            "org.springframework.http.HttpStatus",
            "org.springframework.http.ResponseEntity", SPRING_WEB), f"""
@RestController
@RequestMapping("{base}")
public class {name} {{

    private final ConcurrentHashMap<Long, {details.name}> rows = new ConcurrentHashMap<>();

    @GetMapping
    public Page<{view.name}> list(@RequestParam(value = "page", defaultValue = "0") int page,
            @RequestParam(value = "size", defaultValue = "20") int size,
            @RequestParam(required = false) String q) {{
        Page<{view.name}> out = new Page<>();
        rows.values().stream().skip((long) page * size).limit(size).forEach(r -> out.getContent().add(null));
        return out;
    }}

    @GetMapping("/{{id}}")
    public ResponseEntity<{details.name}> get(@PathVariable Long id) {{
        {details.name} row = rows.get(id);
        if (row == null) {{
            throw new NotFoundException("{_kebab(resource)} " + id);
        }}
        return ResponseEntity.ok(row);
    }}

    @PostMapping
    @ResponseStatus(HttpStatus.CREATED)
    public {details.name} create(@Valid @RequestBody {request.name} body) {{
        if (body == null) {{
            throw new ValidationFailedException("empty body");
        }}
        return new {details.name}();
    }}

    @PutMapping("/{{id}}")
    public {details.name} update(@PathVariable("id") long id, @RequestBody {details.name} body) {{
        if (!rows.containsKey(id)) {{
            throw new NotFoundException("missing " + id);
        }}
        rows.put(id, body);
        return body;
    }}

    @DeleteMapping("/{{id}}")
    @ResponseStatus(HttpStatus.NO_CONTENT)
    public void delete(@PathVariable long id) {{
        rows.remove(id);
    }}
}}
""")
        item = f"{base}/{{id}}"
        corpus.truth.add(base, ["GET"], ["page", "size", "q"], ["200"])
        corpus.truth.add(item, ["GET"], ["id"], ["200", "404"])
        corpus.truth.add(base, ["POST"], fields_of[request.qualified],
                         ["201", "400"])
        corpus.truth.add(item, ["PUT"], ["id"] + fields_of[details.qualified],
                         ["200", "404"])
        corpus.truth.add(item, ["DELETE"], ["id"], ["204"])


def _model_dto(corpus: Corpus, rng: random.Random, dto: _Dto, enums,
               base_fields) -> list[str]:
    """Write one model-graph DTO; return its body field names, inherited
    ones included."""
    inherited = base_fields[dto.package] if dto.extends_base else []
    taken = set(inherited)
    imports: list[str] = []
    decls: list[str] = []
    names: list[str] = []
    simple_in_scope = {dto.name} | {"BaseModel", "Status", "Kind"}
    for jtype, fname, imps in _simple_fields(rng, rng.randint(0, 2), taken):
        annos = ("NotNull",) if rng.random() < 0.25 else ()
        decls.append(_field_decl(jtype, fname, annos))
        imports += imps
        names.append(fname)
    for jtype, imp, fname in rng.sample(LIBRARY_FIELDS, 3):
        decls.append(_field_decl(jtype, fname))
        imports.append(imp)
        names.append(fname)
    enum = rng.choice(enums[dto.package])
    decls.append(_field_decl(enum, enum.lower()))
    names.append(enum.lower())
    for k, (kind, target) in enumerate(dto.refs):
        if target.package == dto.package:
            tname = target.name
        elif target.name in simple_in_scope:
            tname = target.qualified  # shadowed: use the qualified name
        else:
            tname = target.name
            imports.append(target.qualified)
            simple_in_scope.add(target.name)
        fname = f"{target.name[0].lower()}{target.name[1:]}{k}"
        jtype = {"one": tname, "list": f"List<{tname}>",
                 "map": f"Map<String, List<{tname}>>",
                 "array": f"{tname}[]"}[kind]
        imports += {"list": ["java.util.List"],
                    "map": ["java.util.List", "java.util.Map"]}.get(kind, [])
        decls.append(_field_decl(jtype, fname))
        names.append(fname)
    extends = " extends BaseModel" if dto.extends_base else ""
    corpus.add_java(dto.package, dto.name,
                    imports + ["javax.validation.constraints.NotNull"], f"""
public class {dto.name}{extends} {{

{chr(10).join(decls)}
}}
""")
    return names + inherited


# ---------------------------------------------------------------------------
# monorepo-sparse
# ---------------------------------------------------------------------------

_SERVICE_METHODS = (
    """
/**
 * Returns the active {noun} names, sorted; inactive ones are skipped.
 */
public List<String> active{Noun}Names(List<{Noun}Row> rows) {{
    // filter, map and sort in one pass
    return rows.stream()
            .filter(r -> r != null && r.isActive())
            .map({Noun}Row::getName)
            .sorted(Comparator.comparing(String::length).thenComparing(s -> s))
            .collect(Collectors.toList());
}}""",
    """
public Map<String, List<{Noun}Row>> groupBy{Noun}Region(Collection<{Noun}Row> rows) {{
    Map<String, List<{Noun}Row>> out = new HashMap<>();
    for ({Noun}Row row : rows) {{
        out.computeIfAbsent(row.getRegion(), k -> new ArrayList<>()).add(row);
    }}
    /* regions with a single row are merged into "other" */
    out.entrySet().removeIf(e -> e.getValue().size() < 2 && !e.getKey().equals("other"));
    return out;
}}""",
    """
private String escape{Noun}(String raw) {{
    StringBuilder sb = new StringBuilder(raw.length() + 8);
    for (char c : raw.toCharArray()) {{
        switch (c) {{
            case '"': sb.append("\\\\\\""); break;
            case '\\\\': sb.append("\\\\\\\\"); break;
            case '\\n': sb.append("\\\\n"); break;
            case '{{': sb.append("\\u007b"); break;
            default: sb.append(c);
        }}
    }}
    return "\\"" + sb + "\\" /* {noun} */";
}}""",
    """
public <T extends Comparable<T>> Optional<T> max{Noun}(List<? extends T> items, Predicate<? super T> keep) {{
    T best = null;
    for (T item : items) {{
        if (keep.test(item) && (best == null || item.compareTo(best) > 0)) {{
            best = item;
        }}
    }}
    return Optional.ofNullable(best);
}}""",
    """
public int retry{Noun}(Callable<Integer> task, int attempts) throws Exception {{
    Exception last = null;
    for (int i = 0; i < attempts; i++) {{
        try {{
            return task.call();
        }} catch (IllegalStateException | IllegalArgumentException ex) {{
            last = ex;
            Thread.sleep(0x10L << i);
        }} finally {{
            counter.incrementAndGet();
        }}
    }}
    throw new IllegalStateException("gave up after " + attempts + " tries", last);
}}""",
    """
public Runnable {noun}Flusher(final List<String> buffer) {{
    return new Runnable() {{
        @Override
        public void run() {{
            synchronized (buffer) {{
                String joined = String.join(",", buffer);
                LOG.debug("flush {{}} chars: {{}}", joined.length(), joined.isEmpty() ? "<none>" : joined);
                buffer.clear();
            }}
        }}
    }};
}}""",
    """
public double weighted{Noun}Score(double[] values, double[] weights) {{
    if (values.length != weights.length) {{
        throw new IllegalArgumentException(String.format("length %d != %d", values.length, weights.length));
    }}
    double sum = 0.0d, norm = 1e-9;
    for (int i = 0; i < values.length; ++i) {{
        sum += values[i] * weights[i];
        norm += Math.abs(weights[i]);
    }}
    return sum / norm * 100.0f >= 50 ? sum / norm : -1.5e-3;
}}""",
    """
@Transactional(readOnly = true, timeout = 30)
public Map<Long, String> {noun}Labels(Set<Long> ids) {{
    return ids.stream().collect(Collectors.toMap(id -> id, id -> "{noun}#" + Long.toHexString(id) + '\\t'));
}}""",
)

_SERVICE_IMPORTS = (
    "java.util.ArrayList", "java.util.Collection", "java.util.Comparator",
    "java.util.HashMap", "java.util.List", "java.util.Map",
    "java.util.Optional", "java.util.Set", "java.util.concurrent.Callable",
    "java.util.concurrent.atomic.AtomicLong", "java.util.function.Predicate",
    "java.util.stream.Collectors", "org.slf4j.Logger",
    "org.slf4j.LoggerFactory",
    "org.springframework.beans.factory.annotation.Autowired",
    "org.springframework.stereotype.Service",
    "org.springframework.transaction.annotation.Transactional",
)


def _monorepo_sparse(corpus: Corpus, rng: random.Random, n: int):
    """`n` service classes with real method bodies, a row type per noun
    and five small controllers."""
    root = f"com.{rng.choice(ORGS)}"
    modules = rng.sample(MODULES, 8)
    names: dict[str, set[str]] = {m: set() for m in modules}
    for i in range(n):
        module = modules[i % len(modules)]
        noun = rng.choice(NOUNS)
        name = f"{noun}{rng.choice(SUFFIXES)}{i}Service"
        pkg = f"{root}.{module}.service"
        names[module].add(name)
        picks = rng.sample(_SERVICE_METHODS, rng.randint(1, 3))
        methods = "\n".join(_indent(m.format(noun=noun.lower(), Noun=noun))
                            for m in picks)
        nested = ""
        classes = 1
        if i % 4 == 0:
            nested = f"""

    /** Immutable view of a {noun.lower()} row. */
    public static final class {noun}Row {{
        private final String name;
        private final String region;
        private final boolean active;

        public {noun}Row(String name, String region, boolean active) {{
            this.name = name;
            this.region = region;
            this.active = active;
        }}

        public String getName() {{ return name; }}
        public String getRegion() {{ return region; }}
        public boolean isActive() {{ return active; }}
    }}"""
            classes = 2
        tag = rng.choice(("alpha", "beta", "gamma", "delta"))
        corpus.add_java(pkg, name, _SERVICE_IMPORTS, f"""
/**
 * {noun} service #{i}: batch helpers for the {module} module.
 * Note: "quotes" and {{braces}} in comments must not confuse a parser.
 */
@Service
public class {name} {{

    private static final Logger LOG = LoggerFactory.getLogger({name}.class);
    private static final String TAG = "{tag}\\t#{i}\\u0021";
    private static final char SEP = '\\'';
    private static final long MASK = 0xFFFF_FFFFL;

    private final AtomicLong counter = new AtomicLong();

    @Autowired
    private {noun}Repository repository;

    public {name}({noun}Repository repository) {{
        this.repository = repository;
    }}

{methods}{nested}
}}
""", classes)

    web = f"{root}.web"
    for c, noun in enumerate(rng.sample(NOUNS, 5)):
        base = f"/internal/{_kebab(noun)}"
        corpus.add_java(web, f"{noun}StatusController",
                        ("org.springframework.http.HttpStatus", SPRING_WEB),
                        f"""
@RestController
@RequestMapping("{base}")
public class {noun}StatusController {{

    @GetMapping("/status")
    public String status(@RequestParam(value = "verbose", defaultValue = "false") boolean verbose) {{
        return verbose ? "{noun.lower()}: ok (verbose)" : "ok";
    }}

    @PostMapping("/refresh/{{scope}}")
    @ResponseStatus(HttpStatus.ACCEPTED)
    public void refresh(@PathVariable String scope, @RequestHeader("X-Token") String token) {{
        if (token.isEmpty()) {{
            throw new IllegalArgumentException("token");
        }}
    }}
}}
""")
        corpus.truth.add(f"{base}/status", ["GET"], ["verbose"], ["200"])
        corpus.truth.add(f"{base}/refresh/{{scope}}", ["POST"],
                         ["scope", "X-Token"], ["202", "500"])


BUILDERS = {
    "profile-fanout": (_profile_fanout, ["--merge"]),
    "model-graph": (_model_graph, ["--format", "yaml"]),
    "monorepo-sparse": (_monorepo_sparse, []),
}


def build(workload: str, seed: int, scale: int | None = None) -> Corpus:
    """The corpus of `workload` for `seed` at `scale` (default size if
    None)."""
    builder, flags = BUILDERS[workload]
    scale = DEFAULT_SCALE[workload] if scale is None else scale
    corpus = Corpus(workload, seed, scale, list(flags))
    builder(corpus, random.Random(f"{workload}:{seed}:{scale}"), scale)
    return corpus

