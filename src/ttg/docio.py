"""JSON model documents: loading, normalization, digests, DOT export.

Documents are hand-editable JSON using object names; tables are row-major
nested lists of names.  Loading resolves names to indices, closes triangles
under rotation, validates, and builds any named operators.  A document
without a "module" section presents K acting on itself.
"""

import hashlib
import json

from .presentation import (MAX_OBJECTS_DEFAULT, CategoryPresentation,
                           ModulePresentation, ResourceError,
                           rotation_closure, self_module, validate)


class DocumentError(Exception):
    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class ModelInvalidError(DocumentError):
    """The document parsed but the presentation violates axioms."""


def _resolver(names, where):
    index = {name: i for i, name in enumerate(names)}

    def resolve(token):
        try:
            return index[token]
        except (KeyError, TypeError):  # TypeError: an unhashable token
            raise DocumentError("unknown object name %r in %s" % (token, where))
    return resolve


def _list(value, what, length=None):
    """``value`` if it is a JSON list, of ``length`` entries when given."""
    if not isinstance(value, list) or length is not None and len(value) != length:
        raise DocumentError("%s must be a list%s" % (
            what, "" if length is None else " of %d entries" % length))
    return value


def _dict(value, what):
    if not isinstance(value, dict):
        raise DocumentError("%s must be a JSON object" % what)
    return value


def _table(rows, resolve, n_rows, n_cols, what):
    return tuple(tuple(resolve(v) for v in _list(row, "%s table row" % what, n_cols))
                 for row in _list(rows, "%s table" % what, n_rows))


def _section(sec, where, keys, max_objects):
    """The resolver of a category or module section and the fields the two
    share: names, zero, translation and rotation-closed triangles, after
    checking the shape of each value."""
    _dict(sec, where + " section")
    for key in ("objects", "zero", "sum", "translate", "triangles") + keys:
        if key not in sec:
            raise DocumentError("%s section missing %r" % (where, key))
    names = tuple(_list(sec["objects"], where + " objects"))
    if not all(isinstance(name, str) for name in names):
        raise DocumentError("%s object names must be strings" % where)
    if len(set(names)) != len(names):
        raise DocumentError("duplicate object names in %s" % where)
    if len(names) > max_objects:
        raise ResourceError("%s has %d objects, over the limit %d"
                            % (where, len(names), max_objects))
    resolve = _resolver(names, where)
    translate = tuple(resolve(v) for v in
                      _list(sec["translate"], where + " translate", len(names)))
    raw = _list(sec["triangles"], where + " triangles")
    triangles = None
    if {*map(type, raw)} <= {list}:
        index = {name: i for i, name in enumerate(names)}
        try:
            triangles = {(index[a], index[b], index[c]) for a, b, c in raw}
        except (KeyError, TypeError, ValueError):
            pass  # an ill-shaped triangle: the loop below names the first one
    if triangles is None:
        triangles = set()
        for t in raw:
            if not isinstance(t, list) or len(t) != 3:
                raise DocumentError("%s triangle %r must have 3 entries" % (where, t))
            triangles.add(tuple(resolve(v) for v in t))
    triangles = rotation_closure(triangles, translate)
    return resolve, dict(names=names, zero=resolve(sec["zero"]),
                         translate=translate, triangles=triangles)


def _build_operator(p, name, spec):
    # Imported here, so that loading a document without operators never
    # loads the operators module.
    from .operators import (OperatorError, division, from_family,
                            identity_operator, radical, table_operator)

    what = "operator %r" % name
    _dict(spec, what)
    resolve = _resolver(p.names, what)

    def ids(value, part):
        return frozenset(resolve(v) for v in _list(value, "%s %s" % (what, part)))

    kinds = {"identity": (identity_operator, None), "radical": (radical, None),
             "division": (division, "s"), "family": (from_family, "members"),
             "table": (table_operator, "table")}
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise DocumentError("%s has unknown kind %r" % (what, kind))
    build, needs = kinds[kind]
    if needs and needs not in spec:
        raise DocumentError("%s of kind %r needs %r" % (what, kind, needs))
    # Every key present is read, used by the kind or not, because
    # normalize_document keeps and sorts each of them.
    args = {}
    if "s" in spec:
        args["s"] = ids(spec["s"], "s")
    if "members" in spec:
        args["members"] = [ids(f, "member")
                           for f in _list(spec["members"], what + " members")]
    if "table" in spec:
        args["table"] = {resolve(m): ids(vals, "entry")
                         for m, vals in _dict(spec["table"], what + " table").items()}
    try:
        return build(p, args[needs]) if needs else build(p)
    except OperatorError as exc:
        raise DocumentError("%s: %s" % (what, exc))


def load_document(doc, max_objects=MAX_OBJECTS_DEFAULT):
    """Build a validated presentation and named operators from a parsed doc."""
    _dict(doc, "document")
    if "category" not in doc:
        raise DocumentError("document has no 'category' section")
    sec = doc["category"]
    resolve, fields = _section(sec, "category", ("unit", "tensor"), max_objects)
    n = len(fields["names"])
    cat = CategoryPresentation(
        unit=resolve(sec["unit"]), sum=_table(sec["sum"], resolve, n, n, "sum"),
        tensor=_table(sec["tensor"], resolve, n, n, "tensor"), **fields)
    if "module" not in doc:
        p = self_module(cat)
    else:
        sec = doc["module"]
        resolve, fields = _section(sec, "module", ("action",), max_objects)
        n = len(fields["names"])
        p = ModulePresentation(
            base=cat, sum=_table(sec["sum"], resolve, n, n, "module sum"),
            action=_table(sec["action"], resolve, cat.n_objects, n, "action"), **fields)
    report = validate(p)
    if not report.ok:
        raise ModelInvalidError(["%s: %s witness=%r" % (v.rule, v.message, v.witness)
                                 for v in report.violations])
    specs = _dict(doc.get("operators", {}), "operators section")
    operators = {}
    for name in sorted(specs):
        if name == "identity":
            raise DocumentError("operator name 'identity' is reserved")
        operators[name] = _build_operator(p, name, specs[name])
    return p, operators


def load(path, max_objects=MAX_OBJECTS_DEFAULT):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DocumentError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise DocumentError("parse error in %s at line %d col %d: %s"
                            % (path, exc.lineno, exc.colno, exc.msg))
    except (UnicodeDecodeError, RecursionError) as exc:
        raise DocumentError("cannot parse %s: %s" % (path, exc))
    p, operators = load_document(doc, max_objects=max_objects)
    return p, operators, normalize_document(doc, p)


def _section_doc(sec, **tables):
    """A category or module section by name: its objects, zero, translation,
    triangles sorted by name, the sum table and the extra ``tables`` given.
    Names are distinct, so triangles sort by name as their id triples sort
    by the rank of each name."""
    def named(ids):
        return [sec.names[v] for v in ids]

    by_rank = sorted(sec.names)
    rank = list(map({name: r for r, name in enumerate(by_rank)}.__getitem__, sec.names))
    out = {"objects": list(sec.names), "zero": sec.names[sec.zero],
           "translate": named(sec.translate),
           "triangles": [[by_rank[a], by_rank[b], by_rank[c]] for a, b, c in
                         sorted((rank[a], rank[b], rank[c]) for a, b, c in sec.triangles)]}
    for key, table in dict(tables, sum=sec.sum).items():
        out[key] = [named(row) for row in table]
    return out


def normalize_document(doc, p):
    """Rotation-closed, deterministically ordered form of a document."""
    cat = p.base
    out = {"category": dict(_section_doc(cat, tensor=cat.tensor),
                            unit=cat.names[cat.unit])}
    if "module" in doc:
        out["module"] = _section_doc(p, action=p.action)
    if "operators" in doc:
        ops = {}
        for name in sorted(doc["operators"]):
            spec = doc["operators"][name]
            norm = {"kind": spec["kind"]}
            if "s" in spec:
                norm["s"] = sorted(spec["s"])
            if "members" in spec:
                norm["members"] = sorted(sorted(f) for f in spec["members"])
            if "table" in spec:
                norm["table"] = {m: sorted(vals)
                                 for m, vals in sorted(spec["table"].items())}
            ops[name] = norm
        out["operators"] = ops
    return out


def dump_document(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def save(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_document(doc))


def model_digest(doc):
    # doc is a tree that normalize_document built, so it holds no cycle.
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                           check_circular=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def point_label(p, members):
    return "{%s}" % ",".join(p.names[m] for m in sorted(members))


def _dot_label(p, members):
    """``point_label`` escaped for a quoted DOT string: object names may
    hold ``\\`` and ``"``."""
    return point_label(p, members).replace("\\", "\\\\").replace('"', '\\"')


def specialization_dot(p, space):
    """Hasse diagram of the specialization order, edges up the order.  On
    a space of submodules that order is inclusion of points."""
    points = space.points
    lines = ["digraph specialization {", "  rankdir=BT;"]
    for i, pt in enumerate(points):
        lines.append('  n%d [label="%s"];' % (i, _dot_label(p, pt)))
    for i, N in enumerate(points):
        for j, N2 in enumerate(points):
            if N < N2 and not any(N < M < N2 for M in points):
                lines.append("  n%d -> n%d;" % (i, j))
    lines.append("}")
    return "\n".join(lines) + "\n"


def monoid_dot(p, report):
    """The operation table as a labeled graph over the point set."""
    space = report.space
    lines = ["digraph monoid_op {"]
    for i, pt in enumerate(space.points):
        lines.append('  n%d [label="%s"];' % (i, _dot_label(p, pt)))
    for i, row in enumerate(report.op_table):
        for j, k in enumerate(row):
            if j < i:
                continue
            lines.append('  n%d -> n%d [label="with n%d"];' % (i, k, j))
    lines.append("}")
    return "\n".join(lines) + "\n"
