"""JSON model documents: loading, normalization, digests, DOT export.

Documents are hand-editable JSON using object names; tables are row-major
nested lists of names.  Loading resolves names to indices, closes triangles
under rotation, validates, and builds any named operators.  A document
without a "module" section presents K acting on itself.
"""

import hashlib
import json

from .operators import (OperatorError, division, from_family, identity_operator,
                        radical, table_operator)
from .presentation import (CategoryPresentation, ModulePresentation,
                           ResourceError, rotation_closure, self_module,
                           validate)


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
    """Names, resolver, translation and rotation-closed triangles of a
    category or module section, after checking the shape of each value."""
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
    triangles = set()
    for t in _list(sec["triangles"], where + " triangles"):
        if not isinstance(t, list) or len(t) != 3:
            raise DocumentError("%s triangle %r must have 3 entries" % (where, t))
        triangles.add(tuple(resolve(v) for v in t))
    return names, resolve, translate, rotation_closure(triangles, translate)


def _category_from_doc(sec, max_objects):
    names, resolve, translate, triangles = _section(
        sec, "category", ("unit", "tensor"), max_objects)
    n = len(names)
    return CategoryPresentation(
        names=names,
        zero=resolve(sec["zero"]),
        unit=resolve(sec["unit"]),
        sum=_table(sec["sum"], resolve, n, n, "sum"),
        tensor=_table(sec["tensor"], resolve, n, n, "tensor"),
        translate=translate,
        triangles=triangles,
    )


def _module_from_doc(sec, base, max_objects):
    names, resolve, translate, triangles = _section(
        sec, "module", ("action",), max_objects)
    n = len(names)
    return ModulePresentation(
        base=base,
        names=names,
        zero=resolve(sec["zero"]),
        sum=_table(sec["sum"], resolve, n, n, "module sum"),
        translate=translate,
        triangles=triangles,
        action=_table(sec["action"], resolve, base.n_objects, n, "action"),
    )


_NEEDS = {"identity": None, "radical": None, "division": "s",
          "family": "members", "table": "table"}


def _build_operator(p, name, spec):
    what = "operator %r" % name
    _dict(spec, what)
    resolve = _resolver(p.names, what)

    def ids(value, part):
        return frozenset(resolve(v) for v in _list(value, "%s %s" % (what, part)))

    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _NEEDS:
        raise DocumentError("%s has unknown kind %r" % (what, kind))
    needs = _NEEDS[kind]
    if needs and needs not in spec:
        raise DocumentError("%s of kind %r needs %r" % (what, kind, needs))
    # Every key present is read, used by the kind or not, because
    # normalize_document keeps and sorts each of them.
    s = ids(spec["s"], "s") if "s" in spec else None
    members = ([ids(f, "member") for f in _list(spec["members"], what + " members")]
               if "members" in spec else None)
    table = ({resolve(m): ids(vals, "entry")
              for m, vals in _dict(spec["table"], what + " table").items()}
             if "table" in spec else None)
    if kind == "identity":
        return identity_operator(p)
    if kind == "radical":
        return radical(p)
    if kind == "division":
        return division(p, s)
    if kind == "family":
        return from_family(p, members)
    return table_operator(p, table)


def load_document(doc, max_objects=16):
    """Build a validated presentation and named operators from a parsed doc."""
    _dict(doc, "document")
    if "category" not in doc:
        raise DocumentError("document has no 'category' section")
    cat = _category_from_doc(doc["category"], max_objects)
    if "module" in doc:
        p = _module_from_doc(doc["module"], cat, max_objects)
    else:
        p = self_module(cat)
    report = validate(p)
    if not report.ok:
        raise ModelInvalidError(["%s: %s witness=%r" % (v.rule, v.message, v.witness)
                                 for v in report.violations])
    specs = _dict(doc.get("operators", {}), "operators section")
    operators = {}
    for name in sorted(specs):
        if name == "identity":
            raise DocumentError("operator name 'identity' is reserved")
        try:
            operators[name] = _build_operator(p, name, specs[name])
        except OperatorError as exc:
            raise DocumentError("operator %r: %s" % (name, exc))
    return p, operators


def load(path, max_objects=16):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DocumentError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise DocumentError("parse error in %s at line %d col %d: %s"
                            % (path, exc.lineno, exc.colno, exc.msg))
    p, operators = load_document(doc, max_objects=max_objects)
    return p, operators, normalize_document(doc, p)


def _section_doc(sec, **tables):
    """A category or module section by name: its objects, zero, translation,
    sorted triangles, the sum table and the extra ``tables`` given."""
    def named(ids):
        return [sec.names[v] for v in ids]

    out = {"objects": list(sec.names), "zero": sec.names[sec.zero],
           "translate": named(sec.translate),
           "triangles": sorted(named(t) for t in sec.triangles)}
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
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def point_label(p, members):
    return "{%s}" % ",".join(p.names[m] for m in sorted(members))


def specialization_dot(p, space):
    """Hasse diagram of the specialization order, edges up the order."""
    n = len(space.points)
    leq = {(i, j) for (i, j) in space.specialization}
    lines = ["digraph specialization {", "  rankdir=BT;"]
    for i, pt in enumerate(space.points):
        lines.append('  n%d [label="%s"];' % (i, point_label(p, pt)))
    for i, j in sorted(leq):
        if i == j:
            continue
        covered = any((i, k) in leq and (k, j) in leq and k not in (i, j)
                      for k in range(n))
        if not covered:
            lines.append("  n%d -> n%d;" % (i, j))
    lines.append("}")
    return "\n".join(lines) + "\n"


def monoid_dot(p, report):
    """The operation table as a labeled graph over the point set."""
    space = report.space
    lines = ["digraph monoid_op {"]
    for i, pt in enumerate(space.points):
        lines.append('  n%d [label="%s"];' % (i, point_label(p, pt)))
    for i, row in enumerate(report.op_table):
        for j, k in enumerate(row):
            if k is None or j < i:
                continue
            lines.append('  n%d -> n%d [label="with n%d"];' % (i, k, j))
    lines.append("}")
    return "\n".join(lines) + "\n"
