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
        if token not in index:
            raise DocumentError("unknown object name %r in %s" % (token, where))
        return index[token]
    return resolve


def _table(rows, resolve, n, what):
    if len(rows) != n:
        raise DocumentError("%s table must have %d rows" % (what, n))
    out = []
    for row in rows:
        if len(row) != n:
            raise DocumentError("%s table rows must have %d entries" % (what, n))
        out.append(tuple(resolve(v) for v in row))
    return tuple(out)


def _require(sec, keys, where):
    for key in keys:
        if key not in sec:
            raise DocumentError("%s section missing %r" % (where, key))


def _translate_and_triangles(sec, resolve, n, where):
    translate = tuple(resolve(v) for v in sec["translate"])
    if len(translate) != n:
        raise DocumentError("%s translate list must have %d entries" % (where, n))
    triangles = set()
    for t in sec["triangles"]:
        if len(t) != 3:
            raise DocumentError("%s triangle %r must have 3 entries" % (where, t))
        triangles.add(tuple(resolve(v) for v in t))
    return translate, rotation_closure(triangles, translate)


def _category_from_doc(sec, max_objects):
    try:
        names = tuple(sec["objects"])
    except (KeyError, TypeError):
        raise DocumentError("category section needs an 'objects' list")
    if len(set(names)) != len(names):
        raise DocumentError("duplicate object names in category")
    if len(names) > max_objects:
        raise ResourceError("model has %d objects, over the limit %d"
                            % (len(names), max_objects))
    resolve = _resolver(names, "category")
    _require(sec, ("zero", "unit", "sum", "tensor", "translate", "triangles"),
             "category")
    n = len(names)
    translate, triangles = _translate_and_triangles(sec, resolve, n, "category")
    return CategoryPresentation(
        names=names,
        zero=resolve(sec["zero"]),
        unit=resolve(sec["unit"]),
        sum=_table(sec["sum"], resolve, n, "sum"),
        tensor=_table(sec["tensor"], resolve, n, "tensor"),
        translate=translate,
        triangles=triangles,
    )


def _module_from_doc(sec, base):
    _require(sec, ("objects", "zero", "sum", "translate", "triangles", "action"),
             "module")
    names = tuple(sec["objects"])
    if len(set(names)) != len(names):
        raise DocumentError("duplicate object names in module")
    resolve = _resolver(names, "module")
    n = len(names)
    translate, triangles = _translate_and_triangles(sec, resolve, n, "module")
    action_rows = sec["action"]
    if len(action_rows) != base.n_objects:
        raise DocumentError("action table must have one row per category object")
    action = []
    for row in action_rows:
        if len(row) != n:
            raise DocumentError("action rows must have one entry per module object")
        action.append(tuple(resolve(v) for v in row))
    return ModulePresentation(
        base=base,
        names=names,
        zero=resolve(sec["zero"]),
        sum=_table(sec["sum"], resolve, n, "module sum"),
        translate=translate,
        triangles=triangles,
        action=tuple(action),
    )


def _build_operator(p, name, spec):
    if not isinstance(spec, dict):
        raise DocumentError("operator %r must be a JSON object" % name)
    resolve = _resolver(p.names, "operator %r" % name)
    kind = spec.get("kind")
    needs = {"division": "s", "family": "members", "table": "table"}.get(kind)
    if needs and needs not in spec:
        raise DocumentError("operator %r of kind %r needs %r" % (name, kind, needs))
    if kind == "identity":
        return identity_operator(p)
    if kind == "radical":
        return radical(p)
    if kind == "division":
        return division(p, frozenset(resolve(s) for s in spec["s"]))
    if kind == "family":
        members = [frozenset(resolve(m) for m in f) for f in spec["members"]]
        return from_family(p, members)
    if kind == "table":
        table = {resolve(m): frozenset(resolve(v) for v in vals)
                 for m, vals in spec["table"].items()}
        return table_operator(p, table)
    raise DocumentError("operator %r has unknown kind %r" % (name, kind))


def load_document(doc, max_objects=16):
    """Build a validated presentation and named operators from a parsed doc."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    if "category" not in doc:
        raise DocumentError("document has no 'category' section")
    cat = _category_from_doc(doc["category"], max_objects)
    if "module" in doc:
        if len(doc["module"].get("objects", ())) > max_objects:
            raise ResourceError("module has too many objects")
        p = _module_from_doc(doc["module"], cat)
    else:
        p = self_module(cat)
    report = validate(p)
    if not report.ok:
        raise ModelInvalidError(["%s: %s witness=%r" % (v.rule, v.message, v.witness)
                                 for v in report.violations])
    operators = {}
    for name in sorted(doc.get("operators", {})):
        if name == "identity":
            raise DocumentError("operator name 'identity' is reserved")
        try:
            operators[name] = _build_operator(p, name, doc["operators"][name])
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


def normalize_document(doc, p):
    """Rotation-closed, deterministically ordered form of a document."""
    def names_of(cat_or_mod, ids):
        return [cat_or_mod.names[i] for i in ids]

    cat = p.base
    out = {"category": {
        "objects": list(cat.names),
        "zero": cat.names[cat.zero],
        "unit": cat.names[cat.unit],
        "sum": [[cat.names[v] for v in row] for row in cat.sum],
        "tensor": [[cat.names[v] for v in row] for row in cat.tensor],
        "translate": [cat.names[v] for v in cat.translate],
        "triangles": sorted(names_of(cat, t) for t in sorted(cat.triangles)),
    }}
    if "module" in doc:
        out["module"] = {
            "objects": list(p.names),
            "zero": p.names[p.zero],
            "sum": [[p.names[v] for v in row] for row in p.sum],
            "translate": [p.names[v] for v in p.translate],
            "triangles": sorted(names_of(p, t) for t in sorted(p.triangles)),
            "action": [[p.names[v] for v in row] for row in p.action],
        }
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
