"""Command line front end.

Subcommands cover the whole pipeline: presentation validation, submodule
generation with stage annotations, witness extraction, space enumeration,
operator classification, the spectral and ultrafilter verifications, the
monoid certificate, and an everything-at-once report.  Exit status is 0
when every verdict passes, 1 on check failures, 2 on usage or parse errors.
"""

import argparse
import json
import sys

from . import docio
from .docio import DocumentError, ModelInvalidError, model_digest
from .monoid import MonoidError, monoid_report
from .operators import OperatorError, classify, identity_operator
from .presentation import MAX_OBJECTS_DEFAULT, PresentationError, validate
from .space import (basis_properties, enumerate_smod, fixed_points,
                    spectral_report, ultrafilter_check)
from .thick import GenerationError, generate, witnesses


def _parse_seed(p, seed_text):
    if not seed_text:
        return frozenset()
    index = {name: i for i, name in enumerate(p.names)}
    out = set()
    for token in seed_text.split(","):
        token = token.strip()
        if token not in index:
            raise DocumentError("unknown object name %r in seed" % token)
        out.add(index[token])
    return frozenset(out)


def _load(args):
    p, operators, doc = docio.load(args.model, max_objects=args.max_objects)
    return p, operators, doc


def _operator(p, operators, name):
    if name == "identity":
        return identity_operator(p)
    if name not in operators:
        raise DocumentError("model defines no operator named %r" % name)
    return operators[name]


def _names(p, members):
    return [p.names[m] for m in sorted(members)]


def _emit(args, report, human_lines):
    for line in human_lines:
        print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if report["passed"] else 1


def _write_dot(args, text):
    if getattr(args, "dot", None):
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_validate(args):
    try:
        p, _, doc = _load(args)
    except ModelInvalidError as exc:
        report = {"command": "validate",
                  "checks": [{"name": "axioms", "passed": False,
                              "violations": exc.messages}],
                  "passed": False}
        return _emit(args, report, ["validate: FAIL"]
                     + ["  " + m for m in exc.messages])
    report = {"command": "validate", "digest": model_digest(doc),
              "checks": [{"name": "axioms", "passed": True}], "passed": True}
    return _emit(args, report, ["validate: ok (%d objects, %d triangles)"
                                % (p.n_objects, len(p.triangles))])


def cmd_generate(args):
    p, _, doc = _load(args)
    seed = _parse_seed(p, args.seed)
    members, cert = generate(p, seed)
    listing = [{"object": p.names[m], "stage": cert.records[m].stage,
                "via": cert.records[m].kind} for m in sorted(members)]
    report = {"command": "generate", "digest": model_digest(doc),
              "seed": _names(p, seed), "members": listing, "passed": True}
    lines = ["generated submodule (%d members):" % len(members)]
    lines += ["  %-6s stage %d (%s)" % (e["object"], e["stage"], e["via"])
              for e in listing]
    return _emit(args, report, lines)


def cmd_witness(args):
    p, _, doc = _load(args)
    seed = _parse_seed(p, args.seed)
    index = {name: i for i, name in enumerate(p.names)}
    if args.target not in index:
        raise DocumentError("unknown target object %r" % args.target)
    target = index[args.target]
    members, cert = generate(p, seed)
    if target not in members:
        raise GenerationError("target %s is not generated by the seed" % args.target)
    w = witnesses(cert, target, seed)
    report = {"command": "witness", "digest": model_digest(doc),
              "seed": _names(p, seed), "target": args.target,
              "witnesses": _names(p, w), "passed": True}
    return _emit(args, report, ["witnesses for %s: %s"
                                % (args.target, ",".join(_names(p, w)) or "(none)")])


def cmd_smod(args):
    p, _, doc = _load(args)
    space = enumerate_smod(p)
    report = {"command": "smod", "digest": model_digest(doc),
              "points": [_names(p, pt) for pt in space.points], "passed": True}
    _write_dot(args, docio.specialization_dot(p, space))
    lines = ["SMod has %d points:" % len(space.points)]
    lines += ["  " + docio.point_label(p, pt) for pt in space.points]
    return _emit(args, report, lines)


def cmd_operators(args):
    p, operators, doc = _load(args)
    c = _operator(p, operators, args.operator)
    cls = classify(p, c)
    flags = {"extensive": cls.extensive, "order_preserving": cls.order_preserving,
             "idempotent": cls.idempotent, "finite_type": cls.finite_type}
    report = {"command": "operators", "digest": model_digest(doc),
              "operator": args.operator, "kind": c.kind, "flags": flags,
              "witnesses": list(cls.witnesses), "passed": True}
    lines = ["operator %s (%s):" % (args.operator, c.kind)]
    lines += ["  %-16s %s" % (k, v) for k, v in flags.items()]
    return _emit(args, report, lines)


def cmd_spectral(args):
    p, operators, doc = _load(args)
    c = _operator(p, operators, args.operator)
    space = fixed_points(enumerate_smod(p), c)
    rep = spectral_report(space)
    report = {"command": "spectral", "digest": model_digest(doc),
              "operator": args.operator, "points": len(space.points),
              "flags": {"t0": rep.t0, "sober": rep.sober,
                        "basis_quasi_compact": rep.basis_quasi_compact,
                        "basis_intersection_closed": rep.basis_intersection_closed,
                        "spectral": rep.spectral},
              "witnesses": list(rep.witnesses), "notes": list(rep.notes),
              "passed": rep.spectral}
    _write_dot(args, docio.specialization_dot(p, space))
    lines = ["fixed-point space: %d points" % len(space.points),
             "spectral: %s" % rep.spectral]
    return _emit(args, report, lines)


def cmd_ultrafilter(args):
    p, operators, doc = _load(args)
    c = _operator(p, operators, args.operator)
    space = fixed_points(enumerate_smod(p), c)
    rep = ultrafilter_check(space, c)
    report = {"command": "ultrafilter", "digest": model_digest(doc),
              "operator": args.operator, "note": rep.note,
              "points": [{"point": r.point, "thick": r.thick, "fixed": r.fixed,
                          "equals_point": r.equals_point,
                          "biconditional": r.biconditional}
                         for r in rep.results],
              "passed": rep.passed}
    return _emit(args, report, ["ultrafilter check over %d principal ultrafilters: %s"
                                % (len(rep.results), "pass" if rep.passed else "FAIL")])


def cmd_monoid(args):
    p, operators, doc = _load(args)
    c = _operator(p, operators, args.operator)
    rep = monoid_report(c)
    report = {"command": "monoid", "digest": model_digest(doc),
              "operator": args.operator, "points": len(rep.space.points),
              "identity": rep.identity,
              "flags": {"closed": rep.closed, "commutative": rep.commutative,
                        "associative": rep.associative, "neutral": rep.neutral,
                        "idempotent": rep.idempotent, "continuous": rep.continuous},
              "witnesses": list(rep.witnesses), "passed": rep.passed}
    _write_dot(args, docio.monoid_dot(p, rep))
    lines = ["monoid on %d points: %s" % (len(rep.space.points),
                                          "pass" if rep.passed else "FAIL")]
    return _emit(args, report, lines)


def cmd_report(args):
    p, operators, doc = _load(args)
    checks = []
    passed = True
    space = enumerate_smod(p)
    basis = basis_properties(p, space)
    checks.append({"name": "basis_properties", "passed": basis.passed,
                   "witnesses": list(basis.witnesses)})
    passed &= basis.passed
    names = ["identity"] + sorted(operators)
    for name in names:
        c = _operator(p, operators, name)
        cls = classify(p, c)
        entry = {"name": "operator:" + name,
                 "flags": {"extensive": cls.extensive,
                           "order_preserving": cls.order_preserving,
                           "idempotent": cls.idempotent,
                           "finite_type": cls.finite_type},
                 "gate": cls.gate}
        if cls.gate:
            mrep = monoid_report(c)
            srep = spectral_report(mrep.space)
            urep = ultrafilter_check(mrep.space, c)
            entry["spectral"] = srep.spectral
            entry["ultrafilter"] = urep.passed
            entry["monoid"] = mrep.passed
            entry["passed"] = srep.spectral and urep.passed and mrep.passed
        else:
            entry["passed"] = True  # a non-gated operator is classified only
        checks.append(entry)
        passed &= entry["passed"]
    report = {"command": "report", "digest": model_digest(doc),
              "checks": checks, "passed": bool(passed)}
    lines = ["full report: %s" % ("pass" if passed else "FAIL")]
    for entry in checks:
        lines.append("  %-24s %s" % (entry["name"],
                                     "pass" if entry["passed"] else "FAIL"))
    return _emit(args, report, lines)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ttg",
        description="thick-submodule spaces over finite tensor triangulated models")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, operator=False, dot=False):
        sp.add_argument("--model", required=True, help="model JSON file")
        sp.add_argument("--out", help="write the structured report to a file")
        sp.add_argument("--max-objects", type=int, default=MAX_OBJECTS_DEFAULT)
        if operator:
            sp.add_argument("--operator", default="identity",
                            help="named operator from the model, or 'identity'")
        if dot:
            sp.add_argument("--dot", help="write a DOT graph to a file")

    common(sub.add_parser("validate", help="check all presentation axioms"))
    sp = sub.add_parser("generate", help="generate a thick submodule from a seed")
    common(sp)
    sp.add_argument("--seed", default="", help="comma-separated object names")
    sp = sub.add_parser("witness", help="finite witness set for a generated object")
    common(sp)
    sp.add_argument("--seed", default="")
    sp.add_argument("--target", required=True)
    common(sub.add_parser("smod", help="enumerate all thick submodules"), dot=True)
    common(sub.add_parser("operators", help="classify a named operator"),
           operator=True)
    common(sub.add_parser("spectral", help="spectral checks on the fixed-point space"),
           operator=True, dot=True)
    common(sub.add_parser("ultrafilter", help="ultrafilter fixed-point checks"),
           operator=True)
    common(sub.add_parser("monoid", help="monoid structure certificate"),
           operator=True, dot=True)
    common(sub.add_parser("report", help="run every check"))
    return parser


HANDLERS = {
    "validate": cmd_validate,
    "generate": cmd_generate,
    "witness": cmd_witness,
    "smod": cmd_smod,
    "operators": cmd_operators,
    "spectral": cmd_spectral,
    "ultrafilter": cmd_ultrafilter,
    "monoid": cmd_monoid,
    "report": cmd_report,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    except ModelInvalidError as exc:
        print("invalid model: %s" % exc, file=sys.stderr)
        return 1
    except (DocumentError, PresentationError, GenerationError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (OperatorError, MonoidError) as exc:
        print("check error: %s" % exc, file=sys.stderr)
        return 1


def console():
    sys.exit(main())


if __name__ == "__main__":
    console()
