"""Command line front end.

Subcommands cover the whole pipeline: presentation validation, submodule
generation with stage annotations, witness extraction, space enumeration,
operator classification, the spectral and ultrafilter verifications, the
monoid certificate, and an everything-at-once report.  Exit status is 0
when every verdict passes, 1 on check failures, 2 on usage or parse errors.
"""

import argparse
import os
import sys

from . import docio
from .docio import (DocumentError, ModelInvalidError, model_digest, monoid_dot,
                    specialization_dot)
from .monoid import monoid_report
from .operators import OperatorError, classify, identity_operator
from .presentation import MAX_OBJECTS_DEFAULT, PresentationError
from .space import (basis_properties, enumerate_smod, fixed_space,
                    spectral_report, ultrafilter_check)
from .thick import GenerationError, generate, witnesses


def _operator(p, operators, name):
    if name == "identity":
        return identity_operator(p)
    if name not in operators:
        raise DocumentError("model defines no operator named %r" % name)
    return operators[name]


def _names(p, members):
    return [p.names[m] for m in sorted(members)]


def _seed(p, text):
    if not text:
        return frozenset()
    resolve = docio._resolver(p.names, "seed")
    return frozenset(resolve(token.strip()) for token in text.split(","))


def _flags(obj, names):
    return {name: getattr(obj, name) for name in names}


_CLASSIFY_FLAGS = ("extensive", "order_preserving", "idempotent", "finite_type")


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DocumentError("cannot write %s: %s" % (path, exc))


def _write_dot(args, render):
    """Write ``render()`` to the ``--dot`` file; build no text without one."""
    if args.dot:
        _write(args.dot, render())


def cmd_validate(args, p, operators):
    return ({"checks": [{"name": "axioms", "passed": True}], "passed": True},
            ["validate: ok (%d objects, %d triangles)"
             % (p.n_objects, len(p.triangles))])


def _step_data(p, rec):
    """A record's data by name: (a, m, cofactor), a named in the base, or
    (triangle, pred1, pred2) with the triangle as a list of names."""
    if rec.kind == "bar":
        a, m, cofactor = rec.data
        return [p.base.names[a], p.names[m], p.names[cofactor]]
    if rec.kind == "delta":
        t, x, y = rec.data
        return [[p.names[v] for v in t], p.names[x], p.names[y]]
    return []


def cmd_generate(args, p, operators):
    seed = _seed(p, args.seed)
    members, cert = generate(p, seed)
    listing = [{"object": p.names[m], "stage": rec.stage, "via": rec.kind,
                "order": rec.order, "data": _step_data(p, rec)}
               for m, rec in sorted(cert.records.items())]
    lines = ["generated submodule (%d members):" % len(members)]
    lines += ["  %-6s stage %d (%s)" % (e["object"], e["stage"], e["via"])
              for e in listing]
    return {"seed": _names(p, seed), "members": listing, "passed": True}, lines


def cmd_witness(args, p, operators):
    seed = _seed(p, args.seed)
    if args.target not in p.names:
        raise DocumentError("unknown target object %r" % args.target)
    target = p.names.index(args.target)
    members, cert = generate(p, seed)
    if target not in members:
        raise GenerationError("target %s is not generated by the seed" % args.target)
    w = _names(p, witnesses(cert, target, seed))
    return ({"seed": _names(p, seed), "target": args.target, "witnesses": w,
             "passed": True},
            ["witnesses for %s: %s" % (args.target, ",".join(w) or "(none)")])


def cmd_smod(args, p, operators):
    space = enumerate_smod(p)
    _write_dot(args, lambda: specialization_dot(p, space))
    lines = ["SMod has %d points:" % len(space.points)]
    lines += ["  " + docio.point_label(p, pt) for pt in space.points]
    return ({"points": [_names(p, pt) for pt in space.points], "passed": True},
            lines)


def cmd_operators(args, p, operators):
    c = _operator(p, operators, args.operator)
    cls = classify(p, c)
    flags = _flags(cls, _CLASSIFY_FLAGS)
    lines = ["operator %s (%s):" % (args.operator, c.kind)]
    lines += ["  %-16s %s" % (k, v) for k, v in flags.items()]
    return ({"operator": args.operator, "kind": c.kind, "flags": flags,
             "witnesses": list(cls.witnesses), "passed": True}, lines)


def cmd_spectral(args, p, operators):
    c = _operator(p, operators, args.operator)
    space = fixed_space(c)
    rep = spectral_report(space)
    _write_dot(args, lambda: specialization_dot(p, space))
    return ({"operator": args.operator, "points": len(space.points),
             "flags": _flags(rep, ("t0", "sober", "basis_quasi_compact",
                                   "basis_intersection_closed", "spectral")),
             "witnesses": list(rep.witnesses), "notes": list(rep.notes),
             "passed": rep.spectral},
            ["fixed-point space: %d points" % len(space.points),
             "spectral: %s" % rep.spectral])


def cmd_ultrafilter(args, p, operators):
    c = _operator(p, operators, args.operator)
    rep = ultrafilter_check(fixed_space(c), c)
    points = [{"point": r.point, "thick": r.thick, "fixed": r.fixed,
               "equals_point": r.equals_point, "biconditional": r.biconditional}
              for r in rep.results]
    return ({"operator": args.operator, "note": rep.note, "points": points,
             "passed": rep.passed},
            ["ultrafilter check over %d principal ultrafilters: %s"
             % (len(rep.results), "pass" if rep.passed else "FAIL")])


def cmd_monoid(args, p, operators):
    rep = monoid_report(_operator(p, operators, args.operator))
    _write_dot(args, lambda: monoid_dot(p, rep))
    return ({"operator": args.operator, "points": len(rep.space.points),
             "identity": rep.identity,
             "flags": _flags(rep, ("closed", "commutative", "associative",
                                   "neutral", "idempotent", "continuous")),
             "witnesses": list(rep.witnesses), "passed": rep.passed},
            ["monoid on %d points: %s" % (len(rep.space.points),
                                          "pass" if rep.passed else "FAIL")])


def cmd_report(args, p, operators):
    basis = basis_properties(p, enumerate_smod(p))
    checks = [{"name": "basis_properties", "passed": basis.passed,
               "witnesses": list(basis.witnesses)}]
    for name in ["identity"] + sorted(operators):
        c = _operator(p, operators, name)
        cls = classify(p, c)
        entry = {"name": "operator:" + name, "flags": _flags(cls, _CLASSIFY_FLAGS),
                 "gate": cls.gate, "passed": True}
        if cls.gate:  # a non-gated operator is classified only
            mrep = monoid_report(c)
            srep = spectral_report(mrep.space)
            urep = ultrafilter_check(mrep.space, c)
            entry.update(spectral=srep.spectral, ultrafilter=urep.passed,
                         monoid=mrep.passed,
                         passed=srep.spectral and urep.passed and mrep.passed)
        checks.append(entry)
    passed = all(entry["passed"] for entry in checks)
    lines = ["full report: %s" % ("pass" if passed else "FAIL")]
    lines += ["  %-24s %s" % (entry["name"], "pass" if entry["passed"] else "FAIL")
              for entry in checks]
    return {"checks": checks, "passed": passed}, lines


_OPERATOR = ("--operator", {"default": "identity",
                            "help": "named operator from the model, or 'identity'"})
_DOT = ("--dot", {"help": "write a DOT graph to a file"})
_SEED = ("--seed", {"default": "", "help": "comma-separated object names"})

# Each subcommand: its handler, help line and options beyond the common three.
COMMANDS = {
    "validate": (cmd_validate, "check all presentation axioms", ()),
    "generate": (cmd_generate, "generate a thick submodule from a seed", (_SEED,)),
    "witness": (cmd_witness, "finite witness set for a generated object",
                (_SEED, ("--target", {"required": True}))),
    "smod": (cmd_smod, "enumerate all thick submodules", (_DOT,)),
    "operators": (cmd_operators, "classify a named operator", (_OPERATOR,)),
    "spectral": (cmd_spectral, "spectral checks on the fixed-point space",
                 (_OPERATOR, _DOT)),
    "ultrafilter": (cmd_ultrafilter, "ultrafilter fixed-point checks", (_OPERATOR,)),
    "monoid": (cmd_monoid, "monoid structure certificate", (_OPERATOR, _DOT)),
    "report": (cmd_report, "run every check", ()),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ttg",
        description="thick-submodule spaces over finite tensor triangulated models")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--model", required=True, help="model JSON file")
        sp.add_argument("--out", help="write the structured report to a file")
        sp.add_argument("--max-objects", type=int, default=MAX_OBJECTS_DEFAULT)
        for flag, kwargs in options:
            sp.add_argument(flag, **kwargs)
    return parser


def _run(args):
    """Load the model once, run the subcommand on it, write its report and
    print its lines.  Only ``validate`` reports an invalid model; every
    other subcommand lets ``ModelInvalidError`` reach ``main``."""
    try:
        p, operators, doc = docio.load(args.model, max_objects=args.max_objects)
    except ModelInvalidError as exc:
        if args.command != "validate":
            raise
        report = {"checks": [{"name": "axioms", "passed": False,
                              "violations": exc.messages}], "passed": False}
        lines = ["validate: FAIL"] + ["  " + m for m in exc.messages]
    else:
        report, lines = COMMANDS[args.command][0](args, p, operators)
        report["digest"] = model_digest(doc)
    report["command"] = args.command
    if args.out:
        _write(args.out, docio.dump_document(report))
    for line in lines:
        print(line)
    return 0 if report["passed"] else 1


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ModelInvalidError as exc:
        print("invalid model: %s" % exc, file=sys.stderr)
        return 1
    except (DocumentError, PresentationError, GenerationError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OperatorError as exc:
        print("check error: %s" % exc, file=sys.stderr)
        return 1


def console():
    """The ``ttg`` script: exit with ``main``'s status.  When stdout closes
    early, as under ``| head``, exit 1 without a traceback, pointing stdout
    at devnull so that the flush at interpreter exit does not fail again
    (the recipe of the ``signal`` module docs, "Note on SIGPIPE")."""
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)


if __name__ == "__main__":
    console()
