"""One benchmark job, run by run.py in a fresh interpreter.

Usage: python3 job.py <spec.json> <result.json>

The spec's "mode" is one of:

  cli      run ``ttg.cli.main(argv)`` exactly as the ``ttg`` command does.
           Set-up is the ``ttg.cli`` import plus ``ttg.docio.load``; the
           verdict time runs from the loaded model to ``main`` returning.
  trace    make the sequence of public calls the CLI subcommand makes, each
           inside a span, and return its verdicts and flags.
  queries  load one support model, then answer closure queries: ``generate``
           with its certificate, ``witnesses`` for the largest member,
           ``is_thick`` on the result.  Each answer is checked against the
           closed form on support models.  With "trace" set, every call is
           inside a span.

Spans are kept in memory and written with the result when the job ends.
The child exits 0 whenever it wrote a result; the CLI's own exit code is
in the result.
"""

import json
import resource
import sys
from contextlib import contextmanager, nullcontext
from time import perf_counter


def _ttg_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "ttg" or name.startswith("ttg.")]


class Tracer:
    """Spans with id, name, start, end, job id and parent span id."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._stack = []

    @contextmanager
    def _open(self, name, job):
        parent = self.spans[self._stack[-1]] if self._stack else None
        span = {"id": len(self.spans), "name": name,
                "job": job if job is not None else parent and parent["job"],
                "parent": parent and parent["id"],
                "start": perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield
        finally:
            span["end"] = perf_counter()
            self._stack.pop()

    def span(self, name, job=None):
        return self._open(name, job) if self.enabled else nullcontext()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


def _cache_counters():
    """Hits and misses of every memoized function in ttg, by qualified name."""
    out = {}
    for module in _ttg_modules():
        for attr, value in sorted(vars(module).items()):
            info = getattr(value, "cache_info", None)
            if callable(info) and getattr(value, "__module__", None) == module.__name__:
                stats = info()
                out["%s.%s" % (module.__name__, attr)] = [stats.hits, stats.misses]
    return out


def run_cli(spec, result):
    start = perf_counter()
    import ttg.cli
    import ttg.docio
    import_s = perf_counter() - start

    original = ttg.docio.load
    marks = {}

    def timed_load(*args, **kwargs):
        begin = perf_counter()
        loaded = original(*args, **kwargs)
        marks["loaded"] = perf_counter()
        marks["load_s"] = marks["loaded"] - begin
        return loaded

    for module in _ttg_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, timed_load)

    rc = ttg.cli.main(spec["argv"])
    end = perf_counter()
    if "loaded" not in marks:
        sys.exit("job.py: %s never called ttg.docio.load" % spec["job"])
    result.update(rc=rc, setup_s=import_s + marks["load_s"],
                  verdict_s=end - marks["loaded"], caches=_cache_counters())


def _flags(obj, names):
    return {name: getattr(obj, name) for name in names}


CLASSIFY_FLAGS = ("extensive", "order_preserving", "idempotent", "finite_type")
SPECTRAL_FLAGS = ("t0", "sober", "basis_quasi_compact",
                  "basis_intersection_closed", "spectral")
MONOID_FLAGS = ("closed", "commutative", "associative", "neutral",
                "idempotent", "continuous")


def run_trace(spec, result, tr):
    """The public calls of ``ttg report``, ``ttg spectral`` or ``ttg monoid``."""
    from ttg import docio
    from ttg.monoid import monoid_report
    from ttg.operators import classify, identity_operator
    from ttg.space import (basis_properties, enumerate_smod, fixed_points,
                           spectral_report, ultrafilter_check)

    counts = {"space.points": 0, "monoid.op_cells": 0}
    with tr.span("job", job=spec["job"]):
        p, operators, _ = tr.call("docio.load", docio.load, spec["model"],
                                  max_objects=spec["max_objects"])

        def operator(name):
            return identity_operator(p) if name == "identity" else operators[name]

        def monoid(c):
            rep = tr.call("monoid.monoid_report", monoid_report, c)
            counts["monoid.op_cells"] += len(rep.space.points) ** 2
            return rep

        command = spec["command"]
        if command == "report":
            space = tr.call("space.enumerate_smod", enumerate_smod, p)
            counts["space.points"] += len(space.points)
            basis = tr.call("space.basis_properties", basis_properties, p, space)
            checks = [{"name": "basis_properties", "passed": basis.passed}]
            passed = basis.passed
            for name in ["identity"] + sorted(operators):
                c = operator(name)
                cls = tr.call("operators.classify", classify, p, c)
                entry = {"name": "operator:" + name,
                         "flags": _flags(cls, CLASSIFY_FLAGS), "gate": cls.gate,
                         "passed": True}
                if cls.gate:
                    fixed = tr.call("space.fixed_points", fixed_points, space, c)
                    srep = tr.call("space.spectral_report", spectral_report, fixed)
                    urep = tr.call("space.ultrafilter_check", ultrafilter_check,
                                   fixed, c)
                    mrep = monoid(c)
                    entry.update(spectral=srep.spectral, ultrafilter=urep.passed,
                                 monoid=mrep.passed,
                                 passed=srep.spectral and urep.passed and mrep.passed)
                checks.append(entry)
                passed &= entry["passed"]
            verdicts = {"checks": checks, "passed": bool(passed)}
        elif command == "spectral":
            c = operator(spec["operator"])
            smod = tr.call("space.enumerate_smod", enumerate_smod, p)
            space = tr.call("space.fixed_points", fixed_points, smod, c)
            counts["space.points"] += len(space.points)
            rep = tr.call("space.spectral_report", spectral_report, space)
            verdicts = {"points": len(space.points),
                        "flags": _flags(rep, SPECTRAL_FLAGS), "passed": rep.spectral}
        elif command == "monoid":
            rep = monoid(operator(spec["operator"]))
            counts["space.points"] += len(rep.space.points)
            verdicts = {"points": len(rep.space.points), "identity": rep.identity,
                        "flags": _flags(rep, MONOID_FLAGS), "passed": rep.passed}
        else:
            sys.exit("job.py: no traced sequence for %r" % command)
    result.update(verdicts=verdicts, counts=counts)


def atom_sets(names):
    """The atom set of each support-model object: z is empty, t is every atom."""
    atoms = frozenset("".join(n for n in names if n not in ("z", "t")))
    return [atoms if n == "t" else frozenset() if n == "z" else frozenset(n)
            for n in names]


def run_queries(spec, result, tr):
    start = perf_counter()
    from ttg import docio
    from ttg.thick import generate, is_thick, witnesses
    import_s = perf_counter() - start

    begin = perf_counter()
    with tr.span("setup", job="setup"):
        p, _, doc = tr.call("docio.load", docio.load, spec["model"],
                            max_objects=spec["max_objects"])
    setup_s = import_s + perf_counter() - begin

    letters = atom_sets(p.names)
    index = {name: i for i, name in enumerate(p.names)}

    # Closed form on support models: generate(X) is every subset of the
    # union of X, so a witness set W regenerates its target exactly when the
    # target lies under the union of W.
    def union(ids):
        return frozenset().union(*(letters[i] for i in ids))

    answers = []
    for k, seed_names in enumerate(spec["queries"]):
        X = frozenset(index[name] for name in seed_names)
        with tr.span("query", job="q%d" % k):
            begin = perf_counter()
            members, cert = tr.call("thick.generate", generate, p, X)
            target = max(members)
            w = tr.call("thick.witnesses", witnesses, cert, target, X)
            thick = tr.call("thick.is_thick", is_thick, p, members)
            verdict_s = perf_counter() - begin
        expected = frozenset(m for m in range(p.n_objects) if letters[m] <= union(X))
        ok = (members == expected and bool(thick) and w <= X
              and letters[target] <= union(w))
        answers.append({"verdict_s": verdict_s, "ok": ok, "members": len(members),
                        "verdict": [sorted(members), sorted(w), bool(thick)]})
    result.update(setup_s=setup_s, digest=docio.model_digest(doc), answers=answers)


def main(spec_path, result_path):
    fresh = not _ttg_modules()
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"job": spec["job"], "fresh": fresh}
    tr = Tracer(spec.get("trace", False))
    if spec["mode"] == "cli":
        run_cli(spec, result)
    elif spec["mode"] == "trace":
        run_trace(spec, result, tr)
    elif spec["mode"] == "queries":
        run_queries(spec, result, tr)
    else:
        sys.exit("job.py: unknown mode %r" % spec["mode"])
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["spans"] = tr.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: job.py <spec.json> <result.json>")
    main(sys.argv[1], sys.argv[2])
