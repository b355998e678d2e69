#!/usr/bin/env python3
"""The ttg benchmark.

Usage, from the root of a source checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --print-golden

ttg is driven only through its public entry points: ``ttg.cli.main`` and
the public functions of its modules.  Load is a closed loop with one client:
each job runs to its verdict before the next starts, one worker process at
a time.  Every CLI job runs in a fresh interpreter, as a user's ``ttg``
command does, and is timed inside that child (see job.py).

Workloads (the stress inputs are built by inputs.py):

  report-shipped   ``ttg report --out`` on the shipped support2, support3
                   and chain3 models: every stage at small scale, with load,
                   validation and digest a visible share of each job.
  monoid-stress    ``ttg monoid`` with identity on chain_model(10) and with
                   division by {ab} on support_model(4): the thick closure
                   under ``add`` inside ``monoid_report`` dominates.
  spectral-stress  ``ttg spectral --max-objects 24`` with identity on the
                   24 down-sets of a 5-element poset (24 points, 887 opens):
                   ``spectral_report`` dominates, closure work is small.
  closure-queries  one process loads support_model(5) once and answers
                   seeded queries: ``generate`` with its certificate,
                   ``witnesses`` for the largest member, ``is_thick``.

A run with --trace 0 runs whole passes of its workload until --seconds have
passed and prints the end-to-end metrics.  A run with --trace 1 spends half
of --seconds on untraced passes and the rest on traced passes, which make
the same public calls inside spans, and prints the per-layer metrics.

Correctness: every CLI job must exit with the code and write the ``--out``
report whose sha256 golden.json records; every closure query must match
the closed form on support models; every traced verdict and flag must equal
the untraced one.  A job that raises, exits non-zero, times out or gives a
wrong output counts as failed.

The last line printed is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it give the run info, the inputs left
out and every metric by name with its unit.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

from job import atom_sets

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
GOLDEN = os.path.join(HERE, "golden.json")

JOB_TIMEOUT_S = 120
RUN_DEADLINE_S = 170       # no job is started or kept running past this
QUERIES_PER_PASS = 100
QUERY_UNION_SIZES = (1, 2, 3, 4, 5)   # equal shares of every pass
SETUP_PROBES = 9
QUERY_MODEL_OBJECTS = 32
ISOLATION_ROUNDS = 7
ISOLATION_TOLERANCE = 0.15   # share of the job's time; above run-to-run noise

# Jobs: (job id, subcommand, model, operator, --max-objects).  A model named
# in inputs.GENERATORS is generated; any other is a shipped file in models/.
WORKLOADS = {
    "report-shipped": [
        ("report/support2", "report", "support2", None, None),
        ("report/support3", "report", "support3", None, None),
        ("report/chain3", "report", "chain3", None, None),
    ],
    "monoid-stress": [
        ("monoid/chain10/identity", "monoid", "chain10", "identity", None),
        ("monoid/support4/div_ab", "monoid", "support4", "div_ab", None),
    ],
    "spectral-stress": [
        ("spectral/lattice24/identity", "spectral", "lattice24", "identity", 24),
    ],
    "closure-queries": "support5",
}

LAYERS = ("docio.load", "space.enumerate_smod", "operators.classify",
          "space.basis_properties", "space.fixed_points", "space.spectral_report",
          "space.ultrafilter_check", "monoid.monoid_report", "thick.generate",
          "thick.witnesses", "thick.is_thick")
COUNTS = ("space.points", "monoid.op_cells", "thick.members")


def percentile(values, q):
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def model_path(name):
    from inputs import GENERATORS
    if name in GENERATORS:
        return os.path.join(WORK, "inputs", name + ".json")
    return os.path.join(ROOT, "models", name + ".json")


def write_inputs(names):
    """Build the named stress documents; return their model digests."""
    from inputs import GENERATORS
    from ttg.docio import model_digest, save
    os.makedirs(os.path.join(WORK, "inputs"), exist_ok=True)
    digests = {}
    for name in names:
        doc = GENERATORS[name]()
        save(doc, model_path(name))
        digests[name] = model_digest(doc)
    return digests


def cli_spec(job, out_path):
    job_id, command, model, operator, max_objects = job
    argv = [command, "--model", model_path(model), "--out", out_path]
    if operator:
        argv += ["--operator", operator]
    if max_objects:
        argv += ["--max-objects", str(max_objects)]
    return {"mode": "cli", "job": job_id, "argv": argv}


def trace_spec(job):
    job_id, command, model, operator, max_objects = job
    return {"mode": "trace", "trace": True, "job": job_id, "command": command,
            "model": model_path(model), "operator": operator,
            "max_objects": max_objects or 16}


def cli_verdicts(command, report):
    """The verdicts and flags of a CLI report, without witnesses."""
    if command == "report":
        return {"checks": [{k: v for k, v in e.items() if k != "witnesses"}
                           for e in report["checks"]],
                "passed": report["passed"]}
    keys = {"spectral": ("points", "flags", "passed"),
            "monoid": ("points", "identity", "flags", "passed")}[command]
    return {k: report[k] for k in keys}


class Runner:
    """Spawns one child at a time and keeps the run's failure count."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.seq = 0

    def expired(self):
        return time.monotonic() >= self.deadline

    def fail(self, what, why, count=1):
        self.failed += count
        print("FAILED %s: %s" % (what, why), file=sys.stderr)

    def spawn(self, spec):
        """Run job.py on spec; return (result or None, error, wall seconds)."""
        self.seq += 1
        spec_path = os.path.join(WORK, "spec-%d.json" % self.seq)
        result_path = os.path.join(WORK, "result-%d.json" % self.seq)
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        timeout = min(JOB_TIMEOUT_S, max(1.0, self.deadline - time.monotonic()))
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "job.py"), spec_path, result_path],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, "timed out after %.0f s" % timeout, time.monotonic() - start
        wall = time.monotonic() - start
        if proc.returncode != 0:
            tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            return None, "exit %d %s" % (proc.returncode, " ".join(tail)), wall
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh), None, wall


class CliWorkload:
    """Whole passes over a fixed list of cold CLI jobs."""

    def __init__(self, runner, jobs, golden):
        self.runner = runner
        self.jobs = jobs
        self.golden = golden
        self.models = sorted({(job[2], job[4]) for job in jobs}, key=str)
        self.reference = {}     # job id -> untraced verdicts, for trace fidelity
        self.passes = []        # untraced: (pass_s, [job results])
        self.traced = []        # traced: (pass_s, [job results])

    def run_pass(self, traced):
        wall_total = 0.0
        results = []
        for job in self.jobs:
            if self.runner.expired():
                return
            self.runner.attempted += 1
            job_id, command = job[0], job[1]
            out_path = os.path.join(WORK, job_id.replace("/", "_") + ".out.json")
            if os.path.exists(out_path):
                os.remove(out_path)
            spec = trace_spec(job) if traced else cli_spec(job, out_path)
            res, err, wall = self.runner.spawn(spec)
            wall_total += wall
            if res is None:
                self.runner.fail(job_id, err)
                continue
            err = self.check(job_id, command, res, out_path, traced)
            if err:
                self.runner.fail(job_id, err)
                continue
            results.append(res)
        if len(results) == len(self.jobs):
            (self.traced if traced else self.passes).append((wall_total, results))

    def check(self, job_id, command, res, out_path, traced):
        if not res["fresh"]:
            return "ttg was already imported in the child"
        if traced:
            want = self.reference.get(job_id)
            if want is None:
                return "no untraced verdicts to compare with"
            if res["verdicts"] != want:
                return "traced verdicts differ from the CLI's"
            return None
        golden = self.golden["jobs"][job_id]
        if res["rc"] != golden["rc"]:
            return "exit code %r, golden %r" % (res["rc"], golden["rc"])
        if not os.path.exists(out_path) or sha256_file(out_path) != golden["out_sha256"]:
            return "--out report differs from the golden sha256"
        if job_id not in self.reference:
            with open(out_path, encoding="utf-8") as fh:
                self.reference[job_id] = cli_verdicts(command, json.load(fh))
        return None

    def samples(self):
        jobs = [r for _, results in self.passes for r in results]
        return ([r["verdict_s"] for r in jobs], [r["setup_s"] for r in jobs],
                [s for s, _ in self.passes])

    def layer_passes(self):
        return [(s, [r["spans"] for r in results],
                 {k: sum(r["counts"].get(k, 0) for r in results) for k in COUNTS})
                for s, results in self.traced]

    def maxrss_kb(self):
        return [r["maxrss_kb"] for _, results in self.passes + self.traced
                for r in results]


class QueryWorkload:
    """Passes of one long-lived process each, answering seeded queries."""

    def __init__(self, runner, model, seed, digest):
        self.runner = runner
        self.model = model
        self.models = [(model, QUERY_MODEL_OBJECTS)]
        self.seed = seed
        self.digest = digest
        self.passes = []        # (pass_s, result)
        self.traced = []
        self.names = None

    def queries(self, k):
        """Pass k's draw: 1-3 seed objects per query, with the same number of
        queries for each size of the union of the seeds, so that the mix of
        closure sizes behind every metric is the same for every seed."""
        if self.names is None:
            with open(model_path(self.model), encoding="utf-8") as fh:
                self.names = json.load(fh)["category"]["objects"]
            self.atoms = dict(zip(self.names, atom_sets(self.names)))
        rng = random.Random("%d/%d" % (self.seed, k))
        sizes = list(QUERY_UNION_SIZES) * (QUERIES_PER_PASS // len(QUERY_UNION_SIZES))
        rng.shuffle(sizes)
        draw = []
        for size in sizes:
            while True:
                seeds = rng.sample(self.names, rng.randint(1, 3))
                if len(frozenset().union(*(self.atoms[n] for n in seeds))) == size:
                    break
            draw.append(seeds)
        return draw

    def run_pass(self, traced):
        if self.runner.expired():
            return
        k = len(self.traced) % len(self.passes) if traced else len(self.passes)
        spec = {"mode": "queries", "trace": traced, "job": "queries/%d" % k,
                "model": model_path(self.model),
                "max_objects": QUERY_MODEL_OBJECTS, "queries": self.queries(k)}
        res, err, wall = self.runner.spawn(spec)
        self.runner.attempted += QUERIES_PER_PASS
        if res is None:
            self.runner.fail(spec["job"], err, QUERIES_PER_PASS)
            return
        bad = [i for i, a in enumerate(res["answers"]) if not a["ok"]]
        if not res["fresh"] or res["digest"] != self.digest:
            bad = list(range(QUERIES_PER_PASS))
        elif traced:
            want = self.passes[k][1]["answers"]
            bad = [i for i, (a, b) in enumerate(zip(res["answers"], want))
                   if not a["ok"] or a["verdict"] != b["verdict"]]
        for i in bad:
            self.runner.fail("%s query %d" % (spec["job"], i),
                             "answer differs from the oracle or the untraced run")
        if not bad:
            (self.traced if traced else self.passes).append((wall, res))

    def samples(self):
        return ([a["verdict_s"] for _, r in self.passes for a in r["answers"]],
                [r["setup_s"] for _, r in self.passes],
                [s for s, _ in self.passes])

    def layer_passes(self):
        return [(s, [r["spans"]], {"space.points": 0, "monoid.op_cells": 0,
                                   "thick.members": sum(a["members"]
                                                        for a in r["answers"])})
                for s, r in self.traced]

    def maxrss_kb(self):
        return [r["maxrss_kb"] for _, r in self.passes + self.traced]


def probe_setups(runner, models):
    """Set-up samples from cold ``ttg validate`` jobs, SETUP_PROBES per run,
    cycling over the workload's (model, --max-objects) pairs."""
    setups = []
    for i in range(SETUP_PROBES):
        model, max_objects = models[i % len(models)]
        job = ("setup/" + model, "validate", model, None, max_objects)
        runner.attempted += 1
        res, err, _ = runner.spawn(cli_spec(job, os.path.join(WORK, "setup.out.json")))
        if res is None or res["rc"] != 0 or not res["fresh"]:
            runner.fail(job[0], err or "validate did not pass in a fresh interpreter")
        else:
            setups.append(res["setup_s"])
    return setups


def end_to_end(workload, runner, probes):
    verdicts, setups, passes = workload.samples()
    setups += probes
    return {
        "verdict_s.p50": (statistics.median(verdicts), "s"),
        "verdict_s.p90": (percentile(verdicts, 0.9), "s"),
        "pass_s": (statistics.median(passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(workload.maxrss_kb()) / 1024.0, "MB"),
        "ok_frac": (1.0 - runner.failed / runner.attempted, "frac"),
    }


def per_layer(workload):
    rows = workload.layer_passes()
    metrics = {}
    for layer in LAYERS:
        per_pass = [sum(s["end"] - s["start"] for spans in job_spans for s in spans
                        if s["name"] == layer) for _, job_spans, _ in rows]
        metrics[layer + "_s"] = (float(statistics.median(per_pass)), "s")
    for count in COUNTS:
        metrics[count] = (float(statistics.median(c[count] for _, _, c in rows)), "count")
    untraced = statistics.median(s for s, _ in workload.passes)
    traced = statistics.median(s for s, _, _ in rows)
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "frac")
    return metrics


def write_trace(name, workload):
    """All spans of the traced passes, one list per pass."""
    with open(os.path.join(WORK, "trace-%s.json" % name), "w", encoding="utf-8") as fh:
        json.dump([job_spans for _, job_spans, _ in workload.layer_passes()], fh)


def run_passes(workload, runner, traced, until):
    """Run whole passes while the next is expected to end by ``until``.

    The first pass always runs; stopping at pass boundaries keeps the mix
    of jobs behind every metric the same from run to run."""
    done = workload.traced if traced else workload.passes
    durations = []
    while not runner.expired():
        if durations and time.monotonic() + statistics.median(durations) > until:
            return
        begin = time.monotonic()
        count = len(done)
        workload.run_pass(traced)
        if len(done) == count and not done:
            return      # the first pass failed: no further pass would help
        durations.append(time.monotonic() - begin)


def run_workload(name, seed, seconds, trace, golden):
    start = time.monotonic()
    runner = Runner(start + RUN_DEADLINE_S)
    from inputs import GENERATORS
    spec = WORKLOADS[name]
    generated = [spec] if isinstance(spec, str) else sorted(
        {job[2] for job in spec} & set(GENERATORS))
    digests = write_inputs(generated)
    inputs_ok = all(digests[m] == golden["models"].get(m) for m in generated)
    if not inputs_ok:
        print("input digests differ from golden.json: %r" % digests, file=sys.stderr)
    if isinstance(spec, str):
        workload = QueryWorkload(runner, spec, seed, golden["models"][spec])
    else:
        workload = CliWorkload(runner, spec, golden)

    probes = [] if trace else probe_setups(runner, workload.models)
    run_passes(workload, runner, False, start + (seconds / 2.0 if trace else seconds))
    if trace and workload.passes:
        run_passes(workload, runner, True, start + seconds)

    complete = bool(workload.passes) and (not trace or bool(workload.traced))
    if complete:
        metrics = per_layer(workload) if trace else end_to_end(workload, runner, probes)
        if trace:
            write_trace(name, workload)
    else:
        metrics = {}
    print("run: workload=%s seed=%d seconds=%d trace=%d nproc=%d python=%s "
          "golden_commit=%s passes=%d traced_passes=%d"
          % (name, seed, seconds, trace, os.cpu_count(), platform.python_version(),
             golden["commit"], len(workload.passes), len(workload.traced)))
    for item in golden["excluded"]:
        print("excluded: %s: %s" % (item["input"], item["reason"]))
    verdicts, setups, passes = workload.samples()
    print("samples: verdicts=%d setups=%d passes=%d"
          % (len(verdicts), len(setups) + len(probes), len(passes)))
    print("failed_frac: %.6f (%d of %d)" % (runner.failed / max(1, runner.attempted),
                                           runner.failed, runner.attempted))
    for key, (value, unit) in metrics.items():
        print("%-28s %14.6f %s" % (key, value, unit))
    print(json.dumps({
        "correct": complete and inputs_ok and runner.failed == 0,
        "attempted": max(1, runner.attempted),
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def print_golden():
    """Exit codes and --out digests of every CLI job, and the input digests."""
    from inputs import GENERATORS
    runner = Runner(time.monotonic() + 3600)
    models = write_inputs(sorted(GENERATORS))
    jobs = {}
    for spec in WORKLOADS.values():
        for job in ([] if isinstance(spec, str) else spec):
            out_path = os.path.join(WORK, "golden.out.json")
            res, err, _ = runner.spawn(cli_spec(job, out_path))
            if res is None:
                sys.exit("%s: %s" % (job[0], err))
            jobs[job[0]] = {"rc": res["rc"], "out_sha256": sha256_file(out_path)}
    print(json.dumps({"models": models, "jobs": jobs}, indent=2, sort_keys=True))


def self_test(golden):
    """Inputs validate and match their digests; job timing is independent of
    the jobs run before it."""
    from inputs import GENERATORS
    runner = Runner(time.monotonic() + 3600)
    ok = True
    digests = write_inputs(sorted(GENERATORS))
    for name in sorted(GENERATORS):
        out_path = os.path.join(WORK, "validate.out.json")
        res, err, _ = runner.spawn(cli_spec(
            ("validate/" + name, "validate", name, None, QUERY_MODEL_OBJECTS), out_path))
        reported = None
        if res is not None:
            with open(out_path, encoding="utf-8") as fh:
                reported = json.load(fh).get("digest")
        good = (res is not None and res["rc"] == 0
                and digests[name] == reported == golden["models"][name])
        print("input %-10s validate rc=%s digest %s: %s"
              % (name, res and res["rc"], digests[name][:12], "ok" if good else "FAIL"))
        ok &= good

    # The target job runs cold as the first job of a sequence and as the
    # last, back to back, in alternating order.  A memo shared across jobs
    # would show as cache counters or a time that depend on the position.
    # Times are compared per round, so both sides of a ratio see the same
    # machine load.
    support2, target, chain3 = WORKLOADS["report-shipped"]
    sequences = {"first": [target, support2, chain3],
                 "after": [support2, chain3, target]}
    ratios = []
    counters = set()
    for round_ in range(ISOLATION_ROUNDS):
        verdict = {}
        for position in sorted(sequences, reverse=round_ % 2 == 1):
            for job in sequences[position]:
                out_path = os.path.join(WORK, "isolation.out.json")
                res, err, _ = runner.spawn(cli_spec(job, out_path))
                if res is None or not res["fresh"]:
                    print("isolation: %s failed: %s" % (job[0], err or "not fresh"))
                    ok = False
                elif job is target:
                    verdict[position] = res["verdict_s"]
                    counters.add(json.dumps(res["caches"], sort_keys=True))
        if len(verdict) == 2:
            ratios.append(verdict["after"] / verdict["first"])
    ratio = statistics.median(ratios) if ratios else float("inf")
    same_counters = len(counters) == 1
    close = abs(ratio - 1.0) < ISOLATION_TOLERANCE
    print("isolation: %s verdict_s after other jobs / as first job, median of "
          "%d rounds: %.3f; cache counters %s: %s"
          % (target[0], len(ratios), ratio,
             "identical" if same_counters else "differ",
             "ok" if same_counters and close else "FAIL"))
    ok &= same_counters and close
    print("self-test: %s" % ("ok" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--print-golden", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "ttg", "cli.py")):
        print("perfbench: no ttg source tree at %s" % SRC, file=sys.stderr)
        return 2
    if not (args.workload or args.self_test or args.print_golden):
        parser.error("one of --workload, --self-test, --print-golden is required")
    sys.path.insert(0, SRC)
    if os.path.isdir(WORK):
        shutil.rmtree(WORK)
    os.makedirs(WORK)
    if args.print_golden:
        print_golden()
        return 0
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    if args.self_test:
        return self_test(golden)
    run_workload(args.workload, args.seed, args.seconds, args.trace, golden)
    return 0


if __name__ == "__main__":
    sys.exit(main())
