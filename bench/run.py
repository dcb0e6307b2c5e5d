"""End-to-end and per-layer benchmark of the orbitpoisson package.

    python3 bench/run.py --workload classify_atlas --seed 1 --seconds 30 --trace 0

Run from the repository root. One process, one closed-loop caller: each job
starts when the previous one has returned. The timed phase runs the
workload's job list in whole passes, each in its own shuffled order, for
about ``--seconds`` seconds of pass time, at least once. A job's time is its
median over the passes (see job_statistics). setup_s is the median of fresh
set-ups (import, root systems, bases, phi) made before the first pass and
after every pass; each pass runs on the session set up just before it, and
the one before is released first. Every job result is checked (see
workloads.py); a failing or raising job is reported and counted, and the run
goes on.

Every reported time is scaled by the host-speed probe of probe.py, which a
timer fires every 50 ms throughout the run: a job time by the probes that
fired during the job, or by those of its pass when the job is too short to
hold five; a set-up time likewise by its own probes or those of the whole
run. Time spent probing is left out of every interval. The measured seconds
and the probe times are in the metadata line.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
untraced passes for half of the time, installs the tracer, rebuilds the
session under it and runs traced passes for the rest; it reports the
per-layer metrics and writes the spans to bench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import probe
from tracer import PER_LAYER, Tracer, layer_metrics
from workloads import WORKLOADS, algebras, check_job, make_jobs, run_job

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PYCACHE = BENCH_DIR / "out" / "pycache"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- session set-up -----------------------------------------------------------


def import_package():
    """Import orbitpoisson afresh from this checkout's src/ directory."""
    for name in [n for n in sys.modules if n == "orbitpoisson" or n.startswith("orbitpoisson.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        op = importlib.import_module("orbitpoisson")
    except ImportError as exc:
        raise BenchError(f"cannot import orbitpoisson from {SRC}: {exc}") from exc
    if Path(op.__file__).resolve().parent != SRC / "orbitpoisson":
        raise BenchError(f"orbitpoisson imported from {op.__file__}, not from {SRC}")
    return op


def build_session(op, needed):
    """Root systems and bases of the needed algebras, with phi filled in."""
    session = {}
    for type_label, rank in needed:
        rs = op.build_root_system(type_label, rank)
        basis = op.build_chevalley_basis(rs)
        op.phi(basis)
        session[(type_label, rank)] = (rs, basis)
    return session


def timed_setup(needed, sampler, samples):
    """A fresh import and session build, appending (seconds, probes during
    it) to samples; returns (package, session).

    The caller holds no earlier session, so only one is ever alive, as in a
    library or CLI session. The heap is collected first, outside the timing:
    the modules and bases of the session given up are cyclic garbage, and a
    collection of them would otherwise land inside some samples only."""
    gc.collect()
    first = len(sampler.samples)
    started = sampler.clock()
    op = import_package()
    session = build_session(op, needed)
    samples.append((sampler.clock() - started, sampler.samples[first:]))
    return op, session


def repeat_setup(needed, sampler, samples):
    """Set up afresh at least once and for at least a quarter of a second;
    returns the last (package, session).

    Called between passes, so that the set-up samples are spread over the
    run instead of sharing one spell of host slowness at its start."""
    started = len(samples)
    while True:
        live = timed_setup(needed, sampler, samples)
        if sum(t for t, _ in samples[started:]) >= 0.25:
            return live
        live = None  # release it before the next set-up


# -- the timed phase ----------------------------------------------------------


def run_pass(op, session, jobs, pass_no, seed, sampler, tracer=None):
    """One pass over the job list, in an order shuffled per pass so that a slow
    spell of the host lands on different jobs in each pass. Returns
    ([(seconds, failure or None, probes during the job)] indexed like jobs,
    probes during the pass)."""
    order = list(range(len(jobs)))
    random.Random(f"order:{seed}:{pass_no}").shuffle(order)
    records = [None] * len(jobs)
    pass_first = len(sampler.samples)
    for idx in order:
        job = jobs[idx]
        if tracer is not None:
            tracer.job = f"{pass_no}:{idx}"
        first = len(sampler.samples)
        started = sampler.clock()
        try:
            result = run_job(op, session, job)
            failure = None
        except Exception as exc:  # a raising job is a counted failure
            traceback.print_exc(file=sys.stderr)
            result, failure = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = sampler.clock() - started
        probes = sampler.samples[first:]
        if failure is None:
            try:
                failure = check_job(job, result, session[(job.type_label, job.rank)][0])
            except Exception as exc:  # a malformed result fails its check
                failure = f"check raised {type(exc).__name__}: {exc}"
        records[idx] = (elapsed, failure, probes)
    if tracer is not None:
        tracer.job = None
    return records, sampler.samples[pass_first:]


def run_passes(budget, one_pass, between=None):
    """Call one_pass(pass number) while the next pass is expected to end
    within budget seconds of pass time; at least once. between(), if given,
    runs after every pass and is not counted against the budget."""
    results, spent = [], 0.0
    while True:
        started = time.perf_counter()
        results.append(one_pass(len(results)))
        took = time.perf_counter() - started
        spent += took
        if between is not None:
            between()
        if spent + took > budget:
            return results


# -- reduction ----------------------------------------------------------------


def job_statistics(passes):
    """Pass time, median job time, tail job time and the tail's description,
    all in probe-scaled seconds.

    Each job time is scaled by its own probes or those of its pass, and each
    job's time is then its median over the passes; the median and the tail
    are taken over jobs.
    """
    n_jobs = len(passes[0][0])
    per_job = sorted(statistics.median(records[i][0] * probe.scale(records[i][2], around)
                                       for records, around in passes)
                     for i in range(n_jobs))
    if n_jobs < 20:
        tail, tail_label = per_job[-1], f"max of {n_jobs} jobs"
    else:
        # highest percentile with at least ten jobs beyond it
        tail = per_job[n_jobs - 11]
        tail_label = f"p{100 * (n_jobs - 10) / n_jobs:.2f} of {n_jobs} jobs (10 beyond)"
    return sum(per_job), statistics.median(per_job), tail, tail_label


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def git_sha() -> str:
    """HEAD of the checkout; 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def load_spec():
    """BENCHMARK.json: the workloads and the metrics to report, with units."""
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


# -- main ---------------------------------------------------------------------


def failures_of(passes, jobs):
    out = []
    for p, (records, _) in enumerate(passes):
        for i, (_, failure, _) in enumerate(records):
            if failure is not None:
                out.append(f"pass {p} job {i} ({jobs[i].label}): {failure}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # The package's bytecode goes to a private cache, emptied here, and never
    # to or from the checkout's __pycache__: the first set-up of a run
    # compiles the package and every later one reads the cache, whatever
    # state the checkout is in.
    shutil.rmtree(PYCACHE, ignore_errors=True)
    sys.pycache_prefix = str(PYCACHE)
    sampler = probe.Sampler()
    try:
        return run(args, sampler)
    finally:
        sampler.stop()


def run(args, sampler) -> int:
    """Everything after parsing; the sampler runs from the first set-up on."""
    setup_samples = []
    try:
        spec = load_spec()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"workload {args.workload} is not in BENCHMARK.json")
        jobs = make_jobs(args.workload, args.seed)
        needed = algebras(jobs)
        meta = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": git_sha(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "jobs_per_pass": len(jobs),
            "loop": "closed, one caller, one process",
        }
        sampler.start()
        live = list(timed_setup(needed, sampler, setup_samples))  # [package, session]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    n_jobs = len(jobs)

    def untraced(p):
        return run_pass(*live, jobs, p, args.seed, sampler)

    def new_session():
        live.clear()
        live.extend(repeat_setup(needed, sampler, setup_samples))

    extra_failures = []
    if not args.trace:
        passes = run_passes(args.seconds, untraced, between=new_session)
        wall, p50, tail, tail_label = job_statistics(passes)
        setup_s = statistics.median(t * probe.scale(local, sampler.samples)
                                    for t, local in setup_samples)
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall,
            "job_p50_s": p50,
            "job_tail_s": tail,
            "peak_rss_mb": peak_rss_mb(),
        }
        per_job = f"per-job median of {len(passes)} passes"
        slowest = sorted(((statistics.median(r[i][0] for r, _ in passes), jobs[i].label)
                          for i in range(n_jobs)), reverse=True)[:5]
        meta.update(passes=len(passes),
                    measured_setups_s=[t for t, _ in setup_samples],
                    measured_pass_walls_s=[sum(r[0] for r in records) for records, _ in passes],
                    measured_slowest_jobs_s={label: t for t, label in slowest},
                    probe_reference_s=probe.REFERENCE_S,
                    probe_median_s=statistics.median(sampler.samples),
                    probe_count=len(sampler.samples),
                    pass_probe_medians_s=[statistics.median(p) for _, p in passes],
                    job_samples=n_jobs * len(passes),
                    wall=f"sum of {n_jobs} {per_job}",
                    job_p50=f"median of {n_jobs} {per_job}",
                    job_tail=f"{tail_label}, {per_job}")
        all_passes = passes
    else:
        started = time.perf_counter()
        plain = run_passes(args.seconds / 2, untraced)
        tracer = Tracer(sampler.clock)
        op = live[0]
        tracer.install(op)
        tracer.job = "setup"
        live[1] = None
        session = build_session(op, needed)
        tracer.job = None
        setup_spans = tracer.durations()
        traced, pass_spans, pass_counts = [], [], []

        def traced_pass(p):
            first, before = len(tracer.spans), dict(tracer.counts)
            records = run_pass(op, session, jobs, p, args.seed, sampler, tracer)
            traced.append(records)
            pass_spans.append(tracer.durations(first))
            counts = {k: v - before[k] for k, v in tracer.counts.items()}
            for name, *_ in pass_spans[-1]:
                counts[f"spans.{name}"] = counts.get(f"spans.{name}", 0) + 1
            pass_counts.append(counts)
            return records

        remaining = args.seconds - (time.perf_counter() - started)
        run_passes(remaining, traced_pass)
        if any(c != pass_counts[0] for c in pass_counts):
            extra_failures.append("counts differ between traced passes of one job list")
        plain_wall, traced_wall = job_statistics(plain)[0], job_statistics(traced)[0]
        metrics = layer_metrics(pass_spans, setup_spans, pass_counts[0],
                                traced_wall - plain_wall)
        meta.update(untraced_passes=len(plain), traced_passes=len(traced),
                    untraced_wall_s=plain_wall, traced_wall_s=traced_wall,
                    spans=len(tracer.spans),
                    probe_reference_s=probe.REFERENCE_S,
                    counts_repeat=not extra_failures if len(pass_counts) > 1
                    else "single traced pass")
        all_passes = plain + traced
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{args.workload}-{args.seed}.jsonl", "w") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for name, start, end, parent, job in tracer.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")

    failures = failures_of(all_passes, jobs) + extra_failures
    attempted = n_jobs * len(all_passes)
    failed = sum(1 for records, _ in all_passes for _, f, _ in records if f is not None)
    meta["fail_frac"] = failed / attempted
    for line in failures:
        print(f"FAILED {line}")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print("error: BENCHMARK.json metrics differ from the ones bench/ reports",
              file=sys.stderr)
        return 2
    for name, unit in units.items():
        note = f"  moves: {PER_LAYER[name][2]}" if args.trace else ""
        print(f"{name:32s} {metrics[name]:>16.6g} {unit}{note}")
    print(f"{'fail_frac':32s} {meta['fail_frac']:>16.6g} ratio")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
