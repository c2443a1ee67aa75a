"""witnesslab benchmark: CLI workloads timed end to end, and per layer when traced.

Run from the repository root::

    python3 bench/run.py --workload families --seed 1 --seconds 20 --trace 0

One single-threaded process drives ``witnesslab.cli.run(argv)`` in a
closed loop with one caller: each command starts after the previous one
returns.  BLAS is pinned to one thread in the process environment before
numpy loads.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the environment record and a summary.

``--trace 0`` runs whole blocks of the workload's command stream until
``--seconds`` have passed and reports the end-to-end metrics, in times
corrected for the host's speed (see ``calibrate.py``).
``--trace 1`` runs the workload's first block over and over, alternating
untraced and traced passes, and reports per-layer metrics per pass, the
tracing overhead, and the route-count checks.  Both gate every output
(see ``gate.py``) after the timed phase.

``--list BLOCKS`` prints the commands of the first blocks, one
``witnesslab ...`` line each, to replay them by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5

#: Seed kept out of benchmark tuning; a gain claim must also hold on it.
HOLDOUT_SEED = 1_000_003

#: ``witness.rhs2_dense_ratio`` each workload shows with the rhs2 routes
#: of the initial engine: eigenvector fast path on basis kets, dense
#: route on tilted kets and random operators.  A route change moves it,
#: so a mismatch is reported, not counted as a failure.
EXPECTED_DENSE_RATIO = {"families": 0.0, "fock": 0.0, "tilted": 1.0, "oracle": 1.0}


@dataclass
class Record:
    argv: tuple
    start: float
    end: float
    code: int | None  # None when the command raised
    out: str
    err: str
    failures: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def failed(self) -> bool:
        return bool(self.failures)


def percentile(samples, q: float, beyond: int = 10):
    """Nearest-rank ``q`` percentile, or None unless ``beyond`` samples lie above it."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < beyond:
        return None
    return ordered[rank - 1]


def failed_fraction(records) -> float:
    return sum(r.failed for r in records) / len(records)


def gate_records(records, check) -> None:
    """Fill in each record's failures: a non-zero exit, a raise, or the gate."""
    for record in records:
        if record.code is None:
            record.failures = [record.err.strip().splitlines()[-1]]
        else:
            record.failures = check(record.argv, record.code, record.out)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def run_command(cli, argv) -> Record:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(list(argv))
    except Exception:  # a raising command counts as failed; the run goes on
        code = None
        err.write(traceback.format_exc())
    return Record(tuple(argv), start, perf_counter(), code, out.getvalue(), err.getvalue())


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Wall and corrected seconds from starting a fresh process to its first timed command."""
    # perf_counter is CLOCK_MONOTONIC, shared by every process on the machine
    start = perf_counter()
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--probe-setup", repr(start),
        "--workload", workload, "--seed", str(seed),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    end, corrected = (float(v) for v in proc.stdout.split()[-2:])
    return end - start, corrected


def environment(np) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    revision = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        revision = proc.stdout.strip() or revision
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_revision": revision,
        "src_lines": sum(p.read_bytes().count(b"\n") for p in sorted((ROOT / "src").rglob("*.py"))),
    }


def run_untraced(args, workloads, gate, cli, calibrate) -> tuple[dict, list, dict]:
    setups, setups_wall = [], []
    for _ in range(SETUP_PROBES):
        wall, corrected = probe_setup(args.workload, args.seed)
        setups_wall.append(wall)
        setups.append(corrected)
    warmup = run_command(cli, workloads.warmup_command(args.workload, args.seed))
    sampler = calibrate.Sampler()
    timed, blocks = [], 0
    sampler.start()
    try:
        start = perf_counter()
        while True:
            for argv in workloads.block(args.workload, args.seed, blocks):
                timed.append(run_command(cli, argv))
            blocks += 1
            elapsed = perf_counter() - start
            if elapsed >= args.seconds:
                break
    finally:
        sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    records = [warmup] + timed
    gate_records(records, gate.check)

    corrected = sampler.correct([(r.start, r.end) for r in timed])
    job_ms = [float(s) * 1e3 for s in corrected]
    evals = sum(workloads.evaluations(r.argv) for r in timed)
    p90 = percentile(job_ms, 0.9)
    metrics = {
        "evals_per_s": {"value": evals / float(corrected.sum()), "unit": "1/s"},
        "job_p50_ms": {"value": statistics.median(job_ms), "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    summary = {
        "blocks": blocks,
        "commands": len(timed),
        "evaluations": evals,
        "timed_s": elapsed,
        "speed_samples": len(sampler.starts),
        "wall_evals_per_s": evals / elapsed,
        "wall_job_p50_ms": statistics.median(r.seconds * 1e3 for r in timed),
        "job_samples": len(job_ms),
        "job_p90_ms": p90 if p90 is not None else "n/a (fewer than 10 samples beyond p90)",
        "failed_frac": failed_fraction(records),
        "setup_samples_s": setups,
        "wall_setup_samples_s": setups_wall,
        "argv_digest": digest([list(r.argv) for r in timed]),
    }
    return metrics, records, summary


def run_traced(args, workloads, gate, cli, spans) -> tuple[dict, list, dict]:
    trace_set = workloads.block(args.workload, args.seed, 0)
    warmup = run_command(cli, workloads.warmup_command(args.workload, args.seed))
    tracer = spans.Tracer()
    passes = []  # (traced, job ids, records, seconds)
    job = 0
    start = perf_counter()
    while True:
        for traced in (False, True):
            if traced:
                tracer.install()
            try:
                jobs, records = [], []
                pass_start = perf_counter()
                for argv in trace_set:
                    tracer.job = job
                    jobs.append(job)
                    records.append(run_command(cli, argv))
                    job += 1
                seconds = perf_counter() - pass_start
            finally:
                tracer.remove()
            passes.append((traced, jobs, records, seconds))
        if perf_counter() - start >= args.seconds:
            break

    # one gate per command; every other pass must repeat its bytes exactly
    reference = passes[0][2]
    gate_records([warmup] + reference, gate.check)
    all_records = [warmup]
    for _, _, records, _ in passes:
        for record, ref in zip(records, reference):
            record.failures = list(ref.failures)
            if (record.code, record.out) != (ref.code, ref.out):
                record.failures.append("output differs from the first pass of the same command")
        all_records += records

    traced_passes = [p for p in passes if p[0]]
    cols = tracer.arrays()
    tables = [spans.SpanTable(tracer, cols, jobs) for _, jobs, _, _ in traced_passes]
    table = spans.SpanTable(tracer, cols, [j for _, jobs, _, _ in traced_passes for j in jobs])
    n = len(traced_passes)
    overhead = (
        statistics.median(p[3] for p in traced_passes)
        / statistics.median(p[3] for p in passes if not p[0])
        - 1.0
    )
    metrics = per_layer_metrics(table, n, overhead)

    rhs2, dense, kron_under, dense_sites = tables[0].dense_rhs2()
    evals = sum(workloads.evaluations(argv) for argv in trace_set)
    threshold_evals = sum(workloads.evaluations(a) for a in trace_set if a[0] == "threshold")
    checks = {
        "counts repeat exactly in every traced pass": all(
            t.signature() == tables[0].signature() for t in tables
        ),
        "witness.evaluate calls == evaluations from inputs": (
            tables[0].calls("witness.evaluate") == evals
        ),
        "find_threshold evaluations == evaluations from inputs": (
            tables[0].counters.get("scan.find_threshold.evaluations", 0) == threshold_evals
        ),
        "kron_embed calls under dense rhs2 == sum of n": kron_under == dense_sites,
        "every kron_embed call is under a dense rhs2": (
            tables[0].calls("linalg.kron_embed") == kron_under
        ),
    }
    expected_ratio = EXPECTED_DENSE_RATIO[args.workload]
    summary = {
        "trace_set_commands": len(trace_set),
        "untraced_passes": len(passes) - n,
        "traced_passes": n,
        "spans": len(cols["name"]),
        "tracing_overhead_frac": overhead,
        "route_checks": checks,
        "rhs2_per_pass": {
            "calls": rhs2, "dense": dense, "kron_embed": kron_under, "sum_n": dense_sites
        },
        "dense_ratio_expected": expected_ratio,
        "dense_ratio_matches": dense / rhs2 == expected_ratio if rhs2 else False,
        "failed_frac": failed_fraction(all_records),
        "argv_digest": digest([list(a) for a in trace_set]),
        "output_digest": digest([r.out for r in reference]),
    }
    return metrics, all_records, summary


#: (name, unit, value from a SpanTable over all traced passes); each value
#: is divided by the number of traced passes, so it is per pass over the
#: trace set.
PER_LAYER = [
    ("cli.run.calls", "count", lambda t: t.calls("cli.run")),
    ("cli.run.self_s", "s", lambda t: t.self_s("cli.run")),
    ("scan.sweep.busy_s", "s", lambda t: t.busy("scan.sweep")),
    ("scan.sweep.self_s", "s", lambda t: t.self_s("scan.sweep")),
    ("scan.find_threshold.busy_s", "s", lambda t: t.busy("scan.find_threshold")),
    ("scan.find_threshold.evaluations", "count",
     lambda t: t.counters.get("scan.find_threshold.evaluations", 0)),
    ("scan.sweep_to_csv.busy_s", "s", lambda t: t.busy("scan.sweep_to_csv")),
    ("scan.sweep_to_csv.bytes", "B", lambda t: t.counters.get("scan.sweep_to_csv.bytes", 0)),
    ("oracle.run_separable_trials.self_s", "s",
     lambda t: t.self_s("oracle.run_separable_trials")),
    ("oracle.sample_separable.busy_s", "s", lambda t: t.busy("oracle.sample_separable")),
    ("oracle.random_assignment.busy_s", "s", lambda t: t.busy("oracle.random_assignment")),
    ("oracle.run_lemma_trials.busy_s", "s", lambda t: t.busy("oracle.run_lemma_trials")),
    ("states.build_state.calls", "count", lambda t: t.calls("states.build_state")),
    ("states.build_state.busy_s", "s", lambda t: t.busy("states.build_state")),
    ("states.terms", "count", lambda t: t.counters.get("states.terms", 0)),
    ("states.dense_vector.calls", "count", lambda t: t.calls("states.dense_vector")),
    ("states.dense_vector.busy_s", "s", lambda t: t.busy("states.dense_vector")),
    ("witness.evaluate.calls", "count", lambda t: t.calls("witness.evaluate")),
    ("witness.evaluate.self_s", "s", lambda t: t.self_s("witness.evaluate")),
    ("witness.product_expectation.busy_s", "s",
     lambda t: t.busy("witness.product_expectation")),
    ("witness.rhs_condition1.busy_s", "s", lambda t: t.busy("witness.rhs_condition1")),
    ("witness.rhs_condition2.busy_s", "s", lambda t: t.busy("witness.rhs_condition2")),
    ("witness.rhs_condition2.self_s", "s", lambda t: t.self_s("witness.rhs_condition2")),
    ("linalg.psd_power.calls", "count", lambda t: t.calls("linalg.psd_power")),
    ("linalg.psd_power.busy_s", "s", lambda t: t.busy("linalg.psd_power")),
    ("linalg.psd_power.ops_computed", "ops",
     lambda t: t.counters.get("linalg.psd_power.ops_computed", 0)),
    ("linalg.kron_embed.calls", "count", lambda t: t.calls("linalg.kron_embed")),
    ("linalg.kron_embed.busy_s", "s", lambda t: t.busy("linalg.kron_embed")),
    ("linalg.kron_embed.bytes_computed", "B",
     lambda t: t.counters.get("linalg.kron_embed.bytes_computed", 0)),
]


def per_layer_metrics(table, passes: int, overhead: float) -> dict:
    metrics = {name: {"value": fn(table) / passes, "unit": unit} for name, unit, fn in PER_LAYER}
    rhs2, dense, _, _ = table.dense_rhs2()
    metrics["witness.rhs2_dense_ratio"] = {"value": dense / rhs2 if rhs2 else 0.0, "unit": "ratio"}
    metrics["linalg.psd_power.max_dim"] = {
        "value": table.counters.get("linalg.psd_power.max_dim", 0), "unit": "count"
    }
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", type=int, default=0, metavar="BLOCKS",
                        help="print the commands of the first BLOCKS blocks and exit")
    parser.add_argument("--probe-setup", type=float, default=None, metavar="START",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads, here and in setup probes
    src = ROOT / "src"
    if not (src / "witnesslab" / "__init__.py").is_file():
        print(f"error: no witnesslab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import calibrate
    import numpy as np

    if args.probe_setup is not None:
        sampler = calibrate.Sampler()
        sampler.start()  # as early as the calibration loop allows
    import gate
    import spans
    import workloads
    from witnesslab import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    if args.list:
        for index in range(args.list):
            for argv in workloads.block(args.workload, args.seed, index):
                print("witnesslab " + shlex.join(argv))
        return 0
    if args.probe_setup is not None:
        workloads.block(args.workload, args.seed, 0)
        run_command(cli, workloads.warmup_command(args.workload, args.seed))
        end = perf_counter()
        sampler.stop()
        print(repr(end), repr(float(sampler.correct([(args.probe_setup, end)])[0])))
        return 0

    if args.trace:
        metrics, records, summary = run_traced(args, workloads, gate, cli, spans)
    else:
        metrics, records, summary = run_untraced(args, workloads, gate, cli, calibrate)
    failures = [f"{shlex.join(r.argv)}: {r.failures[0]}" for r in records if r.failed]
    summary = {
        "workload": args.workload, "seed": args.seed, "holdout_seed": HOLDOUT_SEED,
        **summary, "failures": failures[:5],
    }
    print("env " + json.dumps(environment(np)))
    print("summary " + json.dumps(summary))
    failed = sum(r.failed for r in records)
    print(json.dumps({
        "correct": failed == 0 and all(summary.get("route_checks", {}).values()),
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
