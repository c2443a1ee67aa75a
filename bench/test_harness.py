"""Self-tests of the benchmark harness: span arithmetic, percentiles, the gate.

Run with ``python3 -m pytest bench`` from the repository root.
"""

import json
import math
import signal
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import calibrate  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from witnesslab import cli  # noqa: E402


def test_self_times_of_nested_spans():
    # 0: [0, 10] with children 1: [1, 4] and 2: [5, 7]; 3: [2, 3] inside 1
    starts = [0.0, 1.0, 5.0, 2.0]
    ends = [10.0, 4.0, 7.0, 3.0]
    parents = [-1, 0, 0, 1]
    assert list(spans.self_times(starts, ends, parents)) == [5.0, 2.0, 2.0, 1.0]


def test_tracer_nests_real_calls_and_restores_the_package():
    original = cli.evaluate
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.job = 0
        record = run.run_command(cli, workloads.warmup_command("tilted", 1))
    finally:
        tracer.remove()
    assert cli.evaluate is original
    assert record.code == 0
    table = spans.SpanTable(tracer, tracer.arrays(), [0])
    assert table.calls("cli.run") == 1
    assert table.calls("witness.evaluate") == 1
    rhs2, dense, kron, sites = table.dense_rhs2()
    assert (rhs2, dense) == (1, 1) and kron == sites == 6
    # self times of all spans add up to the outermost span's duration
    assert math.isclose(table.self_time.sum(), table.busy("cli.run"), rel_tol=1e-9)


def test_percentile_needs_ten_samples_beyond():
    assert run.percentile(range(1, 100), 0.9) is None
    assert run.percentile(range(1, 101), 0.9) == 90
    assert run.percentile(range(1, 101), 0.5) == 50


def test_speed_correction_takes_out_handler_time_and_scales_by_nearby_samples():
    ref = calibrate.REFERENCE_KERNEL_S
    sampler = calibrate.Sampler(period=0.025)
    # a sample at twice the reference time, then one at the reference time
    sampler.starts, sampler.ends = [0.0, 0.5], [2 * ref, 0.5 + ref]
    inside, between = sampler.correct([(0.4, 0.6), (0.1, 0.2)])
    # the second sample lies inside (0.4, 0.6): its time comes off, factor 1
    assert math.isclose(inside, 0.2 - ref, rel_tol=1e-12)
    # no sample near (0.1, 0.2): the nearest on each side, factors 1/2 and 1
    assert math.isclose(between, 0.1 * 0.75, rel_tol=1e-12)


def test_sampler_runs_during_work_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = calibrate.Sampler(period=0.005)
    sampler.start()
    try:
        start = perf_counter()
        while len(sampler.starts) < 5 and perf_counter() - start < 10.0:
            pass
        end = perf_counter()
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(sampler.starts) >= 5
    assert all(b >= e for b, e in zip(sampler.starts[1:], sampler.ends))  # no nesting
    durations = [e - b for b, e in zip(sampler.starts, sampler.ends)]
    inside = sum(e - b for b, e in zip(sampler.starts, sampler.ends) if start <= b and e <= end)
    corrected = sampler.correct([(start, end)])[0]
    assert 0 < corrected <= (end - start - inside) * calibrate.REFERENCE_KERNEL_S / min(durations)


def _perturbed(text: str, key: str) -> str:
    payload = json.loads(text)
    rep = payload["report"]
    rep[key] += 1e-6 * max(1.0, abs(rep[key]))
    # keep the report self-consistent so only the oracle comparison can catch it
    rep["margin1"] = rep["lhs"] - rep["rhs1"]
    rep["margin2"] = rep["lhs"] - rep["rhs2"]
    return json.dumps(payload)


@pytest.mark.parametrize("workload", ["tilted", "fock"])
@pytest.mark.parametrize("key", ["lhs", "rhs1", "rhs2"])
def test_gate_catches_a_perturbed_report(workload, key):
    argv = workloads.warmup_command(workload, 3)
    good = run.run_command(cli, argv)
    assert gate.check(argv, good.code, good.out) == []
    bad = run.Record(argv, good.start, good.end, good.code, _perturbed(good.out, key), "")
    records = [good, bad]
    run.gate_records(records, gate.check)
    assert not good.failed and bad.failed
    assert run.failed_fraction(records) == 0.5


def test_gate_catches_a_perturbed_scan_row():
    argv = workloads.warmup_command("families", 2)
    good = run.run_command(cli, argv)
    lines = good.out.splitlines()
    row = lines[-1].split(",")
    row[1] = repr(float(row[1]) + 1e-6)
    row[4] = repr(float(row[1]) - float(row[2]))
    bad = "\n".join(lines[:-1] + [",".join(row)]) + "\n"
    assert gate.check(argv, good.code, good.out) == []
    assert gate.check(argv, good.code, bad) != []


def test_gate_catches_a_shifted_threshold_and_an_oracle_violation():
    argv = workloads.block("families", 1, 0)[-1]
    good = run.run_command(cli, argv)
    assert argv[0] == "threshold" and gate.check(argv, good.code, good.out) == []
    payload = json.loads(good.out)
    payload["threshold"]["value"] += 1e-3
    assert gate.check(argv, good.code, json.dumps(payload)) != []

    argv = workloads.warmup_command("oracle", 1)
    good = run.run_command(cli, argv)
    assert gate.check(argv, good.code, good.out) == []
    bad = good.out.replace("\nviolations: 0\n", "\nviolations: 1\n")
    assert bad != good.out and gate.check(argv, good.code, bad) != []


def test_evaluation_counts_follow_the_inputs():
    argv = ("threshold", "--family", "{}", "--bracket", "0.1,0.6", "--tol", "1e-6")
    assert workloads.evaluations(argv) == 2 + math.ceil(math.log2(0.5 / 1e-6))
    assert workloads.evaluations(workloads.block("oracle", 1, 0)[0]) == workloads.ORACLE_TRIALS


def test_same_seed_same_commands():
    for name in workloads.WORKLOADS:
        assert workloads.block(name, 7, 3) == workloads.block(name, 7, 3)
        assert workloads.block(name, 7, 3) != workloads.block(name, 8, 3)


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = run.per_layer_metrics(_EmptyTable(), 1, 0.0)
    assert {m["name"] for m in spec["per_layer"]} == set(per_layer)
    for metric in spec["per_layer"]:
        assert metric["unit"] == per_layer[metric["name"]]["unit"]


class _EmptyTable:
    counters: dict = {}

    def calls(self, name):
        return 0

    busy = self_s = calls

    def dense_rhs2(self):
        return 0, 0, 0, 0
