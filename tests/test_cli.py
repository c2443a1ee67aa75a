"""Tests for the command-line interface."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from witnesslab import cli
from witnesslab.cli import run
from witnesslab.errors import BadParameter
from witnesslab.formulas import MAX_VERIFY_POINTS
from witnesslab.scan import MAX_GRID_STEPS
from witnesslab.states import StateFamily, build_state


def test_detect_ghz_json(capsys):
    code = run(
        [
            "detect",
            "--family",
            '{"family":"GHZ","params":{"n":3,"theta":0.5236}}',
            "--ops",
            "lowering",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    report = payload["report"]
    assert report["detected1"] and report["detected2"]
    assert report["lhs"] == pytest.approx(0.433, abs=1e-3)
    assert set(report) == {
        "lhs",
        "rhs1",
        "rhs2",
        "margin1",
        "margin2",
        "detected1",
        "detected2",
        "epsilon",
    }
    assert "epsilon" in payload["meta"]


def test_detect_table_format(capsys):
    code = run(
        [
            "detect",
            "--family",
            '{"family":"GHZ","params":{"n":3,"theta":0.3}}',
            "--format",
            "table",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "lhs = " in out
    assert out.startswith("#")


def test_detect_over_the_side_cap_exits_2_before_allocating(capsys):
    """x=0.999 needs 11508 Fock levels and x=0.99999 1151287: refused before any
    amplitude is built, whatever the operators, while x=0.99 (1146) evaluates."""

    def detect(x, n=3, ops="annihilation"):
        family = json.dumps({"family": "NModeSqueezed", "params": {"n": n, "x": x}})
        return run(["detect", "--family", family, "--ops", ops])

    assert detect(0.99) == 0
    assert json.loads(capsys.readouterr().out)["report"]["detected2"]
    refused = ((0.999, 3, "annihilation"), (0.99999, 2, "annihilation"), (0.99999, 2, "lowering"))
    for x, n, ops in refused:
        tracemalloc.start()
        try:
            code = detect(x, n, ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "NModeSqueezed: term count" in capsys.readouterr().err
        assert peak < 2**20  # the 1151287 amplitudes alone take 17.6 MiB


def test_detect_overflow_exits_2(capsys):
    """A moment that overflows double precision is an error line and exit 2, not NaN."""
    family = json.dumps({"family": "NModeSqueezed", "params": {"n": 400, "x": 0.9}})
    assert run(["detect", "--family", family, "--ops", "annihilation"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: rhs2 is inf in double precision")


def test_out_of_memory_exits_2(capsys, monkeypatch):
    """An allocation that fails is one error line and exit 2, not a traceback."""

    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 27.3 MiB for an array")

    monkeypatch.setattr(cli, "evaluate", fail)
    assert run(["detect", "--family", '{"family":"GHZ","params":{"n":3,"theta":0.5}}']) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory: Unable to allocate")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_scan_csv_deterministic(capsys):
    argv = [
        "scan",
        "--family",
        '{"family":"GHZ","params":{"n":3}}',
        "--param",
        "theta",
        "--grid",
        "0.1,1.4,9",
    ]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    rows = [line for line in first.splitlines() if not line.startswith("#")]
    assert rows[0] == "param,lhs,rhs1,rhs2,margin1,margin2,detected1,detected2"
    assert len(rows) == 1 + 9


def test_scan_json_format(capsys):
    assert (
        run(
            [
                "scan",
                "--family",
                '{"family":"GHZ","params":{"n":3}}',
                "--param",
                "theta",
                "--grid",
                "0.1,0.9,5",
                "--format",
                "json",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 5
    assert payload["meta"]["param"] == "theta"


def test_threshold_modified_four_mode(capsys):
    code = run(
        [
            "threshold",
            "--family",
            "ModifiedFourMode",
            "--condition",
            "2",
            "--param",
            "x",
            "--bracket",
            "0.01,0.5",
            "--tol",
            "1e-4",
            "--format",
            "json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["threshold"]["value"] == pytest.approx(0.1397, abs=5e-4)
    assert payload["threshold"]["detected_side"] == "above"


def test_threshold_tol_below_float_spacing_terminates(capsys):
    """Bisection stops at adjacent floats and reports their spacing as the width."""
    code = run(
        [
            "threshold", "--family", "ModifiedFourMode", "--condition", "2", "--param", "x",
            "--bracket", "0.01,0.5", "--tol", "1e-20", "--format", "json",
        ]
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out)["threshold"]
    assert result["value"] == pytest.approx(0.13968, abs=1e-5)
    assert 0.0 < result["bracket_width"] <= 2 * math.ulp(result["value"])


def test_threshold_table_output(capsys):
    code = run(
        [
            "threshold",
            "--family",
            '{"family":"NoisyGHZ","params":{"n":3,"theta":0.3927,"noise":"white"}}',
            "--condition",
            "1",
            "--param",
            "p",
            "--bracket",
            "0.3,0.99",
            "--tol",
            "1e-3",
            "--ops",
            "lowering",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "threshold p = 0.707" in out


def test_verify_passes(capsys):
    assert run(["verify", "--points", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"]
    assert len(payload["rows"]) == 24  # 23 tags + constants row


def test_oracle_passes(capsys):
    assert run(["oracle", "--trials", "40", "--seed", "9", "--lemma-trials", "20"]) == 0
    out = capsys.readouterr().out
    assert "separable trials: 40" in out
    assert "violations: 0" in out
    assert out.strip().endswith("PASS")


def test_output_file_matches_stdout(tmp_path, capsys):
    argv = [
        "scan",
        "--family",
        '{"family":"GHZ","params":{"n":3}}',
        "--param",
        "theta",
        "--grid",
        "0.1,1.0,7",
    ]
    assert run(argv) == 0
    stdout_text = capsys.readouterr().out
    target = tmp_path / "rows.csv"
    assert run(argv + ["--output", str(target)]) == 0
    assert target.read_text() == stdout_text


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", "--family", "NotAFamily"],
        ["detect", "--family", '{"family":"GHZ","params":{"n":3}}'],  # theta missing
        ["detect", "--family", '{"family":"NModeSqueezed","params":{"n":3,"x":0.5}}'],
        ["detect", "--family", "{bad json"],
        ["scan", "--family", "GHZ", "--param", "theta", "--grid", "0.1,1.0"],
        ["threshold", "--family", "ModifiedFourMode", "--condition", "2", "--param", "x",
         "--bracket", "0.2,0.5", "--tol", "1e-4"],  # no sign change in bracket
        # a negative epsilon would report the product state |000> as detected
        ["detect", "--family", '{"family":"GHZ","params":{"n":3,"theta":0.0}}',
         "--epsilon=-1e-3"],
        ["detect", "--family", '{"family":"GHZ","params":{"n":3,"theta":0.5}}',
         "--epsilon", "nan"],
        ["scan", "--family", '{"family":"GHZ","params":{"n":3}}', "--param", "theta",
         "--grid", "0.1,1.0,3", "--epsilon", "inf"],
        ["threshold", "--family", "ModifiedFourMode", "--condition", "2", "--param", "x",
         "--bracket", "0.01,0.5", "--tol", "nan"],
        ["threshold", "--family", "ModifiedFourMode", "--condition", "2", "--param", "x",
         "--bracket", "0.01,0.5", "--tol", "inf"],
        ["detect", "--family", '{"family":"NModeSqueezed","params":{"n":2,"x":0.5}}',
         "--ops", "annihilation", "--tail-tol", "nan"],
        ["detect", "--family", '{"family":"NModeSqueezed","params":{"n":2,"x":0.5}}',
         "--ops", "annihilation", "--tail-tol", "0"],
        ["detect", "--family", '{"family":"NModeSqueezed","params":{"n":2,"x":0.5}}',
         "--ops", "annihilation", "--tail-tol", "2"],
        ["oracle", "--trials", "-5"],
        ["oracle", "--trials", "5", "--max-n", "1"],
        ["oracle", "--trials", "5", "--lemma-trials", "-1"],
        ["verify", "--points", "0"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err != ""


@pytest.mark.parametrize(
    "family,param",
    [
        ('{"family":"GHZ","params":{"n":null,"theta":0.3}}', "n"),
        ('{"family":"GHZ","params":{"n":3,"theta":[1]}}', "theta"),
        ('{"family":"GHZ","params":{"n":3,"theta":{}}}', "theta"),
        ('{"family":"LSeparable","params":{"n":3,"l":1,"theta":0.3,"thetas":[null]}}', "thetas"),
        ('{"family":"GHZ","params":{"n":3,"theta":true}}', "theta"),
        ('{"family":"GHZ","params":{"n":"3","theta":"0.5"}}', "n"),
        ('{"family":"LSeparable","params":{"n":3,"l":1,"theta":0.3,"thetas":[false]}}', "thetas"),
        ('{"family":"NModeSqueezed","params":{"n":true,"x":0.5}}', "n"),
    ],
    ids=[
        "n-null",
        "theta-list",
        "theta-object",
        "thetas-null-entry",
        "theta-bool",
        "numeric-strings",
        "thetas-bool-entry",
        "n-bool",
    ],
)
def test_non_numeric_family_parameters_exit_2(family, param, capsys):
    """A parameter that is not a real number is a typed error naming family and parameter.

    Booleans and numeric strings count as not real numbers: float() would
    quietly accept them.
    """
    assert run(["detect", "--family", family]) == 2
    err = capsys.readouterr().err
    name = json.loads(family)["family"]
    assert err.startswith(f"error: {name}: {param} must be a real number")
    assert "Traceback" not in err
    with pytest.raises(BadParameter):
        build_state(StateFamily.from_dict(json.loads(family)))


@pytest.mark.parametrize("n", ["1e300", "1000000000"])
def test_huge_family_size_exits_2_before_allocating(n, capsys):
    """GHZ with a huge n is a typed DimensionCap naming family and parameter,
    raised before its 2 x n label array is allocated (n=10^9 would take 15 GiB)."""
    family = '{"family":"GHZ","params":{"n":%s,"theta":0.3}}' % n
    tracemalloc.start()
    try:
        code = run(["detect", "--family", family])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: GHZ: label entries (terms x sites) from n: ")
    assert "Traceback" not in err and len(err) < 200
    assert peak < 50 * 2**20


@pytest.mark.parametrize(
    "argv,message",
    [
        (["oracle", "--trials", "5", "--lemma-trials", "-1"], "lemma trials must be >= 0, got -1"),
        (["oracle", "--trials", "5", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["verify", "--seed", "-1"], "seed must be >= 0, got -1"),
    ],
    ids=["lemma-trials", "seed", "verify-seed"],
)
def test_seed_and_lemma_trial_errors_name_the_flag(argv, message, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (["scan", "--family", '{"family":"GHZ","params":{"n":3}}', "--param", "theta",
          "--grid", "0.1,1.0,1000000000000"],
         f"grid allows at most {MAX_GRID_STEPS} steps, got 1000000000000"),
        (["verify", "--points", "1000000000000"],
         f"points must be <= {MAX_VERIFY_POINTS}, got 1000000000000"),
    ],
    ids=["scan-grid", "verify-points"],
)
def test_oversized_scan_grid_and_verify_points_exit_2_before_allocating(argv, message, capsys):
    """Past the documented step and point caps, scan and verify are refused before the
    grid or the first case is built."""
    tracemalloc.start()
    try:
        code = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert peak < 2**20


@pytest.mark.parametrize(
    "argv,message",
    [
        (["scan", "--grid", "0,inf,5"],
         "grid needs finite ends and a finite span hi - lo, got (0.0, inf)"),
        (["scan", "--grid=-1e308,1e308,3"],
         "grid needs finite ends and a finite span hi - lo, got (-1e+308, 1e+308)"),
        (["threshold", "--condition", "1", "--bracket", "0.1,inf"],
         "bracket needs finite ends and a finite span hi - lo, got (0.1, inf)"),
        (["threshold", "--condition", "1", "--bracket", "0.5,0.1"],
         "bracket needs lo < hi, got (0.5, 0.1)"),
    ],
    ids=["infinite-end", "overflowing-span", "infinite-bracket", "reversed-bracket"],
)
def test_infinite_grid_and_bracket_spans_exit_2_naming_them(argv, message, capsys):
    """A grid or bracket whose span hi - lo is not finite, or whose ends are reversed, is
    refused before np.linspace or the first evaluation, so it names the grid (the bracket,
    for threshold), not a family parameter, in one line."""
    family = '{"family":"GHZ","params":{"n":3}}'
    assert run([argv[0], "--family", family, "--param", "theta", *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_unknown_flag_exits_2(capsys):
    assert run(["detect", "--bogus"]) == 2


def test_missing_subcommand_exits_2(capsys):
    assert run([]) == 2


def _run_module(*args: str) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", *args], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize("module", ["witnesslab", "witnesslab.cli"])
def test_module_invocation_prints_a_report(module):
    family = '{"family":"GHZ","params":{"n":3,"theta":0.5236}}'
    done = _run_module(module, "detect", "--family", family, "--ops", "lowering")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)["report"]
    assert report["detected1"] and report["detected2"]
    assert report["lhs"] == pytest.approx(0.433, abs=1e-3)


@pytest.mark.parametrize("module", ["witnesslab", "witnesslab.cli"])
def test_module_invocation_usage_error_exits_2(module):
    done = _run_module(module, "detect", "--bogus")
    assert done.returncode == 2
    assert done.stdout == ""
