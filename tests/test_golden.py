"""Recorded outputs: each 201-point scan and each threshold below prints the bytes of its
golden file.

Between them the scans reach every route a label site takes: lowering on GHZ
(factorized rhs2), white noise on NoisyGHZ (factorized route plus the noise
grid), annihilation on NModeSqueezed (row-map lhs, eigen sites), tilted sites
next to eigen sites on LSeparable (eigenbasis rhs2), and the ket-site mixture
MixedSingleOut as JSON.  The rest cover how a sweep or a bisection hands each
point the previous point's structure: ground-noise NoisyGHZ (two term counts in
one state), FlippedGHZ, a TwoGroupGHZ diagonal cut in theta1 and theta2, a
TwoGroupGHZ sweep over l (labels change at every point, dims do not), and the
thresholds of GHZ (condition 2) and of ModifiedFourMode in x, whose cutoff moves
early in the bisection and then settles.  CI compares the installed console
script's stdout with the same files.
"""

from pathlib import Path

import pytest

from witnesslab.cli import run

GOLDEN = Path(__file__).parent / "golden"

#: golden file -> the ``witnesslab`` arguments that print it
SCANS = {
    "scan_ghz_n5_theta.csv": [
        "scan", "--family", '{"family":"GHZ","params":{"n":5}}',
        "--param", "theta", "--grid", "0.05,1.5,201",
    ],
    "scan_noisyghz_white_n4_p.csv": [
        "scan", "--family",
        '{"family":"NoisyGHZ","params":{"n":4,"theta":0.7853981633974483,"noise":"white"}}',
        "--param", "p", "--grid", "0.01,0.99,201",
    ],
    "scan_nmodesqueezed_n3_x.csv": [
        "scan", "--family", '{"family":"NModeSqueezed","params":{"n":3}}',
        "--param", "x", "--grid", "0.5,0.9,201", "--ops", "annihilation",
    ],
    "scan_lseparable_n7_l2_theta.csv": [
        "scan", "--family", '{"family":"LSeparable","params":{"n":7,"l":2,"thetas":[0.3,0.6]}}',
        "--param", "theta", "--grid", "0.05,1.5,201",
    ],
    "scan_mixedsingleout_n6_theta.json": [
        "scan", "--family",
        '{"family":"MixedSingleOut","params":{"n":6,"thetas":[0.2,0.3,0.4,0.5,0.6,0.7]}}',
        "--param", "theta", "--grid", "0.05,1.5,201", "--format", "json",
    ],
    "scan_noisyghz_ground_n4_theta.csv": [
        "scan", "--family", '{"family":"NoisyGHZ","params":{"n":4,"p":0.6,"noise":"ground"}}',
        "--param", "theta", "--grid", "0.05,1.5,201",
    ],
    "scan_twogroupghz_n6_l2_theta12.csv": [
        "scan", "--family", '{"family":"TwoGroupGHZ","params":{"n":6,"l":2}}',
        "--param", "theta1,theta2", "--grid", "0.05,1.5,201",
    ],
    "scan_flippedghz_n5_theta.csv": [
        "scan", "--family", '{"family":"FlippedGHZ","params":{"n":5}}',
        "--param", "theta", "--grid", "0.05,1.5,201", "--ops", "flipped",
    ],
    "scan_twogroupghz_n6_l.csv": [
        "scan", "--family", '{"family":"TwoGroupGHZ","params":{"n":6,"theta1":0.4,"theta2":0.9}}',
        "--param", "l", "--grid", "1,5,5",
    ],
}

#: golden file -> the ``witnesslab threshold`` arguments that print it
THRESHOLDS = {
    "threshold_ghz_n5_c2.json": [
        "threshold", "--family", '{"family":"GHZ","params":{"n":5}}', "--param", "theta",
        "--condition", "2", "--bracket", "0.2,1.2", "--tol", "1e-10", "--format", "json",
    ],
    "threshold_modifiedfourmode_x_c2.json": [
        "threshold", "--family", '{"family":"ModifiedFourMode","params":{}}', "--param", "x",
        "--condition", "2", "--bracket", "0.05,0.6", "--tol", "1e-10", "--ops", "annihilation",
        "--format", "json",
    ],
}


@pytest.mark.parametrize("name", SCANS)
def test_scan_prints_its_golden_bytes(name, capsys):
    assert run(SCANS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", THRESHOLDS)
def test_threshold_prints_its_golden_bytes(name, capsys):
    assert run(THRESHOLDS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
