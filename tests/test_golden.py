"""Recorded scan outputs: each 201-point scan below prints the bytes of its golden file.

Between them the scans reach every route a label site takes: lowering on GHZ
(factorized rhs2), white noise on NoisyGHZ (factorized route plus the noise
grid), annihilation on NModeSqueezed (row-map lhs, eigen sites), tilted sites
next to eigen sites on LSeparable (eigenbasis rhs2), and the ket-site mixture
MixedSingleOut as JSON.  CI compares the installed console script's stdout with
the same files.
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
}


@pytest.mark.parametrize("name", SCANS)
def test_scan_prints_its_golden_bytes(name, capsys):
    assert run(SCANS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
