"""Golden test of the command line: every command in both output formats.

Each case runs ``srs.cli.main`` in process from ``tests/golden/inputs``, so
file names in diagnostics stay relative.  Its stdout must equal the bytes of
``tests/golden/<case>.txt`` (text) or ``tests/golden/<case>.json`` (JSON),
and its exit status and stderr must equal the entry in
``tests/golden/results.json``.
"""

import json
from pathlib import Path

import pytest

from srs.cli import main

GOLDEN = Path(__file__).parent / "golden"

ZIGZAG = "babab: +r2@0 +kb2@0 +r2@0 +kb2@0 -r2@0 -r1@1 -r2@2 -r1@3"
ZIGZAG_INVERSE = "babab: +r1@3 +r2@2 +r1@1 +r2@0 -kb2@0 -r2@0 -kb2@0 -r2@0"

CASES = {
    "check_convergent": ["check", "as.pres"],
    "check_not_convergent": ["check", "two.pres"],
    "check_brute_force_confluent": ["check", "as.pres", "--max-len", "4"],
    "check_brute_force_witness": ["check", "two.pres", "--max-len", "3"],
    "check_unoriented": ["check", "grow.pres"],
    "check_negative_max_len": ["check", "two.pres", "--max-len", "-3"],
    "check_brute_force_out_of_fuel": ["check", "eight.pres", "--max-len", "12"],
    "check_brute_force_reducts_out_of_fuel": ["check", "chain.pres", "--max-len", "2"],
    "normalize": ["normalize", "as.pres", "aaaa"],
    "normalize_spaced": ["normalize", "two.pres", "a b b a b"],
    "normalize_refused": ["normalize", "grow.pres", "a"],
    "normalize_out_of_fuel": [
        "normalize", "grow.pres", "a", "--assume-terminating", "--fuel", "5"
    ],
    "normalize_negative_fuel": ["normalize", "two.pres", "ab", "--fuel", "-1"],
    "equal_yes": ["equal", "as.pres", "a a a", "a"],
    "equal_no": ["equal", "as.pres", "ε", "a"],
    "equal_not_convergent": ["equal", "two.pres", "a", "b"],
    "critical_pairs_joinable": ["critical-pairs", "as.pres"],
    "critical_pairs_not_joinable": ["critical-pairs", "two.pres"],
    "critical_pairs_out_of_fuel": [
        "critical-pairs", "grow_two.pres", "--assume-terminating", "--fuel", "5"
    ],
    "complete_add": ["complete", "two.pres"],
    "complete_simplify": ["complete", "simplify.pres"],
    "complete_remove": ["complete", "remove.pres"],
    "complete_out_of_fuel": ["complete", "cyclic.pres", "--fuel", "3"],
    "complete_braid_out_of_fuel": ["complete", "braid.pres", "--fuel", "64"],
    "pi_basis": ["pi-basis", "as.pres"],
    "pi_basis_eight": ["pi-basis", "two_done.pres"],
    "pi_basis_not_convergent": ["pi-basis", "two.pres"],
    "decompose": ["decompose", "as.pres", "aaa: +r@0 -r@1"],
    "decompose_empty": ["decompose", "as.pres", "aa:"],
    "decompose_zigzag": ["decompose", "two_done.pres", ZIGZAG],
    "decompose_zigzag_inverse": ["decompose", "two_done.pres", ZIGZAG_INVERSE],
    "decompose_not_closed": ["decompose", "as.pres", "aaa: +r@0"],
    "footprint": ["footprint", "as.pres", "aaa: +r@0 -r@1"],
    "footprint_empty": ["footprint", "as.pres", "a:"],
    "footprint_open": ["footprint", "two_done.pres", "abab: +r1@0 +kb1@0"],
    "transport": ["transport", "as.pres", "ups.pres", "map.txt"],
    "transport_rejected": ["transport", "as.pres", "ups.pres", "bad_map.txt"],
    "missing_file": ["check", "missing.pres"],
    "parse_error": ["check", "broken.pres"],
}

RESULTS = json.loads((GOLDEN / "results.json").read_text(encoding="utf-8"))


def test_every_case_has_a_recorded_result():
    names = [f"{case}.{fmt}" for case in CASES for fmt in ("txt", "json")]
    assert sorted(RESULTS) == sorted(names)


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, fmt, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN / "inputs")
    status = main(CASES[case] + (["--format", "json"] if fmt == "json" else []))
    captured = capsys.readouterr()
    name = f"{case}.{fmt}"
    assert captured.out.encode("utf-8") == (GOLDEN / name).read_bytes()
    assert {"status": status, "stderr": captured.err} == RESULTS[name]
