import json
import subprocess
import sys
from pathlib import Path as FilePath

import pytest

import srs
from srs import abelian, cli, critical, format_path, parse_presentation
from srs.cli import _build_parser, main
from helpers import AS_TEXT, TWO_TEXT

A5_COMPLETED = FilePath(__file__).resolve().parents[1] / "srsbench" / "inputs" / "a5_completed.pres"
UPSILON_TEXT = "generators: b e\norder: shortlex b < e\nrules:\n u1: b b -> b\n u2: e ->\n"
MAP_TEXT = "forward: a -> b\nbackward: b -> a\nbackward: e -> ε\n"


@pytest.fixture
def as_file(tmp_path):
    path = tmp_path / "as.pres"
    path.write_text(AS_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def two_file(tmp_path):
    path = tmp_path / "two.pres"
    path.write_text(TWO_TEXT, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_check_affirmative(as_file, capsys):
    code, out, _ = run(capsys, "check", as_file)
    assert code == 0
    assert out.splitlines()[0] == (
        "terminating: yes; locally confluent: yes; convergent: yes"
    )


def test_check_negative_exit_code(two_file, capsys):
    code, out, _ = run(capsys, "check", two_file)
    assert code == 1
    assert "convergent: no" in out


def test_check_brute_force_flag(two_file, capsys):
    code, out, _ = run(capsys, "check", two_file, "--max-len", "3")
    assert code == 1
    assert "witness aba" in out


def test_equal(as_file, capsys):
    code, out, _ = run(capsys, "equal", as_file, "a a a", "a")
    assert code == 0
    assert out.strip() == "equal (normal form: a)"
    code, out, _ = run(capsys, "equal", as_file, "ε", "a")
    assert code == 1
    assert out.strip() == "not equal (normal forms: ε, a)"


def test_equal_requires_convergence(two_file, capsys):
    code, _, err = run(capsys, "equal", two_file, "a", "b")
    assert code == 2
    assert "complete" in err


def test_normalize(as_file, capsys):
    code, out, _ = run(capsys, "normalize", as_file, "aaaa")
    assert code == 0
    assert out.splitlines() == ["normal form: a", "path: aaaa: +r@0 +r@0 +r@0"]


def test_normalize_refuses_unoriented(tmp_path, capsys):
    path = tmp_path / "grow.pres"
    path.write_text("generators: a\norder: shortlex a\nrules:\n r: a -> a a\n")
    code, _, err = run(capsys, "normalize", str(path), "a")
    assert code == 2
    assert "assume-terminating" in err
    code, _, err = run(
        capsys, "normalize", str(path), "a", "--assume-terminating", "--fuel", "5"
    )
    assert code == 2
    assert "normal form" in err


def test_normalize_long_token_in_normal_form(tmp_path, capsys):
    path = tmp_path / "sorting.pres"
    path.write_text(
        "generators: a b c\norder: shortlex a < b < c\nrules:\n"
        " r1: b a -> a b\n r2: c a -> a c\n r3: c b -> b c\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "normalize", str(path), "a" * 10_000)
    assert (code, err) == (0, "")
    assert out.splitlines() == ["normal form: " + "a" * 10_000, "path: " + "a" * 10_000 + ":"]


def test_decompose_a_700_letter_loop(as_file, capsys):
    loop = " ".join("a" * 700) + ": +r@650 -r@650"
    code, out, err = run(capsys, "decompose", as_file, loop, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["verified"] is True


def test_decompose_out_of_fuel_is_a_diagnostic(as_file, capsys, monkeypatch):
    monkeypatch.setitem(abelian.decompose_loop.__kwdefaults__, "fuel", 100)
    loop = " ".join("a" * 700) + ": +r@650 -r@650"
    code, out, err = run(capsys, "decompose", as_file, loop)
    assert (code, out) == (2, "")
    assert err == "srs: peak elimination did not finish within 100 frames\n"


def test_critical_pairs(as_file, capsys):
    code, out, _ = run(capsys, "critical-pairs", as_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "overlap=aaa r1=r@0 r2=r@1 kind=proper-overlap joinable=true"
    assert lines[1] == "  loop: aaa: +r@0 -r@1"


def test_critical_pairs_negative(two_file, capsys):
    code, out, _ = run(capsys, "critical-pairs", two_file)
    assert code == 1
    assert "joinable=false" in out


def test_complete(two_file, capsys):
    code, out, _ = run(capsys, "complete", two_file)
    assert code == 0
    assert "kb1: a a -> a" in out
    assert "add kb1: a a -> a from overlap aba" in out
    assert "add kb2: b b -> b from overlap bab" in out


def test_pi_basis(as_file, capsys):
    code, out, _ = run(capsys, "pi-basis", as_file)
    assert code == 0
    assert out.splitlines() == [
        "b1: aaa: +r@0 -r@1",
        "pi generated by 1 element(s)",
    ]


def test_pi_basis_needs_convergence(two_file, capsys):
    code, _, err = run(capsys, "pi-basis", two_file)
    assert code == 2
    assert "complete" in err


def test_decompose(as_file, capsys):
    code, out, _ = run(capsys, "decompose", as_file, "aaa: +r@0 -r@1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ε=+ ctx=(ε,ε) basis=b1 conj=aaa:"
    assert lines[1] == "pi = +1·((ε,ε), b1)"
    assert lines[2] == "footprint = +1·(ε, r, a) -1·(a, r, ε)"


def test_decompose_reports_a_failed_replay(as_file, capsys, monkeypatch):
    _, verified_out, _ = run(capsys, "decompose", as_file, "aaa: +r@0 -r@1")
    monkeypatch.setattr(
        abelian, "verify_certificate", lambda *args: abelian.CertificateReport(("rejected",))
    )
    code, out, err = run(capsys, "decompose", as_file, "aaa: +r@0 -r@1")
    assert (code, err) == (1, "")
    assert out == verified_out + "certificate replay: FAILED\n"
    code, out, _ = run(capsys, "decompose", as_file, "aaa: +r@0 -r@1", "--format", "json")
    assert code == 1
    assert json.loads(out)["verified"] is False


def test_decompose_rejects_open_path(as_file, capsys):
    code, _, err = run(capsys, "decompose", as_file, "aaa: +r@0")
    assert code == 2
    assert "not closed" in err


def test_footprint_command(as_file, capsys):
    code, out, _ = run(capsys, "footprint", as_file, "aaa: +r@0 -r@1")
    assert code == 0
    assert out.strip() == "footprint = +1·(ε, r, a) -1·(a, r, ε)"


def test_transport(as_file, tmp_path, capsys):
    ups = tmp_path / "ups.pres"
    ups.write_text(UPSILON_TEXT, encoding="utf-8")
    mapping = tmp_path / "map.txt"
    mapping.write_text(MAP_TEXT, encoding="utf-8")
    code, out, _ = run(capsys, "transport", as_file, str(ups), str(mapping))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "translation: ok"
    assert "cmp_r: aa:" in lines
    assert "img_1: aaa: +r@0 -r@1" in lines
    assert lines[-1] == "transported generators: 2"


def test_json_mode_single_document(as_file, capsys):
    code, out, _ = run(capsys, "check", as_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["convergent"] is True
    code, out, _ = run(capsys, "decompose", as_file, "aaa: +r@0 -r@1", "--format", "json")
    payload = json.loads(out)
    assert payload["pi"] == [
        {"left": "ε", "right": "ε", "basis": "b1", "coefficient": 1}
    ]
    assert payload["verified"] is True


def test_parser_is_built_once_and_reused(as_file, two_file, capsys):
    calls = [
        ("check", two_file, "--max-len", "3"),
        ("normalize", as_file, "aaaa", "--format", "json"),
        ("no-such-command",),
        ("equal", as_file, "a a", "a"),
        ("normalize", "--help"),
        ("decompose", as_file, "aaa: +r@0 -r@1"),
        ("complete", two_file, "--format", "json"),
    ]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    _build_parser.cache_clear()
    parser = _build_parser()
    for argv, expected in zip(calls, fresh):
        assert run(capsys, *argv) == expected, argv
    assert _build_parser() is parser


def test_repeat_runs_byte_identical(as_file, capsys):
    first = run(capsys, "pi-basis", as_file)
    second = run(capsys, "pi-basis", as_file)
    assert first == second


def test_transport_rejected_map(as_file, tmp_path, capsys):
    ups = tmp_path / "ups.pres"
    ups.write_text(UPSILON_TEXT, encoding="utf-8")
    mapping = tmp_path / "bad_map.txt"
    # a collapses to the unit, so the round trip for b cannot close
    mapping.write_text("forward: a -> ε\nbackward: b -> a\nbackward: e -> ε\n")
    code, out, _ = run(capsys, "transport", as_file, str(ups), str(mapping))
    assert code == 1
    assert "translation: rejected" in out


def test_usage_errors(as_file, capsys, tmp_path):
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2
    code, _, err = run(capsys, "check", str(tmp_path / "missing.pres"))
    assert code == 2
    broken = tmp_path / "broken.pres"
    broken.write_text("generators: a\nnot a section\n")
    code, _, err = run(capsys, "check", str(broken))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize(
    "error, message",
    [
        (RecursionError("maximum recursion depth exceeded"), "srs: maximum recursion depth exceeded\n"),
        (MemoryError(), "srs: MemoryError\n"),
    ],
)
def test_resource_exhaustion_is_a_diagnostic(as_file, capsys, monkeypatch, error, message):
    def exhausted(path):
        raise error

    monkeypatch.setattr(cli, "_load", exhausted)
    assert run(capsys, "check", as_file) == (2, "", message)


@pytest.mark.parametrize("role", ["presentation", "map"])
def test_unreadable_file_is_a_diagnostic(as_file, tmp_path, capsys, role):
    """A directory where a file is expected is reported like a missing file."""
    ups = tmp_path / "ups.pres"
    ups.write_text(UPSILON_TEXT, encoding="utf-8")
    mapping = tmp_path / "map.txt"
    mapping.write_text(MAP_TEXT, encoding="utf-8")
    folder = tmp_path / "folder"
    folder.mkdir()
    if role == "presentation":
        argv = ("check", str(folder))
    else:
        argv = ("transport", as_file, str(ups), str(folder))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"srs: cannot read {folder}\n"
    assert "Traceback" not in err


def test_brute_force_check_of_a_long_chain_has_no_traceback(tmp_path):
    """Reductions longer than the recursion limit: the chain r_i: g_i -> g_(i-1),
    declared from g1199 down, reduces g1199 in 1199 steps."""
    n = 1200
    chain = tmp_path / "chain.pres"
    chain.write_text(
        "generators: " + " ".join(f"g{i}" for i in reversed(range(n))) + "\n"
        "order: shortlex " + " < ".join(f"g{i}" for i in range(n)) + "\n"
        "rules:\n" + "".join(f" r{i}: g{i} -> g{i - 1}\n" for i in range(1, n)),
        encoding="utf-8",
    )
    result = subprocess.run(
        [sys.executable, "-m", "srs.cli", "check", str(chain), "--max-len", "1"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(FilePath(srs.__file__).resolve().parent.parent)},
        timeout=120,
    )
    assert result.returncode in (0, 2), result.stderr
    assert "Traceback" not in result.stderr
    assert "brute force (≤1): confluent" in result.stdout


def test_a_closed_pipe_ends_the_run_without_a_traceback(as_file):
    """The path of a^20000 to a is 120,018 bytes of text, more than a pipe
    holds; the reader takes 10 bytes and closes the pipe, as ``head -c 10``
    does, so a write fails with EPIPE."""
    process = subprocess.Popen(
        [sys.executable, "-m", "srs.cli", "normalize", as_file, "a" * 20000],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={"PYTHONPATH": str(FilePath(srs.__file__).resolve().parent.parent)},
    )
    assert process.stdout.read(10) == b"normal for"
    process.stdout.close()
    err = process.stderr.read().decode()
    assert process.wait(timeout=120) == 2
    assert err == ""


@pytest.mark.parametrize(
    "text, message",
    [
        ("generators: a\norder:\nrules:\n", "line 2, col 1: empty order specification"),
        ("generators: a\norder: weights a\nrules:\n", "line 2, col 1: expected name=weight, got 'a'"),
        ("generators: a\norder: weights a=³\nrules:\n", "line 2, col 1: weight of 'a' must be a positive integer"),
        ("generators: a\norder: lex a\nrules:\n", "line 2, col 1: unknown order kind 'lex'"),
        ("generators: a\nrules:\n a a -> a\n", "line 3, col 1: expected '<id>: <lhs> -> <rhs>'"),
        ("generators: a\nrules:\n r: a a a\n", "line 3, col 1: rule is missing '->'"),
    ],
)
def test_a_malformed_presentation_is_a_diagnostic(tmp_path, capsys, text, message):
    assert run(capsys, "check", write(tmp_path, "bad.pres", text)) == (2, "", f"srs: {message}\n")


def test_an_unindented_line_after_rules_is_a_rule(tmp_path, capsys):
    path = write(tmp_path, "flush.pres", "generators: a\nrules:\nr: a a -> a\n")
    assert run(capsys, "pi-basis", path) == (0, "b1: aaa: +r@0 -r@1\npi generated by 1 element(s)\n", "")


@pytest.mark.parametrize(
    "map_text, message",
    [
        ("forward a -> b\n", "line 1, col 1: expected 'forward: <gen> -> <word>'"),
        ("forward: a -> b\nsideways: b -> a\n", "line 2, col 1: expected 'forward: <gen> -> <word>'"),
        ("forward: a b\n", "line 1, col 1: expected 'forward: <gen> -> <word>'"),
        ("forward: a -> b\nforward: x -> b\n", "line 2, col 1: unknown source generator 'x'"),
        ("forward: a -> b\nbackward: a -> a\n", "line 2, col 1: unknown target generator 'a'"),
    ],
)
def test_a_malformed_map_is_a_diagnostic(as_file, tmp_path, capsys, map_text, message):
    ups = write(tmp_path, "ups.pres", UPSILON_TEXT)
    mapping = write(tmp_path, "map.txt", map_text)
    assert run(capsys, "transport", as_file, ups, mapping) == (2, "", f"srs: {message}\n")


@pytest.mark.parametrize("side", ["source", "target"])
def test_transport_needs_both_presentations_convergent(two_file, tmp_path, capsys, side):
    idempotent = write(tmp_path, "c.pres", "generators: c\nrules:\n s: c c -> c\n")
    if side == "source":
        mapping = "forward: a -> c\nforward: b -> c\nbackward: c -> a\n"
        argv = (two_file, idempotent)
    else:
        mapping = "forward: c -> a\nbackward: a -> c\nbackward: b -> c\n"
        argv = (idempotent, two_file)
    code_out_err = run(capsys, "transport", *argv, write(tmp_path, "map.txt", mapping))
    assert code_out_err == (2, "", f"srs: {side} presentation is not convergent\n")


def test_transport_rejects_a_map_under_which_a_rule_breaks(as_file, tmp_path, capsys):
    """Under a -> b, the sides of r: a a -> a become b b and b, distinct
    where b b b -> b is the only rule."""
    cubic = write(tmp_path, "cubic.pres", "generators: b\nrules:\n s: b b b -> b\n")
    mapping = write(tmp_path, "map.txt", "forward: a -> b\nbackward: b -> a\n")
    assert run(capsys, "transport", as_file, cubic, mapping) == (
        1,
        "translation: rejected\n  rule r: translated sides differ\n",
        "",
    )


def test_path_text_without_a_colon_reads_its_first_token_as_the_word(as_file, capsys):
    expected = (0, "footprint = +1·(ε, r, a) -1·(a, r, ε)\n", "")
    assert run(capsys, "footprint", as_file, "aaa +r@0 -r@1") == expected
    assert run(capsys, "footprint", as_file, "aaa: +r@0 -r@1") == expected


@pytest.mark.parametrize("command", ["decompose", "footprint"])
def test_a_bad_step_token_is_a_diagnostic(as_file, capsys, command):
    assert run(capsys, command, as_file, "aaa: +r@0 r@1") == (
        2,
        "",
        "srs: bad step 'r@1', expected ±<rule>@<pos>\n",
    )


def test_critical_pairs_prints_the_local_confluence_report(capsys):
    """Completed A5 has 184 critical branchings, all joinable, more than
    any golden case: ``critical-pairs`` prints each with the loop of the
    matching outcome of the local-confluence report."""
    code, out, err = run(capsys, "critical-pairs", str(A5_COMPLETED))
    assert (code, err) == (0, "")
    p = parse_presentation(A5_COMPLETED.read_text(encoding="utf-8"))
    outcomes = critical.is_locally_confluent(p).outcomes
    lines = out.splitlines()
    assert len(lines) == 2 * len(outcomes) == 2 * 184
    assert all(line.endswith(" joinable=true") for line in lines[::2])
    assert [line for line in lines if line.startswith("  loop: ")] == [
        f"  loop: {format_path(o.loop, p)}" for o in outcomes
    ]
