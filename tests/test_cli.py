"""Command-line interface: formats, exit codes, determinism."""

import hashlib
import json
import os
import re
import runpy
import subprocess
import sys
import tracemalloc
from itertools import pairwise
from pathlib import Path

import pytest

from pascent import gf, patterns, series, verify
from pascent.cli import main
from pascent.core import PAscentSequence, enumerate_sequences, stats
from pascent.patterns import Pattern, occurs
from pascent.series import MultiPoly, TSeries
from test_series import narrowed_width


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_enumerate_lines(capsys):
    code, out = run(capsys, "enumerate", "--p", "1", "--n", "2")
    assert code == 0
    assert out == "0,0\n0,1\n"


def test_enumerate_count_matches_gf(capsys):
    code, out = run(capsys, "enumerate", "--p", "2", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11
    assert "0,1,0" in lines and "0,2,3" in lines


def test_enumerate_pattern_filter(capsys):
    code, out = run(capsys, "enumerate", "--p", "3", "--n", "4", "--pattern", "00")
    assert code == 0
    assert len(out.splitlines()) == 24


def test_enumerate_json(capsys):
    code, out = run(capsys, "enumerate", "--p", "1", "--n", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == [[0, 0], [0, 1]]


_JSON_WORDS = {
    (): lambda p, n: enumerate_sequences(p, n),
    ("--primitive",): lambda p, n: filter(lambda s: stats(s).primitive, enumerate_sequences(p, n)),
    ("--updown",): lambda p, n: filter(lambda s: stats(s).up_down, enumerate_sequences(p, n)),
    ("--pattern", "00"): lambda p, n: patterns.iter_avoiders(p, Pattern.parse("00"), n),
    ("--pattern", "10-1", "--primitive"): lambda p, n: patterns.iter_avoiders(
        p, Pattern.parse("10-1"), n, primitive_only=True),
    # no word of length 2 or more: the list prints as [], as at p = 1, n = 3
    ("--pattern", "01", "--primitive"): lambda p, n: patterns.iter_avoiders(
        p, Pattern.parse("01"), n, primitive_only=True),
}


@pytest.mark.parametrize("flags", list(_JSON_WORDS))
def test_enumerate_json_bytes(capsys, flags):
    """enumerate --format json writes word by word the very bytes that
    json.dumps gives for the list of the words, spacing included."""
    for p in (1, 2, 3):
        for n in range(7):
            words = [list(seq.letters) for seq in _JSON_WORDS[flags](p, n)]
            argv = ("enumerate", "--p", str(p), "--n", str(n), *flags, "--format", "json")
            assert run(capsys, *argv) == (0, json.dumps(words) + "\n"), (p, n)


class _DigestSink:
    """A stdout that keeps only the SHA-256 of the text it is given."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())
        return len(text)

    def writelines(self, lines):
        for text in lines:
            self.write(text)

    def flush(self):
        pass


def test_enumerate_json_streams(monkeypatch):
    """The JSON list is written as the walk goes, not held: the 24,779 words
    of length 7 (346,906 bytes as lines) pass through in well under 1 MiB."""
    words = [list(seq.letters) for seq in enumerate_sequences(3, 7)]
    expected = hashlib.sha256((json.dumps(words) + "\n").encode()).hexdigest()
    del words
    sink = _DigestSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert main(["enumerate", "--p", "3", "--n", "7", "--format", "json"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.sha.hexdigest() == expected
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("fmt", ["lines", "json"])
def test_closed_pipe_exits_141_quietly(fmt):
    """A reader that stops early, as `| head` does, ends the command with
    exit 141 (128 + SIGPIPE) and nothing on stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pascent", "enumerate", "--p", "3", "--n", "9", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


def test_enumerate_updown(capsys):
    code, out = run(capsys, "count", "--p", "2", "--n", "3", "--updown")
    assert code == 0
    # up-down 2-ascent sequences of length 3: 010, 020, 021
    assert out == "3\n"
    # counted level by level, not by listing the 12,297,411 3-ascent words
    # of length 10 (the stats-filtered walk gives 70400 too)
    assert run(capsys, "count", "--p", "3", "--n", "10", "--updown") == (0, "70400\n")


def test_count_primitive(capsys):
    code, out = run(capsys, "count", "--p", "2", "--n", "4", "--primitive")
    assert code == 0
    assert out == "21\n"


@pytest.mark.parametrize("flags", [
    (), ("--primitive",), ("--pattern", "012"), ("--pattern", "10-1", "--primitive"),
    ("--pattern", "[00]"), ("--updown",), ("--pattern", "0-1", "--primitive", "--updown"),
    ("--updown", "--primitive"), ("--pattern", "000", "--updown"),
])
def test_count_matches_enumeration(capsys, flags):
    """count counts by level DP; it must give the number of words of plain
    enumerate that the flags keep, judged here by stats and occurs.  With
    --updown, enumerate must list exactly those words, in both formats."""
    pat = Pattern.parse(flags[flags.index("--pattern") + 1]) if "--pattern" in flags else None

    def kept(seq):
        profile = stats(seq)
        return not ("--primitive" in flags and not profile.primitive
                    or "--updown" in flags and not profile.up_down
                    or pat and occurs(pat, seq.letters))

    for p in (1, 2, 3):
        for n in range(8):
            code, out = run(capsys, "enumerate", "--p", str(p), "--n", str(n))
            assert code == 0
            words = [PAscentSequence(p, tuple(int(c) for c in line.split(",") if c))
                     for line in out.splitlines()]
            words = [seq for seq in words if kept(seq)]
            argv = ("--p", str(p), "--n", str(n), *flags)
            assert run(capsys, "count", *argv) == (0, f"{len(words)}\n"), (p, n)
            if "--updown" in flags:
                assert run(capsys, "enumerate", *argv) == (
                    0, "".join(f"{seq}\n" for seq in words)), (p, n)
                code, out = run(capsys, "enumerate", *argv, "--format", "json")
                assert (code, json.loads(out)) == (
                    0, [list(seq.letters) for seq in words]), (p, n)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_primitive_matches_filtered_enumeration(capsys, p):
    """--primitive lists by a walk that never grows two equal adjacent letters
    and counts by the level DP; both must match plain enumerate filtered here."""
    for n in range(8):
        flags = ("--p", str(p), "--n", str(n))
        code, out = run(capsys, "enumerate", *flags)
        assert code == 0
        kept = [line for line in out.splitlines()
                if all(a != b for a, b in pairwise(line.split(",")))]
        assert run(capsys, "enumerate", *flags, "--primitive") == (
            0, "".join(line + "\n" for line in kept)), (p, n)
        code, out = run(capsys, "enumerate", *flags, "--primitive", "--format", "json")
        assert (code, json.loads(out)) == (
            0, [[int(c) for c in line.split(",")] if line else [] for line in kept]), (p, n)
        assert run(capsys, "count", *flags, "--primitive") == (0, f"{len(kept)}\n"), (p, n)
        assert run(capsys, "count", *flags, "--primitive", "--updown") == (
            run(capsys, "count", *flags, "--updown")), (p, n)


def test_count_pattern_over_state_budget(capsys, monkeypatch):
    """The budget of a 0102 count is pinned under every nesting of the rule:
    it trips at length 6 with and without --primitive, and at length 11 under
    --updown, which thins the levels, with and without --primitive."""
    monkeypatch.setattr(patterns, "_MAX_STATES", 500)
    for argv in (["count", "--p", "3", "--n", "9", "--pattern", "0102"],
                 ["avoid", "--p", "3", "--n", "9", "--pattern", "0102"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "state budget of 500" in captured.err
    over = "pascent: length {} holds more than the state budget of 500 states\n"
    for flags, expected in (([], (2, "", over.format(6))),
                            (["--primitive"], (2, "", over.format(6))),
                            (["--updown"], (2, "", over.format(11))),
                            (["--primitive", "--updown"], (2, "", over.format(11)))):
        code = main(["count", "--p", "3", "--pattern", "0102", "--n", "12", *flags])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected, flags
    assert run(capsys, "count", "--p", "3", "--pattern", "0102", "--n", "9", "--updown") == (
        0, "571\n")


def test_verify_budget_error_names_its_suite(capsys, monkeypatch):
    """A budget error says which suite at which p and order ran out."""
    monkeypatch.setattr(patterns, "_MAX_STATES", 500)
    code = main(["verify", "--suite", "patterns_10", "--p", "4", "--order", "10"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == ("pascent: patterns_10 at p = 4, order 10: length 10 holds"
                            " more than the state budget of 500 states\n")


def test_verify_all_prints_the_reports_before_a_budget_error(capsys, monkeypatch):
    """Each report is written when its suite finishes: a budget error in a late
    suite exits 2 with its one line, after every report before it."""
    monkeypatch.setattr(patterns, "_MAX_STATES", 50)
    code = main(["verify", "--suite", "all", "--budget", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ("pascent: patterns_012 at p = 5, order 4: length 4 holds"
                            " more than the state budget of 50 states\n")
    reports = [json.loads(line) for line in captured.out.splitlines()]
    tasks = verify._task_matrix(4)
    assert len(reports) == tasks.index(("patterns_012", 5, 4))
    assert [(r["suite"], r["parameters"]["p"]) for r in reports] == [
        (name, p) for name, p, _order in tasks[: len(reports)]
    ]
    assert all(r["status"] == "pass" for r in reports)


def test_verify_avoider_walks_over_node_budget(capsys):
    for argv in (["--suite", "bijection_10_012", "--order", "30"],
                 ["--suite", "vincular_212", "--order", "20"]):
        code = main(["verify", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "nodes" in captured.err and str(verify._MAX_NODES) in captured.err


def test_series_json_values(capsys):
    code, out = run(capsys, "series", "--gf", "A", "--p", "2", "--order", "6")
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == 6
    terms = {tuple(e["exp"]): e["coeff"] for e in obj["terms"]}
    assert terms[(6, 0, 0, 1, 0)] == "380"
    assert terms[(6, 0, 0, 6, 0)] == "1"


def test_series_all_one(capsys):
    code, out = run(capsys, "series", "--gf", "R", "--p", "4", "--order", "9",
                    "--set", "all=1")
    assert code == 0
    obj = json.loads(out)
    values = {e["exp"][0]: e["coeff"] for e in obj["terms"]}
    assert [values[n] for n in range(10)] == [
        "1", "1", "4", "20", "110", "670", "4470", "32440", "254490", "2146525"
    ]


def test_series_maxk_k1_equals_R(capsys):
    code_a, out_a = run(capsys, "series", "--gf", "maxk", "--p", "1", "--k", "1",
                        "--order", "5")
    code_b, out_b = run(capsys, "series", "--gf", "R", "--p", "1", "--order", "5")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_series_file_output(tmp_path, capsys):
    target = tmp_path / "series.json"
    code, out = run(capsys, "series", "--gf", "P", "--order", "4", "--out", str(target))
    assert code == 0 and out == ""
    obj = json.loads(target.read_text())
    assert obj["order"] == 4


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_series_out_that_cannot_be_opened_is_a_usage_error(tmp_path, capsys, where):
    # this printed a traceback and exited 1, the verification-failure code
    target = tmp_path / "no" / "x.json" if where == "missing_dir" else tmp_path
    code = main(["series", "--gf", "P", "--order", "4", "--out", str(target)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"pascent: cannot write --out {target}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_series_missing_k(capsys):
    code, _ = run(capsys, "series", "--gf", "maxk", "--p", "1", "--order", "4")
    assert code == 2


def test_series_missing_p(capsys):
    code, _ = run(capsys, "series", "--gf", "A", "--order", "4")
    assert code == 2


def test_avoid_both(capsys):
    code, out = run(capsys, "avoid", "--p", "2", "--pattern", "012", "--n", "7", "--both")
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert [r[0] for r in rows] == [str(n) for n in range(1, 8)]
    assert [r[1] for r in rows] == [r[2] for r in rows]
    assert [int(r[2]) for r in rows] == [1, 3, 8, 20, 48, 112, 256]


def test_avoid_closed_p4(capsys):
    code, out = run(capsys, "avoid", "--p", "4", "--pattern", "012", "--n", "10", "--closed")
    assert code == 0
    assert out.splitlines()[-1] == "10 26624"


def test_avoid_default_oracle(capsys):
    code, out = run(capsys, "avoid", "--p", "1", "--pattern", "01", "--n", "5")
    assert code == 0
    assert out == "1 1\n2 1\n3 1\n4 1\n5 1\n"


def test_avoid_both_primitive_012_has_a_closed_form(capsys):
    """Primitive 012's closed form, 1 + t/(1-t)^p, agrees with brute force."""
    code, out = run(capsys, "avoid", "--both", "--p", "5", "--pattern", "012", "--primitive",
                    "--n", "14")
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert len(rows) == 14 and all(r[1] == r[2] for r in rows)


def test_verify_patterns_00_passes_at_p2(capsys):
    code, out = run(capsys, "verify", "--suite", "patterns_00", "--p", "2")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_avoid_closed_unsupported(capsys):
    code, _ = run(capsys, "avoid", "--p", "4", "--pattern", "00", "--n", "5", "--closed")
    assert code == 2


def test_avoid_both_falls_back(capsys):
    code, out = run(capsys, "avoid", "--p", "4", "--pattern", "00", "--n", "5", "--both")
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert [int(r[2]) for r in rows] == [1, 4, 16, 58, 190]


def test_bijection_maps(capsys):
    code, out = run(capsys, "bijection", "--map", "10-to-012", "--seq", "0,1,1,2")
    assert code == 0 and out == "0,2,0,2\n"
    code, out = run(capsys, "bijection", "--map", "012-to-10", "--seq", "0,2,0,2")
    assert code == 0 and out == "0,1,1,2\n"
    code, out = run(capsys, "bijection", "--map", "embed", "--p", "2", "--seq", "0,2,0")
    assert code == 0 and out == "0,1,0,2,0\n"
    code, out = run(capsys, "bijection", "--map", "project", "--p", "2",
                    "--seq", "0,1,0,2,0")
    assert code == 0 and out == "0,2,0\n"


def test_bijection_invalid_input(capsys):
    code, _ = run(capsys, "bijection", "--map", "10-to-012", "--seq", "0,1,0")
    assert code == 2


@pytest.mark.parametrize("bijection, inverse, seq, image", [
    ("10-to-012", "012-to-10", "0,1,1,2,4", "0,3,0,3,2"),
    ("012-to-10", "10-to-012", "0,3,0,3,2", "0,1,1,2,4"),
], ids=["10-to-012", "012-to-10"])
def test_bijection_round_trip_at_p_3(capsys, bijection, inverse, seq, image):
    code, out = run(capsys, "bijection", "--map", bijection, "--p", "3", "--seq", seq)
    assert code == 0 and out == image + "\n"
    code, out = run(capsys, "bijection", "--map", inverse, "--p", "3", "--seq", image)
    assert code == 0 and out == seq + "\n"


def test_series_udeg_is_used(capsys):
    for name, evaluate in (("G1u", gf.eval_G1_u), ("H", gf.eval_H)):
        code, out = run(capsys, "series", "--gf", name, "--p", "2", "--order", "5",
                        "--udeg", "1")
        assert code == 0
        assert out == evaluate(2, 5, 1).to_json() + "\n"


@pytest.mark.parametrize("name", ["G1u", "H"])
def test_series_udeg_above_order(capsys, name):
    """A u-bound above the order changes nothing: the t^n coefficient has
    u-degree at most n - 1.  One past 127, the largest exponent a field holds,
    is lowered to the order too, not refused."""
    argv = ["series", "--gf", name, "--p", "2", "--order", "3", "--udeg"]
    expected = run(capsys, *argv, "3")[1]
    for udeg in ("101", "200"):
        assert run(capsys, *argv, udeg) == (0, expected), udeg


BFILE_A = ["bfile", "--gf", "A", "--p", "2", "--order", "5", "--set", "all=1"]
BFILE_AVOID = ["bfile", "--avoid", "--p", "2", "--pattern", "10", "--n", "4"]


@pytest.mark.parametrize("argv", [
    ["series", "--gf", "A", "--p", "2", "--order", "2", "--k", "5"],
    ["series", "--gf", "A", "--p", "2", "--order", "2", "--udeg", "1"],
    ["series", "--gf", "P", "--p", "7", "--order", "3"],
    ["series", "--gf", "G", "--p", "2", "--order", "3", "--udeg", "1"],
    ["series", "--gf", "maxk", "--p", "2", "--k", "2", "--order", "3", "--udeg", "1"],
    ["series", "--gf", "H", "--p", "2", "--order", "4", "--udeg", "-1"],
    ["bfile", "--gf", "P", "--order", "5", "--p", "1"],
    [*BFILE_A, "--primitive"],
    [*BFILE_A, "--n", "5"],
    [*BFILE_A, "--pattern", "10"],
    [*BFILE_A, "--closed"],
    [*BFILE_A, "--oracle"],
    ["bfile", "--gf", "A", "--p", "2", "--set", "all=1"],
    [*BFILE_AVOID, "--order", "4"],
    [*BFILE_AVOID, "--k", "2"],
    [*BFILE_AVOID, "--udeg", "2"],
    [*BFILE_AVOID, "--set", "all=1"],
    ["bfile", "--avoid", "--pattern", "10", "--n", "4"],
    ["bfile", "--avoid", "--closed", "--p", "4", "--pattern", "00", "--n", "5"],
    ["series", "--gf", "A", "--p", "1", "--order", "257"],   # z^256 carried into v
])
def test_series_and_bfile_usage_errors(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    message = captured.err.splitlines()
    assert len(message) == 1 and message[0].startswith("pascent: ")


def test_bfile_A_z1(capsys):
    code, out = run(capsys, "bfile", "--gf", "A", "--p", "2", "--order", "4",
                    "--set", "z=1")
    assert code == 0
    assert out == "1 1\n2 3\n3 11\n4 46\n"


@pytest.mark.parametrize("spec,var", [("z=1,z=2", "z"), ("all=1,z=2", "z"), ("u=0,all=1", "u")])
def test_set_rejects_a_variable_given_twice(capsys, spec, var):
    code = main(["bfile", "--gf", "A", "--p", "1", "--order", "3", "--set", spec])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"pascent: --set gives {var} more than once\n"


@pytest.mark.parametrize("argv,message", [
    (["bfile", "--gf", "A", "--p", "2", "--order", "3", "--set", "z"],
     "bad --set entry 'z': expected var=int"),
    (["bfile", "--gf", "A", "--p", "2", "--order", "3", "--set", "z=x"],
     "bad --set value 'x': must be an integer"),
    (["bfile", "--gf", "A", "--p", "2", "--order", "3", "--set", "w=1"],
     "unknown variable 'w' in --set (use u, v, z, x or all)"),
    (["bijection", "--map", "10-to-012", "--seq", "0,a"],
     "bad sequence '0,a': letters must be comma-separated integers"),
    (["bijection", "--map", "embed", "--seq", "0"],
     "--map embed requires --p (the parameter of the input)"),
    (["bijection", "--map", "project", "--seq", "0"],
     "--map project requires --p (the parameter of the output)"),
    (["bfile", "--gf", "A", "--avoid", "--p", "2", "--order", "3"],
     "choose one of --gf and --avoid"),
], ids=["set_entry", "set_value", "set_variable", "seq_letter", "embed_without_p",
        "project_without_p", "gf_and_avoid"])
def test_usage_errors_print_one_line(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"pascent: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["avoid", "--p", "2", "--pattern", "01", "--n", "-1"], "--n must be nonnegative"),
    (["series", "--gf", "P", "--order", "-1"], "--order must be nonnegative"),
], ids=["avoid_n", "series_order"])
def test_negative_sizes_exit_through_argparse(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1] == f"pascent: error: {message}"


def test_avoid_both_exits_1_when_the_columns_disagree(capsys, monkeypatch):
    real = patterns._closed_counts
    monkeypatch.setattr(patterns, "_closed_counts",
                        lambda p, pat, n_max, primitive_only=False:
                        [c + (n == 3) for n, c in enumerate(real(p, pat, n_max))])
    code = main(["avoid", "--p", "2", "--pattern", "012", "--n", "4", "--both"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "1 1 1\n2 3 3\n3 9 8\n4 20 20\n"
    assert captured.err == "pascent: closed form and brute force disagree\n"


def test_A_with_z_set_passes_order_127(capsys):
    # --set z=... is substituted while A is built, so no z-exponent reaches 128
    code, out = run(capsys, "bfile", "--gf", "A", "--p", "1", "--order", "200", "--set", "all=1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 200
    _, fishburn = run(capsys, "bfile", "--gf", "P", "--order", "200")
    assert lines == fishburn.splitlines()[1:]     # fishburn_p1: A at p = 1, z = 1 is P
    # without --set the z-exponents of A reach the order
    code = main(["series", "--gf", "A", "--p", "1", "--order", "200"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    message = captured.err.splitlines()
    assert len(message) == 1 and message[0].startswith("pascent: exponent overflow")


_OVERFLOW = "exponent overflow: a product has an exponent of 128 or more"


def test_symbolic_A_refuses_before_summing(capsys, monkeypatch):
    """Symbolic A and its product form hold z^N at t^N, so an order of 128 or
    more is refused before any integer run."""
    def unreachable(*args):
        raise AssertionError("summed before the refusal")
    monkeypatch.setattr(gf, "_int_graded_sum", unreachable)
    with pytest.raises(ValueError, match="exponent overflow"):
        gf.eval_A1_product_form(128)
    code = main(["series", "--gf", "A", "--p", "1", "--order", "200"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"pascent: {_OVERFLOW}\n")


@pytest.mark.parametrize("fault", [-1, 1], ids=["negative_digit", "digit_sum"])
def test_symbolic_A_guards_its_decode(capsys, monkeypatch, fault):
    """A run at z = 2^B that is off by one at t^1 decodes to a negative digit,
    or to digits that do not sum to the run at z = 1: refused, exit 1."""
    real = gf._zeros_at

    def corrupted(p, order, z):
        values = real(p, order, z)
        if z > 1:
            values[1] += fault
        return values
    monkeypatch.setattr(gf, "_zeros_at", corrupted)
    with pytest.raises(ArithmeticError, match=r"^t\^1 decodes to .* not to digits of at least 0 "):
        gf.eval_A(2, 5)
    code = main(["series", "--gf", "A", "--p", "2", "--order", "5"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("pascent: t^1 decodes to")


def test_series_refuses_a_decode_past_its_width(capsys, monkeypatch):
    """A width too narrow for the rows of eval_H, or of eval_G1_u under G1u, G1
    and G, is refused by the decode: exit 1, one message, no series."""
    monkeypatch.setattr(series, "_width", narrowed_width(16))
    for name in ("H", "G1u", "G1", "G"):
        code = main(["series", "--gf", name, "--p", "1", "--order", "4"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, ""), name
        assert captured.err.startswith("pascent: ") and captured.err.count("\n") == 1, name


_U_GRADED_REFUSALS = [
    ("series --gf H --p 1 --order 130", _OVERFLOW),
    ("series --gf H --p 1 --order 130 --udeg 0", _OVERFLOW),
    ("series --gf G1u --p 1 --order 129", _OVERFLOW),
    ("series --gf G --p 1 --order 128", _OVERFLOW),
    ("verify --suite cancellation --p 1 --order 128", _OVERFLOW),
    ("series --gf H --p 1 --order 128", _OVERFLOW),
    ("verify --suite psi --order 128", _OVERFLOW),
    ("verify --suite psi --order 130", _OVERFLOW),
]


@pytest.mark.parametrize("argv,message", _U_GRADED_REFUSALS, ids=[a for a, _ in _U_GRADED_REFUSALS])
def test_u_graded_sums_refuse_before_summing(capsys, monkeypatch, argv, message):
    """A u-graded sum out of range is refused before any row is built or
    summed: with every row pass made to raise, psi's right side included,
    each command still exits 2 with its one line."""
    def unreachable(*args):
        raise AssertionError("rows summed before the refusal")
    for name in ("_delta_rows", "_gamma_rows", "_psi_rhs_rows"):
        monkeypatch.setattr(gf, name, unreachable)
    code = main(argv.split())
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"pascent: {message}\n")


def test_bfile_requires_scalars(capsys):
    code, _ = run(capsys, "bfile", "--gf", "A", "--p", "2", "--order", "4")
    assert code == 2


def test_bfile_avoid(capsys):
    code, out = run(capsys, "bfile", "--avoid", "--p", "2", "--pattern", "10", "--n", "4")
    assert code == 0
    assert out == "1 1\n2 3\n3 8\n4 20\n"


def test_bfile_empty_range(capsys):
    code, out = run(capsys, "bfile", "--avoid", "--p", "2", "--pattern", "10", "--n", "0")
    assert code == 0 and out == ""


def test_bfile_needs_mode(capsys):
    code, _ = run(capsys, "bfile", "--p", "2")
    assert code == 2


def test_verify_single_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "jelinek", "--p", "1", "--order", "12")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["parameters"]["N"] == 12


def test_verify_kernel(capsys):
    code, out = run(capsys, "verify", "--suite", "kernel_G", "--p", "2", "--order", "6")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_oracle_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "oracle_A", "--p", "3", "--order", "6")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_pattern_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "bijection_10_012", "--order", "6")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_unknown_suite(capsys):
    code, _ = run(capsys, "verify", "--suite", "bogus")
    assert code == 2


def test_verify_over_node_budget(capsys):
    code = main(["verify", "--suite", "embed_roundtrip", "--p", "4", "--order", "25"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    message = captured.err.splitlines()
    assert len(message) == 1 and message[0].startswith("pascent: ")
    assert "nodes" in message[0] and str(verify._MAX_NODES) in message[0]


def test_verify_failed_cancellation_exits_1(capsys, monkeypatch):
    real = gf.eval_G1_u

    def bumped(p, order, u_bound=None):
        return real(p, order, u_bound) + TSeries.from_poly(order, MultiPoly.variable("z"), 3)

    monkeypatch.setattr(gf, "eval_G1_u", bumped)
    code = main(["verify", "--suite", "oracle_G1_full", "--p", "2", "--order", "5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["status"] == "fail"
    assert report["first_discrepancy"] == {
        "error": "ArithmeticError: kernel cancellation failed at t^4: "
                 "nonzero remainder in exact division by (v - 1)"
    }


def test_a_refused_decode_fails_its_suite(capsys, monkeypatch):
    """One integer run value off by one is refused by the decode: verify --suite psi
    and delta_gamma_calculus each exit 1 with the one-key error record, as a failed
    kernel cancellation does, and gf.psi and TSeries.subst_u raise."""
    h, delta = gf.eval_H(2, 6), gf.delta(2, 6)
    real = series._decode

    def corrupted(at, sums, norms, keys):
        def bumped(width):
            rows = at(width)
            return [*rows[:-1], [*rows[-1][:-1], rows[-1][-1] + 1]]
        return real(bumped, sums, norms, keys)
    monkeypatch.setattr(series, "_decode", corrupted)
    monkeypatch.setattr(gf, "_decode", corrupted)
    for suite in ("psi", "delta_gamma_calculus"):
        code = main(["verify", "--suite", suite, "--order", "8"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (1, ""), suite
        report = json.loads(captured.out)
        assert report["status"] == "fail", suite
        assert list(report["first_discrepancy"]) == ["error"], suite
        error = report["first_discrepancy"]["error"]
        assert re.match(r"ArithmeticError: (u\^\d+ )?t\^\d+ decodes to ", error), suite
    with pytest.raises(ArithmeticError, match="decodes to"):
        gf.psi(2, 6)
    with pytest.raises(ArithmeticError, match="decodes to"):
        h.subst_u(delta)


@pytest.mark.parametrize("argv", [
    ["series", "--gf", "G1", "--p", "2", "--order", "5"],
    ["bfile", "--gf", "G1", "--p", "2", "--order", "5", "--set", "all=1"],
])
def test_failed_cancellation_exits_1(capsys, monkeypatch, argv):
    """A series whose kernel cancellation fails is reported in one line, exit 1."""
    real = gf.eval_G1_u

    def bumped(p, order, u_bound=None):
        return real(p, order, u_bound) + TSeries.from_poly(order, MultiPoly.variable("z"), 3)

    monkeypatch.setattr(gf, "eval_G1_u", bumped)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "pascent: kernel cancellation failed at t^4: "
        "nonzero remainder in exact division by (v - 1)\n"
    )


def test_verify_oracle_suite_deep(capsys):
    code, out = run(capsys, "verify", "--suite", "oracle_G", "--p", "4", "--order", "14")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["status"] == "pass"


def test_python_m_pascent(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["pascent", "--help"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("pascent", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: pascent")


def test_verify_all_small_budget(capsys):
    code, out = run(capsys, "verify", "--suite", "all", "--budget", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) >= 40
    assert all(json.loads(line)["status"] == "pass" for line in lines)
    # the digest perfbench/workloads.json records for the certify workload
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9d3a28f2695b3bcd38320485343c0b0ced6440a799ae6539da517ca8d59ef5dc"
    )


def test_verify_all_budget_6_digest(capsys):
    """Budget 6 runs psi's Horner sums over the gammas deeper than budget 4 does."""
    code, out = run(capsys, "verify", "--suite", "all", "--budget", "6")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e97ac0bf4cad70142662ca39f27012b0d5bec2f63332e054bbd39f56d917ec63"
    )


def test_verify_all_budget_8_digest(capsys):
    """Budget 8 runs the oracle suites at order 8 and psi at order 20, its cap."""
    code, out = run(capsys, "verify", "--suite", "all", "--budget", "8")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5a4f0a8cafd6dc0326c4df91f25f2fcdc19a940aace917f48b72405b19899f92"
    )


@pytest.mark.parametrize("argv, digest", [
    ("bfile --gf maxk --p 4 --k 5 --order 120",
     "e5d0a3d52dd930447ab06492f2649376e43fc6c9d77714380d4fab27675d05ac"),
    ("verify --suite delta_gamma_calculus --order 16",
     "b6707aa75c471dd8f8505bd95e9424369b4e5d294990ccd262768438bb2f8c16"),
], ids=["bfile_maxk", "delta_gamma_calculus"])
def test_substitution_outputs_keep_their_digest(capsys, argv, digest):
    """maxk composes the primitive series with t + ... + t^k (compose_t), and the
    kernel calculus substitutes u/delta_k for u (subst_u): both print these bytes."""
    code, out = run(capsys, *argv.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


@pytest.mark.parametrize("argv, digest", [
    ("bfile --gf P --order 300",
     "aac2530d4f54b9ab64f0b846aaa1b72c04eb7444247adaf1c6280f94a100f94a"),
    ("bfile --gf A --p 4 --order 150 --set z=-3",
     "74ab6b7b1d5d64b97487b2e02e81ff4838116a4a014a508328711c4bd6cf07ee"),
    ("series --gf A --p 3 --order 60",
     "8790ca2b494e8a77a7b0389c39fbcc366475fc093fa3638a5138bca2aac56427"),
], ids=["bfile_P_300", "bfile_A4_z-3", "series_A3_60"])
def test_zeros_sums_keep_their_digest(capsys, argv, digest):
    """P, A at an integer z and symbolic A, summed by Horner's rule on lists of
    ints and mapped back to t, print these bytes."""
    code, out = run(capsys, *argv.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


@pytest.mark.parametrize("workload", ["kernel_series", "scalar_series", "enumerate"])
def test_kernel_series_workload_outputs(capsys, workload):
    """The kernel_series, scalar_series and enumerate commands print the bytes
    that perfbench records."""
    workloads = json.loads((Path(__file__).parents[1] / "perfbench" / "workloads.json").read_text())
    for command in workloads["workloads"][workload]["commands"]:
        code, out = run(capsys, *command["command"].split())
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest) == (command["exit_code"], command["stdout_sha256"]), command


def test_verify_k_is_used(capsys):
    code, out = run(capsys, "verify", "--suite", "oracle_maxk", "--k", "3", "--order", "5")
    assert code == 0
    assert json.loads(out)["parameters"] == {"p": 2, "N": 5, "k": 3}


@pytest.mark.parametrize("argv", [
    ["--suite", "oracle_maxk", "--k", "0", "--order", "5"],
    ["--suite", "oracle_maxk", "--k", "-1"],
    ["--suite", "rel16", "--k", "7"],
    ["--suite", "vincular_212", "--p", "5"],
    ["--suite", "fishburn_p1", "--p", "2"],
    ["--suite", "psi", "--p", "3"],
    ["--suite", "delta_gamma_calculus", "--p", "1"],
    ["--suite", "jelinek", "--p", "2"],
    ["--suite", "all", "--p", "2"],
    ["--suite", "all", "--order", "5"],
    ["--suite", "all", "--k", "2"],
    ["--suite", "oracle_A", "--budget", "9"],
])
def test_verify_rejects_flags_a_suite_would_drop(capsys, argv):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    message = captured.err.splitlines()
    assert len(message) == 1 and message[0].startswith("pascent: ")


def test_verify_all_budget_defaults_to_6(capsys, monkeypatch):
    budgets = []
    monkeypatch.setattr(verify, "run_all", lambda budget, emit: budgets.append(budget) or [])
    assert run(capsys, "verify", "--suite", "all") == (0, "")
    assert budgets == [6]


def test_verify_accepts_the_forced_p(capsys):
    code, out = run(capsys, "verify", "--suite", "vincular_212", "--p", "3", "--order", "5")
    assert code == 0
    assert json.loads(out)["parameters"] == {"p": 3, "N": 5}


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--p", "0", "--n", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--p", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_byte_determinism(capsys):
    _, out_a = run(capsys, "series", "--gf", "G", "--p", "2", "--order", "5")
    _, out_b = run(capsys, "series", "--gf", "G", "--p", "2", "--order", "5")
    assert out_a == out_b


# (p, order, k) that `verify --suite <name>` resolves when no --p, --order or
# --k is given; k is None for suites that take no repetition bound.
VERIFY_DEFAULTS = {
    **{f"oracle_{g}": (2, 6, 2) for g in ("G", "G1_full", "G1_u", "A", "R", "H", "maxk")},
    **{name: (2, 10, None) for name in (
        "kernel_G", "kernel_H", "rel16", "H_gives_A", "primitive_substitution",
        "cancellation", "maxk_boundary",
    )},
    "fishburn_p1": (1, 10, None),
    "psi": (None, 20, None),
    "jelinek": (1, 30, None),
    "delta_gamma_calculus": (None, 12, None),
    **{name: (2, 8, None) for name in (
        "patterns_01", "patterns_10", "patterns_00", "patterns_012",
        "bijection_10_012", "embed_roundtrip",
    )},
    "vincular_212": (3, 8, None),
}


@pytest.mark.parametrize("suite", sorted(VERIFY_DEFAULTS))
def test_verify_defaults(capsys, monkeypatch, suite):
    every_suite = (
        {f"oracle_{g}" for g in verify.ORACLE_GF_NAMES}
        | set(verify.IDENTITY_NAMES) | set(verify.PATTERN_SUITE_NAMES)
    )
    assert set(VERIFY_DEFAULTS) == every_suite
    calls = []

    def recorder(prefix):
        def check(name, p, n_max, k=None):
            calls.append((prefix + name, p, n_max, k))
            return verify.CheckReport(prefix + name, {}, "pass")
        return check

    monkeypatch.setattr(verify, "check_oracle_vs", recorder("oracle_"))
    monkeypatch.setattr(verify, "check_identity", recorder(""))
    monkeypatch.setattr(verify, "check_pattern", recorder(""))
    code, _ = run(capsys, "verify", "--suite", suite)
    assert code == 0
    assert calls == [(suite, *VERIFY_DEFAULTS[suite])]
