import json
import os
import pathlib
import random
import subprocess
import sys
import time
from math import comb

import pytest

from klreg import Ladder, cli, ideals, oracle, perm, skew, zipdiag
from klreg.errors import InternalError, ResourceError
from klreg.ladder import ladder_from_json, ladder_to_json, perm_of
from klreg.perm import Permutation, coxeter_length

from knowndata import LAD_A, V10, V11, W10, W11, ZIP_UNDERCOUNT

ROOT = pathlib.Path(__file__).resolve().parent.parent
LARGE_BOARD = ROOT / "demos" / "boards" / "large_board.json"
BOARDS = sorted((ROOT / "demos" / "boards").glob("*.json")) + sorted((ROOT / "bench" / "boards").glob("*.json"))


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_pair_basic(capsys):
    code, out, _ = run(capsys, ["pair", "--v", "5 8 9 10 1 2 11 3 4 6 7", "--w", "1 4 5 8 2 3 9 6 10 11 7"])
    assert code == 0
    data = json.loads(out)
    assert data["regularity"] == 4 and data["a_invariant"] == -10
    assert data["ell_v"] == 26 and data["ell_w"] == 12


def test_pair_equal_perms(capsys):
    code, out, _ = run(capsys, ["pair", "--v", "[2,1,3]", "--w", "[2,1,3]"])
    data = json.loads(out)
    assert code == 0 and data["regularity"] == 0 and data["a_invariant"] == 0


def test_pair_oracle_and_recurrence(capsys):
    code, out, _ = run(
        capsys,
        ["pair", "--v", "4 6 1 2 8 9 3 5 10 7", "--w", "4 1 2 3 6 8 5 9 7 10", "--oracle", "--recurrence"],
    )
    data = json.loads(out)
    assert code == 0
    assert data["oracle"]["verdict"] == "AGREE"
    assert data["recurrence_degree"] == data["groth_degree"] == 8


def test_pair_oracle_disagreement_exits_1(capsys):
    # a known defect (ROADMAP item 1(b)): zip is one short of the closure's
    # degree on this pair; an exact degree route flips this pin to AGREE
    v, w, true_degree = ZIP_UNDERCOUNT[0]
    code, out, _ = run(capsys, ["pair", "--v", " ".join(map(str, v.word)), "--w", " ".join(map(str, w.word)), "--oracle"])
    data = json.loads(out)
    assert code == cli.EXIT_DISAGREE == 1
    assert data["oracle"] == {"closure_max": true_degree, "verdict": "DISAGREE"} and true_degree == 7
    assert data["groth_degree"] == 6


def test_pair_render(capsys):
    code, out, _ = run(capsys, ["pair", "--v", "4 6 1 2 8 9 3 5 10 7", "--w", "4 1 2 3 6 8 5 9 7 10", "--render"])
    data = json.loads(out)
    assert code == 0
    assert data["render"]["d_top"] == "+++\n...+\n  .++\n  ..+\n    ."
    assert "K" in data["render"]["d_zip_k"]


def test_compact_parse():
    assert cli.parse_permutation("312").word == (3, 1, 2)
    assert cli.parse_permutation("[3,1,2]").word == (3, 1, 2)
    assert cli.parse_permutation("3, 1, 2").word == (3, 1, 2)


def test_parse_errors(capsys):
    code, _, err = run(capsys, ["pair", "--v", "xx", "--w", "12"])
    assert code == 2 and "parse error" in err
    # ten or more entries without separators are ambiguous
    code, _, err = run(capsys, ["pair", "--v", "1234567891", "--w", "12"])
    assert code == 2
    # a superscript digit is a digit to str.isdigit() but not to int()
    code, _, err = run(capsys, ["pair", "--v", "²", "--w", "1"])
    assert code == 2 and "parse error" in err


def test_boolean_entries_are_parse_errors(capsys):
    # JSON booleans are ints to Python; they must not pass as entries 1 and 0
    for word in ("[true]", "[2, true, 3]"):
        code, out, err = run(capsys, ["pair", "--v", word, "--w", word])
        assert code == 2 and "parse error" in err and out == ""


def test_validation_error_exit(capsys):
    code, _, err = run(capsys, ["pair", "--v", "1 3 2", "--w", "2 1 3"])
    assert code == 3 and "invalid input" in err


def test_pattern_error_exit_with_recurrence(capsys):
    code, _, err = run(capsys, ["pair", "--v", "3 2 1", "--w", "1 2 3", "--recurrence"])
    assert code == 3 and "invalid input" in err


def test_resource_exit(capsys, monkeypatch):
    monkeypatch.setenv("KLREG_BUDGET", "2")
    code, _, err = run(capsys, ["pair", "--v", "4 6 1 2 8 9 3 5 10 7", "--w", "4 1 2 3 6 8 5 9 7 10", "--oracle"])
    assert code == 4 and "budget" in err


def test_resource_exit_reports_partial_counts(capsys, monkeypatch):
    monkeypatch.setenv("KLREG_BUDGET", "3")
    argv = ["pair", "--v", json.dumps(list(V10.word)), "--w", json.dumps(list(W10.word)), "--oracle"]
    code, out, err = run(capsys, argv)
    assert code == 4 and out == ""
    first, last = err.splitlines()
    assert first == "budget exhausted: closure budget 3 exceeded"
    assert json.loads(last) == {"visited": 5, "expanded": 2}


def test_recurrence_exit_under_a_small_budget(capsys, monkeypatch):
    # V10/W10's recurrence keeps 8 remainders past the first of each level
    argv = ["pair", "--v", json.dumps(list(V10.word)), "--w", json.dumps(list(W10.word)), "--recurrence"]
    monkeypatch.setenv("KLREG_BUDGET", "7")
    code, out, err = run(capsys, argv)
    assert code == 4 and out == ""
    first, last = err.splitlines()
    assert first == "budget exhausted: recurrence budget 7 exceeded"
    assert json.loads(last) == {"remainders": 8}
    monkeypatch.setenv("KLREG_BUDGET", "8")
    code, out, _ = run(capsys, argv)
    assert code == 0 and json.loads(out)["recurrence_degree"] == zipdiag.groth_degree_recursive(V10, W10)


@pytest.mark.parametrize(
    "fault", [KeyError("d_top"), InternalError("the zipped family's blanks are not the slid diagram")]
)
def test_internal_fault_exit(capsys, monkeypatch, fault):
    # a crash is not an oracle disagreement (exit 1): it gets its own code
    def broken(v, w):
        raise fault

    monkeypatch.setattr(zipdiag, "zip_result", broken)
    code, out, err = run(capsys, ["pair", "--v", "[2,1,3]", "--w", "[2,1,3]"])
    assert code == 5 and out == ""
    assert err.startswith("Traceback") and f"{type(fault).__name__}: " in err
    assert err.splitlines()[-1] == f"internal error: {fault}"


def test_out_of_memory_exit(capsys, monkeypatch):
    # running out of memory is a resource failure like a spent budget, not a fault in klreg
    def exhausted(v, w):
        raise MemoryError

    monkeypatch.setattr(zipdiag, "zip_result", exhausted)
    code, out, err = run(capsys, ["pair", "--v", "[2,1,3]", "--w", "[2,1,3]"])
    assert (code, out, err) == (4, "", "budget exhausted: out of memory\n")


def test_keyboard_interrupt_propagates(monkeypatch):
    def interrupted(v, w):
        raise KeyboardInterrupt

    monkeypatch.setattr(zipdiag, "zip_result", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["pair", "--v", "[2,1,3]", "--w", "[2,1,3]"])


def test_ladder_command(tmp_path, capsys):
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(ladder_to_json(LAD_A)))
    code, out, _ = run(capsys, ["ladder", "--file", str(path), "--oracle"])
    data = json.loads(out)
    assert code == 0
    assert data["regularity"] == 4 and data["a_invariant"] == -10
    assert data["cells"] == 21 and data["weight"] == 14
    assert data["oracle"]["verdict"] == "AGREE"


def test_ladder_render_and_export(tmp_path, capsys):
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(ladder_to_json(LAD_A)))
    script = tmp_path / "ideal.m2"
    code, out, _ = run(capsys, ["ladder", "--file", str(path), "--render", "--export-ideal", str(script)])
    data = json.loads(out)
    assert code == 0
    assert "H1=" in data["render"]
    assert "I = ideal(" in script.read_text()


def test_export_ideal_refuses_a_board_over_the_minor_budget(tmp_path, capsys):
    # C(24, 6)^2, about 1.8e10 candidate minors: refused before any is expanded
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"lambda": [24] * 24, "mu": [0] * 24, "marked": [{"point": [24, 0], "r": 6}]}))
    script = tmp_path / "ideal.m2"
    start = time.perf_counter()
    code, out, err = run(capsys, ["ladder", "--file", str(path), "--export-ideal", str(script)])
    assert time.perf_counter() - start < 5
    assert code == 4 and out == "" and not script.exists()
    first, last = err.splitlines()
    assert first == f"budget exhausted: minor budget {oracle.DEFAULT_BUDGET} exceeded"
    assert json.loads(last) == {"minors": comb(24, 6) ** 2}


def test_export_ideal_minors_obey_klreg_budget(tmp_path, capsys, monkeypatch):
    # LAD_A's mark blocks hold 73 candidate minors
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(ladder_to_json(LAD_A)))
    script = tmp_path / "ideal.m2"
    monkeypatch.setenv("KLREG_BUDGET", "72")
    code, out, err = run(capsys, ["ladder", "--file", str(path), "--export-ideal", str(script)])
    assert code == 4 and out == "" and json.loads(err.splitlines()[-1]) == {"minors": 73}
    monkeypatch.setenv("KLREG_BUDGET", "73")
    code, out, _ = run(capsys, ["ladder", "--file", str(path), "--export-ideal", str(script)])
    assert code == 0 and "I = ideal(" in script.read_text()


def _count_calls(monkeypatch, module, name) -> list:
    """Wrap module.name so that each call appends to the returned list."""
    calls = []
    inner = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ["ladder", "--file", str(LARGE_BOARD), "--oracle"],
        ["pair", "--v", json.dumps(V10.word), "--w", json.dumps(W10.word), "--oracle"],
        ["pair", "--v", json.dumps(V10.word), "--w", json.dumps(W10.word), "--oracle", "--recurrence"],
        ["sweep", "--n", "7", "--samples", "5", "--seed", "7"],
    ],
)
def test_each_command_builds_the_construction_once(capsys, monkeypatch, argv):
    # the ladder oracle reads the zip record that the zipped family comes from; perm_of,
    # zip_result, the closure oracle and the recurrence share one top diagram, whose
    # scan is the pair's only check
    pairs = 1
    if argv[0] == "sweep":  # five distinct draws, so the memo never spans two samples
        rng = random.Random(7)
        pairs = len({oracle.random_avoiding_pair(rng, 7) for _ in range(5)})
        assert pairs == 5
    skew._top.cache_clear()
    zips = _count_calls(monkeypatch, zipdiag, "_components")
    tops = _count_calls(monkeypatch, skew, "_ne_scan")
    bruhat = [_count_calls(monkeypatch, module, "bruhat_leq") for module in (perm, oracle, ideals)]
    code, _, _ = run(capsys, argv)
    assert code == 0
    assert (len(zips), len(tops)) == (pairs, pairs)
    assert bruhat == [[], [], []]


@pytest.mark.parametrize("path", BOARDS, ids=lambda p: f"{p.parent.parent.name}-{p.stem}")
def test_ladder_lengths_are_those_of_the_board_pair(capsys, path):
    # run_ladder reads ell(v) and ell(w) off the zip record's region and top diagram
    v, w = perm_of(ladder_from_json(json.loads(path.read_text())))
    code, out, _ = run(capsys, ["ladder", "--file", str(path)])
    data = json.loads(out)
    assert code == 0
    assert (data["ell_v"], data["ell_w"]) == (coxeter_length(v), coxeter_length(w))


def test_non_minimal_board_names_the_cause(tmp_path, capsys):
    board = Ladder((2, 2), (0, 0), (((1, 0), 1),))  # validate_minimal's doctest board
    path = tmp_path / "board.json"
    path.write_text(json.dumps(ladder_to_json(board)))
    code, out, err = run(capsys, ["ladder", "--file", str(path)])
    assert code == 3 and out == ""
    assert err == "invalid input: the board is not minimal: bottom family does not match the top diagram\n"


def test_mark_on_row_zero_is_named(tmp_path, capsys):
    # the block of a mark at (0, 0) has no rows; no rank of v is read for it
    board = {"lambda": [2, 2], "mu": [0, 0], "marked": [{"point": [0, 0], "r": 1}]}
    path = tmp_path / "board.json"
    path.write_text(json.dumps(board))
    code, out, err = run(capsys, ["ladder", "--file", str(path)])
    assert (code, out) == (3, "")
    assert err == "invalid input: marked point (0, 0) is on row 0, where its block has no rows\n"


@pytest.mark.parametrize(
    "board, message",
    [
        ({"lambda": ["a"], "marked": []}, "partition parts must be integers"),
        ({"lambda": [2.7, 2], "marked": [{"point": [2, 0], "r": 1}]}, "partition parts must be integers"),
        ({"lambda": [2, 2], "marked": [{"point": [2], "r": 1}]}, "a mark needs two integer coordinates"),
        ({"lambda": [2, 2], "marked": [{"point": [2, 0], "r": True}]}, "a mark needs two integer coordinates"),
        ({"lambda": [2, 2], "marked": [{"point": [2, 0], "r": "1"}]}, "a mark needs two integer coordinates"),
    ],
    ids=["string-part", "float-part", "one-coordinate", "bool-r", "string-r"],
)
def test_malformed_board_is_a_validation_error(tmp_path, capsys, board, message):
    # no coercion: a float, bool or string where an int belongs is bad input
    path = tmp_path / "board.json"
    path.write_text(json.dumps(board))
    code, out, err = run(capsys, ["ladder", "--file", str(path)])
    assert code == 3 and out == ""
    assert err.startswith(f"invalid input: {message}")


@pytest.mark.parametrize(
    "text",
    ['"abc"', json.dumps(json.dumps(ladder_to_json(LAD_A)))],
    ids=["string", "string-of-a-board"],
)
def test_board_file_holding_a_string_is_a_validation_error(tmp_path, capsys, text):
    # the file is decoded once: a JSON string is not a board, even one that spells a board
    path = tmp_path / "board.json"
    path.write_text(text)
    code, out, err = run(capsys, ["ladder", "--file", str(path)])
    assert (code, out) == (3, "")
    assert err == "invalid input: bad ladder description: expected a JSON object, got str\n"


def test_missing_ladder_file(capsys):
    code, _, err = run(capsys, ["ladder", "--file", "/nonexistent/l.json"])
    assert code == 2


def test_non_utf8_board_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "board.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(ladder_to_json(LAD_A)).encode("utf-16-le"))
    code, out, err = run(capsys, ["ladder", "--file", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: {path} is not valid JSON: 'utf-8' codec can't decode byte 0xff")


def test_empty_export_path_is_unwritable(tmp_path, capsys):
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(ladder_to_json(LAD_A)))
    code, out, err = run(capsys, ["ladder", "--file", str(path), "--export-ideal="])
    assert (code, out) == (2, "")
    assert err.startswith("parse error: cannot write : ")


def test_unwritable_export_path(tmp_path, capsys):
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(ladder_to_json(LAD_A)))
    target = tmp_path / "missing" / "ideal.m2"
    code, out, err = run(capsys, ["ladder", "--file", str(path), "--export-ideal", str(target)])
    assert code == 2 and out == "" and f"cannot write {target}" in err


def test_output_is_reproducible(tmp_path, capsys):
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(ladder_to_json(LAD_A)))
    _, out1, _ = run(capsys, ["ladder", "--file", str(path), "--render"])
    _, out2, _ = run(capsys, ["ladder", "--file", str(path), "--render"])
    assert out1 == out2


def test_sweep_command(capsys):
    code, out, _ = run(capsys, ["sweep", "--n", "4", "--samples", "30", "--seed", "3"])
    data = json.loads(out)
    assert code == 0
    assert data["checked"] == 30 and data["disagreements"] == []


def test_sweep_samples_beyond_desk_scale(capsys, monkeypatch):
    # the pair sampler is polynomial in n, so n = 18 draws at once; the
    # closure oracle's budget is what bounds a larger sweep (exit 4)
    monkeypatch.delenv("KLREG_BUDGET", raising=False)
    code, out, _ = run(capsys, ["sweep", "--n", "18", "--samples", "2", "--seed", "2023"])
    assert code == 0
    assert json.loads(out) == {
        "checked": 2, "disagreements": [], "exhausted": [], "mode": "sweep", "n": 18, "samples": 2
    }


def test_sweep_keeps_the_samples_around_an_exhausted_one(capsys, monkeypatch):
    # one of ten n = 7 samples has a closure of more than 10 diagrams
    monkeypatch.setenv("KLREG_BUDGET", "10")
    code, out, err = run(capsys, ["sweep", "--n", "7", "--samples", "10", "--seed", "2023"])
    assert code == 4 and err == ""
    data = json.loads(out)
    assert data["checked"] == 9 and data["disagreements"] == []
    (sample,) = data["exhausted"]
    assert sample["partial"]["visited"] == 11
    v, w = Permutation(tuple(sample["v"])), Permutation(tuple(sample["w"]))
    with pytest.raises(ResourceError):
        oracle.max_closure_size(v, w, budget=10)
    assert oracle.max_closure_size(v, w) == zipdiag.groth_degree_recursive(v, w)


def test_sweep_lists_a_sample_whose_recurrence_runs_out(capsys, monkeypatch):
    # the 14th n = 7 sample of seed 0 has a closure of at most 10 diagrams, but its
    # recurrence keeps 12 remainders past the first of each level
    monkeypatch.setenv("KLREG_BUDGET", "10")
    code, out, err = run(capsys, ["sweep", "--n", "7", "--samples", "20", "--seed", "0"])
    assert code == 4 and err == ""
    data = json.loads(out)
    assert data["checked"] == 19 and data["disagreements"] == []
    (sample,) = data["exhausted"]
    assert sample["partial"] == {"remainders": 12}
    v, w = Permutation(tuple(sample["v"])), Permutation(tuple(sample["w"]))
    assert oracle.max_closure_size(v, w, budget=10) == zipdiag.groth_degree_recursive(v, w)


def test_sweep_disagreement_outranks_an_exhausted_sample(capsys, monkeypatch):
    monkeypatch.setenv("KLREG_BUDGET", "40")
    code, out, _ = run(capsys, ["sweep", "--n", "8", "--samples", "300", "--seed", "2023"])
    data = json.loads(out)
    assert code == 1
    assert (data["checked"], len(data["disagreements"]), len(data["exhausted"])) == (299, 1, 1)


def test_sweep_lists_a_sample_that_runs_out_of_memory(capsys, monkeypatch):
    # the 2nd of 3 samples runs out of memory in its closure oracle; the report is still printed
    closure, drawn = oracle.max_closure_size, []

    def second_runs_out(v, w, **kwargs):
        drawn.append((list(v.word), list(w.word)))
        if len(drawn) == 2:
            raise MemoryError
        return closure(v, w, **kwargs)

    monkeypatch.setattr(oracle, "max_closure_size", second_runs_out)
    code, out, err = run(capsys, ["sweep", "--n", "6", "--samples", "3", "--seed", "2023"])
    assert code == 4 and err == ""
    data = json.loads(out)
    assert data["checked"] == 2 and data["disagreements"] == []
    assert data["exhausted"] == [{"v": drawn[1][0], "w": drawn[1][1], "partial": None}]


@pytest.mark.parametrize(
    "budget, argv, message",
    [
        (None, ["sweep", "--n", "-3", "--samples", "2"], "--n must be a non-negative integer"),
        (None, ["sweep", "--n", "4", "--samples", "-1"], "--samples must be a non-negative integer"),
        # v = w: the top diagram has no move, so the closure would never test the budget
        ("0", ["pair", "--v", "[2,1,3]", "--w", "[2,1,3]", "--oracle"], "KLREG_BUDGET must be a positive integer"),
        ("-5", ["sweep", "--n", "4", "--samples", "2"], "KLREG_BUDGET must be a positive integer"),
    ],
    ids=["negative-n", "negative-samples", "zero-budget", "negative-budget"],
)
def test_nonsense_counts_are_parse_errors(capsys, monkeypatch, budget, argv, message):
    if budget is None:
        monkeypatch.delenv("KLREG_BUDGET", raising=False)
    else:
        monkeypatch.setenv("KLREG_BUDGET", budget)
    code, out, err = run(capsys, argv)
    assert code == 2 and message in err and out == ""


PAIR = ["pair", "--v", "12", "--w", "12"]


@pytest.mark.parametrize(
    "argv, token",
    [
        ([], "no subcommand"),
        (["frob"], "'frob'"),
        (["pair", "--v", "12"], "--w"),
        (PAIR + ["--bogus"], "'--bogus'"),
        (["pair", "--v", "12", "--w"], "--w"),
        (["sweep", "--n", "abc", "--samples", "2"], "abc"),
        (PAIR + ["--ren"], "'--ren'"),  # no abbreviations
        (PAIR + ["--render=1"], "'--render=1'"),
    ],
    ids=["empty", "unknown-subcommand", "missing-flag", "unknown-flag", "missing-value", "non-integer",
         "abbreviation", "value-to-switch"],
)
def test_usage_errors_are_parse_errors(capsys, argv, token):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith("parse error: ") and token in line


@pytest.mark.parametrize("argv", [["--help"], ["pair", "-h"]])
def test_help_prints_the_module_docstring(capsys, argv):
    assert run(capsys, argv) == (0, cli.__doc__, "")


def test_flag_value_forms(capsys):
    # --flag=value reads as --flag value, and the last of a repeated flag wins
    assert cli.parse_args(["sweep", "--n=4", "--samples", "2", "--n", "5"])[1] == {"n": 5, "samples": 2}
    spaced = run(capsys, ["pair", "--v", "[2,1,3]", "--w", "[1,2,3]", "--render"])
    assert run(capsys, ["pair", "--v=[2,1,3]", "--w", "[3,2,1]", "--w=[1,2,3]", "--render"]) == spaced


def _fresh(*args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def test_entry_point_in_a_fresh_process(capsys):
    # main() with no argv reads sys.argv[1:]
    argv = ["pair", "--v", json.dumps(list(V11.word)), "--w", json.dumps(list(W11.word))]
    code, out, _ = run(capsys, argv)
    proc = _fresh("-m", "klreg.cli", *argv)
    assert (proc.returncode, proc.stdout) == (code, out) == (0, out)


def test_a_board_with_more_paths_than_cells_exits_3_at_once(tmp_path):
    # r = 10^9 on a 2 x 2 board: refused before any boundary point is built
    path = tmp_path / "board.json"
    path.write_text(json.dumps({"lambda": [2, 2], "mu": [0, 0], "marked": [{"point": [2, 0], "r": 10**9}]}))
    proc = _fresh("-m", "klreg.cli", "ladder", "--file", str(path))
    assert proc.returncode == 3
    assert proc.stderr.endswith("999999999 boundary points on each side, more than the shape's cell count 4\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_report_that_cannot_be_written_exits_2():
    # stdout on a full device: one parse error line, no traceback
    big = json.dumps(list(range(1, 6001)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for v in (json.dumps(list(V11.word)), big):  # a report within the output buffer, and one past it
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "klreg.cli", "pair", "--v", v, "--w", v],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        assert proc.returncode == 2
        (line,) = proc.stderr.splitlines()
        assert line.startswith("parse error: cannot write the report: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_help_that_cannot_be_written_exits_2():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in (["--help"], ["pair", "-h"]):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "klreg.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        assert proc.returncode == 2
        (line,) = proc.stderr.splitlines()
        assert line.startswith("parse error: cannot write the help: ")


def test_cli_does_not_import_argparse():
    proc = _fresh("-c", "import sys, klreg.cli; print('argparse' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n")
