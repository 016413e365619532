"""The benchmark's output checks accept real reports and reject corrupted
ones, the op time limit stops a slow op, and BENCHMARK.json names exactly
the metrics the runner prints."""

import copy
import importlib
import json
import signal
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402

# The already-imported klreg tree: ops.load_klreg would replace the modules
# other test files hold.
K = SimpleNamespace(**{m: importlib.import_module(f"klreg.{m}") for m in ops.MODULES})

REAL_RUN = ops.run
PAIR = {"kind": "pair", "n": 6, "v": [3, 4, 1, 5, 2, 6], "w": [1, 3, 2, 4, 5, 6]}


def _run(op, tmp_path):
    return ops.run(K, op, ops.prepare(K, op, tmp_path / "board.json"))


def _corrupt(out, **changes):
    bad = copy.deepcopy(out)
    rep = json.loads(bad["stdout"])
    for key, value in changes.items():
        if isinstance(value, dict):
            rep[key].update(value)
        else:
            rep[key] = value
    bad["stdout"] = json.dumps(rep)
    return bad


def test_pair_report_passes_and_corruptions_fail(tmp_path):
    out = _run(PAIR, tmp_path)
    assert ops.check(PAIR, out) == []
    deg = json.loads(out["stdout"])["groth_degree"]
    assert ops.check(PAIR, _corrupt(out, groth_degree=deg + 1))
    assert ops.check(PAIR, _corrupt(out, regularity=-1))
    assert ops.check(PAIR, _corrupt(out, ell_w=0))
    assert ops.check(PAIR, dict(out, exit=3))
    assert ops.check(PAIR, dict(out, stdout="not json"))


def test_equal_pair_closed_form(tmp_path):
    v = inputs.grassmannian_word(2, 3, 1, 0)
    op = {"kind": "pair", "n": len(v), "v": v, "w": v}
    out = _run(op, tmp_path)
    assert ops.check(op, out) == []
    assert ops.check(op, _corrupt(out, groth_degree=5, regularity=-1, a_invariant=-1))


def test_ladder_report_passes_and_corruptions_fail(tmp_path):
    op = {"kind": "ladder", "name": "demo_small", "board": inputs.fixed_board("demo_small")}
    out = _run(op, tmp_path)
    assert ops.check(op, out) == []
    assert ops.check(op, _corrupt(out, oracle={"verdict": "DISAGREE"}))
    assert ops.check(op, _corrupt(out, a_invariant=0))
    assert ops.check(op, _corrupt(out, cells=1))


def test_route_and_generator_checks(tmp_path):
    sweep = dict(PAIR, kind="sweep")
    out = _run(sweep, tmp_path)
    assert ops.check(sweep, out) == []
    assert ops.check(sweep, dict(out, zip=out["zip"] - 1))
    gens = {"kind": "gens", "name": "known_c", "board": inputs.fixed_board("known_c")}
    out = _run(gens, tmp_path)
    assert ops.check(gens, out) == []
    assert ops.check(gens, dict(out, equal=False))


def test_benchmark_json_matches_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


def test_op_time_limit_stops_a_slow_op(monkeypatch):
    monkeypatch.setattr(run, "OP_LIMIT_S", 0.05)
    previous = signal.signal(signal.SIGALRM, run._stop_op)
    try:
        out, err = run._call(time.sleep, 2)
        assert out is None and "time limit" in err
        assert run._call(sum, [1, 2]) == (3, None)
    finally:
        signal.signal(signal.SIGALRM, previous)


def _measured(op, tmp_path, monkeypatch, corrupt=None):
    """`run.measure` on one op, with `corrupt` applied to its raw output."""
    monkeypatch.setattr(ops, "load_klreg", lambda: K)
    monkeypatch.setattr(ops, "run", REAL_RUN if corrupt is None else lambda *a: corrupt(REAL_RUN(*a)))
    previous = signal.signal(signal.SIGALRM, run._stop_op)
    try:
        records, _, _ = run.measure([op], [tmp_path / "board.json"], 30)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return records


def test_corrupted_report_makes_run_incorrect(tmp_path, monkeypatch):
    assert run.is_correct(_measured(PAIR, tmp_path, monkeypatch), None)
    deg = json.loads(_run(PAIR, tmp_path)["stdout"])["groth_degree"]
    records = _measured(PAIR, tmp_path, monkeypatch, lambda out: _corrupt(out, groth_degree=deg + 1))
    assert records[0]["failures"] and not run.is_correct(records, None)


def test_only_the_known_zip_undercount_keeps_a_run_correct(tmp_path, monkeypatch):
    sweep = dict(PAIR, kind="sweep")
    under = _measured(sweep, tmp_path, monkeypatch, lambda out: dict(out, zip=out["zip"] - 1))
    assert under[0]["failures"] and under[0]["known_defect"] and run.is_correct(under, None)
    over = _measured(sweep, tmp_path, monkeypatch, lambda out: dict(out, zip=out["zip"] + 1))
    assert over[0]["failures"] and not run.is_correct(over, None)
    split = _measured(sweep, tmp_path, monkeypatch, lambda out: dict(out, closure=out["closure"] + 1))
    assert split[0]["failures"] and not run.is_correct(split, None)
    assert not run.is_correct(_measured(sweep, tmp_path, monkeypatch), [0])
    assert not run.is_correct([], None)


def test_traced_replay_of_a_board_writes_and_reads_its_file(tmp_path, monkeypatch):
    modules = {name: mod for name, mod in sys.modules.items() if name == "klreg" or name.startswith("klreg.")}
    monkeypatch.setattr(ops, "load_klreg", lambda: SimpleNamespace(**vars(K), modules=modules))
    op = {"kind": "ladder", "name": "demo_small", "board": inputs.fixed_board("demo_small")}
    previous = signal.signal(signal.SIGALRM, run._stop_op)
    try:
        records, _, extra = run.measure_traced([op], [tmp_path / "op0.json"], 30, 1)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert records[0]["failures"] == [] and not extra["mismatches"]
