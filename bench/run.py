"""klreg benchmark: seeded workloads, end-to-end metrics, traced per-layer
attribution.  See README.md in this directory.

    python3 bench/run.py --workload pairs --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Human-readable lines come first.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# An untraced run goes over the op list again and again until `--seconds`
# have passed (at most MAX_PASSES times), each pass on fresh imports of
# klreg.  The machine is a shared host whose speed moves by a factor of up
# to two over seconds and minutes (the same pass over the same ops took
# 1.1 to 2.3 s), so every timed run is bracketed by a fixed reference
# computation, and the run's time is rescaled to the speed at which that
# computation takes REFERENCE_S.  An op's time is the median of its
# rescaled runs.
MAX_PASSES = 10
REFERENCE_S = 1e-3
# Set-ups timed (and rescaled) before each pass; setup_s is their median.
SETUPS_PER_PASS = 3
# An op (or one replay of it) that runs longer than this is stopped and
# counts as failed.  Normal ops take at most about 2.5 s; a rare random pair
# whose top diagram has millions of maximal chains took 31 s, and a worse
# one could push a run past its 180-second limit.
OP_LIMIT_S = 10

import inputs  # noqa: E402  (sibling modules of this script)
import ops  # noqa: E402
from spans import NullTracer, Tracer, median_or_zero, percentile, tail_percentile  # noqa: E402

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# Per-layer metrics of the traced run: (name, unit, source).  A "span"
# source is the median per op of that span's summed time over the ops that
# made the call; a "count" source is the median per-op counter value.
PER_LAYER = (
    ("perm.bruhat_leq_ms", "ms", ("span", "perm.bruhat_leq")),
    ("pipes.d_ne_ms", "ms", ("span", "pipes.d_ne")),
    ("pipes.d_ne_letters", "count", ("count", "d_ne_letters")),
    ("pipes.d_ne_accept_share", "share", ("count", "d_ne_accept_share")),
    ("skew.compress_ms", "ms", ("span", "skew.compress")),
    ("cli.parse_ms", "ms", ("span", "cli.parse")),
    ("zipdiag.components_ms", "ms", ("span", "zipdiag.components")),
    ("zipdiag.minimizing_diag_ms", "ms", ("span", "zipdiag.minimizing_diag")),
    ("zipdiag.maximal_chains", "count", ("count", "maximal_chains")),
    ("zipdiag.zip_result_ms", "ms", ("span", "zipdiag.zip_result")),
    ("zipdiag.slide_saturate_ms", "ms", ("count", "slide_saturate_ms")),
    ("zipdiag.slide_moves", "count", ("count", "slide_moves")),
    ("zipdiag.repeat_share", "share", ("count", "repeat_share")),
    ("ladder.validate_minimal_ms", "ms", ("span", "ladder.validate_minimal")),
    ("ladder.perm_of_ms", "ms", ("span", "ladder.perm_of")),
    ("ladder.boundary_points_ms", "ms", ("span", "ladder.boundary_points")),
    ("ladder.p_bot_ms", "ms", ("span", "ladder.p_bot")),
    ("ladder.p_zip_ms", "ms", ("span", "ladder.p_zip")),
    ("ladder.elbows_ms", "ms", ("span", "ladder.elbows")),
    ("ladder.cells", "count", ("count", "cells")),
    ("zipdiag.groth_degree_recursive_ms", "ms", ("span", "zipdiag.groth_degree_recursive")),
    ("oracle.closure_ms", "ms", ("span", "oracle.closure")),
    ("oracle.closure_states", "count", ("count", "closure_states")),
    ("oracle.closure_expanded", "count", ("count", "closure_expanded")),
    ("ideals.ladder_generators_ms", "ms", ("span", "ideals.ladder_generators")),
    ("ideals.kl_generators_ms", "ms", ("span", "ideals.kl_generators")),
    ("ideals.minors_considered", "count", ("count", "minors_considered")),
    ("ideals.generators", "count", ("count", "generators")),
    ("trace.overhead_share", "share", ("overhead", None)),
)

# zip_result repeats these stages; what is left of it is slide + saturation.
ZIP_STAGES = ("skew.compress", "pipes.d_ne", "zipdiag.components", "zipdiag.minimizing_diag")


def describe(op: dict) -> str:
    if "v" in op:
        return f"v={op['v']} w={op['w']}"
    return f"board {op['name']} {json.dumps(op['board'], sort_keys=True)}"


class OpTimeLimit(Exception):
    pass


def _stop_op(signum, frame):
    raise OpTimeLimit


def _call(fn, *args):
    """fn(*args) -> (result, None), or (None, reason) if it raised or ran
    past OP_LIMIT_S."""
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        try:
            return fn(*args), None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeLimit:
        return None, f"stopped after the {OP_LIMIT_S} s op time limit"
    except SystemExit as exc:  # argparse inside the CLI
        return None, f"SystemExit {exc.code}"
    except Exception as exc:  # RecursionError, ResourceError, ... count as failed ops
        return None, f"{type(exc).__name__}: {exc}"[:300]


REFERENCE_CELLS = [(i, j) for i in range(30) for j in range(30)]


def reference_loop() -> float:
    """Seconds taken by a fixed computation shaped like klreg's own work
    (a frozenset of cells, neighbour lookups, a keyed sort): a reading of
    how fast the machine runs such code at this moment.  Of the loops
    tried, its time tracked the ops' times most closely: with it, the
    rescaled times of one op over the passes of a run spread by about a
    tenth (quartile spread over median), against 0.15 for an arithmetic
    loop and 0.3-0.4 unrescaled, on a loaded machine."""
    t0 = perf_counter()
    cells = REFERENCE_CELLS
    for _ in range(2):
        cellset = frozenset(cells)
        sum(1 for i, j in cells if (i + 1, j) in cellset and (i, j + 1) in cellset)
        sorted(cells, key=lambda c: (c[1], -c[0]))
    return perf_counter() - t0


def timed(fn, *args):
    """(result, raw seconds, seconds rescaled to the reference speed) of
    fn(*args), with the reference loop timed just before and just after.

    The cyclic garbage collector is emptied and every live object frozen
    first, so that fn starts as in a fresh process: with no pending
    garbage, and with collections triggered and paid for by its own
    allocations only, not by those of the ops that happened to run before
    it.  Without this, one board's time moved by up to a half between
    seeds with its place in the seeded order."""
    gc.collect()
    gc.freeze()
    before = reference_loop()
    t0 = perf_counter()
    result = fn(*args)
    raw = perf_counter() - t0
    after = reference_loop()
    return result, raw, raw * REFERENCE_S / ((before + after) / 2)


def measure(op_list, paths, seconds):
    """Run the op list pass after pass, each pass on a fresh import of
    klreg, so that every run of an op starts from cold caches, and the
    passes see the machine at different moments.  Before each pass, time
    SETUPS_PER_PASS set-ups and keep the last.  No op starts once
    `seconds` have passed.  An op's time is the median of its rescaled
    runs; every output is checked after the loop."""
    runs = [[] for _ in op_list]  # (rescaled s, raw s, output, error) per pass
    setup_times, setup_raw = [], []

    def set_up():
        K = ops.load_klreg()
        return K, [ops.prepare(K, op, path) for op, path in zip(op_list, paths)]

    deadline = perf_counter() + seconds
    for _ in range(MAX_PASSES):
        if perf_counter() >= deadline:
            break
        gc.unfreeze()  # let the last pass's module trees and outputs go
        for _ in range(SETUPS_PER_PASS):
            (K, preps), raw, scaled = timed(set_up)
            setup_times.append(scaled)
            setup_raw.append(raw)
        for op, prep, done in zip(op_list, preps, runs):
            if perf_counter() >= deadline:
                break
            (out, err), raw, scaled = timed(_call, ops.run, K, op, prep)
            done.append((scaled, raw, out, err))
    gc.unfreeze()
    records = []
    for i, (op, done) in enumerate(zip(op_list, runs)):
        if not done:
            break
        failures, known = [], True
        for _, _, out, err in done:
            bad = [err] if err else ops.check(op, out)
            failures += [b for b in bad if b not in failures]
            known = known and (not bad or (not err and ops.known_defect(op, out)))
        records.append({
            "id": i,
            "seconds": statistics.median(t for t, _, _, _ in done),
            "pass_seconds": [t for t, _, _, _ in done],
            "pass_raw_seconds": [t for _, t, _, _ in done],
            "failures": failures,
            "known_defect": bool(failures) and known,
            "props": ops.properties(op, done[0][2]),
        })
    times = [r["seconds"] for r in records]
    p = tail_percentile(len(times))
    metrics = {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": max(percentile(times, p), statistics.median(times)) * 1e3,
        "setup_s": statistics.median(setup_times),
    }
    raw_times = [min(r["pass_raw_seconds"]) for r in records]
    extra = {
        "tail_percentile": p,
        "op_seconds": sum(t for done in runs for _, t, _, _ in done),
        "passes": max(map(len, runs)),
        "setup_seconds": setup_times,
        "setup_raw_seconds": setup_raw,
        # unrescaled figures, printed for comparison and not in the result
        "raw": {
            "ops_per_s": len(raw_times) / sum(raw_times),
            "op_p50_ms": statistics.median(raw_times) * 1e3,
            "setup_s": statistics.median(setup_raw),
        },
    }
    return records, metrics, extra


def measure_traced(op_list, paths, seconds, seed):
    """Replay each op twice on two fresh module trees, once with spans off
    and once with spans on (alternating which goes first), so that both
    replays start from cold klreg caches and their ratio is the tracing
    overhead.  The ops go in a seeded random order: a traced run covers
    about half as many ops as an untraced one, and the grassmannian list
    is sorted by size."""
    trees = {"plain": ops.load_klreg(), "traced": ops.load_klreg()}
    for op, path in zip(op_list, paths):  # writes the board files that ladder replays read
        ops.prepare(trees["plain"], op, path)
    tracers = {"plain": NullTracer(), "traced": Tracer()}
    totals = {"plain": 0.0, "traced": 0.0}
    records, mismatches = [], []
    gc.collect()
    deadline = perf_counter() + seconds
    order = list(range(len(op_list)))
    random.Random(f"trace:{seed}").shuffle(order)
    for k, i in enumerate(order):
        if perf_counter() >= deadline:
            break
        op, path = op_list[i], paths[i]
        results, lookups = {}, {}
        for side in (("plain", "traced") if k % 2 == 0 else ("traced", "plain")):
            K, tr = trees[side], tracers[side]
            ops.activate(K)
            tr.op_id = i
            before = ops.zip_cache_lookups(K)
            t0 = perf_counter()
            with tr.span("op"):
                res, err = _call(ops.replay, K, tr, op, path)
            totals[side] += perf_counter() - t0
            results[side] = (res, err)
            lookups[side] = [b - a for a, b in zip(before, ops.zip_cache_lookups(K))]
        res, err = results["traced"]
        record = {"id": i, "failures": [err] if err else [], "known_defect": False, "props": {}}
        if res is not None:
            values = ops.replay_values(op, res)
            plain = results["plain"][0]
            if plain is None or ops.replay_values(op, plain) != values:
                mismatches.append(i)
            record["failures"] = ops.check_replay(op, values)
            record["known_defect"] = bool(record["failures"]) and ops.known_defect(op, values)
            record["props"] = ops.replay_counters(op, res)
            hits, misses = lookups["traced"]
            if hits + misses:  # read from klreg's own _zip_data cache statistics
                record["props"]["repeat_share"] = hits / (hits + misses)
        records.append(record)

    durations = tracers["traced"].durations()
    for r in records:
        d = durations.get(r["id"], {})
        if "zipdiag.zip_result" in d:
            rest = d["zipdiag.zip_result"] - sum(d.get(s, 0.0) for s in ZIP_STAGES)
            r["props"]["slide_saturate_ms"] = rest * 1e3
    metrics = {}
    for name, _, (source, key) in PER_LAYER:
        if source == "span":
            metrics[name] = median_or_zero(d[key] for d in durations.values() if key in d) * 1e3
        elif source == "count":
            metrics[name] = median_or_zero(r["props"][key] for r in records if key in r["props"])
        else:
            metrics[name] = totals["traced"] / totals["plain"] - 1 if totals["plain"] else 0.0
    extra = {
        "mismatches": mismatches,
        "op_seconds": sum(totals.values()),
        "replay_seconds": totals,
        "spans": tracers["traced"].spans,
    }
    return records, metrics, extra


def is_correct(records, mismatches) -> bool:
    """A run is correct when it attempted an op, every failed op is the
    known zip under-count (ROADMAP item 1), and the traced and untraced
    replays gave the same answers."""
    return bool(records) and not mismatches and all(r["known_defect"] for r in records if r["failures"])


def run_workload(args) -> int:
    signal.signal(signal.SIGALRM, _stop_op)
    if not (SRC / "klreg" / "__init__.py").is_file():
        print(f"error: klreg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    K = ops.load_klreg()
    first_import_s = perf_counter() - t0
    if Path(K.cli.__file__).resolve().parent != SRC / "klreg":
        print(f"error: imported klreg from {K.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    def accept(board: dict) -> bool:
        try:
            ladder = K.ladder.ladder_from_json(board)
            if not K.ladder.validate_minimal(ladder).passed:
                return False
            K.ladder.perm_of(ladder)
            return True
        except K.errors.KlregError:
            return False

    t0 = perf_counter()
    op_list = inputs.build(args.workload, args.seed, args.seconds, accept)
    generate_s = perf_counter() - t0
    digest = inputs.digest(op_list)

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        paths = [work / f"op{i}.json" for i in range(len(op_list))]
        if args.trace:
            records, metrics, extra = measure_traced(op_list, paths, args.seconds, args.seed)
        else:
            records, metrics, extra = measure(op_list, paths, args.seconds)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(records)
    failed = sum(1 for r in records if r["failures"])
    correct = is_correct(records, extra.get("mismatches"))
    table = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, *_ in table},
    }

    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} of {len(op_list)} ops "
        f"in {extra['op_seconds']:.2f} s"
        + (f" ({extra['passes']} passes)" if "passes" in extra else "")
        + f", inputs sha256 {digest}"
    )
    print(
        f"  overhead (not in any metric): first import {first_import_s:.4f} s, "
        f"input generation {generate_s:.4f} s"
    )
    for name, unit, *_ in table:
        note = ""
        if name == "op_tail_ms":
            p = extra["tail_percentile"]
            beyond = attempted - max(1, math.ceil(p * attempted / 100))
            note = f"  (p{p} of {attempted} ops, {beyond} beyond)"
        print(f"  {name:<34} {metrics[name]:.6g} {unit}{note}")
    if "raw" in extra:
        raw = extra["raw"]
        print(
            f"  not rescaled (fastest run per op): ops_per_s {raw['ops_per_s']:.6g} 1/s, "
            f"op_p50_ms {raw['op_p50_ms']:.6g} ms, setup_s {raw['setup_s']:.6g} s (median)"
        )
    known = sum(1 for r in records if r["known_defect"])
    print(
        f"  {'fail_share':<34} {failed / attempted if attempted else 0:.6g} share  "
        f"({failed} of {attempted} ops failed, {known} of them the known zip under-count)"
    )
    if extra.get("mismatches"):
        print(f"  traced and untraced replays disagree on ops {extra['mismatches']}")
    for r in records:
        if r["failures"]:
            tag = " (known zip under-count, ROADMAP item 1)" if r["known_defect"] else ""
            print(f"  failed op {r['id']}{tag}: {describe(op_list[r['id']])}: {'; '.join(r['failures'])}")

    OUT.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": digest,
        "setup_seconds": extra.get("setup_seconds"),
        "setup_raw_seconds": extra.get("setup_raw_seconds"),
        "result": result,
        "ops": [dict(r, input=op_list[r["id"]]) for r in records],
    }
    if args.trace:
        detail.update(replay_seconds=extra["replay_seconds"], spans=extra["spans"])
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    summary, code = {}, 0
    for workload in inputs.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        summary[workload] = json.loads(lines[-1])
    print(json.dumps({"all": summary}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
