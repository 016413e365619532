"""What one op does, how its output is checked, and the traced replay.

Every function takes `K`, a namespace of klreg modules from `load_klreg`.
The benchmark keeps several independent module trees (fresh imports) so
that each measured pass starts with cold klreg caches, and it never mixes
objects from two trees.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
from math import comb
from types import SimpleNamespace

from inputs import board_cells, chain_count, inversions

MODULES = ("cli", "perm", "pipes", "skew", "zipdiag", "ladder", "ideals", "oracle", "errors")


def _klreg_names() -> list[str]:
    return [m for m in sys.modules if m == "klreg" or m.startswith("klreg.")]


def load_klreg() -> SimpleNamespace:
    """Import klreg afresh: drop every loaded klreg module first."""
    for name in _klreg_names():
        del sys.modules[name]
    K = SimpleNamespace(**{m: importlib.import_module(f"klreg.{m}") for m in MODULES})
    K.modules = {name: sys.modules[name] for name in _klreg_names()}
    return K


def activate(K) -> None:
    """Make K's tree the one in sys.modules, so that klreg's function-level
    imports (p_zip imports zipdiag when called) resolve inside K."""
    for name in _klreg_names():
        del sys.modules[name]
    sys.modules.update(K.modules)


# ---------------------------------------------------------------------------
# set-up: build every input through klreg's public constructors


def prepare(K, op: dict, path) -> dict:
    """The op's arguments, built by K's constructors; ladder ops also get
    their board written to `path`."""
    kind = op["kind"]
    if kind == "pair":
        K.perm.Permutation(tuple(op["v"]))
        K.perm.Permutation(tuple(op["w"]))
        return {"argv": ["pair", "--v", json.dumps(op["v"]), "--w", json.dumps(op["w"])]}
    if kind == "sweep":
        return {"v": K.perm.Permutation(tuple(op["v"])), "w": K.perm.Permutation(tuple(op["w"]))}
    ladder = K.ladder.ladder_from_json(op["board"])
    if kind == "ladder":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(op["board"], fh)
        return {"argv": ["ladder", "--file", str(path), "--oracle"]}
    return {"ladder": ladder}


# ---------------------------------------------------------------------------
# the measured op (tracing off)


def run(K, op: dict, prep: dict) -> dict:
    """One op as a user runs it; returns the raw output for `check`."""
    kind = op["kind"]
    if kind in ("pair", "ladder"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = K.cli.main(prep["argv"])
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if kind == "sweep":  # the body of `klreg sweep`'s loop
        v, w = prep["v"], prep["w"]
        return {
            "zip": K.zipdiag.groth_degree(v, w),
            "recurrence": K.zipdiag.groth_degree_recursive(v, w),
            "closure": K.oracle.max_closure_size(v, w, budget=K.oracle.DEFAULT_BUDGET),
        }
    ladder = prep["ladder"]  # criterion 10: the two generator sets coincide
    v, w = K.ladder.perm_of(ladder)
    _, maps = K.skew.compress(v)
    ladder_side = frozenset(g.rename(maps.backward) for g in K.ideals.ladder_generators(ladder))
    kl_side = K.ideals.kl_generators(v, w)
    return {"ladder_gens": len(ladder_side), "kl_gens": len(kl_side), "equal": ladder_side == kl_side}


# ---------------------------------------------------------------------------
# checks: each returns a list of failure reasons, empty when the op passed


def _check_pair(op: dict, rep: dict) -> list[str]:
    ell_v, ell_w = inversions(op["v"]), inversions(op["w"])
    deg = rep["groth_degree"]
    bad = []
    if (rep["v"], rep["w"]) != (op["v"], op["w"]):
        bad.append("report echoes other permutations")
    if (rep["ell_v"], rep["ell_w"]) != (ell_v, ell_w):
        bad.append(f"lengths {rep['ell_v']},{rep['ell_w']} != inversions {ell_v},{ell_w}")
    if not ell_w <= deg <= ell_v:
        bad.append(f"degree {deg} outside [{ell_w}, {ell_v}]")
    if rep["regularity"] != deg - ell_w:
        bad.append(f"regularity {rep['regularity']} != degree - ell(w)")
    if rep["a_invariant"] != deg - ell_v:
        bad.append(f"a-invariant {rep['a_invariant']} != degree - ell(v)")
    if op["v"] == op["w"] and (deg, rep["regularity"], rep["a_invariant"]) != (ell_v, 0, 0):
        bad.append("v = w but (degree, regularity, a-invariant) != (ell(v), 0, 0)")
    return bad


def _check_ladder(op: dict, rep: dict) -> list[str]:
    bad = []
    if rep["oracle"]["verdict"] != "AGREE":
        bad.append(f"oracle verdict {rep['oracle']['verdict']}")
    if rep["a_invariant"] != rep["regularity"] - rep["weight"]:
        bad.append("a-invariant != regularity - weight")
    if rep["weight"] != inversions(rep["v"]) - inversions(rep["w"]):
        bad.append("weight != ell(v) - ell(w)")
    if (rep["ell_v"], rep["ell_w"]) != (inversions(rep["v"]), inversions(rep["w"])):
        bad.append("lengths differ from inversion counts")
    if rep["cells"] != board_cells(op["board"]):
        bad.append(f"cells {rep['cells']} != {board_cells(op['board'])}")
    return bad


def check(op: dict, out: dict) -> list[str]:
    """Failure reasons for one op's output; [] when it passed."""
    kind = op["kind"]
    if kind in ("pair", "ladder"):
        if out["exit"] != 0:
            return [f"exit code {out['exit']}: {out['stderr'].strip()[:200]}"]
        try:
            rep = json.loads(out["stdout"])
            return (_check_pair if kind == "pair" else _check_ladder)(op, rep)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"malformed report: {exc!r}"]
    if kind == "sweep":
        return _check_routes(out)
    if not out["equal"]:
        return [f"generator sets differ: ladder {out['ladder_gens']}, kl {out['kl_gens']}"]
    return []


def _check_routes(degrees: dict) -> list[str]:
    if not degrees["zip"] == degrees["recurrence"] == degrees["closure"]:
        return ["route disagreement zip={zip} recurrence={recurrence} closure={closure}".format(**degrees)]
    return []


def known_defect(op: dict, degrees: dict | None) -> bool:
    """Is this failed op the known zip under-count (ROADMAP item 1)?  Only a
    sweep op qualifies, and only as zip < recurrence == closure."""
    if op["kind"] != "sweep" or not degrees:
        return False
    return degrees["zip"] < degrees["recurrence"] == degrees["closure"]


def properties(op: dict, out: dict | None) -> dict:
    """Input properties known without extra klreg calls."""
    props = {}
    if "v" in op:
        props.update(n=len(op["v"]), ell_v=inversions(op["v"]), ell_w=inversions(op["w"]))
    if "board" in op:
        props["cells"] = board_cells(op["board"])
    if out and op["kind"] == "ladder" and out.get("exit") == 0:
        with contextlib.suppress(ValueError, KeyError):
            props["minimal"] = json.loads(out["stdout"])["minimal"]
    return props


# ---------------------------------------------------------------------------
# the traced replay: the op's work as calls into each layer's public API


def _replay_pair_layers(K, tr, v, w) -> dict:
    """bruhat_leq, compress, d_ne, components, minimizing_diag, then a cold
    zip_result, which repeats the four stages and adds slide + saturation."""
    with tr.span("perm.bruhat_leq"):
        K.perm.bruhat_leq(w, v)
    with tr.span("skew.compress"):
        region, maps = K.skew.compress(v)
    with tr.span("pipes.d_ne"):
        cells = K.pipes.d_ne(v, w)
    top = K.skew.PlusDiagram(region, maps.image(cells))
    with tr.span("zipdiag.components"):
        comps = K.zipdiag.components(top)
    if top.pluses:
        with tr.span("zipdiag.minimizing_diag"):
            K.zipdiag.minimizing_diag(top)
    with tr.span("zipdiag.zip_result"):
        res = K.zipdiag.zip_result(v, w)
    return {"comps": comps, "zip": res}


def replay(K, tr, op: dict, path) -> dict:
    """Replay one op through the layers, each call in its own span.  The
    returned dict holds raw results; `replay_values` and `replay_counters`
    read them outside the timed window."""
    kind = op["kind"]
    if kind == "pair":
        with tr.span("cli.parse"):
            v = K.cli.parse_permutation(json.dumps(op["v"]))
            w = K.cli.parse_permutation(json.dumps(op["w"]))
        return _replay_pair_layers(K, tr, v, w)
    if kind == "ladder":
        with tr.span("cli.parse"):
            with open(path, encoding="utf-8") as fh:
                ladder = K.ladder.ladder_from_json(json.load(fh))
        with tr.span("ladder.validate_minimal"):
            minimal = K.ladder.validate_minimal(ladder).passed
        with tr.span("ladder.perm_of"):
            v, w = K.ladder.perm_of(ladder)
        with tr.span("ladder.boundary_points"):
            K.ladder.boundary_points(ladder)
        with tr.span("ladder.p_bot"):
            K.ladder.p_bot(ladder)
        res = _replay_pair_layers(K, tr, v, w)
        with tr.span("ladder.p_zip"):
            zipped = K.ladder.p_zip(ladder)
        with tr.span("ladder.elbows"):
            reg = len(K.ladder.elbows(ladder, zipped))
        with tr.span("ladder.weight"):
            wt = K.ladder.weight(ladder)
        with tr.span("zipdiag.regularity"):
            zip_reg = K.zipdiag.regularity(v, w)
        with tr.span("zipdiag.a_invariant"):
            zip_a = K.zipdiag.a_invariant(v, w)
        res.update(v=v, w=w, minimal=minimal, reg=reg, weight=wt, zip_reg=zip_reg, zip_a=zip_a)
        return res
    if kind == "sweep":
        with tr.span("perm.construct"):
            v, w = K.perm.Permutation(tuple(op["v"])), K.perm.Permutation(tuple(op["w"]))
        with tr.span("zipdiag.groth_degree"):
            deg = K.zipdiag.groth_degree(v, w)
        with tr.span("zipdiag.groth_degree_recursive"):
            rec = K.zipdiag.groth_degree_recursive(v, w)
        with tr.span("oracle.closure"):
            clo = K.oracle.closure(v, w, budget=K.oracle.DEFAULT_BUDGET)
        return {"zip": deg, "recurrence": rec, "closure": clo}
    with tr.span("cli.parse"):
        ladder = K.ladder.ladder_from_json(op["board"])
    with tr.span("ladder.perm_of"):
        v, w = K.ladder.perm_of(ladder)
    with tr.span("skew.compress"):
        _, maps = K.skew.compress(v)
    with tr.span("ideals.ladder_generators"):
        ladder_gens = K.ideals.ladder_generators(ladder)
    with tr.span("ideals.rename"):
        ladder_side = frozenset(g.rename(maps.backward) for g in ladder_gens)
    with tr.span("ideals.kl_generators"):
        kl_side = K.ideals.kl_generators(v, w)
    return {"v": v, "w": w, "ladder_side": ladder_side, "kl_side": kl_side}


def replay_values(op: dict, res: dict) -> dict:
    """The op's answers, comparable across module trees and with `check`."""
    kind = op["kind"]
    if kind == "pair":
        z = res["zip"]
        return {"groth_degree": z.degree, "regularity": z.regularity, "a_invariant": z.a_invariant}
    if kind == "ladder":
        return {k: res[k] for k in ("minimal", "reg", "weight", "zip_reg", "zip_a")}
    if kind == "sweep":
        return {"zip": res["zip"], "recurrence": res["recurrence"], "closure": res["closure"].max_size}
    return {"equal": res["ladder_side"] == res["kl_side"], "generators": len(res["kl_side"])}


def check_replay(op: dict, values: dict) -> list[str]:
    """The same checks as `check`, on the replay's answers."""
    kind = op["kind"]
    if kind == "pair":
        rep = dict(values, v=op["v"], w=op["w"], ell_v=inversions(op["v"]), ell_w=inversions(op["w"]))
        return _check_pair(op, rep)
    if kind == "ladder":
        bad = []
        if (values["zip_reg"], values["zip_a"]) != (values["reg"], values["reg"] - values["weight"]):
            bad.append("ladder and pair routes disagree")
        return bad
    if kind == "sweep":
        return _check_routes(values)
    return [] if values["equal"] else ["generator sets differ"]


# ---------------------------------------------------------------------------
# per-op counters, computed by the benchmark from the replay's results


def _row_sum(cells) -> int:
    return sum(i for i, _ in cells)


def minors_considered(board: dict, v, w) -> int:
    """Minors the two generator constructions enumerate: on the ladder side
    every r x r (rows, cols) choice per marked point; on the Kazhdan-Lusztig
    side the generic minors of size rank_w(i,j) + 1 - rank_v(i,j) per cell
    (i, j) of the Rothe diagram of w."""
    end_col = board["lambda"][0]
    total = 0
    for mark in board["marked"]:
        (p0, p1), r = mark["point"], mark["r"]
        if r <= min(p0, end_col - p1):
            total += comb(p0, r) * comb(end_col - p1, r)
    n = len(w)
    winv = [0] * n
    for i, x in enumerate(w, 1):
        winv[x - 1] = i
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if w[i - 1] > j and winv[j - 1] > i:  # (i, j) in D(w)
                size = sum(1 for k in range(i) if w[k] <= j) + 1
                ones = sum(1 for k in range(i) if v[k] <= j)
                m = size - ones
                if 1 <= m <= min(i - ones, j - ones):
                    total += comb(i - ones, m) * comb(j - ones, m)
    return total


def zip_cache_lookups(K) -> tuple[int, int]:
    """(hits, misses) of K's `_zip_data` cache so far, or (0, 0) if that
    function is not an lru_cache."""
    info = getattr(getattr(K.zipdiag, "_zip_data", None), "cache_info", None)
    if info is None:
        return 0, 0
    stats = info()
    return stats.hits, stats.misses


def replay_counters(op: dict, res: dict) -> dict:
    """Work counts and input properties of one replayed op."""
    kind = op["kind"]
    out = {}
    if kind in ("pair", "ladder"):
        z = res["zip"]
        ell_v, ell_w = len(z.region.cells()), len(z.d_zip.pluses)
        out.update(
            components=len(res["comps"]),
            maximal_chains=sum(chain_count(c) for c in res["comps"]),
            slide_moves=_row_sum(z.d_zip.pluses) - _row_sum(z.d_top.pluses),
            d_ne_letters=ell_v,
        )
        if ell_v:
            out["d_ne_accept_share"] = ell_w / ell_v
    if kind == "ladder":
        out["cells"] = board_cells(op["board"])
        out["minimal"] = res["minimal"]
    if kind == "sweep":
        out.update(closure_states=len(res["closure"]), closure_expanded=res["closure"].expanded)
    if kind == "gens":
        v, w = res["v"].word, res["w"].word
        out.update(
            cells=board_cells(op["board"]),
            minors_considered=minors_considered(op["board"], v, w),
            generators=len(res["kl_side"]),
        )
    return out
