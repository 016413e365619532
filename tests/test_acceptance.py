"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with the computed values it compared against the pinned ones.
Pinned values live in knowndata.py; where a criterion pins the output of a
construction (criteria 04 and 05), it also checks that value by a route that
does not call the construction.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import random
import time

from klreg import oracle, zipdiag
from klreg.ideals import k_polynomial, kl_generators, ladder_generators
from klreg.ladder import (
    blanks,
    boundary_points,
    p_bot,
    perm_of,
    rank_constraints,
    regularity_ladder,
    a_invariant_ladder,
    weight,
)
from klreg.perm import (
    Permutation,
    bruhat_leq,
    coxeter_length,
    lehmer_code,
    rank,
    rothe_diagram,
)
from klreg.pipes import d_ne, reading_word
from klreg.skew import compress, d_top
from klreg.zipdiag import (
    groth_degree,
    groth_degree_recursive,
    zip_result,
)

from knowndata import (
    CODE_V10,
    D_NE_10,
    H_LAD_B,
    LAD_A,
    LAD_B,
    LAD_C,
    LAD_D,
    ROOMS_16,
    V10,
    V11,
    V16,
    V_LAD_A,
    V_LAD_B,
    W10,
    W11,
    W16,
    W_LAD_A,
    all_321_avoiding,
    excited_states,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_headline_pair_exact_and_fast():
    zip_result(V10, W10)  # warm the code paths on a different pair
    t0 = time.perf_counter()
    res = zip_result(V11, W11)
    elapsed = time.perf_counter() - t0
    values = (
        res.regularity,
        res.a_invariant,
        res.d_zip_k.size(),
        coxeter_length(W11),
        coxeter_length(V11),
    )
    ok = values == (4, -10, 16, 12, 26) and elapsed < 0.010
    report(1, ok, f"reg/a/#K/lw/lv = {values}, {elapsed * 1000:.2f} ms")


def test_criterion_02_sixteen_pair_rooms():
    res = zip_result(V16, W16)
    chains = zipdiag.minimizing_diag(res.d_top)
    rooms = zipdiag.rooms(V16, W16)
    sums = tuple(sum(rooms[b] for b in chain) for chain in chains)
    per_box = tuple(tuple(rooms[b] for b in chain) for chain in chains)
    ok = (
        res.degree == 29
        and res.regularity == 13
        and res.a_invariant == -29
        and sums == (5, 8)
        and per_box == ((1, 2, 2), (4, 4))
        and rooms == ROOMS_16
    )
    report(2, ok, f"degree {res.degree}, rooms {per_box}, sums {sums}")


def test_criterion_03_degree_by_three_routes():
    routes = (
        groth_degree(V10, W10),
        groth_degree_recursive(V10, W10),
        oracle.max_closure_size(V10, W10),
    )
    ok = routes == (8, 8, 8)
    report(3, ok, f"zip/recurrence/closure = {routes}")


def test_criterion_04_code_length_word_and_earliest_subword():
    length_v = coxeter_length(V10)
    length_w = coxeter_length(W10)
    word = reading_word(W10, rothe_diagram(W10))
    earliest = frozenset(d_ne(V10, W10))
    code = lehmer_code(V10)
    ok = (
        length_v == 14
        and length_w == 7
        and word == (3, 2, 1, 5, 7, 6, 8)
        and earliest == D_NE_10
        and code == CODE_V10
        and sum(CODE_V10) == length_v
    )
    report(
        4,
        ok,
        f"lv={length_v}, lw={length_w}, word={word}, subword ok={earliest == D_NE_10}, "
        f"code={code} (sum {sum(code)}) vs pinned {CODE_V10}",
    )


def _shorter_rank_solutions(n, constraints, length):
    """Permutations of S_n shorter than `length` meeting every rank equality,
    and the number of permutations searched.  Level k of the search holds the
    permutations of length k: each is an ascent swap of one of level k - 1."""
    level = {tuple(range(1, n + 1))}
    searched = []
    for _ in range(length):
        searched.extend(level)
        level = {
            u[:i] + (u[i + 1], u[i]) + u[i + 2:]
            for u in level
            for i in range(n - 1)
            if u[i] < u[i + 1]
        }
    solutions = [
        u
        for u in searched
        if all(rank(Permutation(u), a, b) == c for (a, b), c in constraints)
    ]
    return solutions, len(searched)


def test_criterion_05_ladder_permutation_pair():
    v, w = perm_of(LAD_A)
    constraints = rank_constraints(LAD_A, v)
    violated = [cell for cell, c in constraints if rank(w, *cell) != c]
    length_w = coxeter_length(w)
    n_blanks = len(blanks(LAD_A, p_bot(LAD_A)))
    shorter, searched = _shorter_rank_solutions(v.n, constraints, 7)
    ok = (
        v == V_LAD_A
        and w == W_LAD_A
        and len(constraints) == 9
        and not violated
        and length_w == n_blanks == 7
        and not shorter
    )
    report(
        5,
        ok,
        f"v ok={v == V_LAD_A}, w={w.word} vs pinned {W_LAD_A.word}; "
        f"{len(violated)} of {len(constraints)} rank constraints violated; "
        f"length {length_w}, {n_blanks} blanks in p_bot; "
        f"{len(shorter)} shorter solutions among {searched} permutations",
    )


def test_criterion_06_boundary_points_of_big_ladder():
    bp = boundary_points(LAD_B)
    extra = dict(set(bp.extended_marks) - set(LAD_B.marked))
    ok = (
        bp.h == H_LAD_B
        and bp.v == V_LAD_B
        and len(bp.h) == 4
        and extra.get((4, 2)) == 3
        and extra.get((8, 8)) == 2
    )
    report(6, ok, f"H={bp.h}, V={bp.v}, corner fill-ins {sorted(extra.items())}")


def test_criterion_07_big_ladder_statistics():
    stats = (
        regularity_ladder(LAD_B),
        a_invariant_ladder(LAD_B),
        weight(LAD_B),
        LAD_B.region.size(),
        len(blanks(LAD_B, p_bot(LAD_B))),
    )
    ok = stats == (7, -33, 40, 60, 20)
    report(7, ok, f"reg/a/weight/cells/blanks = {stats}")


def test_criterion_08_degree_sweep_three_routes():
    t0 = time.perf_counter()
    checked = 0
    bad = []

    def check(v, w):
        nonlocal checked
        checked += 1
        dz = groth_degree(v, w)
        dr = groth_degree_recursive(v, w)
        cm = oracle.max_closure_size(v, w)
        if not dz == dr == cm:
            bad.append((v.word, w.word, dz, dr, cm))

    for n in range(2, 6):
        avoid = all_321_avoiding(n)
        for v in avoid:
            for w in avoid:
                if bruhat_leq(w, v):
                    check(v, w)
    exhaustive = checked
    rng = random.Random(2023)
    for n in (6, 7):
        for _ in range(5000):
            check(*oracle.random_avoiding_pair(rng, n))
    elapsed = time.perf_counter() - t0
    ok = not bad and checked >= exhaustive + 10_000 and elapsed <= 60.0
    report(
        8,
        ok,
        f"{exhaustive} exhaustive pairs (n<=5) + 10000 random pairs (S6-S7), "
        f"{len(bad)} disagreements, {elapsed:.1f} s",
    )


def test_criterion_09_bijection_cardinalities():
    mismatches = []
    for n in range(2, 6):
        avoid = all_321_avoiding(n)
        for v in avoid:
            for w in avoid:
                if not bruhat_leq(w, v):
                    continue
                full = oracle.closure(v, w)
                pipes = list(oracle.enumerate_pipes(v, w))
                if len(pipes) != len(full):
                    mismatches.append((v.word, w.word))
                    continue
                from collections import Counter

                if Counter(len(p) for p in pipes) != full.size_histogram:
                    mismatches.append((v.word, w.word))
    v, w = perm_of(LAD_C)
    nilp_count = len(oracle.enumerate_nilp(LAD_C))
    seyd_count = len(excited_states(v, w))
    ok = not mismatches and nilp_count == seyd_count
    report(
        9,
        ok,
        f"pipes<->closure histograms agree on n<=5 ({len(mismatches)} mismatches); "
        f"small two-sided board: {nilp_count} path families == {seyd_count} diagrams",
    )


def test_criterion_10_generator_sets_coincide():
    results = {}
    for name, lad in (("A", LAD_A), ("C", LAD_C), ("D", LAD_D)):
        v, w = perm_of(lad)
        _, maps = compress(v)
        ladder_side = frozenset(g.rename(maps.backward) for g in ladder_generators(lad))
        kl_side = kl_generators(v, w)
        results[name] = (len(ladder_side), len(kl_side), ladder_side == kl_side)
    ok = all(match for _, _, match in results.values())
    report(10, ok, f"generator sets (ladder, kl, equal) per board: {results}")


def test_criterion_11_k_polynomial_degree_and_constant():
    bad = []
    checked = 0

    def check(v, w):
        nonlocal checked
        checked += 1
        coeffs = k_polynomial(v, w)
        if coeffs[0] != 1 or len(coeffs) - 1 != groth_degree(v, w):
            bad.append((v.word, w.word, coeffs))

    for n in range(2, 6):
        avoid = all_321_avoiding(n)
        for v in avoid:
            for w in avoid:
                if bruhat_leq(w, v):
                    check(v, w)
    rng = random.Random(2023)
    for _ in range(400):
        check(*oracle.random_avoiding_pair(rng, 6))
    ok = not bad
    report(11, ok, f"deg K == degree and K(0) == 1 on {checked} pairs with n <= 6")


def test_criterion_12_ladder_diagonals_coincide():
    outcomes = {}
    for name, lad in (("A", LAD_A), ("B", LAD_B), ("C", LAD_C), ("D", LAD_D)):
        v, w = perm_of(lad)
        top = d_top(v, w)
        comps = zipdiag.components(top)
        outcomes[name] = zipdiag.minimizing_diag(top) == tuple(
            zipdiag.max_diag(c) for c in comps
        )
    ok = all(outcomes.values())
    report(12, ok, f"minimizing diagonal equals maximal diagonal componentwise: {outcomes}")
