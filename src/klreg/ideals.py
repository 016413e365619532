"""Explicit generators of Kazhdan-Lusztig ideals and two-sided ladder
determinantal ideals as expanded symbolic minors, and the K-polynomial
computed from enumerated pipe sets.

Polynomials live in variables z_{ij} indexed by cells; they are stored as
canonically ordered integer-coefficient term lists, sign-normalized so the
leading coefficient is positive, which makes generator sets comparable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import DEFAULT_BUDGET, ResourceError, ValidationError
from .ladder import Ladder
from .oracle import enumerate_pipes
from .perm import Cell, Permutation, bruhat_leq, coxeter_length, rank, rothe_diagram

Monomial = tuple[Cell, ...]  # sorted, repeats allowed


@dataclass(frozen=True, order=True)
class Poly:
    """Integer polynomial in cell variables, canonical and sign-normalized."""

    terms: tuple  # ((monomial, coeff), ...) sorted by monomial

    @staticmethod
    def from_dict(d: dict) -> "Poly | None":
        terms = tuple(sorted((m, c) for m, c in d.items() if c))
        if not terms:
            return None
        if terms[-1][1] < 0:  # leading (largest) monomial gets a positive sign
            terms = tuple((m, -c) for m, c in terms)
        return Poly(terms)

    def rename(self, mapping: dict) -> "Poly":
        """Rewrite every variable through `mapping` (a cell -> cell dict)."""
        d: dict = {}
        for m, c in self.terms:
            m2 = tuple(sorted(mapping[cell] for cell in m))
            d[m2] = d.get(m2, 0) + c
        out = Poly.from_dict(d)
        if out is None:
            raise ValidationError("variable renaming collapsed the polynomial")
        return out

    def __str__(self):
        def mono(m):
            if not m:
                return "1"
            return "*".join(f"z_{i}_{j}" for i, j in m)

        parts = []
        for m, c in reversed(self.terms):
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            coef = "" if mag == 1 and m else str(mag)
            piece = coef + ("*" if coef and m else "") + (mono(m) if m else "")
            parts.append(sign + (piece or str(mag)))
        return "".join(parts)


def _det(entry, rows: tuple, cols: tuple, memo: dict) -> dict:
    """Expanded determinant of the submatrix, entries in {0, variable}."""
    if not rows:
        return {(): 1}
    key = (rows, cols)
    if key in memo:
        return memo[key]
    out: dict = {}
    r = rows[0]
    rest = rows[1:]
    for idx, c in enumerate(cols):
        e = entry(r, c)
        if e == 0:
            continue
        sub = _det(entry, rest, cols[:idx] + cols[idx + 1 :], memo)
        sign = -1 if idx % 2 else 1
        for m, coef in sub.items():
            m2 = tuple(sorted(m + (e,)))
            out[m2] = out.get(m2, 0) + sign * coef
    out = {m: c for m, c in out.items() if c}
    memo[key] = out
    return out


def _minors(entry, all_rows, all_cols, size: int, memo: dict):
    for rows in combinations(all_rows, size):
        for cols in combinations(all_cols, size):
            p = Poly.from_dict(_det(entry, rows, cols, memo))
            if p is not None:
                yield p


def kl_generators(v: Permutation, w: Permutation) -> frozenset:
    """The (rank_w(i,j)+1)-minors of the patterned matrix of v over rows [i]
    and columns [j], for the cells (i, j) of the Rothe diagram of w.

    Each block is first fully reduced by its 1-entries, so the generators
    are the minors of the generic part of size rank_w(i,j) + 1 - rank_v(i,j);
    minors that use the 1-entries only partially are redundant combinations
    of these, and keeping them would break the generator-set match with
    ladder ideals.
    """
    if v.n != w.n:
        raise ValidationError("size mismatch")
    if not bruhat_leq(w, v):
        raise ValidationError(f"{w.word} is not below {v.word} in Bruhat order")
    dv = frozenset(rothe_diagram(v))

    def zentry(i, j):
        return (i, j) if (i, j) in dv else 0

    memo: dict = {}
    gens = set()
    for (i, j) in rothe_diagram(w):
        size = rank(w, i, j) + 1
        one_rows = {r for r in range(1, i + 1) if v.word[r - 1] <= j}
        one_cols = {v.word[r - 1] for r in one_rows}
        zrows = tuple(r for r in range(1, i + 1) if r not in one_rows)
        zcols = tuple(c for c in range(1, j + 1) if c not in one_cols)
        m = size - len(one_rows)  # rank_v(i, j) <= rank_w(i, j) ones sit inside the block, as w <= v
        gens.update(_minors(zentry, zrows, zcols, m, memo))
    return frozenset(gens)


def ladder_generators(ladder: Ladder, budget: int = DEFAULT_BUDGET) -> frozenset:
    """For each marked point (p, r): the r-minors of the ladder matrix over
    rows [p(1)] and columns [p(2)+1, end] whose entries all lie inside the
    ladder (the classical ladder-determinantal convention, and the one under
    which the generator sets match the Kazhdan-Lusztig side).  Before any
    determinant is expanded, more than `budget` candidate minors, the sum
    of C(p(1), r) * C(end - p(2), r), raise ResourceError with that count.
    """
    cells = ladder.region.cellset
    end_col = ladder.width
    count = sum(comb(p[0], r) * comb(end_col - p[1], r) for p, r in ladder.marked)
    if count > budget:
        raise ResourceError(f"minor budget {budget} exceeded", partial={"minors": count})

    def entry(i, j):
        return (i, j)

    memo: dict = {}
    gens = set()
    for (p, r) in ladder.marked:
        all_rows = tuple(range(1, p[0] + 1))
        all_cols = tuple(range(p[1] + 1, end_col + 1))
        for rows in combinations(all_rows, r):
            for cols in combinations(all_cols, r):
                if any((i, j) not in cells for i in rows for j in cols):
                    continue
                gens.add(Poly.from_dict(_det(entry, rows, cols, memo)))  # r^2 distinct variables: r! terms, never 0
    return frozenset(gens)


def k_polynomial(v: Permutation, w: Permutation, budget: int = DEFAULT_BUDGET) -> tuple[int, ...]:
    """Coefficients (c_0, c_1, ...) of the K-polynomial: the signed sum of
    (1-t)^(#P) over all pipe sets P of the pair."""
    lw = coxeter_length(w)
    counts: Counter = Counter()
    for p in enumerate_pipes(v, w, budget=budget):
        counts[len(p)] += 1
    if not counts:
        raise ValidationError(f"{w.word} is not below {v.word} in Bruhat order")
    top = max(counts)
    coeffs = [0] * (top + 1)
    for m, cnt in counts.items():
        signed = (-1) ** (m - lw) * cnt
        for j in range(m + 1):
            coeffs[j] += signed * comb(m, j) * (-1) ** j
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def ideal_script(gens) -> str:
    """Best-effort Macaulay2/Singular-style script in the generators' variables."""
    variables = sorted({c for g in gens for m, _ in g.terms for c in m})
    names = ", ".join(f"z_{i}_{j}" for i, j in variables)
    body = ",\n  ".join(str(g) for g in sorted(gens)) or "0"
    return f"R = QQ[{names}];\nI = ideal(\n  {body}\n);\n"
