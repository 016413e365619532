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


def _det(rows: tuple, cols: tuple, memo: dict) -> dict:
    """Expanded determinant of the generic submatrix whose entry at (r, c)
    is the variable (r, c).  Each term is one bijection rows -> cols, so no
    two terms share a monomial and none cancels; the first row's cell sorts
    before every cell of the rows below it, so it leads each monomial."""
    if not rows:
        return {(): 1}
    key = (rows, cols)
    if key in memo:
        return memo[key]
    out: dict = {}
    r = rows[0]
    rest = rows[1:]
    for idx, c in enumerate(cols):
        sign = -1 if idx % 2 else 1
        for m, coef in _det(rest, cols[:idx] + cols[idx + 1 :], memo).items():
            out[((r, c),) + m] = sign * coef
    memo[key] = out
    return out


def kl_generators(v: Permutation, w: Permutation) -> frozenset:
    """The (rank_w(i,j)+1)-minors of the patterned matrix of v over rows [i]
    and columns [j], for the cells (i, j) of the Rothe diagram of w.

    Each block is first fully reduced by its 1-entries, so the generators
    are the minors of the generic part of size rank_w(i,j) + 1 - rank_v(i,j);
    minors that use the 1-entries only partially are redundant combinations
    of these, and keeping them would break the generator-set match with
    ladder ideals.  Every entry of a reduced block is a cell of D(v), so
    each minor is generic: a kept row r has v(r) > j >= c, and a kept
    column c has v^-1(c) > i >= r, since v^-1(c) <= i would make c the
    column of a 1-entry.
    """
    if not bruhat_leq(w, v):
        raise ValidationError(f"{w.word} is not below {v.word} in Bruhat order")
    memo: dict = {}
    gens = set()
    for (i, j) in rothe_diagram(w):
        one_rows = {r for r in range(1, i + 1) if v.word[r - 1] <= j}
        one_cols = {v.word[r - 1] for r in one_rows}
        zrows = tuple(r for r in range(1, i + 1) if r not in one_rows)
        zcols = tuple(c for c in range(1, j + 1) if c not in one_cols)
        m = rank(w, i, j) + 1 - len(one_rows)  # rank_v(i, j) <= rank_w(i, j) ones sit inside the block, as w <= v
        for rows in combinations(zrows, m):
            for cols in combinations(zcols, m):
                gens.add(Poly.from_dict(_det(rows, cols, memo)))
    return frozenset(gens)


def ladder_generators(ladder: Ladder, budget: int = DEFAULT_BUDGET) -> frozenset:
    """For each marked point (p, r): the r-minors of the ladder matrix over
    rows [p(1)] and columns [p(2)+1, end] whose entries all lie inside the
    ladder (the classical ladder-determinantal convention, and the one under
    which the generator sets match the Kazhdan-Lusztig side).  Before any
    determinant is expanded, more than `budget` candidate minors, the sum
    of C(p(1), r) * C(end - p(2), r), raise ResourceError with that count.

    The mark lies on the southwest border, so column p(2)+1 is at or east of
    the start of every row of its block; row ends weakly increase, so rows R
    and columns C lie inside the ladder exactly when max C <= the end of R's
    first row: only those columns are enumerated.
    """
    ends = [b for _, b in ladder.region.rows]
    count = sum(comb(p[0], r) * comb(ladder.width - p[1], r) for p, r in ladder.marked)
    if count > budget:
        raise ResourceError(f"minor budget {budget} exceeded", partial={"minors": count})
    memo: dict = {}
    gens = set()
    for (p, r) in ladder.marked:
        for rows in combinations(range(1, p[0] + 1), r):
            for cols in combinations(range(p[1] + 1, ends[rows[0] - 1] + 1), r):
                gens.add(Poly.from_dict(_det(rows, cols, memo)))  # r^2 distinct variables: r! terms
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
