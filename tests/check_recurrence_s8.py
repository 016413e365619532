"""Exhaustive check of the zip route against the degree recurrence on S_8,
too slow for the test suite (about 50 s on one core of a 2-core x86 VM,
Python 3.11).

Over every comparable pair w <= v of 321-avoiding permutations of S_8
(1,430 permutations, 221,997 pairs) it prints the pair count, a sha256 of
every repr((v.word, w.word, recurrence degree)), the number of pairs on
which the zip degree is below the recurrence's, how many of those have a
Grassmannian v, and a sha256 of every repr((v.word, w.word,
minimizing_diag(d_top(v, w)))), which pins the chains the zip route
slides along, then how many components of the top diagrams are not skew
shapes (one run per row, consecutive rows, starts and ends weakly
increasing): the exhaustive check on S_8 of the run lemma proved in
d_top's docstring, which zip's one-run-per-row linking and greedy chain
pick rest on.  The components come from a breadth-first search over
d_top's pluses, not from zipdiag.components: zip refuses a component
that is not a skew shape with a ValidationError, so a pair with one is
counted and gets no zip record.  Exits 1 if the zip degree is above the
recurrence's anywhere, which no under-count can explain.

Run from the root of a checkout:
`PYTHONPATH=src:tests python tests/check_recurrence_s8.py`
"""

import hashlib
import sys

from klreg.perm import bruhat_leq
from klreg.skew import d_top
from klreg.zipdiag import groth_degree_recursive, minimizing_diag, zip_result

from knowndata import all_321_avoiding, components_by_search, is_grassmannian, is_skew_shape


def main() -> int:
    avoid = all_321_avoiding(8)
    digest, chains = hashlib.sha256(), hashlib.sha256()
    pairs = below = below_grassmannian = above = not_skew = 0
    for v in avoid:
        for w in avoid:
            if not bruhat_leq(w, v):
                continue
            pairs += 1
            by_rec = groth_degree_recursive(v, w)
            digest.update(repr((v.word, w.word, by_rec)).encode())
            bad = sum(not is_skew_shape(comp) for comp in components_by_search(d_top(v, w)))
            not_skew += bad
            if bad:
                continue
            res = zip_result(v, w)
            by_zip = res.degree
            chains.update(repr((v.word, w.word, minimizing_diag(res.d_top))).encode())
            if by_zip < by_rec:
                below += 1
                below_grassmannian += is_grassmannian(v)
            above += by_zip > by_rec
    print(f"321-avoiding permutations: {len(avoid)}")
    print(f"comparable pairs: {pairs}")
    print(f"sha256 of (v, w, recurrence degree): {digest.hexdigest()}")
    print(f"zip below recurrence: {below}")
    print(f"  of them with a Grassmannian v: {below_grassmannian}")
    print(f"zip above recurrence: {above}")
    print(f"sha256 of (v, w, minimizing_diag of the top diagram): {chains.hexdigest()}")
    print(f"top-diagram components that are not skew shapes: {not_skew}")
    return int(above > 0)


if __name__ == "__main__":
    sys.exit(main())
