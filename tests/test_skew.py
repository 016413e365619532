import pytest

from klreg.errors import ValidationError
from klreg.perm import (
    Permutation,
    bruhat_leq,
    coxeter_length,
    identity,
    rothe_diagram,
)
from klreg.skew import SkewRegion, can_move, compress, d_top, render_diagram

from knowndata import C2_16, D_TOP_10, REGION10, V10, V11, V16, W10, W16, all_321_avoiding


def test_compress_examples():
    region, maps = compress(V10)
    assert region.rows == REGION10
    assert region.size() == coxeter_length(V10)
    # forward/backward round trip on the full diagram
    for cell in rothe_diagram(V10):
        assert maps.backward[maps.forward[cell]] == cell
    empty, _ = compress(identity(7))
    assert empty.rows == () and empty.size() == 0
    big, _ = compress(V11)
    assert big.size() == 26
    with pytest.raises(ValidationError, match=r"\(3, 2, 1\) is not 321-avoiding"):
        compress(Permutation((3, 2, 1)))


@pytest.mark.parametrize("rows", [((1.9, 2.2),), ((1, 2), (True, 2))], ids=["float", "bool"])
def test_skew_region_rejects_non_int_ends(rows):
    # no coercion: int() would turn (1.9, 2.2) into (1, 2) and True into 1
    with pytest.raises(ValidationError, match="row interval ends must be integers"):
        SkewRegion(rows)


def test_compress_skew_invariants_sweep():
    for n in range(2, 8):
        for v in all_321_avoiding(n):
            region, maps = compress(v)
            starts = [a for a, _ in region.rows]
            ends = [b for _, b in region.rows]
            assert starts == sorted(starts) and ends == sorted(ends)
            assert region.size() == coxeter_length(v)
            assert maps.image(rothe_diagram(v)) == frozenset(region.cells())


def test_d_top_examples():
    top = d_top(V10, W10)
    assert top.pluses == D_TOP_10
    assert d_top(V10, identity(10)).pluses == frozenset()
    top16 = d_top(V16, W16)
    assert top16.size() == coxeter_length(W16) == 16
    from klreg.zipdiag import components

    comps = components(top16)
    assert len(comps) == 2
    assert comps[1] == C2_16
    expected_c1 = {(1, 2), (1, 3)} | {(i, j) for i in range(1, 6) for j in (4, 5)}
    assert set(comps[0]) == expected_c1


def test_d_top_end_test_is_the_bruhat_test():
    # d_top runs no Bruhat test: its greedy scan ends at the identity exactly when w <= v
    for n in range(1, 7):
        perms = all_321_avoiding(n)
        for v in perms:
            for w in perms:
                try:
                    d_top(v, w)
                    raised = None
                except ValidationError as exc:
                    raised = str(exc)
                assert raised == (None if bruhat_leq(w, v) else f"{w.word} is not below {v.word} in Bruhat order")


def test_d_top_admits_no_reverse_move():
    for n in range(2, 6):
        avoid = all_321_avoiding(n)
        for v in avoid:
            region, _ = compress(v)
            for w in avoid:
                if not bruhat_leq(w, v):
                    continue
                top = d_top(v, w)
                for i, j in region.cells():
                    b = (i, j)
                    target = (i + 1, j - 1)
                    if target not in top.pluses:
                        continue
                    frame_free = all(
                        c in region and c not in top.pluses
                        for c in (b, (i + 1, j), (i, j - 1))
                    )
                    assert not frame_free, (v.word, w.word, b)


def test_compression_transport():
    # moving downstairs then decompressing matches removing/adding the
    # matched cells upstairs, with the rows and columns between them empty
    for n in range(2, 6):
        avoid = all_321_avoiding(n)
        for v in avoid:
            region, maps = compress(v)
            occupied_rows = sorted({i for i, _ in rothe_diagram(v)})
            occupied_cols = sorted({j for _, j in rothe_diagram(v)})
            for w in avoid:
                if not bruhat_leq(w, v):
                    continue
                top = d_top(v, w)
                top_up = frozenset(maps.backward[c] for c in top.pluses)
                for b in sorted(top.pluses):
                    if not can_move(region, top.pluses, b):
                        continue
                    target = (b[0] + 1, b[1] - 1)
                    up_b, up_t = maps.backward[b], maps.backward[target]
                    assert occupied_rows.index(up_t[0]) == occupied_rows.index(up_b[0]) + 1
                    assert occupied_cols.index(up_t[1]) == occupied_cols.index(up_b[1]) - 1
                    moved_up = frozenset(maps.backward[c] for c in top.pluses - {b} | {target})
                    assert moved_up == top_up - {up_b} | {up_t}


def test_render_diagram():
    top = d_top(V10, W10)
    assert render_diagram(top) == "+++\n...+\n  .++\n  ..+\n    ."
    assert render_diagram(top, bold={(4, 3)}) == "+++\n...+\n  .++\n  K.+\n    ."
