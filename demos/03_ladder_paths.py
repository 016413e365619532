"""Lattice paths on a two-sided board with marked points.

The board is loaded from JSON.  Boundary points are read off the rank
jumps between consecutive marks, paths start at the horizontal points and
end at the paired vertical ones, and the regularity is the number of
unforced elbows of the zipped family.
"""

import json
import pathlib

from klreg import (
    boundary_points,
    elbows,
    ladder_from_json,
    p_bot,
    p_zip,
    perm_of,
    render_paths,
    weight,
)
from klreg.ladder import a_invariant_ladder, regularity_ladder

board_file = pathlib.Path(__file__).parent / "boards" / "large_board.json"
ladder = ladder_from_json(json.loads(board_file.read_text()))

bp = boundary_points(ladder)
print("paired boundary points:")
for i, (h, vpt) in enumerate(bp.pairs(), 1):
    print(f"  H{i} = {h}  ->  V{i} = {vpt}")
print()
print("bottom family (paths hug the southwest border):")
print(render_paths(ladder, p_bot(ladder)))
print()
zipped = p_zip(ladder)
print("zipped family:")
print(render_paths(ladder, zipped))
print()
v, w = perm_of(ladder)
print(f"permutation pair: v = {v.word}")
print(f"                  w = {w.word}")
print(f"cells {ladder.region.size()}, weight {weight(ladder)}, unforced elbows {len(elbows(ladder, zipped))}")
print(f"regularity {regularity_ladder(ladder)}, a-invariant {a_invariant_ladder(ladder)}")
