"""Two descriptions of the same determinantal ideal.

The marked board yields minors of its generic matrix; the associated
permutation pair yields minors of a patterned matrix.  After identifying
variables through the compression map, the two generator sets coincide.
The script form can be pasted into Macaulay2 or Singular for independent
checking.
"""

import json
import pathlib

from klreg import compress, ladder_from_json, perm_of
from klreg.ideals import ideal_script, kl_generators, ladder_generators

board_file = pathlib.Path(__file__).parent / "boards" / "small_board.json"
ladder = ladder_from_json(json.loads(board_file.read_text()))

v, w = perm_of(ladder)
_, maps = compress(v)

from_board = frozenset(g.rename(maps.backward) for g in ladder_generators(ladder))
from_pair = kl_generators(v, w)

print(f"generators from the board:  {len(from_board)}")
print(f"generators from the pair:   {len(from_pair)}")
print(f"equal as sign-normalized sets: {from_board == from_pair}")
print()
print(ideal_script(from_pair))
