"""The diagram construction step by step on a pair with two components.

Starting from the northeast-most reduced pipe set, the pluses weakly
southwest of each chosen diagonal slide as far as they can, and then each
diagonal box sprouts as many anti-diagonal markers as it has room for.
The final count is the degree of the unspecialized Grothendieck
polynomial: 16 pluses + rooms 1+2+2 and 4+4 = 29.
"""

from klreg import Permutation, minimizing_diag, render_diagram, rooms, zip_result

v = Permutation((6, 11, 12, 13, 14, 15, 1, 16, 2, 3, 4, 5, 7, 8, 9, 10))
w = Permutation((1, 6, 2, 3, 7, 8, 11, 12, 4, 5, 9, 10, 13, 14, 15, 16))

result = zip_result(v, w)
print("top diagram (northeast-most pipe set, compressed):")
print(render_diagram(result.d_top))
print()
chains = minimizing_diag(result.d_top)
print("chains (one diagonal per component):", chains)
print("rooms per chain box:", rooms(v, w))
print()
print("slid diagram:")
print(render_diagram(result.d_zip))
print()
print("saturated diagram (added cells drawn as K):")
print(render_diagram(result.d_zip, bold=result.d_zip_k.pluses - result.d_zip.pluses))
print()
print(f"degree {result.degree}, regularity {result.regularity}, a-invariant {result.a_invariant}")
