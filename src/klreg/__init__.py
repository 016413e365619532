"""Castelnuovo-Mumford regularity and a-invariants of 321-avoiding
Kazhdan-Lusztig varieties and two-sided mixed ladder determinantal
varieties, computed from excited diagrams and lattice paths."""

from .errors import KlregError
from .ladder import (
    Ladder,
    PathFamily,
    a_invariant_ladder,
    blanks,
    boundary_points,
    elbows,
    ladder_from_json,
    ladder_to_json,
    nilp_is_valid,
    p_bot,
    p_zip,
    perm_of,
    regularity_ladder,
    render_paths,
    validate_minimal,
    weight,
)
from .perm import (
    Permutation,
    bruhat_leq,
    coxeter_length,
    demazure_step,
    from_lehmer_code,
    identity,
    is_321_avoiding,
    lehmer_code,
    rank,
    rothe_diagram,
)
from .pipes import d_ne, reading_word
from .skew import (
    PlusDiagram,
    SkewRegion,
    compress,
    d_top,
    render_diagram,
)
from .zipdiag import (
    ZipResult,
    a_invariant,
    components,
    d_zip,
    d_zip_k,
    groth_degree,
    groth_degree_recursive,
    max_diag,
    minimizing_diag,
    regularity,
    rooms,
    zip_result,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
