"""eigeniso: graph isomorphism testing via eigenspace projections.

The solver certifies isomorphism by constructing an explicit vertex
permutation: eigenvalue degeneracies are broken by adding self-loops of
increasing weight, candidate assignments are scored by comparing sorted
rows of eigenspace projectors, and a perfect matching among the cost
matrix's sub-eps entries decides feasibility of each round.
Non-isomorphism is reported either with a certificate or, after
exhaustive search, as a heuristic rejection.
"""

from .generators import (
    brute_force_isomorphism,
    cospectral_fixture,
    generate,
    srg_fixture,
)
from .graph import (
    Graph,
    GraphFormatError,
    Permutation,
    apply_permutation,
    format_graph,
    is_exact_isomorphism,
    load_graph,
    parse_graph,
    perturb,
    random_permutation,
    save_graph,
)
from .solver import (
    INCONCLUSIVE,
    ISOMORPHIC,
    NOT_ISOMORPHIC,
    SolveReport,
    SolverOptions,
    build_cost_matrix,
    is_isomorphic,
)
from .spectral import (
    DEFAULT_EPS,
    SpectralDecomposition,
    eigendecompose,
    group_eigenvalues,
    projection,
    spectral_distance,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_EPS",
    "Graph",
    "GraphFormatError",
    "INCONCLUSIVE",
    "ISOMORPHIC",
    "NOT_ISOMORPHIC",
    "Permutation",
    "SolveReport",
    "SolverOptions",
    "SpectralDecomposition",
    "apply_permutation",
    "brute_force_isomorphism",
    "build_cost_matrix",
    "cospectral_fixture",
    "eigendecompose",
    "format_graph",
    "generate",
    "group_eigenvalues",
    "is_exact_isomorphism",
    "is_isomorphic",
    "load_graph",
    "parse_graph",
    "perturb",
    "projection",
    "random_permutation",
    "save_graph",
    "spectral_distance",
    "srg_fixture",
]
