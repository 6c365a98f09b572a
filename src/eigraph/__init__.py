"""Essential ideal graph of Z_n: construction, metric dimension, Zagreb indices.

The vertex set consists of the nonzero proper ideals of Z_n; two vertices
are adjacent in the essential ideal graph when their ideal sum is essential,
and in the annihilating ideal graph when their product is the zero ideal.
The package computes metric dimension by closed form, by constructive
resolving sets, and by exact search over distance-similar blocks, and both
Zagreb indices by definition and by closed forms, cross-checking every
formula against brute-force oracles.
"""

__version__ = "0.1.0"

from .arithmetic import (
    FactoredInteger,
    divisor_count,
    factor,
    factor_range,
    factor_window,
    is_prime,
)
from .errors import InconsistencyError, InputError
from .graph import (
    ConjugateCheck,
    DistanceSimilarPartition,
    FieldModelCheck,
    IdealGraph,
    all_pairs_distances,
    bfs_row,
    build_aig,
    build_essential_graph,
    build_field_product_model,
    build_join_construction,
    check_divisor_conjugate_iso,
    check_field_product_iso,
    diameter,
    distance_similar_partition,
    to_dot,
    to_json_dict,
)
from .ideals import (
    ClassPartition,
    Ideal,
    canonical_representative,
    class_partition,
    enumerate_vertices,
    gcd_lemma_check,
    ideal_from_divisor,
    ideal_from_exponents,
    ideal_sum,
    is_essential,
    sum_is_essential_or_unit,
)
from .metricdim import (
    DimReport,
    ResolvingCheck,
    constructive_resolving_set,
    dim_bruteforce,
    dim_formula,
    dim_lower_bound,
    finiteness_bound_check,
    is_resolving,
)
from .zagreb import (
    LevelPartition,
    ZagrebReport,
    compute_zagreb_report,
    level_partition,
    zagreb_by_definition,
    zagreb_general_closed,
    zagreb_prime_power,
    zagreb_squarefree_closed,
    zagreb_two_prime,
)

__all__ = [
    "__version__",
    "FactoredInteger",
    "divisor_count",
    "factor",
    "factor_range",
    "factor_window",
    "is_prime",
    "InconsistencyError",
    "InputError",
    "ConjugateCheck",
    "DistanceSimilarPartition",
    "FieldModelCheck",
    "IdealGraph",
    "all_pairs_distances",
    "bfs_row",
    "build_aig",
    "build_essential_graph",
    "build_field_product_model",
    "build_join_construction",
    "check_divisor_conjugate_iso",
    "check_field_product_iso",
    "diameter",
    "distance_similar_partition",
    "to_dot",
    "to_json_dict",
    "ClassPartition",
    "Ideal",
    "canonical_representative",
    "class_partition",
    "enumerate_vertices",
    "gcd_lemma_check",
    "ideal_from_divisor",
    "ideal_from_exponents",
    "ideal_sum",
    "is_essential",
    "sum_is_essential_or_unit",
    "DimReport",
    "ResolvingCheck",
    "constructive_resolving_set",
    "dim_bruteforce",
    "dim_formula",
    "dim_lower_bound",
    "finiteness_bound_check",
    "is_resolving",
    "LevelPartition",
    "ZagrebReport",
    "compute_zagreb_report",
    "level_partition",
    "zagreb_by_definition",
    "zagreb_general_closed",
    "zagreb_prime_power",
    "zagreb_squarefree_closed",
    "zagreb_two_prime",
]
