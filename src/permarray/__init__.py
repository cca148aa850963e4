"""Toolkit for permutation arrays under the Hamming metric: exact upper
bounds on their maximum size, constructions that meet the bounds where known,
and small-scale exhaustive search oracles."""

from .bounds import (
    BoundResult,
    CwTable,
    best_upper_bound,
    candidate_bounds,
    cw_binary_bound,
    cw_pa_bound,
    dv_bound,
    johnson_1962,
    johnson_ceiling,
    me_bound,
    mo_bound,
    recursive_bound,
    sp_bound,
    subset_bound,
)
from .constructions import (
    BinaryCwCode,
    PermutationArray,
    block_cycle_cwpa,
    greedy_partial_steiner,
    known_perfect,
    lift_binary_cw_code,
    perfect_families,
    perfect_pa,
    perfect_size,
)
from .exactmath import ball_volume, binomial, derangement_count, factorial
from .perm import Permutation, hamming_distance, support, weight
from .search import (
    SearchLimits,
    SearchOutcome,
    exact_a_cw,
    exact_p,
    exact_p_cw,
    verify_pa,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "CwTable",
    "best_upper_bound",
    "candidate_bounds",
    "cw_binary_bound",
    "cw_pa_bound",
    "dv_bound",
    "johnson_1962",
    "johnson_ceiling",
    "me_bound",
    "mo_bound",
    "recursive_bound",
    "sp_bound",
    "subset_bound",
    "BinaryCwCode",
    "PermutationArray",
    "block_cycle_cwpa",
    "greedy_partial_steiner",
    "known_perfect",
    "lift_binary_cw_code",
    "perfect_families",
    "perfect_pa",
    "perfect_size",
    "ball_volume",
    "binomial",
    "derangement_count",
    "factorial",
    "Permutation",
    "hamming_distance",
    "support",
    "weight",
    "SearchLimits",
    "SearchOutcome",
    "exact_a_cw",
    "exact_p",
    "exact_p_cw",
    "verify_pa",
    "__version__",
]
