"""Toolkit for permutation arrays under the Hamming metric: exact upper
bounds on their maximum size, constructions that meet the bounds where known,
and small-scale exhaustive search oracles.

Each export is imported from its module on first use, so the bounds and the
exact arithmetic load no numpy until a name that needs it is read."""

import importlib

# each defining module and the names it exports, in ``__all__`` order
_EXPORTS = {
    "bounds": (
        "BoundResult",
        "CwTable",
        "best_upper_bound",
        "candidate_bounds",
        "cw_binary_bound",
        "cw_pa_bound",
        "dv_bound",
        "johnson_1962",
        "johnson_ceiling",
        "known_perfect",
        "me_bound",
        "mo_bound",
        "perfect_size",
        "recursive_bound",
        "sp_bound",
        "subset_bound",
    ),
    "constructions": (
        "BinaryCwCode",
        "PermutationArray",
        "block_cycle_cwpa",
        "greedy_partial_steiner",
        "lift_binary_cw_code",
        "perfect_families",
        "perfect_pa",
    ),
    "exactmath": ("ball_volume", "binomial", "derangement_count", "factorial"),
    "perm": ("Permutation", "hamming_distance", "support", "weight"),
    "search": (
        "SearchLimits",
        "SearchOutcome",
        "exact_a_cw",
        "exact_p",
        "exact_p_cw",
        "verify_pa",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        # so that ``from permarray import cli`` imports the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
