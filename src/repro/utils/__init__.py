"""Small shared utilities: argument validation and RNG handling."""

from repro.utils.validation import (
    check_dense_tensor,
    check_factor_matrices,
    check_positive_int,
    check_probability,
    check_rank,
)
from repro.utils.random import as_rng

__all__ = [
    "check_dense_tensor",
    "check_factor_matrices",
    "check_positive_int",
    "check_probability",
    "check_rank",
    "as_rng",
]
