"""The Kruskal / CP tensor format ``[[A^(1), ..., A^(N)]]``.

A :class:`CPTensor` bundles the factor matrices (and optional per-component
weights) of a CP decomposition and offers dense reconstruction, norms and
fitness evaluation without requiring the caller to juggle raw lists of
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.utils.random import as_rng
from repro.utils.validation import check_factor_matrices, check_rank

__all__ = ["CPTensor", "reconstruct", "random_cp_tensor"]

_LETTERS = "abcdefghijklmnopqstuvwxyz"


def reconstruct(factors: Sequence[np.ndarray], shape: Sequence[int] | None = None,
                weights: np.ndarray | None = None) -> np.ndarray:
    """Dense reconstruction ``[[A^(1), ..., A^(N)]]`` (sum of rank-one terms)."""
    factors = check_factor_matrices(factors, shape=shape)
    order = len(factors)
    rank = factors[0].shape[1]
    if order > len(_LETTERS):
        raise ValueError(f"tensors of order > {len(_LETTERS)} are not supported")
    subs = [_LETTERS[i] + "r" for i in range(order)]
    spec = ",".join(subs) + "->" + _LETTERS[:order]
    operands = list(factors)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (rank,):
            raise ValueError(f"weights must have shape ({rank},), got {weights.shape}")
        operands[0] = factors[0] * weights[None, :]
    # einsum's optimised path leaves the output in whatever axis order its
    # last pairwise step produced; hand out C order so no consumer pays a
    # strided tensor-sized copy (same values, bit for bit)
    return np.ascontiguousarray(np.einsum(spec, *operands, optimize=True))


@dataclass
class CPTensor:
    """A CP (Kruskal) tensor: factor matrices plus optional component weights."""

    factors: list[np.ndarray]
    weights: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        self.factors = check_factor_matrices(self.factors)
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if self.weights.shape != (self.rank,):
                raise ValueError(
                    f"weights must have shape ({self.rank},), got {self.weights.shape}"
                )

    # -- basic properties -------------------------------------------------
    @property
    def order(self) -> int:
        """Number of tensor modes."""
        return len(self.factors)

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the dense tensor this decomposition represents."""
        return tuple(f.shape[0] for f in self.factors)

    @property
    def rank(self) -> int:
        """Number of rank-one components."""
        return self.factors[0].shape[1]

    # -- conversions -------------------------------------------------------
    def full(self) -> np.ndarray:
        """Dense reconstruction of the decomposition."""
        return reconstruct(self.factors, weights=self.weights)

    def with_unit_weights(self) -> "CPTensor":
        """Fold the weights into the first factor and drop them."""
        if self.weights is None:
            return CPTensor([f.copy() for f in self.factors])
        factors = [f.copy() for f in self.factors]
        factors[0] = factors[0] * self.weights[None, :]
        return CPTensor(factors)

    def normalized(self) -> "CPTensor":
        """Return an equivalent CP tensor with unit-norm factor columns."""
        factors = []
        weights = np.ones(self.rank) if self.weights is None else self.weights.copy()
        for f in self.factors:
            norms = np.linalg.norm(f, axis=0)
            norms = np.where(norms == 0.0, 1.0, norms)
            factors.append(f / norms[None, :])
            weights = weights * norms
        return CPTensor(factors, weights)

    # -- algebra -----------------------------------------------------------
    def grams(self) -> list[np.ndarray]:
        """Gram matrices ``S^(i) = A^(i)^T A^(i)`` of the (unit-weight) factors."""
        unit = self.with_unit_weights()
        return [f.T @ f for f in unit.factors]

    def norm(self) -> float:
        """Frobenius norm computed from Gram matrices (no dense reconstruction)."""
        from repro.tensor.norms import cp_norm_squared

        unit = self.with_unit_weights()
        return float(np.sqrt(cp_norm_squared(unit.factors)))

    def copy(self) -> "CPTensor":
        return CPTensor(
            [f.copy() for f in self.factors],
            None if self.weights is None else self.weights.copy(),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CPTensor(shape={self.shape}, rank={self.rank})"


def random_cp_tensor(
    shape: Sequence[int],
    rank: int,
    seed: int | np.random.Generator | None = None,
    distribution: str = "uniform",
    noise: float = 0.0,
) -> CPTensor:
    """Generate a random CP tensor with factors drawn from ``distribution``.

    Parameters
    ----------
    shape:
        Mode sizes of the represented tensor.
    rank:
        Number of rank-one components.
    distribution:
        ``"uniform"`` (entries in ``[0, 1)``, the paper's initialization
        distribution) or ``"normal"`` (standard Gaussian entries).
    noise:
        When positive, Gaussian noise of relative magnitude ``noise`` is added
        to every factor (useful for perturbing exact decompositions).
    """
    rank = check_rank(rank)
    rng = as_rng(seed)
    factors = []
    for s in shape:
        s = int(s)
        if s <= 0:
            raise ValueError(f"mode sizes must be positive, got {s}")
        if distribution == "uniform":
            f = rng.random((s, rank))
        elif distribution == "normal":
            f = rng.standard_normal((s, rank))
        else:
            raise ValueError(f"unknown distribution {distribution!r}")
        if noise > 0.0:
            f = f + noise * np.linalg.norm(f) / np.sqrt(f.size) * rng.standard_normal(f.shape)
        factors.append(f)
    return CPTensor(factors)
