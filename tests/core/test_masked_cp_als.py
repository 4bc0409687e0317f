"""Tests of the masked (missing-data) CP driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.masked_cp_als import (
    MaskedALSResult,
    masked_cp_als,
    normalize_mask,
)
from repro.core.cp_als import cp_als
from repro.core.options import MaskedOptions
from repro.sparse.coo import CooTensor
from repro.tensor.cp_format import CPTensor, random_cp_tensor
from repro.core.options import ALSOptions

RANK = 2
SHAPE = (7, 6, 5)


@pytest.fixture(scope="module")
def problem():
    truth = random_cp_tensor(SHAPE, rank=RANK, seed=42).full()
    mask = np.random.default_rng(7).random(SHAPE) < 0.6
    return truth, mask


def _reconstruct(factors):
    return CPTensor(list(factors)).full()


def _oracle_em_als(tensor, mask, initial, n_sweeps):
    """Literal EM reference: zero-fill, then per sweep fill the unobserved
    entries with the previous iterate's model and run one exact ALS sweep."""
    factors = [f.copy() for f in initial]
    for _ in range(n_sweeps):
        filled = np.where(mask, tensor, _reconstruct(factors))
        step = cp_als(filled, ALSOptions(rank=RANK, n_sweeps=1, tol=0.0),
                      initial_factors=factors)
        factors = step.factors
    return factors


class TestAgainstDenseOracle:
    def test_matches_zero_fill_em_oracle(self, problem):
        tensor, mask = problem
        rng = np.random.default_rng(3)
        initial = [rng.random((s, RANK)) for s in SHAPE]
        result = masked_cp_als(tensor, MaskedOptions(rank=RANK, n_sweeps=6, tol=0.0),
                               mask=mask, initial_factors=initial)
        oracle = _oracle_em_als(tensor, mask, initial, n_sweeps=6)
        for a, b in zip(result.factors, oracle):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_weighted_residual_definition(self, problem):
        tensor, mask = problem
        result = masked_cp_als(tensor,
                               MaskedOptions(rank=RANK, n_sweeps=5, tol=0.0, seed=1),
                               mask=mask)
        diff = np.where(mask, tensor - _reconstruct(result.factors), 0.0)
        expected = np.linalg.norm(diff) / np.linalg.norm(np.where(mask, tensor, 0.0))
        assert result.residual == pytest.approx(expected, abs=1e-12)

    def test_full_mask_matches_plain_als(self, problem):
        tensor, _ = problem
        rng = np.random.default_rng(5)
        initial = [rng.random((s, RANK)) for s in SHAPE]
        full = np.ones(SHAPE, dtype=bool)
        masked = masked_cp_als(tensor, MaskedOptions(rank=RANK, n_sweeps=4, tol=0.0),
                               mask=full, initial_factors=initial)
        plain = cp_als(tensor, ALSOptions(rank=RANK, n_sweeps=4, tol=0.0),
                       initial_factors=initial)
        for a, b in zip(masked.factors, plain.factors):
            np.testing.assert_allclose(a, b, atol=1e-9)
        assert masked.residual == pytest.approx(plain.residual, abs=1e-10)


class TestBackends:
    def test_sparse_matches_dense(self, problem):
        tensor, mask = problem
        rng = np.random.default_rng(9)
        initial = [rng.random((s, RANK)) for s in SHAPE]
        sparse = CooTensor.from_dense(np.where(mask, tensor, 0.0))
        dense_result = masked_cp_als(tensor,
                                     MaskedOptions(rank=RANK, n_sweeps=5, tol=0.0),
                                     mask=mask, initial_factors=initial)
        sparse_result = masked_cp_als(sparse,
                                      MaskedOptions(rank=RANK, n_sweeps=5, tol=0.0),
                                      mask=mask, initial_factors=initial)
        for a, b in zip(dense_result.factors, sparse_result.factors):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_sparse_default_mask_is_nnz_pattern(self, problem):
        tensor, mask = problem
        sparse = CooTensor.from_dense(np.where(mask, tensor, 0.0))
        implicit = masked_cp_als(sparse,
                                 MaskedOptions(rank=RANK, n_sweeps=3, tol=0.0, seed=2))
        explicit = masked_cp_als(sparse,
                                 MaskedOptions(rank=RANK, n_sweeps=3, tol=0.0, seed=2),
                                 mask=sparse)
        for a, b in zip(implicit.factors, explicit.factors):
            np.testing.assert_array_equal(a, b)

    def test_unobserved_entries_are_never_read(self, problem):
        tensor, mask = problem
        poisoned = np.where(mask, tensor, np.nan)
        result = masked_cp_als(poisoned,
                               MaskedOptions(rank=RANK, n_sweeps=4, tol=0.0, seed=0),
                               mask=mask)
        assert np.isfinite(result.residual)
        assert all(np.isfinite(f).all() for f in result.factors)


class TestResultShape:
    def test_result_metadata(self, problem):
        tensor, mask = problem
        result = masked_cp_als(tensor, MaskedOptions(rank=RANK, n_sweeps=3, seed=0),
                               mask=mask)
        assert isinstance(result, MaskedALSResult)
        assert result.n_observed == int(mask.sum())
        assert result.observed_fraction == pytest.approx(
            mask.mean(), abs=1e-12
        )

    def test_completion_recovers_low_rank_truth(self, problem):
        tensor, mask = problem
        result = masked_cp_als(tensor,
                               MaskedOptions(rank=RANK, n_sweeps=80, tol=1e-12, seed=4),
                               mask=mask)
        # held-out entries: the decomposition only ever saw the observed ones
        held_out = ~mask
        err = np.linalg.norm(
            (tensor - _reconstruct(result.factors))[held_out]
        ) / np.linalg.norm(tensor[held_out])
        assert err < 0.05

    def test_options_bundle_matches_keywords(self, problem):
        tensor, mask = problem
        bundled = masked_cp_als(
            tensor, mask=mask,
            options=MaskedOptions(rank=RANK, n_sweeps=4, tol=0.0, seed=6))
        spelled = masked_cp_als(tensor,
                                MaskedOptions(rank=RANK, n_sweeps=4, tol=0.0, seed=6),
                                mask=mask)
        for a, b in zip(bundled.factors, spelled.factors):
            np.testing.assert_array_equal(a, b)


class TestNormalizeMask:
    def test_dense_requires_mask(self, problem):
        tensor, _ = problem
        with pytest.raises(ValueError, match="mask is required"):
            masked_cp_als(tensor, MaskedOptions(rank=RANK))

    def test_shape_mismatch(self, problem):
        tensor, mask = problem
        with pytest.raises(ValueError, match="does not match tensor shape"):
            masked_cp_als(tensor, MaskedOptions(rank=RANK), mask=mask[:3])

    def test_empty_mask_rejected(self, problem):
        tensor, _ = problem
        with pytest.raises(ValueError, match="no observed entries"):
            masked_cp_als(tensor, MaskedOptions(rank=RANK),
                          mask=np.zeros(SHAPE, dtype=bool))

    def test_coo_mask_values_ignored(self, problem):
        tensor, mask = problem
        indices = np.argwhere(mask)
        ones = CooTensor(indices, np.ones(len(indices)), SHAPE)
        weird = CooTensor(indices, np.full(len(indices), 3.5), SHAPE)
        np.testing.assert_array_equal(
            normalize_mask(tensor, ones), normalize_mask(tensor, weird)
        )

    def test_dense_mask_coordinates(self):
        mask = np.zeros((2, 2, 2), dtype=bool)
        mask[1, 0, 1] = mask[0, 1, 0] = True
        out = normalize_mask(np.zeros((2, 2, 2)), mask)
        np.testing.assert_array_equal(out, [[0, 1, 0], [1, 0, 1]])
