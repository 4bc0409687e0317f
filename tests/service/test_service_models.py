"""Unit tests for the service request/job data model."""

import numpy as np
import pytest

from repro.core.options import ALSOptions, NNOptions, ParallelOptions, PPOptions
from repro.service.models import (
    DecompositionRequest,
    JobState,
    artifact_key,
    tensor_fingerprint,
)
from repro.sparse.coo import CooTensor


@pytest.fixture(scope="module")
def tensor():
    return np.random.default_rng(0).random((6, 7, 8))


class TestFingerprint:
    def test_content_identity(self, tensor):
        assert tensor_fingerprint(tensor) == tensor_fingerprint(tensor.copy())

    def test_value_sensitivity(self, tensor):
        other = tensor.copy()
        other[0, 0, 0] += 1.0
        assert tensor_fingerprint(tensor) != tensor_fingerprint(other)

    def test_shape_sensitivity(self):
        flat = np.arange(24.0)
        assert (tensor_fingerprint(flat.reshape(4, 6))
                != tensor_fingerprint(flat.reshape(6, 4)))

    def test_sparse_vs_dense_distinct(self):
        dense = np.eye(3)
        sparse = CooTensor.from_dense(dense)
        assert tensor_fingerprint(dense) != tensor_fingerprint(sparse)

    def test_sparse_canonicalization(self):
        a = CooTensor(np.array([[0, 1], [2, 0]]), [1.0, 2.0], (3, 3))
        b = CooTensor(np.array([[2, 0], [0, 1]]), [2.0, 1.0], (3, 3))
        assert tensor_fingerprint(a) == tensor_fingerprint(b)


class TestRequest:
    def test_bundle_kept(self, tensor):
        req = DecompositionRequest(tensor, ALSOptions(rank=3))
        assert req.options == ALSOptions(rank=3)
        req = DecompositionRequest(tensor, PPOptions(rank=3), algorithm="pp")
        assert isinstance(req.options, PPOptions)

    def test_requires_options(self, tensor):
        with pytest.raises(TypeError):
            DecompositionRequest(tensor)
        with pytest.raises(TypeError):
            DecompositionRequest(tensor, None)

    def test_rejects_bad_inputs(self, tensor):
        with pytest.raises(TypeError):
            DecompositionRequest([[1.0]], ALSOptions(rank=2))
        with pytest.raises(TypeError, match="does not match"):
            DecompositionRequest(tensor, ALSOptions(rank=3), algorithm="nope")
        with pytest.raises(TypeError):
            DecompositionRequest(
                tensor, options=ParallelOptions(rank=3, grid=(1, 1, 1))
            )
        with pytest.raises(TypeError):
            DecompositionRequest(tensor, algorithm="pp", options=ALSOptions(rank=3))

    def test_algorithm_defaults_to_the_bundles_own(self, tensor):
        assert DecompositionRequest(tensor, ALSOptions(rank=3)).algorithm == "als"
        assert DecompositionRequest(tensor, PPOptions(rank=3)).algorithm == "pp"
        assert DecompositionRequest(tensor, NNOptions(rank=3)).algorithm == "nncp"

    def test_name_never_overrides_the_bundle(self, tensor):
        # a nonnegative bundle under "als" once ran plain cp_als and returned
        # negative factors; the name and the bundle must agree
        with pytest.raises(TypeError, match="NNOptions bundle, which runs 'nncp'"):
            DecompositionRequest(tensor, NNOptions(rank=2), algorithm="als")
        with pytest.raises(TypeError, match="PPOptions bundle, which runs 'pp'"):
            DecompositionRequest(tensor, PPOptions(rank=2), algorithm="als")
        assert DecompositionRequest(tensor, NNOptions(rank=2),
                                    algorithm="multi_start").algorithm == "multi_start"

    def test_bad_engine_fails_when_the_request_is_built(self, tensor):
        with pytest.raises(ValueError, match="unknown MTTKRP engine 'bogus'"):
            DecompositionRequest(tensor, options=ALSOptions(rank=2, mttkrp="bogus"))

    def test_seed_hoisted_from_bundle(self, tensor):
        req = DecompositionRequest(tensor, options=ALSOptions(rank=3, seed=7))
        assert req.seed == 7
        assert req.options.seed is None
        with pytest.raises(ValueError):
            DecompositionRequest(tensor, seed=1, options=ALSOptions(rank=3, seed=7))


class TestArtifactKey:
    def test_equal_requests_collide(self, tensor):
        a = DecompositionRequest(tensor, ALSOptions(rank=3), seed=1)
        b = DecompositionRequest(tensor.copy(), ALSOptions(rank=3), seed=1)
        assert artifact_key(a) == artifact_key(b)

    def test_seed_none_is_a_value(self, tensor):
        a = DecompositionRequest(tensor, ALSOptions(rank=3))
        b = DecompositionRequest(tensor, ALSOptions(rank=3))
        assert artifact_key(a) == artifact_key(b)
        assert artifact_key(a) != artifact_key(DecompositionRequest(tensor,
                                                                    ALSOptions(rank=3),
                                                                    seed=0))

    def test_distinguishes_algorithm_options_and_starts(self, tensor):
        base = DecompositionRequest(tensor, ALSOptions(rank=3), seed=1)
        assert artifact_key(base) != artifact_key(
            DecompositionRequest(tensor, PPOptions(rank=3), algorithm="pp", seed=1)
        )
        assert artifact_key(base) != artifact_key(
            DecompositionRequest(tensor, options=ALSOptions(rank=3, n_sweeps=9), seed=1)
        )
        ms8 = DecompositionRequest(tensor, ALSOptions(rank=3), algorithm="multi_start",
                                   n_starts=8, seed=1)
        ms4 = DecompositionRequest(tensor, ALSOptions(rank=3), algorithm="multi_start",
                                   n_starts=4, seed=1)
        assert artifact_key(ms8) != artifact_key(ms4)

    def test_default_name_keys_as_the_explicit_one(self, tensor):
        for options, name in [(ALSOptions(rank=3), "als"), (PPOptions(rank=3), "pp"),
                              (NNOptions(rank=3), "nncp")]:
            implicit = DecompositionRequest(tensor, options, seed=1)
            explicit = DecompositionRequest(tensor, options, algorithm=name, seed=1)
            assert artifact_key(implicit) == artifact_key(explicit)
            assert artifact_key(implicit)[1] == name

    def test_n_starts_ignored_off_multi_start(self, tensor):
        a = DecompositionRequest(tensor, ALSOptions(rank=3), n_starts=8, seed=1)
        b = DecompositionRequest(tensor, ALSOptions(rank=3), n_starts=4, seed=1)
        assert artifact_key(a) == artifact_key(b)


class TestJobState:
    def test_terminal_partition(self):
        assert not JobState.PENDING.terminal
        assert not JobState.RUNNING.terminal
        assert JobState.DONE.terminal
        assert JobState.FAILED.terminal
        assert JobState.CANCELLED.terminal
