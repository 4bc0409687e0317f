"""Tests for the contraction-order policies and the tree providers' descent."""

import numpy as np
import pytest

from repro.machine.cost_tracker import CostTracker
from repro.sparse import CooTensor
from repro.tensor.mttkrp import mttkrp, partial_mttkrp
from repro.trees.descent import ascending_order, binary_split_order
from repro.trees.registry import make_provider


class TestBinarySplitOrder:
    def test_order4_left_leaf(self):
        # descending to leaf 0 contracts 3, 2 (right half, farthest first), then 1
        assert binary_split_order([0, 1, 2, 3], 0) == [3, 2, 1]

    def test_order4_right_leaf(self):
        # descending to leaf 3 contracts 0, 1 (left half, ascending), then 2
        assert binary_split_order([0, 1, 2, 3], 3) == [0, 1, 2]

    def test_order3_middle_leaf(self):
        order = binary_split_order([0, 1, 2], 1)
        assert sorted(order) == [0, 2]

    def test_all_other_modes_contracted_exactly_once(self):
        for order_n in (3, 4, 5, 6):
            modes = list(range(order_n))
            for target in modes:
                contraction = binary_split_order(modes, target)
                assert sorted(contraction) == [m for m in modes if m != target]

    def test_works_on_mode_subsets(self):
        assert sorted(binary_split_order([1, 3, 4], 3)) == [1, 4]

    def test_target_not_in_modes_raises(self):
        with pytest.raises(ValueError):
            binary_split_order([0, 1], 5)


class TestAscendingOrder:
    def test_excludes_targets(self):
        assert ascending_order([0, 1, 2, 3], {1, 3}) == [0, 2]

    def test_single_target(self):
        assert ascending_order([0, 2, 4], {2}) == [0, 4]

    def test_missing_target_raises(self):
        with pytest.raises(ValueError):
            ascending_order([0, 1], {5})


def _tree(backend, tensor, factors, tracker=None):
    """A fresh ``dt`` provider over ``tensor`` on the dense or sparse backend."""
    if backend == "sparse":
        tensor = CooTensor.from_dense(tensor)
    return make_provider("dt", tensor, [f.copy() for f in factors], tracker=tracker)


def _dense(provider, intermediate):
    """A raw intermediate as a dense ``(s_i, ..., R)`` array."""
    if hasattr(intermediate, "densify"):
        return intermediate.densify(provider.tensor.shape)
    return intermediate


@pytest.mark.parametrize("backend", ["dense", "sparse"])
class TestPartialMttkrp:
    """``partial_mttkrp``: the cached, ascending-order descent of the trees."""

    def test_single_mode_matches_mttkrp(self, backend, small_tensor3, factors3):
        provider = _tree(backend, small_tensor3, factors3)
        out = _dense(provider, provider.partial_mttkrp([0]))
        assert np.allclose(out, mttkrp(small_tensor3, factors3, 0))

    def test_intermediates_are_cached_with_versions(self, backend, small_tensor3,
                                                    factors3):
        provider = _tree(backend, small_tensor3, factors3)
        for mode, bumps in enumerate((5, 6, 7)):
            for _ in range(bumps):
                provider.set_factor(mode, factors3[mode])
        provider.partial_mttkrp([0])  # ascending: contracts mode 1, then 2
        pair = provider.cache.get_exact([0, 2], provider.versions)
        assert pair is not None
        assert pair.versions_used == {1: 6}
        leaf = provider.cache.get_exact([0], provider.versions)
        assert leaf is not None
        assert leaf.versions_used == {1: 6, 2: 7}

    def test_resume_from_cached_intermediate(self, backend, small_tensor3, factors3):
        tracker = CostTracker()
        provider = _tree(backend, small_tensor3, factors3, tracker=tracker)
        provider.partial_mttkrp([0, 1])
        first_level = tracker.flops_by_category["ttm"]
        hits = provider.cache.hits
        leaf = _dense(provider, provider.partial_mttkrp([1]))
        assert np.allclose(leaf, mttkrp(small_tensor3, factors3, 1))
        assert provider.cache.hits == hits + 1
        assert tracker.flops_by_category["ttm"] == first_level  # no second TTM

    def test_partial_matches_partial_mttkrp(self, backend, small_tensor4, factors4):
        provider = _tree(backend, small_tensor4, factors4)
        out = _dense(provider, provider.partial_mttkrp([0, 2]))
        assert np.allclose(out, partial_mttkrp(small_tensor4, factors4, [0, 2]))

    def test_contraction_path_irrelevant_for_result(self, backend, small_tensor4,
                                                    factors4):
        cold = _tree(backend, small_tensor4, factors4)
        out_a = _dense(cold, cold.partial_mttkrp([2]))
        resumed = _tree(backend, small_tensor4, factors4)
        resumed.partial_mttkrp([2, 3])  # the next request resumes here
        out_b = _dense(resumed, resumed.partial_mttkrp([2]))
        assert np.allclose(out_a, out_b)
        assert np.allclose(out_a, mttkrp(small_tensor4, factors4, 2))

    @pytest.mark.parametrize("kept", [[3], [0, 7], [], [0, 1, 2]],
                             ids=["unknown", "one-unknown", "empty", "all"])
    def test_invalid_kept_modes_raise(self, backend, kept, small_tensor3, factors3):
        provider = _tree(backend, small_tensor3, factors3)
        with pytest.raises(ValueError):
            provider.partial_mttkrp(kept)

    def test_tracker_records_ttm_then_mttv(self, backend, small_tensor3, factors3):
        tracker = CostTracker()
        provider = _tree(backend, small_tensor3, factors3, tracker=tracker)
        provider.partial_mttkrp([0])
        flops = tracker.flops_by_category
        size = provider.tensor.nnz if backend == "sparse" else small_tensor3.size
        assert flops["ttm"] == 2 * size * 4
        assert flops["mttv"] > 0
