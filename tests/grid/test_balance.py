"""Unit tests for the mode partitioners of repro.grid.balance."""

import numpy as np
import pytest

from repro.grid import ProcessorGrid
from repro.grid.balance import (
    ModePartition,
    TensorPartition,
    available_partitioners,
    cyclic_partition,
    make_partition,
    nnz_balanced_boundaries,
    nnz_balanced_partition,
    random_partition,
    uniform_partition,
)
from repro.grid.distribution import block_range, padded_block_size
from repro.sparse import CooTensor


def _coo(indices, shape):
    indices = np.asarray(indices, dtype=np.int64)
    return CooTensor(indices, np.ones(indices.shape[0]), shape)


class TestModePartition:
    def test_validation(self):
        with pytest.raises(ValueError, match="extent"):
            ModePartition(0, [0, 0])
        with pytest.raises(ValueError, match="start at 0"):
            ModePartition(4, [1, 4])
        with pytest.raises(ValueError, match="non-decreasing"):
            ModePartition(4, [0, 3, 2, 4])
        with pytest.raises(ValueError, match="bijection"):
            ModePartition(3, [0, 3], permutation=[0, 0, 2])
        with pytest.raises(ValueError, match="shape"):
            ModePartition(3, [0, 3], permutation=[0, 1])

    def test_empty_blocks_allowed(self):
        part = ModePartition(3, [0, 3, 3])
        assert part.widths().tolist() == [3, 0]
        assert part.block_of([0, 1, 2]).tolist() == [0, 0, 0]
        assert part.global_rows_of_block(1).size == 0

    def test_permuted_round_trip(self):
        perm = np.array([2, 0, 3, 1])
        part = ModePartition(4, [0, 2, 4], permutation=perm)
        # positions: 0 -> 2 (block 1), 1 -> 0 (block 0), 2 -> 3 (block 1), 3 -> 1 (block 0)
        assert part.block_of([0, 1, 2, 3]).tolist() == [1, 0, 1, 0]
        assert part.local_offset([0, 1, 2, 3]).tolist() == [0, 0, 1, 1]
        assert part.global_rows_of_block(0).tolist() == [1, 3]
        assert part.global_rows_of_block(1).tolist() == [0, 2]


class TestPartitioners:
    @pytest.mark.parametrize("extent,n_blocks", [(1, 1), (5, 2), (5, 4), (3, 7), (16, 4)])
    def test_uniform_matches_dense_block_range(self, extent, n_blocks):
        part = uniform_partition(extent, n_blocks)
        assert part.block_rows == padded_block_size(extent, n_blocks)
        for b in range(n_blocks):
            assert part.block_range(b) == block_range(extent, n_blocks, b)

    def test_nnz_balanced_splits_heavy_head(self):
        counts = np.array([100, 1, 1, 1, 1, 1])
        bounds = nnz_balanced_boundaries(counts, 2)
        assert bounds.tolist() == [0, 1, 6]
        part = nnz_balanced_partition(counts, 2)
        assert part.widths().tolist() == [1, 5]

    def test_nnz_balanced_uniform_counts_stay_uniform(self):
        bounds = nnz_balanced_boundaries(np.full(8, 5), 4)
        assert bounds.tolist() == [0, 2, 4, 6, 8]

    def test_nnz_balanced_all_zero_counts(self):
        bounds = nnz_balanced_boundaries(np.zeros(6, dtype=int), 3)
        assert bounds[0] == 0 and bounds[-1] == 6
        assert (np.diff(bounds) >= 0).all()

    def test_nnz_balanced_more_blocks_than_slices(self):
        part = nnz_balanced_partition(np.array([3, 3]), 4)
        assert part.n_blocks == 4
        assert int(part.widths().sum()) == 2

    def test_random_is_deterministic_given_seed(self):
        a = random_partition(10, 3, seed=42)
        b = random_partition(10, 3, seed=42)
        idx = np.arange(10)
        assert np.array_equal(a.block_of(idx), b.block_of(idx))
        assert np.array_equal(a.local_offset(idx), b.local_offset(idx))

    def test_random_hash_pins_known_assignments(self):
        """Regression pin of the hashed-layout assignments (the scheme changed
        from materialized ``rng.permutation`` arrays to an affine coordinate
        hash; these golden values keep the *new* scheme stable)."""
        part = random_partition(10, 3, seed=42)
        assert part.permutation is None  # nothing materialized
        assert part.multiplier == 7 and part.offset == 6
        assert part.position_of(np.arange(10)).tolist() == \
            [6, 3, 0, 7, 4, 1, 8, 5, 2, 9]
        assert part.block_of(np.arange(10)).tolist() == \
            [1, 0, 0, 2, 1, 0, 2, 1, 0, 2]

    def test_random_avoids_degenerate_multipliers(self):
        """Multipliers 1 and extent-1 (shift / reflection) keep contiguous
        heavy slice runs contiguous, so they are rejected whenever the extent
        admits any other coprime."""
        for extent in (5, 7, 10, 12, 50, 200):
            for seed in range(40):
                m = random_partition(extent, 3, seed=seed).multiplier
                assert m not in (1, extent - 1), (extent, seed, m)
        # extents whose only coprimes are 1 / extent-1 must still build
        for extent in (2, 3, 4, 6):
            part = random_partition(extent, 2, seed=0)
            pos = part.position_of(np.arange(extent))
            assert np.array_equal(np.sort(pos), np.arange(extent))

    def test_random_hash_is_a_bijection(self):
        for extent, blocks, seed in ((1, 1, 0), (2, 3, 1), (17, 4, 7), (64, 8, 3)):
            part = random_partition(extent, blocks, seed=seed)
            pos = part.position_of(np.arange(extent))
            assert np.array_equal(np.sort(pos), np.arange(extent))
            assert np.array_equal(part.global_of_positions(pos), np.arange(extent))
            owned = np.concatenate(
                [part.global_rows_of_block(b) for b in range(part.n_blocks)]
            )
            assert np.array_equal(np.sort(owned), np.arange(extent))

    def test_hashed_partition_rejects_non_coprime_multiplier(self):
        from repro.grid.balance import HashedModePartition

        with pytest.raises(ValueError, match="coprime"):
            HashedModePartition(6, [0, 3, 6], multiplier=2, offset=0)

    def test_cyclic_round_robin(self):
        part = cyclic_partition(7, 3)
        assert part.block_of(np.arange(7)).tolist() == [0, 1, 2, 0, 1, 2, 0]
        assert part.widths().tolist() == [3, 2, 2]


class TestTensorPartition:
    def test_build_and_rank_of(self):
        coo = _coo([[0, 0], [3, 1], [1, 1]], (4, 2))  # canonicalized to sorted order
        part = TensorPartition.build(coo, ProcessorGrid((2, 2)), kind="uniform")
        assert part.rank_of(coo.indices).tolist() == [0, 1, 3]
        assert part.padded_extents == (2, 1)

    def test_grid_mode_mismatch(self):
        coo = _coo([[0, 0]], (4, 2))
        with pytest.raises(ValueError, match="order"):
            make_partition("uniform", coo, ProcessorGrid((2, 2, 2)))

    def test_unknown_partitioner(self):
        coo = _coo([[0, 0]], (4, 2))
        with pytest.raises(ValueError, match="unknown partitioner"):
            make_partition("bogus", coo, ProcessorGrid((2, 2)))

    @pytest.mark.parametrize("kind", ["nnz", "balanced", "hash", "bisection",
                                      "Uniform", " nnz-balanced"])
    def test_only_canonical_names(self, kind):
        # the deleted aliases and the case/space folding are refused, and the
        # error lists the names that are accepted
        coo = _coo([[0, 0]], (4, 2))
        with pytest.raises(ValueError, match="unknown partitioner") as info:
            make_partition(kind, coo, ProcessorGrid((2, 2)))
        assert str(available_partitioners()) in str(info.value)

    def test_available_names_all_build(self):
        coo = _coo([[0, 0], [3, 1], [1, 1]], (4, 2))
        assert available_partitioners() == ["uniform", "nnz-balanced", "random",
                                            "cyclic", "joint"]
        for kind in available_partitioners():
            make_partition(kind, coo, ProcessorGrid((2, 2)), seed=0)

    def test_block_count_must_match_grid(self):
        part = uniform_partition(4, 3)
        with pytest.raises(ValueError, match="blocks"):
            TensorPartition(ProcessorGrid((2, 2)), [part, uniform_partition(2, 2)])

    @pytest.mark.parametrize("kind", available_partitioners())
    def test_report_counts_every_nonzero_once(self, kind):
        rng = np.random.default_rng(0)
        idx = np.column_stack(
            np.unravel_index(rng.choice(6 * 7 * 8, size=60, replace=False), (6, 7, 8))
        )
        coo = _coo(idx, (6, 7, 8))
        grid = ProcessorGrid((2, 3, 2))
        report = make_partition(kind, coo, grid, seed=0).report(coo)
        assert int(report.per_rank_nnz.sum()) == coo.nnz
        assert report.per_rank_nnz.shape == (grid.size,)
        assert report.imbalance >= 1.0
        assert report.partitioner == ("nnz-balanced" if kind == "nnz-balanced" else kind)
        assert "imbalance" in report.summary()

    @pytest.mark.parametrize("kind", available_partitioners())
    def test_assign_matches_rank_of_and_local_indices(self, kind):
        rng = np.random.default_rng(5)
        idx = np.column_stack(
            np.unravel_index(rng.choice(9 * 8 * 7, size=80, replace=False), (9, 8, 7))
        )
        coo = _coo(idx, (9, 8, 7))
        part = make_partition(kind, coo, ProcessorGrid((2, 2, 2)), seed=4)
        ranks, local = part.assign(coo.indices)
        np.testing.assert_array_equal(ranks, part.rank_of(coo.indices))
        np.testing.assert_array_equal(local, part.local_indices(coo.indices))

    def test_report_comparison_does_not_raise(self):
        """Regression: the generated dataclass __eq__ choked on the ndarray field."""
        coo = _coo([[0, 0], [1, 1], [3, 0]], (4, 2))
        grid = ProcessorGrid((2, 1))
        a = make_partition("uniform", coo, grid).report(coo)
        b = make_partition("uniform", coo, grid).report(coo)
        assert isinstance(a == b, bool)

    def test_empty_tensor_report(self):
        coo = CooTensor(np.zeros((0, 2), dtype=np.int64), np.zeros(0), (3, 3))
        report = make_partition("nnz-balanced", coo, ProcessorGrid((2, 1))).report(coo)
        assert report.total_nnz == 0
        assert report.imbalance == 1.0
        assert report.empty_ranks == 2
