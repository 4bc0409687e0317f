"""Multi-sweep dimension tree (MSDT) — Section III / Fig. 2 of the paper.

The standard dimension tree performs two first-level TTMs per sweep because
its amortization scheme is fixed within a sweep.  MSDT instead chooses each
first-level contraction so that it can be reused *across* sweeps: when a new
first-level TTM is unavoidable it contracts the **most recently updated**
factor ``A^(k)``, because that factor will not change again for the next
``N - 1`` mode updates, so the resulting root intermediate
``M^({1..N} \\ {k})`` serves all of them.  In steady state this is one
first-level TTM per ``N - 1`` mode updates, i.e. ``N/(N-1)`` TTMs per sweep —
the paper's leading-order cost ``2 N/(N-1) s^N R``.  The root rotates through
every mode, which is why :func:`~repro.tensor.ttm.first_contraction` has to
cost the same GEMM for a middle mode as for the first or the last: with a
transposed copy per middle-mode TTM the saved flops were not saved seconds.

The produced MTTKRPs are *exactly* those of the standard algorithm (the same
contractions with the same factor versions), so MSDT introduces no
approximation error; the test suite asserts iterate-for-iterate equality with
the naive engine.

Implementation note: because the versioned cache also retains still-valid
*second-level* intermediates across root changes, the implementation
occasionally needs even fewer first-level TTMs than the paper's ``N/(N-1)``
per sweep for ``N >= 4`` (e.g. 1.25 instead of 1.33 at ``N = 4``); the paper's
bound is an upper bound on the measured cost, which the tests verify.

The root-ordering policy lives in :class:`repro.trees.amortized.MsdtOrderPolicy`
(shared with the sparse CSF backend,
:class:`repro.trees.sparse_dt.SparseMultiSweepDimensionTree`); this class binds
it to the dense descent backend.
"""

from __future__ import annotations

from repro.trees.amortized import MsdtOrderPolicy
from repro.trees.dimension_tree import DenseTreeBackend

__all__ = ["MultiSweepDimensionTree"]


class MultiSweepDimensionTree(MsdtOrderPolicy, DenseTreeBackend):
    """Cross-sweep amortized MTTKRP (the paper's MSDT algorithm)."""

    name = "msdt"
