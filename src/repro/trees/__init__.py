"""MTTKRP engines: naive, dimension tree, multi-sweep dimension tree, PP operators.

All amortizing engines are policies over a shared *versioned contraction
cache* (:mod:`repro.trees.cache`): a partially contracted intermediate
``M^(S)`` (Eq. 4 of the paper) is reusable exactly as long as none of the
factor matrices contracted into it has been updated.  The engines differ only
in which contraction paths they choose:

* :class:`repro.trees.dimension_tree.DimensionTreeMTTKRP` — the standard
  per-sweep binary dimension tree (Fig. 1a), two first-level TTMs per sweep,
  leading cost ``4 s^N R``;
* :class:`repro.trees.msdt.MultiSweepDimensionTree` — the paper's MSDT
  (Fig. 2): first-level TTMs contract the most recently updated factor so each
  root intermediate stays valid for ``N-1`` consecutive mode updates, leading
  cost ``2 N/(N-1) s^N R`` per sweep with *exactly* the same ALS iterates;
* :class:`repro.trees.pp_operators.PairwiseOperators` — the PP dimension tree
  (Fig. 1b) building all pairwise operators ``M_p^(i,j)`` and first-order
  MTTKRPs ``M_p^(n)`` at a checkpoint of the factors;
* :class:`repro.trees.naive.NaiveMTTKRP` — recompute-from-scratch reference
  (cost ``2 N s^N R`` per sweep), the correctness oracle.

Every engine exists on both tensor backends; :func:`make_provider` dispatches
by input type.  The support matrix (engine name x backend, with the class that
serves it):

============= ================================ ==========================================
name          dense ``np.ndarray``             sparse :class:`~repro.sparse.CooTensor`
============= ================================ ==========================================
``naive``     :class:`NaiveMTTKRP`             :class:`SparseCooMTTKRP` (``O(nnz R N)``)
``unfolding`` :class:`UnfoldingMTTKRP`         :class:`SparseUnfoldingMTTKRP` (CSR)
``dt``        :class:`DimensionTreeMTTKRP`     :class:`SparseDimensionTreeMTTKRP` (CSF)
``msdt``      :class:`MultiSweepDimensionTree` :class:`SparseMultiSweepDimensionTree`
============= ================================ ==========================================

On dense inputs the trees win once ``N >= 3`` (they are the paper's headline
algorithms); on sparse inputs ``naive`` wins for one-shot MTTKRPs (nothing to
amortize), the trees win across full ALS sweeps (each first-level contraction
is reused for ``~N/2`` — DT — or ``N-1`` — MSDT — mode updates), and
``unfolding`` only for tensors small enough to afford the dense Khatri-Rao
workspace.  The shared DT/MSDT control flow — the one cache lookup and
choice of contraction order, for sweeps and PP operators alike — lives in
:mod:`repro.trees.amortized`; the sparse semi-sparse descent in
:mod:`repro.trees.sparse_dt`.  :class:`PairwiseOperators` has one builder for
both backends, the tree provider's
:meth:`~repro.trees.amortized.AmortizedTreeMTTKRP.partial_mttkrp`; on sparse
inputs its pair operators are semi-sparse (:mod:`repro.trees.sparse_pp`),
kept as fiber-id × ``R`` blocks so the first-order corrections never densify
them.
"""
