"""Process-execution runtime: wiring distributed data onto a :class:`ProcessMachine`.

This module is the semantic half of the real multi-process execution layer
(:mod:`repro.comm.procs` is the transport half).  A :class:`ProcessRuntime`

* creates one shared-memory **factor panel** per ``(mode, block)`` of the
  distributed factors — every rank whose grid coordinate selects that block
  reads the same panel, so the all-gather of factor rows becomes one
  master-side copy plus a tiny command per rank,
* creates one per-rank **output panel** (sized for the tallest mode block)
  that workers fill with MTTKRP / PP results,
* ships each rank's tensor block once through transient init segments,
  unlinked as soon as the worker has copied its block out,
* hands back :class:`RemoteProvider` proxies that plug into
  ``ParallelState.providers`` unchanged.

A :class:`RemoteProvider` mirrors the
:class:`~repro.trees.base.MTTKRPProvider` surface the drivers use
(``mttkrp``/``set_factor``) and adds split submit/result calls so
:func:`~repro.core.parallel_common.parallel_mode_update` can post every
rank's MTTKRP before collecting any result — that is where the real
cross-rank parallelism comes from.  The PP entry points mirror the worker's
checkpoint-based protocol (see :meth:`_WorkerState.pp_build`): only the tiny
``R x R`` second-order accumulator crosses the process boundary per call.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backend import is_sparse_tensor
from repro.comm.procs import ProcessMachine

__all__ = ["ProcessRuntime", "RemoteProvider"]


def _pack_tensor_block(machine: ProcessMachine, block, rank: int):
    """Write one rank's tensor block into transient init segments.

    Returns ``(spec, names)`` where ``spec`` is the picklable description the
    worker rebuilds the block from and ``names`` lists the segments to
    release once the worker acknowledged its init.
    """
    if is_sparse_tensor(block):
        indices = np.ascontiguousarray(block.indices, dtype=np.int64)
        values = np.ascontiguousarray(block.values, dtype=np.float64)
        idx_seg = machine.create_segment(indices.nbytes, f"init-idx-r{rank}")
        val_seg = machine.create_segment(values.nbytes, f"init-val-r{rank}")
        if indices.size:
            np.ndarray(indices.shape, dtype=np.int64,
                       buffer=idx_seg.buf)[:] = indices
        if values.size:
            np.ndarray(values.shape, dtype=np.float64,
                       buffer=val_seg.buf)[:] = values
        spec = {
            "kind": "coo",
            "indices": idx_seg.name,
            "values": val_seg.name,
            "nnz": int(block.nnz),
            "shape": tuple(int(s) for s in block.shape),
        }
        return spec, [idx_seg.name, val_seg.name]
    arr = np.ascontiguousarray(block, dtype=np.float64)
    seg = machine.create_segment(arr.nbytes, f"init-dense-r{rank}")
    if arr.size:
        np.ndarray(arr.shape, dtype=np.float64, buffer=seg.buf)[:] = arr
    spec = {"kind": "dense", "name": seg.name,
            "shape": tuple(int(s) for s in arr.shape)}
    return spec, [seg.name]


class ProcessRuntime:
    """Shared panels + remote providers for one distributed problem instance.

    The runtime is tied to one ``(dist_tensor, dist_factors)`` pair; call
    :meth:`detach` (drivers do, via ``ParallelState.close``) to drop the
    worker-side state and unlink the panels, after which the machine can be
    reused for another problem.
    """

    def __init__(self, machine: ProcessMachine, grid, dist_tensor,
                 dist_factors, mttkrp: str,
                 max_cache_bytes: int | None = None):
        if machine.n_ranks != grid.size:
            raise ValueError(
                f"machine has {machine.n_ranks} ranks but grid needs {grid.size}"
            )
        self.machine = machine
        self.grid = grid
        self._detached = False
        order = grid.order
        rank_r = dist_factors[0].rank

        # factor panels, one per (mode, block); slice-group ranks share them
        self._panels: dict[tuple[int, int], tuple[str, np.ndarray]] = {}
        self._published: dict[tuple[int, int], np.ndarray] = {}
        for mode in range(order):
            df = dist_factors[mode]
            for block_index in range(grid.dims[mode]):
                seg = machine.create_segment(
                    df.block_rows * rank_r * 8, f"panel-m{mode}b{block_index}"
                )
                view = np.ndarray((df.block_rows, rank_r), dtype=np.float64,
                                  buffer=seg.buf)
                block = df.block(block_index)
                view[:] = block
                self._panels[(mode, block_index)] = (seg.name, view)
                self._published[(mode, block_index)] = block

        # ranks sharing each (mode, block) panel — publish() charges its copy
        # time to exactly these ranks' trackers
        self._block_ranks: dict[tuple[int, int], list[int]] = {}
        for proc in grid.ranks():
            coord = grid.coordinate(proc)
            for m in range(order):
                self._block_ranks.setdefault((m, coord[m]), []).append(proc)

        # per-rank output panels + init specs
        max_rows = max(df.block_rows for df in dist_factors)
        self._outputs: dict[int, tuple[str, np.ndarray]] = {}
        init_names: list[str] = []
        specs: dict[int, dict] = {}
        for proc in grid.ranks():
            out_seg = machine.create_segment(max_rows * rank_r * 8,
                                             f"out-r{proc}")
            self._outputs[proc] = (
                out_seg.name,
                np.ndarray((max_rows, rank_r), dtype=np.float64,
                           buffer=out_seg.buf),
            )
            tensor_spec, names = _pack_tensor_block(
                machine, dist_tensor.local_block(proc), proc
            )
            init_names.extend(names)
            coord = grid.coordinate(proc)
            specs[proc] = {
                "engine": mttkrp,
                "max_cache_bytes": max_cache_bytes,
                "rank": rank_r,
                "order": order,
                "tensor": tensor_spec,
                "panels": [
                    {"name": self._panels[(m, coord[m])][0],
                     "rows": dist_factors[m].block_rows}
                    for m in range(order)
                ],
                "output": {"name": out_seg.name, "rows": max_rows},
            }
        for proc in grid.ranks():
            machine.send(proc, ("init", specs[proc]))
        for proc in grid.ranks():
            machine.wait(proc, "init")
        # every worker copied its block out — reclaim the transient segments
        for name in init_names:
            machine.release_segment(name)

        self.providers: dict[int, RemoteProvider] = {
            proc: RemoteProvider(self, proc, grid.coordinate(proc), mttkrp)
            for proc in grid.ranks()
        }

    # -- panels ---------------------------------------------------------------
    def publish(self, mode: int, block_index: int, array: np.ndarray) -> None:
        """Copy an updated factor block into its shared panel, once.

        All ranks of a slice group pass the *same* block object (the
        drivers hand out ``dist_factors[mode].local_block_for(proc)``), so
        an identity check keeps this one copy per ``(mode, block)`` update.
        """
        key = (mode, block_index)
        if self._published.get(key) is array:
            return
        _, view = self._panels[key]
        t0 = time.perf_counter()
        view[:] = array
        elapsed = time.perf_counter() - t0
        self._published[key] = array
        for proc in self._block_ranks[key]:
            self.machine.tracker(proc).add_seconds("publish", elapsed)

    def output_view(self, proc: int) -> np.ndarray:
        return self._outputs[proc][1]

    # -- worker-side collectives ----------------------------------------------
    def reduce_blocks(
        self,
        groups: list[list[int]],
        rows_by_group: list[int],
    ) -> dict[int, np.ndarray]:
        """Sum output panels inside each slice group with a worker-side tree.

        Each group runs a binomial (recursive-halving-style) reduction over
        the ranks' shared output panels: in round ``offset`` the worker at
        ``group[idx]`` adds ``group[idx + offset]``'s panel into its own
        (:meth:`repro.comm.procs._WorkerState.reduce_add`), leaving the group
        sum in ``group[0]``'s panel after ``ceil(log2(len(group)))`` rounds.
        Rounds run in *lockstep across all groups* — every edge of a round is
        posted before any ack is awaited, so the command-queue barrier costs
        one queue round-trip per round, not per edge.  Requires every rank's
        kernel result to already be in its output panel (the caller collects
        all row counts first).

        Returns ``{group_index: summed panel copy}``; the master reads one
        panel per group instead of all ``P``.
        """
        machine = self.machine
        offset = 1
        max_len = max((len(g) for g in groups), default=0)
        while offset < max_len:
            wave: list[int] = []
            for gi, group in enumerate(groups):
                rows = int(rows_by_group[gi])
                for idx in range(0, len(group) - offset, 2 * offset):
                    dst, src = group[idx], group[idx + offset]
                    machine.send(dst, ("reduce_add", self._outputs[src][0], rows))
                    wave.append(dst)
            for dst in wave:
                msg = machine.wait(dst, "reduce_add")
                machine.merge_cost_payload(dst, msg[2])
            offset *= 2
        return {
            gi: self.output_view(group[0])[: int(rows_by_group[gi])].copy()
            for gi, group in enumerate(groups)
        }

    # -- lifecycle -------------------------------------------------------------
    def detach(self) -> None:
        """Drop worker-side state and unlink panels (idempotent, fault-tolerant).

        Dead or already-closed workers are skipped — the segments are always
        reclaimed master-side, which is what the leak assertions check.
        """
        if self._detached:
            return
        self._detached = True
        acked = []
        for proc in self.grid.ranks():
            try:
                self.machine.send(proc, ("drop",))
                acked.append(proc)
            except RuntimeError:
                continue
        for proc in acked:
            try:
                self.machine.wait(proc, "drop")
            except RuntimeError:
                continue
        # drop master-side views, then unlink
        names = [name for name, _ in self._panels.values()]
        names += [name for name, _ in self._outputs.values()]
        self._panels = {}
        self._published = {}
        self._outputs = {}
        for name in names:
            self.machine.release_segment(name)


class RemoteProvider:
    """Master-side proxy of one worker's MTTKRP engine.

    Presents the provider surface the parallel drivers touch (``mttkrp``,
    ``set_factor``, ``tracker``) plus split submit/result calls
    for batch dispatch.  Results come back through the rank's shared output
    panel; replies only carry the row count and the worker's cost delta.
    """

    def __init__(self, runtime: ProcessRuntime, proc: int, coord, engine: str):
        self.runtime = runtime
        self.machine = runtime.machine
        self.proc = proc
        self.coord = tuple(coord)
        self.engine_name = engine
        self.name = f"process[{engine}]"
        self._pending: str | None = None

    @property
    def tracker(self):
        return self.machine.tracker(self.proc)

    def _submit(self, tag: str, message: tuple) -> None:
        if self._pending is not None:
            raise RuntimeError(
                f"rank {self.proc} already has a pending {self._pending!r} call"
            )
        self.machine.send(self.proc, message)
        self._pending = tag

    def _collect(self, tag: str) -> tuple:
        if self._pending != tag:
            raise RuntimeError(
                f"rank {self.proc} has no pending {tag!r} call "
                f"(pending: {self._pending!r})"
            )
        self._pending = None
        return self.machine.wait(self.proc, tag)

    # -- driver surface -------------------------------------------------------
    def set_factor(self, mode: int, factor: np.ndarray) -> None:
        """Publish the updated block panel and tell the worker to ingest it.

        With ``machine.overlap`` the command is fire-and-forget: the FIFO
        queue guarantees the worker applies it before any later MTTKRP, while
        the master immediately proceeds to the next mode's collectives.
        """
        self.runtime.publish(mode, self.coord[mode], factor)
        ack = not self.machine.overlap
        self.machine.send(self.proc, ("set_factor", mode, ack))
        if ack:
            self.machine.wait(self.proc, "set_factor")

    def mttkrp_submit(self, mode: int) -> None:
        self._submit("mttkrp", ("mttkrp", mode))

    def mttkrp_result(self) -> np.ndarray:
        msg = self._collect("mttkrp")
        _, _mode, rows, costs = msg
        self.machine.merge_cost_payload(self.proc, costs)
        return self.runtime.output_view(self.proc)[:rows].copy()

    def mttkrp_result_rows(self) -> int:
        """Collect a pending MTTKRP but leave the panel in shared memory.

        Worker-side collectives reduce the panels in place, so the master
        only needs the row count here — the one copy happens after the
        reduction tree, per *group* instead of per rank.
        """
        msg = self._collect("mttkrp")
        _, _mode, rows, costs = msg
        self.machine.merge_cost_payload(self.proc, costs)
        return int(rows)

    def mttkrp(self, mode: int) -> np.ndarray:
        self.mttkrp_submit(mode)
        return self.mttkrp_result()

    # -- pairwise perturbation -------------------------------------------------
    def pp_build_submit(self) -> None:
        self._submit("pp_build", ("pp_build",))

    def pp_build_result(self) -> None:
        msg = self._collect("pp_build")
        self.machine.merge_cost_payload(self.proc, msg[1])

    def pp_contrib_submit(self, mode: int, accumulator: np.ndarray,
                          group_size: int) -> None:
        self._submit(
            "pp_contrib",
            ("pp_contrib", mode, np.ascontiguousarray(accumulator),
             int(group_size)),
        )

    def pp_contrib_result(self) -> np.ndarray:
        msg = self._collect("pp_contrib")
        _, _mode, rows, costs = msg
        self.machine.merge_cost_payload(self.proc, costs)
        return self.runtime.output_view(self.proc)[:rows].copy()

    def pp_contrib_result_rows(self) -> int:
        """PP analogue of :meth:`mttkrp_result_rows` (no panel copy)."""
        msg = self._collect("pp_contrib")
        _, _mode, rows, costs = msg
        self.machine.merge_cost_payload(self.proc, costs)
        return int(rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RemoteProvider(rank={self.proc}, engine={self.engine_name!r})"
