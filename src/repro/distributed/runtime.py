"""Runtimes: the ranks of one distributed problem, built by a machine's ``attach``.

A simulated machine's is a :class:`LocalRuntime` (the ranks in this process);
a :class:`ProcessMachine`'s is a :class:`ProcessRuntime`, the semantic half of
the real multi-process execution layer (:mod:`repro.comm.procs` is the
transport half).  A :class:`ProcessRuntime`

* creates one shared-memory **factor panel** per ``(mode, block)`` of the
  distributed factors — every rank whose grid coordinate selects that block
  reads the same panel, so the all-gather of factor rows becomes one
  master-side copy plus a tiny command per rank,
* creates one per-rank **output panel** (sized for the tallest mode block)
  that workers fill with MTTKRP / PP results,
* ships each rank's tensor block once through transient init segments,
  unlinked as soon as the worker has copied its block out,
* hands back one :class:`RemoteRank` per rank for ``ParallelState.ranks``.

A :class:`RemoteRank` offers the master the same ``set_factor`` /
``submit(command, *args)`` / ``collect()`` surface as a simulated rank's
:class:`~repro.distributed.rank.RankKernels`; ``submit`` posts the command to
the worker, which runs it on its own ``RankKernels``.  Because every rank is
submitted to before any is collected, the workers' kernels run concurrently.
Only the tiny ``R x R`` second-order accumulator of a PP contribution crosses
the process boundary per call: the worker recomputes its factor steps from
its own PP checkpoint.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backend import is_sparse_tensor
from repro.comm.procs import ProcessMachine
from repro.distributed.rank import RankKernels
from repro.trees.registry import make_provider

__all__ = ["LocalRuntime", "ProcessRuntime", "RemoteRank"]


class LocalRuntime:
    """One :class:`~repro.distributed.rank.RankKernels` per rank, in this
    process, recording into the rank's cost tracker."""

    def __init__(self, machine, grid, dist_tensor, dist_factors, mttkrp: str):
        self.ranks = {
            proc: RankKernels(make_provider(
                mttkrp,
                dist_tensor.local_block(proc),
                [dist_factors[m].local_block_for(proc) for m in range(grid.order)],
                tracker=machine.tracker(proc),
            ))
            for proc in grid.ranks()
        }

    def detach(self) -> None:
        """Nothing to release: the ranks live in this process."""


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
    """Shared panels + remote ranks for one distributed problem instance.

    The runtime is tied to one ``(dist_tensor, dist_factors)`` pair; call
    :meth:`detach` (drivers do, via ``ParallelState.close``) to drop the
    worker-side state and unlink the panels, after which the machine can be
    reused for another problem.
    """

    def __init__(self, machine: ProcessMachine, grid, dist_tensor,
                 dist_factors, mttkrp: str):
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

        self.ranks: dict[int, RemoteRank] = {
            proc: RemoteRank(self, proc, grid.coordinate(proc))
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


class RemoteRank:
    """Master-side proxy of one worker's :class:`~repro.distributed.rank.RankKernels`.

    Results come back through the rank's shared output panel; replies only
    carry the row count and the worker's cost delta, which is merged into the
    rank's master-side tracker.
    """

    def __init__(self, runtime: ProcessRuntime, proc: int, coord):
        self.runtime = runtime
        self.machine = runtime.machine
        self.proc = proc
        self.coord = tuple(coord)
        self._pending: str | None = None

    def set_factor(self, mode: int, factor: np.ndarray) -> None:
        """Publish the updated block panel and tell the worker to ingest it.

        The command is fire-and-forget: the FIFO queue guarantees the worker
        applies it before any later kernel command, while the master
        immediately proceeds to the next mode's collectives.
        """
        self.runtime.publish(mode, self.coord[mode], factor)
        self.machine.send(self.proc, ("set_factor", mode))

    def submit(self, *command) -> None:
        """Post one kernel command, e.g. ``("mttkrp", mode)``, to the worker."""
        if self._pending is not None:
            raise RuntimeError(
                f"rank {self.proc} already has a pending {self._pending!r} call"
            )
        self.machine.send(self.proc, command)
        self._pending = command[0]

    def collect(self) -> np.ndarray | None:
        """Wait for the pending command; its result rows, copied out of the panel."""
        if self._pending is None:
            raise RuntimeError(f"rank {self.proc} has no pending call")
        tag, self._pending = self._pending, None
        _, rows, costs = self.machine.wait(self.proc, tag)
        self.machine.merge_cost_payload(self.proc, costs)
        if rows is None:
            return None
        return self.runtime.output_view(self.proc)[:rows].copy()
