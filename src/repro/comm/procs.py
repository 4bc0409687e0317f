"""Real multi-process execution substrate for the parallel drivers.

A :class:`ProcessMachine` extends the :class:`~repro.comm.simulated.SimulatedMachine`
with one *spawned* OS process per rank.  The collectives stay exact and
master-driven, while the rank-local tensor kernels — MTTKRP and the pairwise
perturbation operators — execute inside the workers, concurrently across
ranks.  Each worker runs the same :class:`~repro.distributed.rank.RankKernels`
a simulated rank runs in the master, so process runs are bit-identical to
simulated runs at the same ``P``.

Data placement avoids pickle round-trips on the hot path:

* **factor panels** — one :class:`multiprocessing.shared_memory.SharedMemory`
  segment per ``(mode, block)`` of the distributed factors, shared by every
  rank in that block's slice group.  The all-gather of updated factor rows is
  a single master-side copy into the panel followed by a tiny fire-and-forget
  ``set_factor`` command, so workers ingest the mode-``k`` panel while the
  master already runs the collectives and solves of mode ``k+1``.
* **output panels** — one per-rank segment sized for the tallest mode block;
  workers write MTTKRP / PP results in place and reply with a row count.
* **tensor blocks** — shipped once at initialization through transient
  segments that are unlinked as soon as every worker has copied its block out.

Workers communicate over per-rank command/result queues.  Each reply carries
the worker-side :class:`~repro.machine.cost_tracker.CostTracker` delta, which
the master merges into the matching rank tracker, so modeled per-sweep times
keep working unchanged.  A worker death (e.g. SIGKILL) or hang surfaces as a
``RuntimeError`` naming the rank instead of blocking forever, and
:meth:`ProcessMachine.close` (also registered as a GC finalizer) unlinks every
shared segment on success, failure and interrupt alike.

Spawn-safety: :func:`_worker_main` is a module-level function, so the machine
works under the ``spawn`` start method (the only portable one).  A spawned
worker imports this module plus the rank-local kernels it runs
(:mod:`repro.distributed.rank`, :mod:`repro.trees.registry`,
:mod:`repro.sparse`), and none of the driver stack: no :mod:`repro.core`, no
:mod:`repro.service`, no ``scipy.linalg`` and no ``asyncio``
(``tests/integration/test_import_surface.py`` pins this set).
"""

from __future__ import annotations

import os
import queue as queue_lib
import time
import traceback
import uuid
import weakref

import numpy as np

from repro.comm.simulated import SimulatedMachine
from repro.machine.cost_tracker import CostTracker
from repro.machine.params import MachineParams

__all__ = ["ProcessMachine", "leaked_segments", "SEGMENT_PREFIX"]

#: global name prefix of every shared-memory segment this module creates;
#: the fault-injection tests scan for it to prove nothing leaked
SEGMENT_PREFIX = "repro-mp-"


def leaked_segments() -> list[str]:
    """Names of live ``repro-mp-*`` shared-memory segments on this host.

    Uses the ``/dev/shm`` backing directory (Linux); a non-empty result after
    a run means a segment was not unlinked.  On platforms without that
    directory (macOS, Windows) the audit has nothing to scan, and an empty
    list would be *falsely* clean — raise instead so callers and test
    harnesses know the check did not run.
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):
        raise RuntimeError(
            "shared-memory segment audit is unsupported on this platform: "
            f"no {shm_dir} backing directory to scan"
        )
    return sorted(n for n in os.listdir(shm_dir) if n.startswith(SEGMENT_PREFIX))


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

def _attach_segment(name: str):
    """Attach to an existing segment without taking cleanup ownership.

    The master owns every unlink.  On 3.13+ ``track=False`` opts the attach
    out of resource tracking explicitly; on 3.10-3.12 the attach re-registers
    the name, which is harmless because spawned workers share the master's
    resource-tracker process and its cache is a set — the master's eventual
    ``unlink()`` unregisters the name exactly once.  (Do *not* unregister here:
    with the shared tracker that would strip the master's registration and
    make its own unlink warn.)
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


def _load_tensor_block(spec: dict):
    """Rebuild this rank's tensor block from its transient init segments.

    The data is *copied out* so the segments can be unlinked right after the
    init ack; the worker keeps no reference to them.
    """
    if spec["kind"] == "coo":
        from repro.sparse import CooTensor

        order = len(spec["shape"])
        nnz = int(spec["nnz"])
        idx_shm = _attach_segment(spec["indices"])
        val_shm = _attach_segment(spec["values"])
        try:
            indices = np.ndarray((nnz, order), dtype=np.int64,
                                 buffer=idx_shm.buf).copy()
            values = np.ndarray((nnz,), dtype=np.float64,
                                buffer=val_shm.buf).copy()
        finally:
            idx_shm.close()
            val_shm.close()
        return CooTensor(indices, values, tuple(spec["shape"]))
    shm = _attach_segment(spec["name"])
    try:
        block = np.ndarray(tuple(spec["shape"]), dtype=np.float64,
                           buffer=shm.buf).copy()
    finally:
        shm.close()
    return block


class _WorkerState:
    """One rank's live state: its :class:`~repro.distributed.rank.RankKernels`
    plus the shared factor panels it reads and the output panel it writes."""

    def __init__(self, spec: dict):
        from repro.distributed.rank import RankKernels
        from repro.trees.registry import make_provider

        rank_r = int(spec["rank"])
        tensor = _load_tensor_block(spec["tensor"])
        self._shms = []
        self.panel_views: list[np.ndarray] = []
        factors = []
        for panel in spec["panels"]:
            shm = _attach_segment(panel["name"])
            view = np.ndarray((int(panel["rows"]), rank_r),
                              dtype=np.float64, buffer=shm.buf)
            self._shms.append(shm)
            self.panel_views.append(view)
            factors.append(view.copy())
        out_shm = _attach_segment(spec["output"]["name"])
        self._shms.append(out_shm)
        self.out_view = np.ndarray((int(spec["output"]["rows"]), rank_r),
                                   dtype=np.float64, buffer=out_shm.buf)
        self.kernels = RankKernels(make_provider(
            spec["engine"], tensor, factors,
            tracker=CostTracker(),
        ))

    def apply_factor(self, mode: int) -> None:
        """Ingest the published panel for ``mode`` into the local engine."""
        self.kernels.set_factor(mode, self.panel_views[mode].copy())

    def run(self, command: tuple) -> int | None:
        """Run one kernel command; an array result goes to the output panel
        and only its row count is returned."""
        result = self.kernels.run(command)
        if result is None:
            return None
        rows = result.shape[0]
        self.out_view[:rows] = result
        return rows

    def close(self) -> None:
        self.kernels = None
        self.panel_views = []
        self.out_view = None
        for shm in self._shms:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - a stray view kept the buffer
                pass
        self._shms = []


#: the commands a worker hands to its :class:`~repro.distributed.rank.RankKernels`
_KERNEL_COMMANDS = ("mttkrp", "pp_build", "pp_contrib")


def _worker_main(rank: int, cmd_queue, res_queue) -> None:
    """Worker loop: serve commands until ``exit`` (runs in the child process).

    A kernel command (``("mttkrp", mode)``, ``("pp_build",)``,
    ``("pp_contrib", mode, accumulator, group_size)``) is answered with
    ``(tag, rows, cost_delta)``: the row count of the result written to the
    output panel (``None`` for ``pp_build``) and the worker tracker's delta.
    Time spent blocked on the command queue between kernel commands is
    accumulated into ``pending_wait`` and attributed to the next kernel
    command's cost delta under the ``queue_wait`` category — the per-rank
    observability input for the process-hop calibration (kernel vs queue-wait
    vs publish, see :mod:`repro.machine.calibrate`).
    """
    state: _WorkerState | None = None
    pending_wait = 0.0
    while True:
        t_wait = time.perf_counter()
        msg = cmd_queue.get()
        pending_wait += time.perf_counter() - t_wait
        tag = msg[0]
        if tag == "exit":
            if state is not None:
                state.close()
            res_queue.put(("exit", rank))
            return
        try:
            if tag == "init":
                if state is not None:
                    state.close()
                state = _WorkerState(msg[1])
                pending_wait = 0.0
                res_queue.put(("init", rank))
            elif tag == "drop":
                if state is not None:
                    state.close()
                    state = None
                res_queue.put(("drop", rank))
            elif tag == "ping":
                res_queue.put(("ping", rank))
            elif tag == "set_factor":
                state.apply_factor(msg[1])
            elif tag in _KERNEL_COMMANDS:
                tracker = state.kernels.tracker
                before = tracker.snapshot()
                tracker.add_seconds("queue_wait", pending_wait)
                pending_wait = 0.0
                rows = state.run(msg)
                res_queue.put((tag, rows, tracker.diff_since(before).as_dict()))
            else:
                res_queue.put(("error", tag, f"unknown command {tag!r}", ""))
        except BaseException as exc:  # noqa: BLE001 - forwarded to the master
            res_queue.put(("error", tag, repr(exc), traceback.format_exc()))


# ---------------------------------------------------------------------------
# master side
# ---------------------------------------------------------------------------

def _cleanup(workers, cmd_queues, res_queues, segments) -> None:
    """Tear down workers, queues and segments (idempotent; also the finalizer).

    Deliberately takes the resources rather than the machine so the
    ``weakref.finalize`` registration does not keep the machine alive.
    """
    for rank, worker in enumerate(workers):
        if worker.is_alive():
            try:
                cmd_queues[rank].put_nowait(("exit",))
            except Exception:
                pass
    deadline = time.monotonic() + 5.0
    for worker in workers:
        worker.join(timeout=max(0.1, deadline - time.monotonic()))
        if worker.is_alive():
            worker.terminate()
            worker.join(timeout=1.0)
        if worker.is_alive():  # pragma: no cover - terminate should suffice
            worker.kill()
            worker.join(timeout=1.0)
    for q in (*cmd_queues, *res_queues):
        try:
            q.close()
            q.cancel_join_thread()
        except Exception:
            pass
    for name in list(segments):
        shm = segments.pop(name, None)
        if shm is None:
            continue
        try:
            shm.close()
        except BufferError:
            # a live master-side view still exports the buffer; the unlink
            # below still removes the name, and the memory is reclaimed when
            # the view is garbage-collected
            pass
        except Exception:
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        except Exception:
            pass


class ProcessMachine(SimulatedMachine):
    """``P`` ranks backed by real spawned processes and shared-memory panels.

    Collectives are inherited from :class:`SimulatedMachine` — the master
    moves the exact bytes and charges the alpha-beta model — while the
    rank-local kernels run in the workers through the command protocol used
    by :class:`repro.distributed.runtime.ProcessRuntime`.  This keeps process
    execution bit-identical to simulated execution at the same ``P`` (an
    invariant the cross-process parity suite pins).

    Parameters
    ----------
    n_ranks:
        Worker count (one OS process per rank).
    params:
        Machine cost parameters for the modeled collectives.
    start_method:
        ``multiprocessing`` start method; ``"spawn"`` (default) is the only
        one that is portable and fork-safe under threaded BLAS.
    timeout:
        Seconds :meth:`wait` blocks on one command before declaring the
        worker hung.  Worker *death* is detected within ~0.1 s regardless.
    """

    def __init__(self, n_ranks: int, params: MachineParams | None = None,
                 start_method: str = "spawn", timeout: float = 120.0):
        super().__init__(n_ranks, params=params)
        import multiprocessing as mp

        self.timeout = float(timeout)
        self._session = uuid.uuid4().hex[:10]
        self._seg_counter = 0
        self._closed = False
        self._failed: str | None = None
        ctx = mp.get_context(start_method)
        self._segments: dict[str, object] = {}
        self._cmd_queues = [ctx.Queue() for _ in range(self.n_ranks)]
        self._res_queues = [ctx.Queue() for _ in range(self.n_ranks)]
        self._workers = [
            ctx.Process(target=_worker_main, args=(r, cq, rq),
                        name=f"repro-worker-{r}", daemon=True)
            for r, (cq, rq) in enumerate(zip(self._cmd_queues, self._res_queues))
        ]
        for worker in self._workers:
            worker.start()
        self._finalizer = weakref.finalize(
            self, _cleanup, self._workers, self._cmd_queues,
            self._res_queues, self._segments,
        )

    # -- introspection -------------------------------------------------------
    @property
    def segment_prefix(self) -> str:
        """Name prefix of every segment this machine creates."""
        return f"{SEGMENT_PREFIX}{self._session}-"

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def failed(self) -> str | None:
        """Why the command protocol is no longer trusted (``None`` while healthy).

        Set the first time :meth:`wait` sees a worker error reply, a protocol
        mismatch or a timeout: all three leave replies potentially undrained
        in a result queue, so a later command could read a *stale* reply as
        its own answer.  A failed machine refuses further commands — create a
        fresh one (worker death alone does not set this: the dead rank's
        queue is empty and the error is not a desync).
        """
        return self._failed

    def worker_pid(self, rank: int) -> int | None:
        """OS pid of the worker for ``rank`` (fault-injection hooks)."""
        return self._workers[rank].pid

    def alive(self, rank: int) -> bool:
        return self._workers[rank].is_alive()

    def segment_names(self) -> list[str]:
        """Names of the segments currently owned (and not yet unlinked)."""
        return sorted(self._segments)

    # -- shared-memory registry ---------------------------------------------
    def create_segment(self, nbytes: int, label: str):
        """Create (and own) a named shared-memory segment of ``nbytes``."""
        from multiprocessing import shared_memory

        if self._closed:
            raise RuntimeError("ProcessMachine is closed")
        self._seg_counter += 1
        name = f"{self.segment_prefix}{label}-{self._seg_counter}"
        shm = shared_memory.SharedMemory(name=name, create=True,
                                         size=max(int(nbytes), 1))
        self._segments[name] = shm
        return shm

    def release_segment(self, name: str) -> None:
        """Close and unlink one owned segment (no-op if already released)."""
        shm = self._segments.pop(name, None)
        if shm is None:
            return
        try:
            shm.close()
        except BufferError:
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass

    # -- command protocol ----------------------------------------------------
    def send(self, rank: int, message: tuple) -> None:
        """Post one command to ``rank``'s FIFO queue (non-blocking)."""
        if self._closed:
            raise RuntimeError("ProcessMachine is closed")
        if self._failed is not None:
            raise RuntimeError(
                f"ProcessMachine is failed ({self._failed}); result queues "
                f"may hold stale replies — create a fresh machine"
            )
        worker = self._workers[rank]
        if not worker.is_alive():
            raise RuntimeError(
                f"worker rank {rank} is dead (exitcode {worker.exitcode}); "
                f"cannot send {message[0]!r}"
            )
        self._cmd_queues[rank].put(message)

    def wait(self, rank: int, expected: str) -> tuple:
        """Block for ``rank``'s next reply, which must carry tag ``expected``.

        Raises a ``RuntimeError`` naming the rank if the worker reports an
        error, dies (checked every 0.1 s, so a SIGKILL mid-sweep surfaces
        promptly), or exceeds :attr:`timeout`.  Error replies, protocol
        mismatches and timeouts additionally mark the whole machine
        :attr:`failed`: each leaves the command/reply streams desynced (later
        replies may still be in flight), so reusing the machine could hand a
        stale reply to the next command.
        """
        if self._failed is not None:
            raise RuntimeError(
                f"ProcessMachine is failed ({self._failed}); result queues "
                f"may hold stale replies — create a fresh machine"
            )
        deadline = time.monotonic() + self.timeout
        res_queue = self._res_queues[rank]
        while True:
            try:
                msg = res_queue.get(timeout=0.1)
            except queue_lib.Empty:
                worker = self._workers[rank]
                if not worker.is_alive():
                    raise RuntimeError(
                        f"worker rank {rank} died while executing "
                        f"{expected!r} (exitcode {worker.exitcode})"
                    ) from None
                if time.monotonic() > deadline:
                    self._failed = f"rank {rank} timed out on {expected!r}"
                    raise RuntimeError(
                        f"worker rank {rank} timed out after "
                        f"{self.timeout:.1f}s waiting for {expected!r}"
                    ) from None
                continue
            if msg[0] == "error":
                _, cmd, err, tb = msg
                self._failed = f"rank {rank} error during {cmd!r}"
                raise RuntimeError(
                    f"worker rank {rank} failed during {cmd!r}: {err}\n{tb}"
                )
            if msg[0] != expected:
                self._failed = (
                    f"rank {rank} protocol mismatch ({expected!r} vs {msg[0]!r})"
                )
                raise RuntimeError(
                    f"worker rank {rank} protocol mismatch: expected "
                    f"{expected!r}, got {msg[0]!r}"
                )
            return msg

    def merge_cost_payload(self, rank: int, payload: dict) -> None:
        """Fold a worker-side tracker delta into ``rank``'s master tracker.

        Horizontal words/messages are charged by the master-side collectives
        only, so just the compute-side counters travel back.
        """
        tracker = self.tracker(rank)
        for category, flops in payload.get("flops", {}).items():
            tracker.add_flops(category, flops)
        for category, words in payload.get("vertical_words", {}).items():
            tracker.add_vertical_words(words, category)
        for category, seconds in payload.get("seconds", {}).items():
            tracker.add_seconds(category, seconds)

    # -- substrate -------------------------------------------------------------
    def attach(self, grid, dist_tensor, dist_factors, mttkrp: str):
        """The ranks of one distributed problem on this machine, in its
        workers (a :class:`~repro.distributed.runtime.ProcessRuntime`)."""
        from repro.distributed.runtime import ProcessRuntime

        return ProcessRuntime(self, grid, dist_tensor, dist_factors, mttkrp)

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Shut workers down and unlink every owned segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer()

    def __enter__(self) -> "ProcessMachine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "closed" if self._closed else "open"
        return f"ProcessMachine(n_ranks={self.n_ranks}, {status})"
