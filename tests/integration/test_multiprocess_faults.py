"""Fault injection for the multi-process execution layer.

A real worker process can die (OOM killer, segfault in a native library,
operator SIGKILL) or wedge at any point of a sweep.  The contract pinned
here: the master surfaces a clean ``RuntimeError`` naming the dead rank
within the machine's timeout — never a hang — and every
``multiprocessing.shared_memory`` segment this repo created is unlinked no
matter how the run ends (success, worker death, a master-side exception, or
a ``KeyboardInterrupt``).  Leak checks go through
:func:`repro.comm.procs.leaked_segments`, which scans ``/dev/shm`` for the
``repro-mp-`` prefix, so they see exactly what the OS sees.
"""

import importlib
import os
import signal
import time

import numpy as np
import pytest

from repro.comm.procs import ProcessMachine, leaked_segments
from repro.core.options import ParallelOptions
from repro.core.parallel_cp_als import parallel_cp_als
from repro.data import sparse_low_rank_tensor

#: the module whose ``residual_from_mttkrp`` the parallel sweeps call once per
#: sweep (:class:`repro.core.parallel_common.ParallelRun`)
_driver_module = importlib.import_module("repro.core.parallel_common")


@pytest.fixture(scope="module")
def coo():
    return sparse_low_rank_tensor((12, 10, 8), rank=2, density=0.3,
                                  noise=0.05, seed=3)


def _run(coo, machine=None, **fields):
    """A process run: on ``machine`` when given, else on a fresh one."""
    options = ParallelOptions(**{
        "rank": 2, "grid": (1, 1, 2), "n_sweeps": 3, "tol": 0.0, "mttkrp": "dt",
        "seed": 0, "partitioner": "nnz-balanced", "execution": "process", **fields,
    })
    return parallel_cp_als(coo, options, machine=machine)


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test in this module must leave /dev/shm clean."""
    assert leaked_segments() == []
    yield
    assert leaked_segments() == []


class TestWorkerDeath:
    def test_sigkill_before_run_raises_cleanly(self, coo):
        with ProcessMachine(2, timeout=30.0) as machine:
            os.kill(machine.worker_pid(1), signal.SIGKILL)
            start = time.perf_counter()
            # depending on when the kernel reaps the worker, the death is seen
            # either at send time ("is dead") or while awaiting the reply
            # ("died while executing") — both are the clean-error contract
            with pytest.raises(RuntimeError, match="rank 1 (is dead|died)"):
                _run(coo, machine=machine)
            # death is detected by polling liveness, not by the full timeout
            assert time.perf_counter() - start < machine.timeout

    def test_sigkill_mid_sweep_raises_cleanly(self, coo, monkeypatch):
        """Kill a worker while the driver is between sweeps: the next offload
        to that rank must surface a RuntimeError, and teardown must still
        reclaim every segment (the autouse fixture checks)."""
        machine = ProcessMachine(2, timeout=30.0)
        from repro.tensor import norms

        real = norms.residual_from_mttkrp
        state = {"killed": False}

        def kill_then_continue(*args, **kwargs):
            if not state["killed"]:
                state["killed"] = True
                os.kill(machine.worker_pid(0), signal.SIGKILL)
            return real(*args, **kwargs)

        monkeypatch.setattr(_driver_module, "residual_from_mttkrp",
                            kill_then_continue)
        try:
            start = time.perf_counter()
            with pytest.raises(RuntimeError, match="rank 0 (is dead|died)"):
                _run(coo, machine=machine)
            assert time.perf_counter() - start < machine.timeout
            assert not machine.alive(0)
            assert machine.alive(1)
        finally:
            machine.close()

    def test_wait_timeout_is_bounded(self):
        """A wedged (alive but silent) worker trips the timeout, not a hang."""
        with ProcessMachine(1, timeout=1.0) as machine:
            start = time.perf_counter()
            with pytest.raises(RuntimeError, match="timed out"):
                machine.wait(0, "ping")  # nothing was sent: no reply ever comes
            elapsed = time.perf_counter() - start
            assert 0.5 <= elapsed < 10.0

    def test_worker_exception_carries_traceback(self):
        """A command the worker cannot execute produces a master-side
        RuntimeError embedding the worker's own traceback."""
        with ProcessMachine(1) as machine:
            machine.send(0, ("mttkrp", 0))  # no init: worker has no provider
            with pytest.raises(RuntimeError, match="worker rank 0"):
                machine.wait(0, "mttkrp")


class TestFailedMachine:
    """Error replies, timeouts and protocol mismatches leave replies in
    flight, so they mark the whole machine :attr:`failed` — reusing it could
    hand a stale reply to the next command (the bug this class pins)."""

    def test_desynced_queue_marks_machine_failed(self):
        """Deliberately desync the reply stream: a ping answered while the
        master expects an mttkrp is a protocol mismatch, and every later
        send/wait must refuse rather than consume the stale reply."""
        with ProcessMachine(1) as machine:
            machine.send(0, ("ping",))
            with pytest.raises(RuntimeError, match="protocol mismatch"):
                machine.wait(0, "mttkrp")
            assert machine.failed is not None
            assert "protocol mismatch" in machine.failed
            with pytest.raises(RuntimeError, match="stale replies"):
                machine.send(0, ("ping",))
            with pytest.raises(RuntimeError, match="stale replies"):
                machine.wait(0, "ping")

    def test_worker_error_marks_machine_failed(self):
        with ProcessMachine(1) as machine:
            assert machine.failed is None
            machine.send(0, ("mttkrp", 0))  # no init: the worker errors
            with pytest.raises(RuntimeError, match="worker rank 0"):
                machine.wait(0, "mttkrp")
            assert "error during" in machine.failed
            with pytest.raises(RuntimeError, match="stale replies"):
                machine.send(0, ("ping",))

    def test_timeout_marks_machine_failed(self):
        with ProcessMachine(1, timeout=0.5) as machine:
            with pytest.raises(RuntimeError, match="timed out"):
                machine.wait(0, "ping")  # nothing sent: no reply ever comes
            assert "timed out" in machine.failed

    def test_worker_death_does_not_mark_failed(self):
        """A dead rank's queue holds nothing stale — death must stay
        recoverable (test_machine_reuse_after_failed_run relies on the
        machine staying nominally open after master-side failures)."""
        with ProcessMachine(2, timeout=30.0) as machine:
            os.kill(machine.worker_pid(1), signal.SIGKILL)
            with pytest.raises(RuntimeError, match="rank 1 (is dead|died)"):
                machine.send(1, ("ping",))
                machine.wait(1, "ping")
            assert machine.failed is None
            machine.send(0, ("ping",))  # surviving rank still reachable
            assert machine.wait(0, "ping")[1] == 0


class TestLeakAuditPlatformGuard:
    def test_missing_dev_shm_raises_not_falsely_clean(self, monkeypatch):
        """Without /dev/shm (macOS, Windows) the audit has nothing to scan;
        an empty list would read as "no leaks" when nothing was checked."""
        import repro.comm.procs as procs_module

        real_isdir = os.path.isdir
        monkeypatch.setattr(
            procs_module.os.path, "isdir",
            lambda path: False if path == "/dev/shm" else real_isdir(path),
        )
        with pytest.raises(RuntimeError, match="unsupported on this platform"):
            leaked_segments()


class TestSegmentLifecycle:
    def test_success_leaves_no_segments(self, coo):
        result = _run(coo)
        assert result.n_sweeps == 3

    def test_master_side_failure_leaves_no_segments(self, coo, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("injected master-side failure")

        monkeypatch.setattr(_driver_module, "residual_from_mttkrp", boom)
        with pytest.raises(RuntimeError, match="injected"):
            _run(coo)

    def test_keyboard_interrupt_leaves_no_segments(self, coo, monkeypatch):
        """Ctrl-C mid-run: the drivers' finally blocks must tear down the
        owned machine (workers, queues, shared segments) before re-raising."""
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(_driver_module, "residual_from_mttkrp", interrupt)
        with pytest.raises(KeyboardInterrupt):
            _run(coo)

    def test_machine_tracks_and_releases_segments(self):
        machine = ProcessMachine(1)
        try:
            name = machine.create_segment(128, "probe").name
            assert name in machine.segment_names()
            assert name in leaked_segments()  # live while the machine holds it
            machine.release_segment(name)
            assert name not in machine.segment_names()
            assert leaked_segments() == []
        finally:
            machine.close()

    def test_close_reclaims_outstanding_segments(self):
        machine = ProcessMachine(1)
        machine.create_segment(128, "orphan")
        machine.close()
        assert leaked_segments() == []


class TestCloseSemantics:
    def test_close_is_idempotent(self):
        machine = ProcessMachine(2)
        machine.close()
        machine.close()
        assert machine.closed

    def test_send_after_close_raises(self):
        machine = ProcessMachine(1)
        machine.close()
        with pytest.raises(RuntimeError, match="closed"):
            machine.send(0, ("ping",))

    def test_context_manager_closes(self, coo):
        with ProcessMachine(2) as machine:
            result = _run(coo, machine=machine)
            assert np.isfinite(result.residual)
        assert machine.closed
        with pytest.raises(RuntimeError):
            machine.send(0, ("ping",))

    def test_machine_reuse_after_failed_run(self, coo, monkeypatch):
        """A master-side failure must not poison an externally-owned machine:
        the runtime detaches, and the same workers serve the next run."""
        from repro.tensor.norms import residual_from_mttkrp as real

        calls = {"n": 0}

        def fail_once(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(_driver_module, "residual_from_mttkrp", fail_once)
        with ProcessMachine(2) as machine:
            with pytest.raises(RuntimeError, match="injected"):
                _run(coo, machine=machine)
            result = _run(coo, machine=machine)
            assert np.isfinite(result.residual)
