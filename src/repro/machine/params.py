"""BSP machine parameters (alpha, beta, gamma, nu).

The defaults of :meth:`MachineParams.knl_like` are calibrated to the
Stampede2 Knight's Landing nodes the paper benchmarks on (Section V-A):
~3 GF/s effective per-core dgemm-like throughput per MPI process when 16
processes share a 68-core node, ~90 GB/s MCDRAM-backed streaming bandwidth per
node shared by 16 processes, and a 100 Gb/s Omni-Path fat-tree network.  The
absolute values only set the time scale; the experiments reproduce relative
behaviour (speed-up factors and scaling shape), which is insensitive to
modest calibration error.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MachineParams"]


@dataclass(frozen=True)
class MachineParams:
    """Cost-model parameters of the BSP alpha-beta-gamma-nu model.

    Attributes
    ----------
    alpha:
        Seconds per message (latency).
    beta:
        Seconds per 8-byte word moved between processors (horizontal
        bandwidth).
    gamma:
        Seconds per floating point operation.
    nu:
        Seconds per 8-byte word moved between main memory and cache (vertical
        bandwidth).
    cache_words:
        Cache size ``H`` in 8-byte words; the paper assumes
        ``nu <= gamma * sqrt(H)``.
    alpha_hop:
        Seconds per master<->worker process-hop message (one command or reply
        crossing the ``multiprocessing`` queue, including its pickling).
        Zero by default so the pure BSP model is unchanged; calibrate it from
        measured runs with :mod:`repro.machine.calibrate` when modeling
        ``execution="process"`` sweeps.
    beta_hop:
        Seconds per 8-byte word of process-hop payload (shared-memory panel
        publishes and master-side reads of worker output panels).  Zero by
        default, calibrated like ``alpha_hop``.
    """

    alpha: float = 2.0e-6
    beta: float = 1.0e-8
    gamma: float = 8.0e-12
    nu: float = 3.2e-10
    cache_words: int = 4 * 1024 * 1024
    alpha_hop: float = 0.0
    beta_hop: float = 0.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "nu", "alpha_hop", "beta_hop"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.cache_words <= 0:
            raise ValueError("cache_words must be positive")
        # Ordering sanity checks (alpha >> beta >> gamma in the paper's model);
        # only enforced when both quantities are positive so that degenerate
        # presets (compute_only / communication_only) remain constructible.
        if self.alpha > 0 and self.beta > 0 and self.alpha < self.beta:
            raise ValueError("expected alpha >= beta (latency dominates per-word cost)")
        if self.beta > 0 and self.gamma > 0 and self.beta < self.gamma:
            raise ValueError("expected beta >= gamma (communication costs more than a flop)")

    # -- presets -----------------------------------------------------------
    @classmethod
    def knl_like(cls) -> "MachineParams":
        """Parameters loosely calibrated to Stampede2 KNL (16 procs/node, 4 threads).

        gamma ~ 125 GF/s of effective threaded BLAS throughput per MPI
        process, nu ~ 25 GB/s of MCDRAM streaming bandwidth per process, beta
        ~ 0.8 GB/s of Omni-Path bandwidth per process, alpha ~ 2 microseconds
        per message.  The calibration reproduces the per-sweep magnitudes and
        speed-up factors of the paper's Figure 3 to within tens of percent;
        ``docs/execution.rst`` ("Measured vs modeled, and hop calibration")
        shows how to fit parameters to the machine at hand.
        """
        return cls(alpha=2.0e-6, beta=1.0e-8, gamma=8.0e-12, nu=3.2e-10,
                   cache_words=2 * 1024 * 1024)

    @classmethod
    def container_like(cls) -> "MachineParams":
        """Parameters for the executed container-scale benchmarks.

        Single-threaded numpy on small blocks sustains on the order of 1 GF/s
        per "processor", so gamma is much larger than on a KNL node; using
        this preset keeps the *executed* small-scale weak-scaling runs
        compute-dominated, which is the regime the paper's Figure 3 measures.
        """
        return cls(alpha=1.0e-6, beta=5.0e-9, gamma=1.0e-9, nu=2.0e-9,
                   cache_words=512 * 1024)

    @classmethod
    def compute_only(cls) -> "MachineParams":
        """All communication free — isolates the flop terms (used in tests)."""
        return cls(alpha=0.0, beta=0.0, gamma=1.0, nu=0.0, cache_words=1)

    @classmethod
    def communication_only(cls) -> "MachineParams":
        """All computation free — isolates the communication terms (used in tests)."""
        return cls(alpha=1.0, beta=1.0, gamma=0.0, nu=0.0, cache_words=1)

    def scaled(self, factor: float) -> "MachineParams":
        """Uniformly scale all per-unit costs (changes the time unit only)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return MachineParams(
            alpha=self.alpha * factor,
            beta=self.beta * factor,
            gamma=self.gamma * factor,
            nu=self.nu * factor,
            cache_words=self.cache_words,
            alpha_hop=self.alpha_hop * factor,
            beta_hop=self.beta_hop * factor,
        )
