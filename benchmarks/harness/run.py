"""Wall-clock benchmark of CP-ALS, MSDT and PP: one workload per process.

    python3 benchmarks/harness/run.py --workload dense4_collinear --seed 1 \
        --seconds 20 --trace 0

prints a report and, as the last line of standard output, one JSON object
with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  ``--selfcheck N`` runs two sets of N runs of every workload
and prints how well they agree.  See README.md in this directory.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS before NumPy is imported: the container has two cores, and the
# protocol allows no more runnable threads than that.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NUMPY_WAS_LOADED = "numpy" in sys.modules
for _name in BLAS_ENV:
    os.environ[_name] = "1"
# NumPy asks the kernel for transparent huge pages for every large array.
# Whether it gets them depends on how fragmented the machine's memory is at
# that moment: memory-bound kernels then run up to 30 % faster or not, and
# peak RSS moves by tens of MB, from one run of the same commit to the next.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import atexit  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parents[1] / "src"

EXIT_FAILED_CHECK = 1
EXIT_NO_PROGRAM = 2
EXIT_BLAS_NOT_PINNED = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the names in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1,
                        help="generates the inputs and initial-factor seeds")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed rounds run (at least 8 rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run the per-layer probes and the traced run")
    parser.add_argument("--trace-out", help="write the traced run's spans here")
    parser.add_argument("--report-out", help="write the full report (JSON) here "
                        "(with --selfcheck: a directory that keeps every run's)")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny tensors, two rounds: a smoke test, not a measurement")
    parser.add_argument("--selfcheck", type=int, metavar="N",
                        help="run two sets of N >= 5 runs per workload and compare them")
    return parser.parse_args(argv)


def blas_threads_in_force() -> int:
    """OS threads of this process after a BLAS call big enough to fan out."""
    import numpy as np

    a = np.ones((600, 600))
    a @ a
    return len(os.listdir("/proc/self/task"))


def child_pids() -> list[int]:
    """Children of this process, running or not yet waited for (``/proc``)."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue  # ended while we were looking
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    ``execution="process"`` (the traced run of ``parallel_p4``) goes through
    ``multiprocessing``, whose resource tracker ends only after its parent
    has: left alone it outlives the run.  Closing its pipe lets it end in good
    order (it ignores SIGTERM); any other child still there is killed.

    Runs as an exit handler registered before anything imports
    ``multiprocessing``, hence after that module's own exit handler has joined
    its workers and released its queues' semaphores: stopped any earlier, the
    tracker takes those semaphores for leaked and unlinks them itself, and
    their release then fails or starts a new tracker.
    """
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"),
                      "_resource_tracker", None)
    try:
        tracker._stop()
    except Exception:  # no tracker, or an interpreter without _stop()
        pass
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:
            pass  # ended, or waited for, in the meantime


def fingerprint(args, kernel_backend, threads: int) -> dict:
    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "blas_threads_in_force": threads,
        "sparse_kernel_backend": kernel_backend,
        "seed": args.seed,
        "tiny": args.tiny,
    }


def measure(args, threads: int) -> tuple[dict, object]:
    """Run one workload; returns ``(report, tracer or None)``."""
    import layers
    from metrics import END_TO_END, PER_LAYER
    from protocol import MIN_ROUNDS, Tally, run_rounds
    from refkernels import REF_NOMINAL_S
    from tracing import Tracer
    from workloads import WORKLOADS

    tracing = bool(args.trace)
    tally = Tally()
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    operations = workload.operations()
    if tracing:
        workload.probes.prepare()
        operations.append(workload.probes.operation())
        layers.probe(workload.errors, "sparse.csf_cache", layers.reset_csf_cache_counts)
    samples, payloads, rounds = run_rounds(
        operations, args.seconds, 2 if args.tiny else MIN_ROUNDS, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = samples.ref_scale(workload.reference)

    def norm(seconds):
        return seconds * scale

    # -- end to end: the same derivation under each statistic ----------
    raw = {stat: workload.end_to_end(samples, getattr(samples, stat), payloads)
           for stat in ("min", "median", "q1", "q3")}
    end_to_end = {}
    for name, (unit, _) in END_TO_END.items():
        if name == "peak_rss_mb":
            end_to_end[name] = {"value": peak_rss_mb, "unit": unit}
            continue
        end_to_end[name] = {
            "value": norm(raw["min"][name]), "unit": unit,
            "raw": {stat: raw[stat][name] for stat in raw},
        }
    workload.checks(payloads, tally)

    # -- per layer ------------------------------------------------------
    layer = dict.fromkeys(PER_LAYER)
    layer.update({f"ref.{k}_s": samples.min(f"ref.{k}") for k in REF_NOMINAL_S})
    layer.update({f"raw.{name}": value for name, value in raw["min"].items()})
    layer["raw.peak_rss_mb"] = peak_rss_mb
    layer["rounds"] = rounds
    layer.update(workload.layer_values(samples, payloads, norm))
    tracer = None
    if tracing:
        layer.update(workload.probes.values(
            samples, payloads, norm, workload.probed_dt_sweep(
                samples, payloads, raw["min"]["dt_sweep_s"])))
        layer["sparse.csf_cache_hit_ratio"] = layers.probe(
            workload.errors, "sparse.csf_cache", layers.csf_cache_hit_ratio)
        tracer = Tracer()
        layer.update(workload.traced_run(tracer, samples, payloads, tally, norm))
    layer.update(workload.facts)
    kernel_backend = workload.probes.kernel_backend()

    extra = sorted(set(layer) - set(PER_LAYER))
    report = {
        "workload": workload.name,
        "reference": workload.reference,
        "ref_nominal_s": REF_NOMINAL_S[workload.reference],
        "rounds": rounds,
        "end_to_end": end_to_end,
        "per_layer": {name: {"value": layer[name], "unit": PER_LAYER[name][0]}
                      for name in PER_LAYER},
        "notes": {name: layer[name] for name in extra},
        "ops_attempted": tally.attempted,
        "ops_failed": tally.failed,
        "failed_checks": tally.reasons,
        "layer_probe_errors": workload.errors.lines,
        "env": fingerprint(args, kernel_backend, threads),
    }
    return report, tracer


def print_report(report: dict, tracing: bool) -> None:
    env = report["env"]
    print(f"workload {report['workload']}  seed {env['seed']}  rounds {report['rounds']}"
          f"  reference {report['reference']} (nominal {report['ref_nominal_s']} s)")
    print("env " + json.dumps(env, sort_keys=True))
    print("end-to-end (value = raw min x nominal / reference min):")
    for name, entry in report["end_to_end"].items():
        line = f"  {name:<22}{entry['value']:>14.6g} {entry['unit']}"
        if "raw" in entry:
            r = entry["raw"]
            line += (f"   raw.min {r['min']:.6g}  raw.median {r['median']:.6g}"
                     f"  raw.q1 {r['q1']:.6g}  raw.q3 {r['q3']:.6g}")
        print(line)
    if tracing:
        print("per-layer (null: the layer is idle on this workload):")
        for name, entry in report["per_layer"].items():
            value = entry["value"]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"  {name:<30}{shown:>14} {entry['unit']}")
        for name, value in report["notes"].items():
            print(f"  note {name} = {value}")
    print(f"ops_attempted {report['ops_attempted']}  ops_failed {report['ops_failed']}")
    for line in report["failed_checks"]:
        print(f"failed_check {line}")
    for line in report["layer_probe_errors"]:
        print(f"layer_probe_errors {line}")


def contract_line(report: dict, tracing: bool) -> str:
    """The last line of standard output: numbers only, so an idle layer's
    ``null`` (and a probe that could not run) reads 0 there."""
    section = report["per_layer"] if tracing else report["end_to_end"]
    metrics = {}
    for name, entry in section.items():
        value = entry["value"]
        if value is None or not math.isfinite(value):
            value = 0.0
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return json.dumps({
        "correct": report["ops_failed"] == 0,
        "attempted": report["ops_attempted"],
        "failed": report["ops_failed"],
        "metrics": metrics,
    })


def main(argv=None) -> int:
    atexit.register(stop_children)  # first, so that it runs last
    args = parse_args(argv)
    if args.selfcheck is not None:
        import selfcheck

        return selfcheck.main(args)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SOURCE}/repro is missing", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(SOURCE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"--workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    threads = blas_threads_in_force()
    if NUMPY_WAS_LOADED or threads != 1:
        print(f"BLAS threads could not be pinned: {threads} OS threads after a "
              "matmul (NumPy was imported before the harness set "
              f"{'/'.join(BLAS_ENV)})", file=sys.stderr)
        return EXIT_BLAS_NOT_PINNED

    report, tracer = measure(args, threads)
    print_report(report, bool(args.trace))
    if args.report_out:
        Path(args.report_out).write_text(json.dumps(report, indent=1))
    if tracer is not None and args.trace_out:
        tracer.write(args.trace_out, {k: report[k] for k in
                                      ("workload", "reference", "env")})
    print(contract_line(report, bool(args.trace)))
    return EXIT_FAILED_CHECK if report["ops_failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
