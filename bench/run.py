"""lazylab benchmark: one closed-loop client calling lazylab's public API.

Run from the root of a source checkout:

    python3 bench/run.py --workload trajectory --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the per-layer trace. Every answer's output is checked. The last stdout
line is the JSON result ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it give a run manifest and each metric by name and unit.
Workloads, metrics and their expected interactions are described in
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from functools import partial
from pathlib import Path

# One client on a few shared vCPUs: a BLAS thread per vCPU would measure the
# scheduler, not lazylab. Pin BLAS to one thread before numpy loads it, and
# keep what was found for the manifest.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS_FOUND = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import numpy as np  # noqa: E402
from reference import PROCESS_NOMINAL_S, Reference, process_seconds  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 11
MIN_ANSWERS = 100
# A run must end within 180 s; stop adding cycles well before that.
HARD_STOP_S = 120.0
PROBE_TIMEOUT_S = 60.0
WORK_DIR = ROOT / ".bench_work"


def _import_lazylab() -> None:
    """Import lazylab from this checkout's ``src/``; exit with an error if it is not there."""
    if not (SRC / "lazylab" / "__init__.py").is_file():
        sys.exit(f"error: no lazylab sources under {SRC}; run from a lazylab checkout")
    sys.path.insert(0, str(SRC))
    import lazylab

    if Path(lazylab.__file__).resolve().parent != SRC / "lazylab":
        sys.exit(f"error: imported lazylab from {lazylab.__file__}, not from {SRC}")


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def _run_answer(answer, tracer=None) -> tuple[float, bool]:
    """Time one answer, then check it with tracing paused. Returns (seconds, ok)."""
    call = answer.call if tracer is None else partial(tracer.answer, answer.call)
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    error = None
    try:
        result = call()
    except Exception:
        error = traceback.format_exc()
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    if error is not None:
        print(f"FAILED {answer.label}:\n{error}", file=sys.stderr)
        return dt, False
    try:
        answer.check(result)
    except Exception as exc:
        print(f"WRONG {answer.label}: {exc!r}", file=sys.stderr)
        return dt, False
    return dt, True


class Tally:
    """Answer times, work units and failures of one pass."""

    def __init__(self):
        self.times: list[float] = []
        self.cycles: list[tuple[list[float], int, float]] = []  # (answer times, work units, reference s)
        self.units = 0
        self.failed = 0

    def run_cycle(self, answers, tracer=None, reference: float = 1.0) -> None:
        times = []
        units = 0
        for answer in answers:
            dt, ok = _run_answer(answer, tracer)
            times.append(dt)
            units += answer.units
            self.failed += not ok
        self.times += times
        self.units += units
        self.cycles.append((times, units, reference))

    def normalized(self, nominal_s: float) -> tuple[list[float], float]:
        """Answer times at the reference's nominal speed, and the median cycle's work units per second."""
        times = [t * nominal_s / ref for cycle_times, _, ref in self.cycles for t in cycle_times]
        rate = statistics.median(units / sum(ts) * ref / nominal_s for ts, units, ref in self.cycles)
        return times, rate


def _setup_probe_seconds(workload: str, seed: int) -> float:
    """Fresh-process set-up time: spawn to the child's 'ready' line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, first line {line!r})")
    return elapsed


def _prepare(workload_cls, seed: int):
    """Build the inputs and warm up with one checked cycle.

    Returns the workload and the warm-up tally, whose failures count
    against the run (cycle 0 holds the once-per-run oracle check).
    """
    wl = workload_cls(ROOT, seed)
    warmup = Tally()
    warmup.run_cycle(wl.cycle(0))
    return wl, warmup


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _manifest(args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env_found": BLAS_THREADS_FOUND,
        "blas_threads_env_used": {k: os.environ[k] for k in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "git_commit": git_commit(),
    }


def measure(workload_cls, args) -> tuple[dict, int, int]:
    """End-to-end metrics with tracing off."""
    probes = []
    for _ in range(SETUP_PROBES):
        reference_s = process_seconds(ROOT)
        probes.append((_setup_probe_seconds(args.workload, args.seed), reference_s))
    setup = statistics.median(s * PROCESS_NOMINAL_S / ref for s, ref in probes)
    reference = Reference(workload_cls.REFERENCE, WORK_DIR)
    wl, warmup = _prepare(workload_cls, args.seed)
    tally = Tally()
    try:
        for _ in range(3):
            reference.seconds()
        t0 = time.perf_counter()
        k = 1
        while True:
            elapsed = time.perf_counter() - t0
            if elapsed >= HARD_STOP_S or (elapsed >= args.seconds and len(tally.times) >= MIN_ANSWERS):
                break
            tally.run_cycle(wl.cycle(k), reference=reference.seconds())
            k += 1
    finally:
        wl.close()
        reference.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times, rate = tally.normalized(reference.nominal_s)
    refs = [ref for _, _, ref in tally.cycles]
    print(f"timed: {len(times)} answers in {len(tally.cycles)} cycles; reference "
          f"{'+'.join(workload_cls.REFERENCE)} median {1e3 * statistics.median(refs):.4g} ms "
          f"(nominal {1e3 * reference.nominal_s:.4g} ms)")
    print(f"wall, not normalized: set-up {statistics.median(s for s, _ in probes):.4g} s, "
          f"answer p50 {1e3 * _percentile(tally.times, 50):.4g} ms, p90 {1e3 * _percentile(tally.times, 90):.4g} ms, "
          f"throughput {tally.units / sum(tally.times):.4g} {workload_cls.unit}/s")
    metrics = {
        "setup_s": (setup, "s"),
        "answer_p50_ms_norm": (1e3 * _percentile(times, 50), "ms"),
        "answer_p90_ms_norm": (1e3 * _percentile(times, 90), "ms"),
        "throughput_per_s_norm": (rate, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, len(warmup.times) + len(tally.times), warmup.failed + tally.failed


def measure_layers(workload_cls, args) -> tuple[dict, int, int]:
    """Per-layer metrics from interleaved untraced and traced passes."""
    from layertrace import BENCH_LAYER, GROUPS, LAPACK_ENTRY_POINTS, LAYERS, LayerTracer

    wl, warmup = _prepare(workload_cls, args.seed)
    tracer = LayerTracer()
    plain, traced = Tally(), Tally()
    self_s = dict.fromkeys(LAYERS + (BENCH_LAYER,), 0.0)
    group_s = dict.fromkeys(GROUPS, 0.0)
    reference = None
    rounds = 0
    tracer.install()
    try:
        t0 = time.perf_counter()
        while rounds < 2 or time.perf_counter() - t0 < min(args.seconds, HARD_STOP_S):
            plain.run_cycle(wl.cycle(0))
            tracer.reset()
            traced.run_cycle(wl.cycle(0), tracer)
            counts = tracer.counts()
            if reference is None:
                reference = counts
                first_units = traced.units
                calls = {layer: tracer.layer_calls(layer) for layer in LAYERS}
            elif counts != reference:
                raise RuntimeError(
                    "factorization and call counts differ between two traced passes over "
                    f"the same inputs:\nfirst:  {reference}\nround {rounds}: {counts}"
                )
            for layer, s in tracer.self_s.items():
                self_s[layer] += s
            for group, s in tracer.group_s.items():
                group_s[group] += s
            rounds += 1
    finally:
        tracer.uninstall()
        wl.close()

    n = len(traced.times)
    per_round = n // rounds
    ms = {name: 1e3 * seconds / n for name, seconds in {**self_s, **group_s}.items()}
    ref_calls = reference["calls"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_answer"] = (ms[layer], "ms")
        metrics[f"{layer}.calls_per_answer"] = (calls[layer] / per_round, "count")
    metrics[f"{BENCH_LAYER}.self_ms_per_answer"] = (ms[BENCH_LAYER], "ms")
    for name in LAPACK_ENTRY_POINTS:
        metrics[f"lapack.{name}_per_unit"] = (ref_calls.get(f"lapack.{name}", 0) / first_units, "count")
    metrics["lapack.gflop_computed_per_unit"] = (reference["flops"] / 1e9 / first_units, "GFLOP")
    metrics["states.validate_per_unit"] = (
        ref_calls.get("states.validate_density_matrix", 0) / first_units, "count")
    metrics["states.sampler_ms_per_answer"] = (ms["states.sampler"], "ms")
    for group in ("rate_bounds", "commutator", "correlations"):
        metrics[f"laziness.{group}_ms_per_answer"] = (ms[f"laziness.{group}"], "ms")
    metrics["statefile.load_ms_per_answer"] = (ms["statefile.load"], "ms")
    metrics["statefile.dump_ms_per_answer"] = (ms["statefile.dump"], "ms")
    metrics["statefile.bytes_read_per_unit"] = (reference["bytes_read"] / first_units, "B")
    metrics["statefile.bytes_written_per_unit"] = (reference["bytes_written"] / first_units, "B")
    metrics["trace.overhead_ratio"] = (_percentile(traced.times, 50) / _percentile(plain.times, 50), "ratio")
    metrics["trace.accounted_share"] = (sum(self_s.values()) / sum(traced.times), "ratio")
    attempted = len(warmup.times) + len(plain.times) + n
    return metrics, attempted, warmup.failed + plain.failed + traced.failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_lazylab()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]

    if args.setup_probe:
        wl = workload_cls(ROOT, args.seed)
        warmup = Tally()
        try:
            warmup.run_cycle(wl.warmup())
        finally:
            wl.close()
        if warmup.failed:
            return 1
        print("ready", flush=True)
        return 0

    measure_fn = measure_layers if args.trace else measure
    metrics, attempted, failed = measure_fn(workload_cls, args)

    print("manifest " + json.dumps(_manifest(args), sort_keys=True))
    print(f"{args.workload} ({workload_cls.unit}): {attempted} answers, {failed} failed, "
          f"failed_ratio {failed / attempted:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
