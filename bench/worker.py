"""Benchmark worker: one process, one caller, closed loop, no think time.

Started by run.py with the BLAS thread pins already in its environment.
Modes:

* ``setup``: import the package and run one warm-up op; report setup_s.
* ``timed``: setup, then run ops for --seconds (and at least MIN_OPS),
  timing each op and checking each output.
* ``traced``: setup, then run the workload's fixed count of ops with the
  tracer installed, and report per-layer metrics.
* ``untraced``: setup, then run the same fixed op list without the tracer;
  its rate against the traced worker's is the tracing overhead.  The two
  passes run in separate fresh processes, so neither sees caches the other
  filled.

Prints one JSON object as the last line of stdout.
"""

import time

START = time.perf_counter()  # before the package import: setup_s starts here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import sagnac_qfi  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100  # a timed run keeps going until it has this many latency samples
DIGEST_OPS = MIN_OPS  # outputs of the first ops go into the digest; every run has this many


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Runner:
    """Runs and checks ops of one workload, counting failures and the time
    spent in the benchmark's own output checks."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.check_s = 0.0

    def step(self, spec: dict, tracer=None, op_id: int = 0):
        """Run one op; return (latency in s, checked output bytes or None)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                output = self.workload.run(spec)
            else:
                with tracer.op(op_id):
                    output = self.workload.run(spec)
        except Exception:  # an op that raises counts as failed; keep measuring
            latency = time.perf_counter() - start
            self.failed += 1
            _log(f"op failed: {json.dumps(spec)}\n{traceback.format_exc()}")
            return latency, None
        end = time.perf_counter()
        try:
            return end - start, self.workload.check(spec, output)
        except CheckFailed as exc:
            self.failed += 1
            _log(f"op output wrong: {exc}: {json.dumps(spec)}")
            return end - start, None
        finally:
            self.check_s += time.perf_counter() - end


def _setup(name: str, seed: int, out_dir: Path):
    package = Path(sagnac_qfi.__file__).resolve()
    if not package.is_relative_to(ROOT / "src"):
        raise SystemExit(f"sagnac_qfi imported from {package}, not from {ROOT / 'src'}")
    workload = WORKLOADS[name](out_dir)
    runner = Runner(workload)
    runner.step(workload.warmup(seed))
    setup_s = time.perf_counter() - START
    warmup_ok = runner.failed == 0
    runner.attempted = runner.failed = 0
    runner.check_s = 0.0
    return runner, setup_s, warmup_ok


def _percentiles(latencies: list[float]) -> dict:
    cuts = statistics.quantiles(latencies, n=10)
    return {
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": cuts[8] * 1e3,
        "samples": len(latencies),
        "samples_beyond_p90": sum(1 for x in latencies if x > cuts[8]),
    }


def _openblas_runtime() -> list[dict]:
    """Version string and live thread count of each OpenBLAS that numpy and
    scipy ship, queried through its own C API."""
    import ctypes

    import numpy
    import scipy

    found = []
    for package in (numpy, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for suffix in ("64_", ""):
                threads = getattr(handle, f"scipy_openblas_get_num_threads{suffix}", None)
                config = getattr(handle, f"scipy_openblas_get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    found.append({
                        "package": package.__name__,
                        "config": config().decode(),
                        "threads": threads(),
                    })
                    break
    return found


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sagnac_qfi": sagnac_qfi.__version__,
        "blas_threads_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "openblas": _openblas_runtime(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def timed(runner: Runner, seed: int, seconds: float) -> dict:
    """Closed loop for `seconds` (and at least MIN_OPS ops).

    ops_per_s is ops / (loop wall time - time in output checks): the checks
    are the benchmark's, not the program's, so they are taken out.  The
    per-block rates, with their checks taken out the same way, stay in the
    record to show slow stretches of the host."""
    block = runner.workload.block
    latencies = []
    block_rates = []
    digest = hashlib.sha256()
    ops = runner.workload.ops(seed)
    start = block_start = time.perf_counter()
    block_check_s = 0.0
    while (now := time.perf_counter()) - start < seconds or len(latencies) < MIN_OPS:
        latency, output = runner.step(next(ops))
        latencies.append(latency)
        if len(latencies) <= DIGEST_OPS:
            digest.update(output if output is not None else b"<failed>")
            digest.update(b"\0")
        if len(latencies) % block == 0:
            now = time.perf_counter()
            block_rates.append(block / (now - block_start - (runner.check_s - block_check_s)))
            block_start, block_check_s = now, runner.check_s
    wall = now - start
    return {
        "ops_per_s": len(latencies) / (wall - runner.check_s),
        "loop_wall_s": wall,
        "check_s": runner.check_s,
        "blocks": len(block_rates),
        "block_rates": block_rates,
        **_percentiles(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest_ops": min(DIGEST_OPS, len(latencies)),
        "digest": digest.hexdigest(),
    }


def _trace_specs(runner: Runner, seed: int) -> list[dict]:
    return list(itertools.islice(runner.workload.ops(seed), runner.workload.trace_ops))


def untraced(runner: Runner, seed: int) -> dict:
    """The traced run's op list without the tracer, checks taken out."""
    specs = _trace_specs(runner, seed)
    start = time.perf_counter()
    for spec in specs:
        runner.step(spec)
    return {"ops_per_s": len(specs) / (time.perf_counter() - start - runner.check_s)}


def traced(runner: Runner, name: str, seed: int, out_dir: Path) -> dict:
    specs = _trace_specs(runner, seed)
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        for op_id, spec in enumerate(specs):
            runner.step(spec, tracer, op_id)
        traced_s = time.perf_counter() - start - runner.check_s
    finally:
        tracer.uninstall()
    metrics, missing = tracer.metrics(name, len(specs))
    metrics["trace.ops_per_s_traced"] = (len(specs) / traced_s, "1/s")
    spans_path = out_dir / f"spans-{name}-seed{seed}.json"
    tracer.write(spans_path)
    return {
        "metrics": metrics,
        "layers_without_calls": missing,
        "traced_ops": len(specs),
        "spans": len(tracer.spans),
        "spans_file": spans_path.name,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced", "untraced"),
                        required=True)
    parser.add_argument("--seconds", type=float, help="length of the timed loop")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    if args.mode == "timed" and args.seconds is None:
        parser.error("--mode timed needs --seconds")
    out_dir = Path(args.out_dir)

    runner, setup_s, warmup_ok = _setup(args.workload, args.seed, out_dir)
    result = {"setup_s": setup_s, "warmup_ok": warmup_ok}
    if args.mode == "timed":
        result.update(timed(runner, args.seed, args.seconds))
    elif args.mode == "traced":
        result.update(traced(runner, args.workload, args.seed, out_dir))
    elif args.mode == "untraced":
        result.update(untraced(runner, args.seed))
    if args.mode != "setup":
        result["environment"] = environment()
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
