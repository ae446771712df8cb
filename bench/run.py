"""QFI-engine benchmark: one command, three seeded closed-loop workloads.

    python3 bench/run.py --workload closed-scan --seed 1 --seconds 20 --trace 0

Run from the repository root.  --trace 0 measures the end-to-end metrics
(several fresh workers measure setup_s; one of them then runs the timed loop);
--trace 1 runs the workload's fixed op list in two fresh workers, untraced
and traced, and reports the per-layer metrics.  Each
worker is started with OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1.  The last
line of stdout is the result object; the line before it holds the full
record (environment, sample counts, digest), which is also written to
.bench_out/.  See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("closed-scan", "oracle-dense", "stepped-evolution")
BLAS_THREADS = "1"
SETUP_WORKERS = 7  # setup_s is the median over this many fresh processes
IMPORT_REPEATS = 3
IMPORT_MODULES = {
    "import.sagnac_qfi_ms": "sagnac_qfi",
    "import.scipy_integrate_ms": "scipy.integrate",
    "import.scipy_linalg_ms": "scipy.linalg",
    "import.scipy_special_ms": "scipy.special",
}
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def _remaining(started: float) -> float:
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise BenchError("time budget exhausted")
    return left


def _worker(started: float, *args: str) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--out-dir", str(OUT_DIR), *args]
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=_remaining(started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _import_times(started: float) -> dict:
    """Cumulative import time of each module, median over fresh interpreters,
    from `python -X importtime`.  Nested imports overlap: scipy.linalg is
    counted again inside whichever module imported it first.  A module that
    `import sagnac_qfi` does not import costs it nothing and reads 0."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_MODULES}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import sagnac_qfi"],
            env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=_remaining(started),
        )
        if proc.returncode != 0:
            raise BenchError(f"import failed:\n{proc.stderr[-2000:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, module = line.split("|")
                if cum.strip().isdigit():
                    cumulative.setdefault(module.strip(), int(cum) / 1e3)
        if "sagnac_qfi" not in cumulative:
            raise BenchError("sagnac_qfi missing from -X importtime output")
        for name, module in IMPORT_MODULES.items():
            samples[name].append(cumulative.get(module, 0.0))
    return {name: (statistics.median(vals), "ms") for name, vals in samples.items()}


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    started = time.monotonic()
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [_worker(started, *common, "--mode", "setup") for _ in range(SETUP_WORKERS - 1)]
    run = _worker(started, *common, "--mode", "timed", "--seconds", str(seconds))
    setup_samples = [w["setup_s"] for w in setups] + [run["setup_s"]]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (run["ops_per_s"], "1/s"),
        "op_p50_ms": (run["op_p50_ms"], "ms"),
        "op_p90_ms": (run["op_p90_ms"], "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    detail = {
        "setup_samples_s": setup_samples,
        "warmup_ok": all(w["warmup_ok"] for w in setups + [run]),
        "error_rate": run["failed"] / run["attempted"],
        **{k: run[k] for k in (
            "attempted", "failed", "samples", "samples_beyond_p90", "blocks", "block_rates",
            "loop_wall_s", "check_s", "digest_ops", "digest", "environment",
        )},
    }
    return metrics, detail


def measure_traced(workload: str, seed: int) -> tuple[dict, dict]:
    started = time.monotonic()
    common = ["--workload", workload, "--seed", str(seed)]
    baseline = _worker(started, *common, "--mode", "untraced")
    run = _worker(started, *common, "--mode", "traced")
    metrics = {name: tuple(value) for name, value in run["metrics"].items()}
    metrics["trace.ops_per_s_untraced"] = (baseline["ops_per_s"], "1/s")
    metrics.update(_import_times(started))
    attempted = baseline["attempted"] + run["attempted"]
    failed = baseline["failed"] + run["failed"]
    detail = {
        "warmup_ok": baseline["warmup_ok"] and run["warmup_ok"],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        **{k: run[k] for k in ("traced_ops", "spans", "spans_file", "layers_without_calls",
                               "environment")},
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sagnac_qfi" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'sagnac_qfi'}; "
              f"run from a checkout of the repository", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, detail = measure_traced(args.workload, args.seed)
        else:
            metrics, detail = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = detail["warmup_ok"] and detail["failed"] == 0
    if detail.get("layers_without_calls"):
        print(f"error: layers recorded no calls: {detail['layers_without_calls']}",
              file=sys.stderr)
        correct = False
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "blas_threads": BLAS_THREADS,
        **detail,
    }
    result = {
        "correct": correct,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
