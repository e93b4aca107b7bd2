"""Run one dmcp benchmark workload and print its metrics.

    python3 bench/run.py --workload contour --seed 1 --seconds 22 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`. With --trace 0 the last stdout line holds the end-to-end
metrics, with --trace 1 the per-layer ones (see README.md in this directory).
The line before it records the machine, the op mix and the op-list
fingerprint. Temporary files live under `.bench_tmp/` and are removed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("contour", "design", "lift", "cli")
SETUP_SAMPLES = 5  # fresh interpreters per run whose median is setup_s
START_SAMPLES = 5  # fresh interpreters per traced run for cli.interpreter_s / cli.import_s
HELD_OUT_SEED = 90001  # kept out of tuning; used only to check claims
TIMEOUT_S = 170  # the whole run must end within 180 s
FAILED_MS = 1e12  # latency reported when a percentile falls on failed ops (infinitely slow)
# One BLAS thread per process: load comes from one process with at most nproc threads.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation at rank p*(n+1), as statistics.quantiles does; inf allowed."""
    data = sorted(values)
    h = min(max(p * (len(data) + 1), 1.0), float(len(data)))
    lo = data[int(h) - 1]
    hi = data[min(int(h), len(data) - 1)]
    if math.isinf(lo) or math.isinf(hi):
        return lo if h == int(h) else math.inf
    return lo + (h - int(h)) * (hi - lo)


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + TIMEOUT_S
        self.tmp = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
        self.env = dict(os.environ, **PINNED, PYTHONPATH=str(ROOT / "src"))
        self.count = 0

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError(f"run exceeded {TIMEOUT_S} s")
        return left

    def worker(self, *extra: str) -> dict:
        self.count += 1
        tmp = self.tmp / f"w{self.count}"
        tmp.mkdir(parents=True)
        result = tmp / "result.json"
        cmd = [sys.executable, str(WORKER), "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--trace", str(self.args.trace),
               "--src", str(ROOT / "src"), "--tmp", str(tmp), "--result", str(result), *extra]
        t0 = time.perf_counter()
        proc = subprocess.run([*cmd, "--t0", repr(t0)], env=self.env, stdout=sys.stderr,
                              timeout=self.remaining())
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        return json.loads(result.read_text(encoding="utf-8"))

    def start_time(self, code: str) -> float:
        samples = []
        for _ in range(START_SAMPLES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=self.env, check=True, timeout=self.remaining())
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)


def end_to_end(run: dict, setup: list[float]) -> dict:
    latencies = [dt if ok else math.inf for _, dt, ok in run["ops"]]
    ok = sum(1 for _, _, good in run["ops"] if good)

    def ms(p):
        value = percentile(latencies, p)
        return FAILED_MS if math.isinf(value) else value * 1e3

    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ops_per_s": {"value": ok / run["busy_s"], "unit": "ops/s"},
        "op_p50_ms": {"value": ms(0.5), "unit": "ms"},
        "op_p90_ms": {"value": ms(0.9), "unit": "ms"},
        "success_rate": {"value": ok / len(latencies), "unit": "fraction"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MiB"},
    }


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last.endswith("_s"):
        return "s"
    if "bytes" in last:
        return "B"
    if last in ("converged_ratio",):
        return "fraction"
    if last in ("cells_per_call", "per_solve"):
        return "ratio"
    return "count"


def classes(run: dict) -> dict:
    by_kind: dict[str, list] = {}
    for kind, dt, ok in run["ops"]:
        by_kind.setdefault(kind, []).append(dt if ok else math.inf)
    summary = {}
    for kind, latencies in sorted(by_kind.items()):
        p50 = percentile(latencies, 0.5)
        summary[kind] = {"ops": len(latencies), "failed": sum(map(math.isinf, latencies)),
                         "p50_ms": None if math.isinf(p50) else p50 * 1e3}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="op time to measure per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "dmcp" / "__init__.py").is_file():
        print(f"no dmcp package under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    runner = Runner(args)
    try:
        if args.trace:
            interpreter = runner.start_time("pass")
            imported = runner.start_time("import dmcp.cli")
            run = runner.worker()
            setup = [run["setup_s"]]
        else:
            # set-up samples before and after the measured process, so that a
            # slow or fast phase of a shared machine does not set the median alone
            before = SETUP_SAMPLES // 2
            setup = [runner.worker("--setup-only")["setup_s"] for _ in range(before)]
            run = runner.worker()
            setup.append(run["setup_s"])
            setup += [runner.worker("--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - 1 - before)]
    except (RuntimeError, TimeoutError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.tmp, ignore_errors=True)

    if args.trace:
        layers = dict(run["layers"], **{"cli.interpreter_s": interpreter, "cli.import_s": imported - interpreter})
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
    else:
        metrics = end_to_end(run, setup)
    record = {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace, "seconds": args.seconds,
        "ops": len(run["ops"]), "blocks": run["blocks"], "busy_s": run["busy_s"],
        "fingerprint": run["fingerprint"], "setup_samples_s": setup, "classes": classes(run),
        "mix": run["mix"], "machine": run["machine"], "blas_env": PINNED,
        "errors": run["errors"], "wrong_outputs": run["wrong"][:5], "warmup_error": run["warmup_error"],
    }
    print(json.dumps({"record": record}))
    failed = sum(1 for _, _, ok in run["ops"] if not ok)
    print(json.dumps({"correct": not run["wrong"], "attempted": len(run["ops"]), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
