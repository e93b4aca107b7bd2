"""One measured process of a benchmark run; `run.py` starts it.

It imports dmcp from --src, builds the workload's inputs from the seed, runs
one warm-up op and then whole blocks of ops until --seconds of op time and the
workload's minimum op count are reached. Each op's output is checked after its
clock stops. With --trace 1 every dmcp layer is wrapped (see `spans.py`), and
afterwards the same ops are replayed untraced to measure the tracing overhead.
The result goes to --result as JSON.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def machine_facts() -> dict:
    import numpy
    import scipy

    def read(path):
        try:
            return Path(path).read_text(encoding="utf-8").strip()
        except OSError:
            return "unknown"

    model = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind = read(f"{base}/level"), read(f"{base}/type")
        if level in ("2", "3") and kind == "Unified":
            caches[f"L{level}"] = read(f"{base}/size")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        **caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_op(workload, op):
    """Time one op; return (seconds, output, error message or None)."""
    t0 = time.perf_counter()
    try:
        out = workload.run(op)
    except Exception as exc:  # a failed op is counted, never retried
        return time.perf_counter() - t0, None, f"{op['kind']}: {type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, None


def check_op(workload, op, out) -> str | None:
    try:
        workload.check(op, out)
    except Exception as exc:  # any exception while checking means the output is wrong
        return f"{op['kind']}: wrong output: {type(exc).__name__}: {exc}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--src", required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--t0", type=float, required=True, help="perf_counter of the parent at spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--blocks", type=int, default=0, help="run exactly this many blocks")
    args = parser.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import dmcp

    if not Path(dmcp.__file__).resolve().is_relative_to(src):
        print(f"dmcp imported from {dmcp.__file__}, not from {src}", file=sys.stderr)
        return 3
    import spans
    import workloads

    tmp = Path(args.tmp)
    tracer = spans.Tracer()
    if args.trace:
        tracer.install()
    kind = workloads.WORKLOADS[args.workload]

    tracer.recording = bool(args.trace)
    t_start = time.perf_counter()
    workload = kind(args.seed, tmp, in_process=bool(args.trace))
    warm = workload.warmup()
    _, warm_out, warm_error = run_op(workload, warm)
    t_ready = time.perf_counter()
    tracer.recording = False
    result = {"setup_s": t_ready - args.t0}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0
    window = t_ready - t_start
    wrong = []
    if warm_error is None:
        warm_error = check_op(workload, warm, warm_out)
        if warm_error:
            wrong.append(warm_error)

    ops, log, errors = [], [], []
    digest = hashlib.sha256()
    block = busy = 0
    while (busy < args.seconds or len(log) < kind.min_ops) if not args.blocks else block < args.blocks:
        for op in workload.block(block):
            digest.update(json.dumps(op, sort_keys=True).encode())
            ops.append(op)
            tracer.recording = bool(args.trace)
            dt, out, error = run_op(workload, op)
            tracer.recording = False
            busy += dt
            if error is None:
                error = check_op(workload, op, out)
                if error:
                    wrong.append(error)
            if error:
                errors.append(error)
            log.append((op["kind"], dt, error is None))
        block += 1
    window += busy

    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" and not args.trace else resource.RUSAGE_SELF
    result.update({
        "ops": log,
        "blocks": block,
        "busy_s": busy,
        "fingerprint": digest.hexdigest(),
        "wrong": wrong,
        "errors": errors[:5],
        "warmup_error": warm_error,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "machine": machine_facts(),
        "mix": kind.MIX,
    })
    if args.trace:
        layers = tracer.layer_metrics(window)
        tracer.spans.clear()
        layers["cli.output_bytes"] = float(getattr(workload, "output_bytes", 0))
        layers["bench.traced_window_s"] = window
        layers["bench.trace_overhead_s"] = window - replay(tracer, kind, args.seed, tmp / "replay", ops)
        self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        gap = self_sum + layers["bench.unattributed_s"] - layers["bench.parallel_s"] - window
        if abs(gap) > 1e-6 * max(1.0, window):
            print(f"layer self times do not add up to the traced window (gap {gap:.3e} s)", file=sys.stderr)
            return 4
        result["layers"] = layers
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def replay(tracer, kind, seed: int, tmp: Path, ops) -> float:
    """Untraced time of the traced window's work: set-up, warm-up and the same ops."""
    tracer.uninstall()
    tmp.mkdir()
    t0 = time.perf_counter()
    workload = kind(seed, tmp, in_process=True)
    run_op(workload, workload.warmup())
    window = time.perf_counter() - t0
    for op in ops:
        window += run_op(workload, op)[0]
    return window


if __name__ == "__main__":
    sys.exit(main())
