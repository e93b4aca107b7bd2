"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs one block of every workload, traced and untraced, against the checkout's
`src/` and requires every output to pass its check. Then copies `src/dmcp`
once per mutant under `.bench_tmp/selftest/`, applies one source edit that
makes a propagator wrong, and requires every workload that uses that
propagator to report wrong outputs. Exits 0 when all of this holds.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from run import PINNED, ROOT, WORKER, WORKLOADS

# name: (file, original text, wrong text, workloads that must catch it)
MUTANTS = {
    # from |0> this one is invisible (the reversed product is X U X); Haar states see it
    "compose_grid multiplies steps in reverse order": (
        "dynamics.py", 'np.einsum("...ij,...jk->...ik", step, u)', 'np.einsum("...ij,...jk->...ik", u, step)',
        ("contour",)),
    "compose_grid makes every coupling 1% too strong": (
        "dynamics.py", "omega = seg.coupling * (1.0 + ce)", "omega = seg.coupling * (1.01 + ce)",
        ("contour", "design", "cli")),
    "nlevel_propagator multiplies steps in reverse order": (
        "nlevel.py", "u = expm(-1j * dt * h) @ u", "u = u @ expm(-1j * dt * h)", ("lift",)),
    "propagate_intensity stretches every segment by 1%": (
        "photonics.py", "half = 0.5 * og * z\n", "half = 0.5 * og * z * 1.01\n", ("design", "cli")),
}


def run_block(src: Path, tmp: Path, workload: str, trace: int) -> dict:
    tmp.mkdir(parents=True)
    result = tmp / "result.json"
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", "7", "--trace", str(trace),
           "--blocks", "1", "--src", str(src), "--tmp", str(tmp), "--result", str(result),
           "--t0", repr(time.perf_counter())]
    env = {**{k: v for k, v in os.environ.items() if k != "PYTHONPATH"}, **PINNED}
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=170, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}:\n{proc.stdout[-2000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def main() -> int:
    base = ROOT / ".bench_tmp" / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    problems = []
    try:
        for workload in WORKLOADS:
            for trace in (0, 1):
                out = run_block(ROOT / "src", base / f"control-{workload}-{trace}", workload, trace)
                unexpected = [e for e in out["errors"] if not e.startswith("area16:")]
                status = "ok" if not out["wrong"] and not unexpected else "FAIL"
                print(f"[{status}] unedited source, {workload}, trace={trace}: "
                      f"{len(out['ops'])} ops, wrong={out['wrong'][:1]}, errors={unexpected[:1]}")
                if status != "ok":
                    problems.append(f"{workload} trace={trace}")
        for k, (name, (file, old, new, catchers)) in enumerate(MUTANTS.items()):
            src = base / f"mutant-{k}" / "src"
            shutil.copytree(ROOT / "src" / "dmcp", src / "dmcp", ignore=shutil.ignore_patterns("__pycache__"))
            target = src / "dmcp" / file
            text = target.read_text(encoding="utf-8")
            if old not in text:
                problems.append(f"mutant {name!r}: text not found in {file}")
                continue
            target.write_text(text.replace(old, new), encoding="utf-8")
            for workload in catchers:
                out = run_block(src, base / f"mutant-{k}-{workload}", workload, 0)
                status = "ok" if out["wrong"] else "FAIL"
                print(f"[{status}] {name}: {workload} reports {len(out['wrong'])} wrong outputs "
                      f"in {len(out['ops'])} ops and the warm-up op, e.g. {out['wrong'][:1]}")
                if status != "ok":
                    problems.append(f"{name} not caught by {workload}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for problem in problems:
        print(f"self-test failure: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
