"""The four benchmark workloads: seeded op generation, execution and output checks.

An op is a JSON-able dict. `Workload.block(i)` returns the i-th block of ops;
every block has the same fixed class mix (stated in `MIX`), shuffled and
parameterised by the workload seed, so runs of different seeds do the same
kind of work. `run(op)` is the only part that is timed; `check(op, out)`
compares its output against `oracle` and raises on any disagreement.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import dmcp.catalog as catalog
import dmcp.cli as cli
import dmcp.dynamics as dynamics
import dmcp.nlevel as nlevel
import dmcp.photonics as photonics
import dmcp.robustness as robustness
import dmcp.synthesis as synthesis

import oracle as ref
from oracle import close, require

NAMES = tuple(catalog.SEQUENCE_CATALOG)
AREA_EPS = np.arange(-0.3, 0.3 + 0.0005, 0.001)  # README default, 601 points
LIFT_EPS = np.arange(-0.3, 0.3 + 0.0025, 0.005)  # `dmcp nlevel` default, 121 points
GAMMAS = np.arange(0.0, 0.2 + 0.0025, 0.005)  # `dmcp scan decoherence` default, 41 points


def haar(rng, dim: int) -> list[float]:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return [*v.real.tolist(), *v.imag.tolist()]


def amplitudes(packed) -> np.ndarray:
    half = len(packed) // 2
    return np.asarray(packed[:half]) + 1j * np.asarray(packed[half:])


def cells(rng, shape, count: int) -> list[list[int]]:
    return [[int(rng.integers(0, s)) for s in shape] for _ in range(count)]


def check_scan_file(path: Path, result, fmt: str) -> None:
    """A written scan parses back to the values it was made from."""
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        close(np.asarray(json.loads(text)["values"]), result.values, f"{path.name} values")
        return
    header, body = ref.parse_csv(text)
    require(header[:-1] == [ax.name for ax in result.axes], f"{path.name}: header {header}")
    require(body.shape[0] == result.values.size, f"{path.name}: {body.shape[0]} rows")
    close(body[:, -1], result.values.ravel(), f"{path.name} values")


def check_fidelity_cells(seq, result, states, metric: str, picks, realized) -> None:
    """Fidelity at picked (state row, column) cells against the scalar reference."""
    segs = ref.segments(seq)
    gate = ref.rotation_y(ref.target_angle(segs, seq.target_angle), len(states[0]))
    for row, col in picks:
        psi = states[row]
        want = ref.fidelity(metric, gate @ psi, realized(segs, col) @ psi)
        close(result.values[row, col], want, f"cell ({row}, {col})")


class Workload:
    name = ""
    min_ops = 100
    MIX: dict = {}

    def __init__(self, seed: int, tmp: Path, in_process: bool = False):
        self.seed = seed
        self.tmp = tmp
        self.in_process = in_process

    def rng(self, *key: int):
        return np.random.default_rng([self.seed, *key])

    def block(self, index: int, stream: int = 1) -> list[dict]:
        """Ops of block `index`; stream 0 is reserved for the warm-up op."""
        rng = self.rng(stream, index)
        ops = self.make_block(rng, index)
        for op in ops:
            op["check_seed"] = int(rng.integers(2**31))
        return [ops[k] for k in rng.permutation(len(ops))]

    def warmup(self) -> dict:
        return self.block(0, stream=0)[0]

    def path(self, op, suffix: str) -> Path:
        return self.tmp / f"{op['kind']}{suffix}"


class Contour(Workload):
    """Robustness figures: area scans and coupling x detuning contours."""

    name = "contour"
    MIX = {
        "area": "12 per block of 20: 3 reference states x 601 eps, 6 sequences x {state, transfer}, 4 also JSON",
        "grid": "4 per block: side drawn from 51-81, 82-112, 113-143, 144-175, Haar state, 1 also JSON",
        "grid201": "4 per block: 201 x 201, sequences cycling, Haar state",
    }

    def make_block(self, rng, index):
        metrics = ("state", "transfer")
        area = [{"kind": "area", "seq": n, "metric": m} for n in NAMES for m in metrics]
        for k in rng.choice(len(area), 4, replace=False):
            area[k]["json"] = True
        bands = ((51, 82), (82, 113), (113, 144), (144, 176))
        grid = [{"kind": "grid", "side": int(rng.integers(lo, hi)), "seq": NAMES[int(rng.integers(6))],
                 "metric": metrics[k % 2], "state": haar(rng, 2)} for k, (lo, hi) in enumerate(bands)]
        grid[int(rng.integers(4))]["json"] = True
        offset = int(self.rng(2).integers(6))
        big = [{"kind": "grid201", "side": 201, "seq": NAMES[(offset + 4 * index + k) % 6],
                "metric": metrics[k % 2], "state": haar(rng, 2)} for k in range(4)]
        return area + grid + big

    def warmup(self):
        return next(op for op in self.block(0, stream=0) if op["kind"] == "area")

    def run(self, op):
        seq = catalog.catalog_sequence(op["seq"])
        if op["kind"] == "area":
            states = robustness.InitialStateSet.reference_states(2)
            result = robustness.area_scan(seq, states, AREA_EPS, metric=op["metric"])
        else:
            axis = np.linspace(-1.0, 1.0, op["side"])
            result = robustness.scan_2d(seq, amplitudes(op["state"]), axis, axis, metric=op["metric"])
        result.write(self.path(op, ".csv"), fmt="csv")
        if op.get("json"):
            result.write(self.path(op, ".json"), fmt="json")
        return result

    def check(self, op, result):
        seq = catalog.catalog_sequence(op["seq"])
        rng = np.random.default_rng(op["check_seed"])
        if op["kind"] == "area":
            states = [s.amplitudes for s in robustness.InitialStateSet.reference_states(2).states]
            close(result.axes[1].samples, AREA_EPS, "area axis")
            check_fidelity_cells(seq, result, states, op["metric"], cells(rng, (3, AREA_EPS.size), 6),
                                 lambda segs, col: ref.compose2(segs, area_scale=AREA_EPS[col]))
        else:
            axis = np.linspace(-1.0, 1.0, op["side"])
            psi = amplitudes(op["state"])
            require(result.values.shape == (axis.size, axis.size), f"grid shape {result.values.shape}")
            segs = ref.segments(seq)
            gate = ref.rotation_y(ref.target_angle(segs, seq.target_angle), 2)
            for i, j in cells(rng, result.values.shape, 8):
                u = ref.compose2(segs, coupling_frac=axis[i], detuning_frac=axis[j])
                close(result.values[i, j], ref.fidelity(op["metric"], gate @ psi, u @ psi), f"cell ({i}, {j})")
        check_scan_file(self.path(op, ".csv"), result, "csv")
        if op.get("json"):
            check_scan_file(self.path(op, ".json"), result, "json")


class Design(Workload):
    """The designer's loop: derive, verify, bound and map one sequence."""

    name = "design"
    GAP = 1.5  # every catalog entry is reachable on the synthetic calibration here
    MIX = {
        "design": "6 per block, one per catalog entry: solve_pp from the half jittered by +-1%, "
                  "make_universal, verify_sequence, 2-level radius at 1e-4, waveguide at gap 1.5",
    }

    def __init__(self, seed, tmp, in_process=False):
        super().__init__(seed, tmp, in_process)
        table = photonics.synthetic_beta_table()
        self.coupling = photonics.fit_coupling(photonics.synthetic_coupling_table())
        self.beta = photonics.BetaCalibration(tuple(w for w, _ in table), tuple(b for _, b in table))

    def make_block(self, rng, index):
        ops = []
        for name in NAMES:
            half = np.asarray(catalog.SEQUENCE_CATALOG[name].half_ratios)
            jitter = half * (1.0 + rng.uniform(-0.01, 0.01, half.size))
            ops.append({"kind": "design", "entry": name, "seed_ratios": jitter.tolist(),
                        "input": haar(rng, 2)})
        return ops

    def run(self, op):
        entry = catalog.SEQUENCE_CATALOG[op["entry"]]
        problem = synthesis.SynthesisProblem(entry.target_angle, len(entry.half_ratios), entry.order)
        root = synthesis.solve_pp(problem, op["seed_ratios"])
        seq = synthesis.make_universal(root, entry.target_angle, order=entry.order, label=op["entry"])
        report = synthesis.verify_sequence(seq)
        radius = robustness.robustness_radius(seq, np.array([1.0, 0.0]), 1e-4)
        layout = photonics.layout_from_sequence(seq, self.beta, self.coupling, self.GAP, 1.0)
        rows = photonics.propagate_intensity(layout, amplitudes(op["input"]))
        self.path(op, ".intensity.csv").write_text(photonics.intensity_csv(rows), encoding="utf-8")
        return root, seq, report, radius, layout, rows

    def check(self, op, out):
        root, seq, report, radius, layout, rows = out
        entry = catalog.SEQUENCE_CATALOG[op["entry"]]
        check_root(root, entry.target_angle, entry.order)
        segs = ref.segments(seq)
        require(report.passed, "verify_sequence failed")
        angle = ref.target_angle(segs, entry.target_angle)
        require(ref.gate_distance(ref.compose2(segs), ref.rotation_y(angle, 2)) < 1e-3, "gate distance")
        check_radius(segs, angle, 2, radius, 1e-4)
        check_device(segs, layout, rows, amplitudes(op["input"]),
                     self.path(op, ".intensity.csv").read_text(encoding="utf-8"))


def check_root(root, target: float, order: int) -> None:
    residual = ref.pp_residual(root, target, order)
    require(residual < 1e-10, f"root residual {residual:.3e}")


def check_radius(segs, angle: float, dim: int, radius: float, threshold: float) -> None:
    e0 = np.eye(dim)[0]
    want = ref.rotation_y(angle, dim) @ e0

    def infidelity(eps):
        u = ref.compose2(segs, area_scale=eps) if dim == 2 else ref.lifted(segs, dim, area_scale=eps)
        return 1.0 - ref.fidelity("transfer", want, u @ e0)

    ref.bracket(lambda e: max(infidelity(e), infidelity(-e)), radius, threshold)


def check_device(segs, layout, rows, psi, csv_text: str) -> None:
    psi = psi / np.linalg.norm(psi)
    end = photonics.endpoint_state(layout, psi)
    close(end, ref.compose2(segs) @ psi, "device endpoint")
    close(rows[:, 1] + rows[:, 2], 1.0, "I1 + I2")
    close(rows[-1, 1:], np.abs(end) ** 2, "endpoint intensities")
    header, body = ref.parse_csv(csv_text)
    require(header == ["z", "I1", "I2"], f"intensity header {header}")
    close(body, rows, "intensity csv")


class Lift(Workload):
    """n-level lifts and relaxation: the expm and wigner_lift paths."""

    name = "lift"
    MIX = {
        "area3": "12 per block of 60: n=3 area scan, 3 reference states x 121 eps",
        "area5": "9 per block: n=5 area scan",
        "area8": "6 per block: n=8 area scan",
        "area16": "3 per block: n=16 area scan (fails at the seed: wigner_lift raises from n=14)",
        "radius3": "6 per block, one per derived_sequence root: 3-level radius at 1e-3",
        "decoherence2": "6 per block: 2-level decoherence scan, 41 gammas in [0, 0.2]",
        "decoherence_n": "6 per block: n in {3, 5, 8} decoherence scan",
        "populations": "6 per block: n in {3, 5, 8} population trajectory, 64 samples per segment",
        "bloch": "6 per block: Bloch trajectory at gamma in [0.01, 0.2], Haar initial state",
    }

    def __init__(self, seed, tmp, in_process=False):
        super().__init__(seed, tmp, in_process)
        self.derived = {name: catalog.derived_sequence(name) for name in NAMES}

    def make_block(self, rng, index):
        def names(count):
            start = int(rng.integers(6))
            return [NAMES[(start + k) % 6] for k in range(count)]

        ops = []
        for n, count in ((3, 12), (5, 9), (8, 6), (16, 3)):
            ops += [{"kind": f"area{n}", "n": n, "seq": s} for s in names(count)]
        ops += [{"kind": "radius3", "n": 3, "seq": s, "threshold": 1e-3} for s in names(6)]
        ops += [{"kind": "decoherence2", "n": 2, "seq": s} for s in names(6)]
        ops += [{"kind": "decoherence_n", "n": (3, 5, 8)[k % 3], "seq": s} for k, s in enumerate(names(6))]
        ops += [{"kind": "populations", "n": (3, 5, 8)[k % 3], "seq": s} for k, s in enumerate(names(6))]
        ops += [{"kind": "bloch", "n": 2, "seq": s, "gamma": float(rng.uniform(0.01, 0.2)),
                 "state": haar(rng, 2)} for s in names(6)]
        return ops

    def warmup(self):
        return next(op for op in self.block(0, stream=0) if op["kind"] == "area3")

    def sequence(self, op):
        return self.derived[op["seq"]] if op["kind"] == "radius3" else catalog.catalog_sequence(op["seq"])

    def run(self, op):
        seq, n, kind = self.sequence(op), op["n"], op["kind"]
        e0 = np.eye(n)[0]
        if kind.startswith("area"):
            states = robustness.InitialStateSet.reference_states(n)
            return robustness.area_scan(seq, states, LIFT_EPS, dimension=n)
        if kind == "radius3":
            return robustness.robustness_radius(seq, e0, op["threshold"], dimension=n)
        if kind.startswith("decoherence"):
            return robustness.decoherence_scan(seq, e0, GAMMAS, dimension=n)
        if kind == "populations":
            return nlevel.population_trajectory(seq, n, samples_per_segment=64)
        err = dynamics.ErrorModel(gamma=op["gamma"])
        return dynamics.bloch_trajectory(seq, err, init=amplitudes(op["state"]))

    def check(self, op, out):
        seq, n, kind = self.sequence(op), op["n"], op["kind"]
        segs = ref.segments(seq)
        angle = ref.target_angle(segs, seq.target_angle)
        rng = np.random.default_rng(op["check_seed"])
        if kind.startswith("area"):
            states = [s.amplitudes for s in robustness.InitialStateSet.reference_states(n).states]
            cols = rng.integers(0, LIFT_EPS.size, 2)
            check_lift(seq, segs, n, float(LIFT_EPS[cols[0]]))
            check_fidelity_cells(seq, out, states, "state", [(r, c) for c in cols for r in range(3)],
                                 lambda segs_, col: ref.lifted(segs_, n, area_scale=LIFT_EPS[col]))
            return
        if kind == "radius3":
            check_lift(seq, segs, n, out)
            check_radius(segs, angle, n, out, op["threshold"])
            return
        if kind.startswith("decoherence"):
            check_decoherence(segs, n, np.eye(n)[0], out, rng.integers(1, GAMMAS.size, 2))
            return
        if kind == "populations":
            check_populations(segs, n, out)
            return
        psi = amplitudes(op["state"])
        end = ref.lifted(segs, 2, gamma=op["gamma"]) @ psi
        cross = np.conj(end[0]) * end[1]
        want = (2 * cross.real, 2 * cross.imag, abs(end[0]) ** 2 - abs(end[1]) ** 2)
        points = np.asarray(out)
        close(points[-1, 1:], want, "Bloch endpoint")
        lengths = np.linalg.norm(points[:, 1:], axis=1)
        require(np.all(np.diff(lengths) <= 1e-12), "Bloch vector grows under relaxation")


def check_lift(seq, segs, n: int, eps: float) -> None:
    """At gamma = 0 the n-level propagator is unitary and is the lift of the 2x2 one."""
    u = nlevel.nlevel_propagator(seq, n, dynamics.ErrorModel(area_scale=eps))
    require(ref.is_unitary(u), f"n={n} propagator not unitary")
    want = ref.lifted(segs, n, area_scale=eps)
    if n <= 13:
        close(want, nlevel.wigner_lift(ref.compose2(segs, area_scale=eps), n), f"reference lift n={n}")
    close(u, want, f"n={n} propagator")


def check_decoherence(segs, n: int, psi, result, cols) -> None:
    reference = ref.lifted(segs, n) @ psi
    reference /= np.linalg.norm(reference)
    close(result.values[:, 0], 0.0, "gamma = 0 infidelity")
    for col in cols:
        out = ref.lifted(segs, n, gamma=GAMMAS[col]) @ psi
        raw = 1.0 - abs(np.vdot(reference, out)) ** 2
        renorm = 1.0 - abs(np.vdot(reference, out / np.linalg.norm(out))) ** 2
        close(result.values[:, col], [raw, renorm], f"gamma={GAMMAS[col]:.3f}")


def check_populations(segs, n: int, rows) -> None:
    rows = np.asarray(rows)
    close(rows[:, 1:].sum(axis=1), 1.0, "population sum")
    want = np.abs(ref.lifted(segs, n)[:, 0]) ** 2
    close(rows[-1, 1:], want, "final populations")
    close(rows[-1, 0], sum(a / (c * np.hypot(1.0, r)) for r, c, a in segs), "total duration")


README_NAMES = ("derive-pi", "derive-pi2", "scan-area", "scan-grid2d", "scan-radius", "scan-decoherence",
                "nlevel-populations", "waveguide", "waveguide-cross")
README = (
    ("derive", "--theta", "pi", "--n", "4", "--order", "1", "--out", "derive.json"),
    ("derive", "--theta", "pi/2", "--n", "4", "--order", "1"),
    ("scan", "area", "--table", "pi-n4-o1", "--eps=-0.3:0.3:0.001", "--out", "area.csv"),
    ("scan", "grid2d", "--table", "pi-n4-o1", "--range", "1.0", "--steps", "201", "--out", "grid.csv"),
    ("scan", "radius", "--table", "pi-n6-o2", "--threshold", "1e-4"),
    ("scan", "decoherence", "--table", "pi-n4-o1", "--gamma", "0:0.2:0.005"),
    ("nlevel", "--n", "3", "--table", "pi-n4-o1", "--populations"),
    ("waveguide", "--table", "pi-n4-o1", "--synthetic", "--out", "device"),
    ("waveguide", "--table", "pi-n4-o1", "--synthetic", "--input", "0,1", "--out", "device-cross"),
)


class Cli(Workload):
    """Every README command with its default flags, each in a fresh interpreter."""

    name = "cli"
    min_ops = 20
    MIX = {"cli": "blocks of 10: the 9 README commands with default flags, plus scan grid2d a second time"}

    def __init__(self, seed, tmp, in_process=False):
        super().__init__(seed, tmp, in_process)
        self.env = dict(os.environ, PYTHONPATH=str(Path(dynamics.__file__).resolve().parents[1]))
        self.expected = {}
        self.first_bytes = {}
        self.runs = 0
        self.output_bytes = 0

    def make_block(self, rng, index):
        # scan grid2d, the slowest command, runs twice so that op_p90_ms falls
        # inside its class (20% of ops) instead of on the class edge
        return [{"kind": README_NAMES[k], "command": k, "argv": list(README[k])} for k in (*range(9), 3)]

    def warmup(self):
        return {"kind": README_NAMES[4], "command": 4, "argv": list(README[4])}

    def run(self, op):
        self.runs += 1
        out_dir = self.tmp / f"cli-{self.runs}"
        out_dir.mkdir()
        argv = op["argv"]
        if self.in_process:
            argv = [str(out_dir / a) if prev == "--out" else a for prev, a in zip(["", *argv], argv)]
            os.environ["DMCP_OUT_DIR"] = str(out_dir)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        else:
            env = dict(self.env, DMCP_OUT_DIR=str(out_dir))
            proc = subprocess.run([sys.executable, "-m", "dmcp.cli", *argv], cwd=out_dir, env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=150)
            code = proc.returncode
        if code != 0:
            raise RuntimeError(f"exit code {code}: dmcp {' '.join(op['argv'])}")
        return out_dir

    def check(self, op, out_dir):
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        shutil.rmtree(out_dir)
        self.output_bytes += sum(len(b) for b in files.values())
        first = self.first_bytes.setdefault(op["command"], files)
        require(files == first, f"command {op['command']}: output bytes differ between passes")
        if op["command"] not in self.expected:
            self.expected[op["command"]] = expected_output(op["command"])
        for name, want in self.expected[op["command"]].items():
            require(name in files, f"missing output {name}")
            text = files[name].decode("utf-8")
            if isinstance(want, dict):
                doc = json.loads(text)
                for key, value in want.items():
                    got = doc
                    for part in key.split("."):
                        got = got[part]
                    if isinstance(value, bool):
                        require(got is value, f"{name}:{key} = {got}")
                    else:
                        close(np.asarray(got, dtype=float), value, f"{name}:{key}")
            else:
                header, body = ref.parse_csv(text)
                require(header == want[0], f"{name}: header {header}")
                close(body, want[1], f"{name} values")


def expected_output(command: int) -> dict:
    """In-process library result of a README command, checked against the oracle."""
    seq = catalog.catalog_sequence("pi-n4-o1")
    segs = ref.segments(seq)
    ground = np.array([1.0, 0.0])
    if command in (0, 1):
        theta = np.pi if command == 0 else np.pi / 2
        entry = next(e for e in catalog.SEQUENCE_CATALOG.values()
                     if abs(e.target_angle - theta) < 1e-9 and len(e.ratios) == 4)
        root = synthesis.solve_pp(synthesis.SynthesisProblem(theta, 2, 1), list(entry.half_ratios))
        check_root(root, theta, 1)
        return {"derive.json": {"derived_half_ratios": root, "report.passed": True}}
    if command in (2, 3):
        if command == 2:
            result = robustness.area_scan(seq, robustness.InitialStateSet.reference_states(2), AREA_EPS)
            picks = [(r, c) for r in range(3) for c in (0, 150, 300, 450, 600)]
            check_fidelity_cells(seq, result, [s.amplitudes for s in robustness.InitialStateSet.reference_states(2).states],
                                 "state", picks, lambda s, col: ref.compose2(s, area_scale=AREA_EPS[col]))
            name = "area.csv"
        else:
            axis = np.linspace(-1.0, 1.0, 201)
            result = robustness.scan_2d(seq, ground, axis, axis)
            gate = ref.rotation_y(ref.target_angle(segs, seq.target_angle), 2)
            for i, j in ((0, 0), (37, 160), (100, 100), (200, 13), (150, 199)):
                u = ref.compose2(segs, coupling_frac=axis[i], detuning_frac=axis[j])
                close(result.values[i, j], ref.fidelity("state", gate @ ground, u @ ground), f"cell ({i}, {j})")
            name = "grid.csv"
        return {name: ref.parse_csv(result.to_csv())}
    if command == 4:
        seq6 = catalog.catalog_sequence("pi-n6-o2")
        segs6 = ref.segments(seq6)
        radius = robustness.robustness_radius(seq6, ground, 1e-4)
        check_radius(segs6, ref.target_angle(segs6, seq6.target_angle), 2, radius, 1e-4)
        return {"radius.json": {"radius": radius}}
    if command == 5:
        result = robustness.decoherence_scan(seq, ground, GAMMAS)
        check_decoherence(segs, 2, ground, result, (1, 20, 40))
        return {"decoherence.csv": ref.parse_csv(result.to_csv())}
    if command == 6:
        rows = nlevel.population_trajectory(seq, 3, samples_per_segment=64)
        check_populations(segs, 3, rows)
        return {"nlevel_populations.csv": (["t", "p0", "p1", "p2"], rows)}
    table = photonics.synthetic_beta_table()
    beta = photonics.BetaCalibration(tuple(w for w, _ in table), tuple(b for _, b in table))
    coupling = photonics.fit_coupling(photonics.synthetic_coupling_table())
    layout = photonics.layout_from_sequence(seq, beta, coupling, 1.0, 1.0)
    psi = np.array([1.0, 0.0]) if command == 7 else np.array([0.0, 1.0])
    rows = photonics.propagate_intensity(layout, psi, 64)
    prefix = "device" if command == 7 else "device-cross"
    csv_text = photonics.intensity_csv(rows)
    check_device(segs, layout, rows, psi, csv_text)
    return {
        f"{prefix}.layout.json": {"total_length": layout.total_length,
                                  "coupling": layout.coupling},
        f"{prefix}.intensity.csv": ref.parse_csv(csv_text),
    }


WORKLOADS = {w.name: w for w in (Contour, Design, Lift, Cli)}
