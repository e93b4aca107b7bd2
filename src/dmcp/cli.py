"""Command-line interface: derive sequences, verify tables, run error scans,
emit figure-ready CSV/JSON data.

Commands
--------
derive        solve the point-to-point conditions and emit a verified sequence
scan area     fidelity vs joint pulse-area error for a set of initial states
scan grid2d   fidelity over correlated coupling x detuning error grid
scan radius   robustness radius at an infidelity threshold
scan decoherence  raw + renormalized infidelity vs relaxation rate
nlevel        n-level populations along the pulse, or an n-level area scan
waveguide     map a sequence to a coupled-waveguide layout and propagate light

Exit codes: 0 success, 1 derived sequence failed verification, 2 usage,
3 solver non-convergence, 4 data/range errors.
Relative output paths resolve against $DMCP_OUT_DIR when it is set. A JSON
config file (--config) supplies defaults for the long flags of the command
being run; explicit flags win. A key that names no flag of that command is a
usage error (2), invalid JSON too (2), an unreadable file a data error (4).
Runs are deterministic for a fixed configuration.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .catalog import SEQUENCE_CATALOG, catalog_names, catalog_sequence
from .dynamics import CompositeSequence, SequenceKind, StateVector, resonant_pulse
from .nlevel import population_trajectory
from .robustness import (
    InitialStateSet,
    area_scan,
    decoherence_scan,
    robustness_radius,
    scan_2d,
)
from .synthesis import (
    ConvergenceError,
    SynthesisProblem,
    make_universal,
    solve_pp,
    verify_sequence,
)
from . import photonics

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_CONVERGENCE = 3
EXIT_DATA = 4


class UsageError(ValueError):
    pass


def parse_angle(text: str) -> float:
    """Accept 'pi', 'pi/2', 'pi/4', '2pi/3' style strings or plain radians."""
    t = text.strip().lower().replace(" ", "")
    num, _, den = t.partition("/")
    try:
        if "pi" in num:
            coef = num.replace("pi", "")
            scale = float(coef + "1" if coef in ("", "+", "-") else coef)
            value = scale * np.pi / (float(den) if den else 1.0)
        else:
            value = float(t)
    except (ValueError, ZeroDivisionError):
        value = np.nan
    if not np.isfinite(value):
        raise UsageError(f"cannot parse angle {text!r}")
    return value


def parse_range(text: str) -> np.ndarray:
    """'start:stop:step' inclusive sample list."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"range must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if step <= 0 or stop < start:
        raise UsageError(f"bad range {text!r}")
    return np.arange(start, stop + step / 2.0, step)


def parse_floats(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise UsageError(f"cannot parse float list {text!r}") from None


def parse_state(text: str) -> np.ndarray:
    try:
        amps = np.array([complex(p) for p in text.split(",") if p.strip()])
    except ValueError:
        raise UsageError(f"cannot parse state {text!r}") from None
    norm = np.linalg.norm(amps)
    if norm == 0:
        raise UsageError("state must be nonzero")
    return amps / norm


def resolve_sequence(args) -> CompositeSequence:
    """Sequence from --table, --ratios (+--theta), or --single-resonant-pi."""
    sources = [bool(getattr(args, "table", None)), bool(getattr(args, "ratios", None)),
               bool(getattr(args, "single_resonant_pi", False))]
    if sum(sources) != 1:
        raise UsageError("choose exactly one of --table, --ratios, --single-resonant-pi")
    if getattr(args, "single_resonant_pi", False):
        return resonant_pulse(np.pi)
    if getattr(args, "table", None):
        return catalog_sequence(args.table)
    ratios = parse_floats(args.ratios)
    if getattr(args, "theta", None) is None:
        raise UsageError("--ratios needs --theta")
    theta = parse_angle(args.theta)
    order = getattr(args, "order", 1) or 1
    anti = len(ratios) % 2 == 0 and np.allclose(ratios[::-1], [-r for r in ratios], atol=1e-9)
    kind = SequenceKind.UNIVERSAL if anti else SequenceKind.POINT_TO_POINT
    return CompositeSequence.from_ratios(ratios, theta, order=order, kind=kind, label="custom")


def out_path(args, default_name: str) -> Path:
    """Explicit --out is used as given; otherwise default names land in
    $DMCP_OUT_DIR (or the working directory)."""
    if getattr(args, "out", None):
        return Path(args.out)
    return Path(os.environ.get("DMCP_OUT_DIR", ".")) / default_name


def write_scan(result, args, default_name: str) -> Path:
    path = out_path(args, default_name)
    path.parent.mkdir(parents=True, exist_ok=True)
    result.write(path, fmt=args.format)
    return path


def cmd_derive(args) -> int:
    theta = parse_angle(args.theta)
    n = args.n
    if n % 2 != 0 or n < 4:
        raise UsageError(
            f"universal sequences need an even number of pieces with N >= 4, got N={n}"
        )
    problem = SynthesisProblem(theta, n // 2, args.order)
    if args.seed_ratios:
        seed = parse_floats(args.seed_ratios)
    else:
        match = [e for e in SEQUENCE_CATALOG.values()
                 if abs(e.target_angle - theta) < 1e-9
                 and len(e.ratios) == n and e.order == args.order]
        if not match:
            raise UsageError(
                "no bundled seed for this (theta, N, order); pass --seed-ratios"
            )
        seed = list(match[0].half_ratios)
    root = solve_pp(problem, seed)
    seq = make_universal(root, theta, order=args.order, label="derived")
    report = verify_sequence(seq)
    doc = {
        "theta": theta,
        "n_pieces": n,
        "order": args.order,
        "seed": seed,
        "derived_half_ratios": [float(r) for r in root],
        "sequence_ratios": [float(r) for r in seq.ratios],
        "report": report.to_dict(),
    }
    path = out_path(args, "derive.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
    print(f"derived ratios: {np.round(seq.ratios, 4).tolist()}")
    print(f"gate distance:  {report.gate_distance:.3e} (pass={report.passed})")
    print(f"wrote {path}")
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def default_states(dimension: int) -> InitialStateSet:
    return InitialStateSet.reference_states(dimension)


def cmd_scan_area(args) -> int:
    seq = resolve_sequence(args)
    eps = parse_range(args.eps)
    if args.state:
        states = InitialStateSet(("custom",), (StateVector.normalized(parse_state(args.state)),))
    else:
        states = default_states(2)
    result = area_scan(seq, states, eps, metric=args.metric)
    path = write_scan(result, args, "area_scan." + args.format)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_scan_grid2d(args) -> int:
    seq = resolve_sequence(args)
    if args.steps < 2:
        raise UsageError("--steps must be >= 2")
    axis = np.linspace(-args.range, args.range, args.steps)
    state = parse_state(args.state) if args.state else np.array([1.0, 0.0])
    result = scan_2d(seq, state, axis, axis, metric=args.metric)
    path = write_scan(result, args, "grid2d." + args.format)
    qualifying = int(np.sum(1.0 - result.values <= 1e-4))
    print(f"cells within 1e-4 infidelity: {qualifying} of {result.values.size}")
    print(f"wrote {path}")
    return EXIT_OK


def initial_state(args) -> np.ndarray:
    """--state when given, else the ground state |0> of --dimension levels."""
    if args.dimension < 2:
        raise UsageError("--dimension must be >= 2")
    return parse_state(args.state) if args.state else np.eye(args.dimension)[0]


def cmd_scan_radius(args) -> int:
    seq = resolve_sequence(args)
    state = initial_state(args)
    radius = robustness_radius(
        seq, state, args.threshold, metric=args.metric, dimension=args.dimension
    )
    doc = {
        "sequence": seq.label,
        "ratios": [float(r) for r in seq.ratios],
        "threshold": args.threshold,
        "metric": args.metric,
        "dimension": args.dimension,
        "radius": radius,
    }
    path = out_path(args, "radius.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
    print(f"robustness radius (threshold {args.threshold:g}): {radius:.4f}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_scan_decoherence(args) -> int:
    seq = resolve_sequence(args)
    gammas = parse_range(args.gamma)
    state = initial_state(args)
    result = decoherence_scan(seq, state, gammas, dimension=args.dimension)
    path = write_scan(result, args, "decoherence." + args.format)
    # report the published threshold point without asserting it
    probe = decoherence_scan(seq, state, [0.1], dimension=args.dimension)
    print(
        "infidelity at gamma=0.1*coupling: "
        f"raw={probe.values[0, 0]:.3e}, renormalized={probe.values[1, 0]:.3e} "
        "(reported only; normalization convention of the threshold claim is ambiguous)"
    )
    print(f"wrote {path}")
    return EXIT_OK


def cmd_nlevel(args) -> int:
    seq = resolve_sequence(args)
    n = args.dimension
    if n < 2:
        raise UsageError("--n must be >= 2")
    if args.populations:
        rows = population_trajectory(seq, n, samples_per_segment=args.samples)
        header = "t," + ",".join(f"p{k}" for k in range(n))
        lines = [header] + [",".join(f"{v:.12g}" for v in row) for row in rows]
        path = out_path(args, "nlevel_populations.csv")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        endpoint = rows[-1, 1:]
        print(f"final populations: {np.round(endpoint, 6).tolist()}")
    else:
        eps = parse_range(args.eps)
        result = area_scan(seq, default_states(n), eps, dimension=n, metric=args.metric)
        path = write_scan(result, args, "nlevel_area_scan." + args.format)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_waveguide(args) -> int:
    seq = resolve_sequence(args)
    if args.synthetic:
        coupling_table = photonics.synthetic_coupling_table()
        beta_table = photonics.synthetic_beta_table()
    else:
        if not args.coupling_csv or not args.beta_csv:
            raise UsageError("provide --coupling-csv and --beta-csv, or --synthetic")
        coupling_table = photonics.load_coupling_table(args.coupling_csv)
        beta_table = photonics.load_beta_table(args.beta_csv)
    coupling = photonics.fit_coupling(coupling_table)
    beta = photonics.BetaCalibration(
        tuple(w for w, _ in beta_table), tuple(b for _, b in beta_table)
    )
    layout = photonics.layout_from_sequence(seq, beta, coupling, args.gap, args.base_width)
    input_state = parse_state(args.input) if args.input else np.array([1.0, 0.0])
    trace = photonics.propagate_intensity(layout, input_state, args.samples)

    prefix = out_path(args, "waveguide")
    prefix.parent.mkdir(parents=True, exist_ok=True)
    layout_path = Path(str(prefix) + ".layout.json")
    intensity_path = Path(str(prefix) + ".intensity.csv")
    layout_path.write_text(layout.to_json(), encoding="utf-8")
    intensity_path.write_text(photonics.intensity_csv(trace), encoding="utf-8")
    print(f"device length: {layout.total_length:.6g} (units of the calibration tables)")
    print(f"endpoint intensities: I1={trace[-1, 1]:.6f} I2={trace[-1, 2]:.6f}")
    print(f"wrote {layout_path} and {intensity_path}")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, *, scan: bool = False) -> None:
    p.add_argument("--out", help="output path (prefix for waveguide)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    if scan:
        p.add_argument("--table", choices=catalog_names(), help="bundled sequence name")
        p.add_argument("--ratios", help="explicit comma-separated detuning ratios")
        p.add_argument("--theta", help="target angle for --ratios (e.g. pi, pi/2, 1.57)")
        p.add_argument("--order", type=int, choices=(1, 2), default=1)
        p.add_argument("--single-resonant-pi", action="store_true",
                       help="reference single resonant pi pulse")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmcp",
        description="Detuning-modulated composite pulses: derivation, scans, devices.",
    )
    parser.add_argument("--config", help="JSON file of flag defaults (flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="derive a universal sequence by root finding")
    p.add_argument("--theta", required=True, help="target rotation angle (pi, pi/2, or radians)")
    p.add_argument("--n", type=int, required=True, help="total number of pieces (even, >= 4)")
    p.add_argument("--order", type=int, choices=(1, 2), default=1)
    p.add_argument("--seed-ratios", help="comma-separated solver seed (defaults to bundled values)")
    _add_common(p)
    p.set_defaults(func=cmd_derive, parser=p)

    scan = sub.add_parser("scan", help="robustness scans")
    scan_sub = scan.add_subparsers(dest="scan_command", required=True)

    p = scan_sub.add_parser("area", help="fidelity vs pulse-area error")
    _add_common(p, scan=True)
    p.add_argument("--eps", default="-0.3:0.3:0.001", help="area-error range start:stop:step")
    p.add_argument("--state", help="custom initial state amplitudes, e.g. '1,0'")
    p.add_argument("--metric", choices=("state", "transfer"), default="state")
    p.set_defaults(func=cmd_scan_area, parser=p)

    p = scan_sub.add_parser("grid2d", help="coupling x detuning fidelity contour grid")
    _add_common(p, scan=True)
    p.add_argument("--range", type=float, default=1.0, help="symmetric fractional error range")
    p.add_argument("--steps", type=int, default=201)
    p.add_argument("--state", help="initial state amplitudes (default ground)")
    p.add_argument("--metric", choices=("state", "transfer"), default="state")
    p.set_defaults(func=cmd_scan_grid2d, parser=p)

    p = scan_sub.add_parser("radius", help="robustness radius at a threshold")
    _add_common(p, scan=True)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.add_argument("--state", help="initial state amplitudes (default: ground state of --dimension)")
    p.add_argument("--metric", choices=("transfer", "state"), default="transfer")
    p.add_argument("--dimension", type=int, default=2, help="system dimension (n-level lift)")
    p.set_defaults(func=cmd_scan_radius, parser=p)

    p = scan_sub.add_parser("decoherence", help="infidelity vs relaxation rate")
    _add_common(p, scan=True)
    p.add_argument("--gamma", default="0:0.2:0.005", help="gamma range start:stop:step")
    p.add_argument("--state", help="initial state amplitudes (default: ground state of --dimension)")
    p.add_argument("--dimension", type=int, default=2, help="system dimension (n-level lift)")
    p.set_defaults(func=cmd_scan_decoherence, parser=p)

    p = sub.add_parser("nlevel", help="n-level populations or area scan")
    _add_common(p, scan=True)
    p.add_argument("--n", dest="dimension", type=int, required=True)
    p.add_argument("--populations", action="store_true",
                   help="emit populations vs time instead of an area scan")
    p.add_argument("--samples", type=int, default=64, help="samples per segment")
    p.add_argument("--eps", default="-0.3:0.3:0.005", help="area-error range for the scan")
    p.add_argument("--metric", choices=("state", "transfer"), default="state")
    p.set_defaults(func=cmd_nlevel, parser=p)

    p = sub.add_parser("waveguide", help="map a sequence onto a coupled-waveguide device")
    _add_common(p, scan=True)
    p.add_argument("--coupling-csv", help="gap calibration table (g_um,omega_rad_per_um)")
    p.add_argument("--beta-csv", help="width calibration table (w_um,beta_rad_per_um)")
    p.add_argument("--synthetic", action="store_true",
                   help="use the bundled synthetic exponential/linear calibrations")
    p.add_argument("--gap", type=float, default=1.0)
    p.add_argument("--base-width", type=float, default=1.0)
    p.add_argument("--input", help="input mode amplitudes, e.g. '1,0' or '0,1'")
    p.add_argument("--samples", type=int, default=64, help="samples per segment")
    p.set_defaults(func=cmd_waveguide, parser=p)

    return parser


def parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv; the keys of a --config JSON object become defaults of the
    command being run, and each key must name one of that command's flags."""
    if "--config" not in argv:
        return parser.parse_args(argv)
    idx = argv.index("--config")
    if idx + 1 == len(argv):
        parser.error("--config needs a file path")
    path, argv = argv[idx + 1], argv[:idx] + argv[idx + 2:]
    args = parser.parse_args(argv)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--config {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise UsageError("--config must contain a JSON object")
    defaults = {str(k).replace("-", "_"): v for k, v in config.items()}
    known = set(vars(args)) - {"func", "parser", "config", "command", "scan_command"}
    unknown = sorted(set(defaults) - known)
    if unknown:
        raise UsageError(f"--config {path}: no such flag for this command: {', '.join(unknown)}")
    args.parser.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parse_args(parser, argv)
        return args.func(args)
    except SystemExit as exc:  # argparse signals usage errors with code 2
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (photonics.CalibrationError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"data/range error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
