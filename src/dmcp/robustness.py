"""Fidelity metrics and systematic-error scans for composite sequences.

Two fidelities coexist on purpose:

- `state_fidelity` is the quantum overlap |<target|realized>|^2. It is the
  right notion for zero-error universality checks (it is bounded by twice the
  gate distance for any initial state).
- `transfer_fidelity` is the population (splitting-ratio) fidelity,
  1 minus the total-variation distance between realized and target level
  populations. The published robustness radii are transfer statements: under a
  joint area error the composed rotation keeps its angle flat while the
  azimuth of its equatorial axis drifts linearly, which quantum state fidelity
  sees but level populations do not. A pi/2 splitter therefore holds its 50:50
  ratio to ~8% area error while its state fidelity from |0> degrades at ~0.4%.

`robustness_radius` consequently defaults to the transfer metric;
`area_scan`/`scan_2d` default to state fidelity (their spec'd meaning) and
accept metric="transfer". Scans and radii accept a `dimension` argument so the
n-level lift reuses them unchanged: propagators and targets at dimension n are
the symmetric-power lifts (`nlevel._lift`) of the two-level ones, batched over
the error samples.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dynamics import (
    CompositeSequence,
    ErrorModel,
    StateVector,
    as_amplitudes,
    compose,
    compose_grid,
    target_rotation,
)
from .nlevel import _lift

__all__ = [
    "state_fidelity",
    "transfer_fidelity",
    "haar_state",
    "InitialStateSet",
    "Axis",
    "ScanResult",
    "state_target",
    "area_scan",
    "robustness_radius",
    "scan_2d",
    "decoherence_scan",
]


def _state_overlap(target: np.ndarray, realized: np.ndarray) -> np.ndarray:
    """|<target|realized>|^2 over the last axis; leading axes broadcast."""
    if np.any(np.abs(np.linalg.norm(target, axis=-1) - 1.0) > 1e-6):
        raise ValueError("target state must be normalized")
    return np.abs(np.sum(np.conj(target) * realized, axis=-1)) ** 2


def _population_match(target: np.ndarray, realized: np.ndarray) -> np.ndarray:
    """1 - (1/2) sum_i | |t_i|^2 - |r_i|^2 | over the last axis; leading axes broadcast."""
    return 1.0 - 0.5 * np.sum(np.abs(np.abs(target) ** 2 - np.abs(realized) ** 2), axis=-1)


def _state_pair(target, realized) -> tuple[np.ndarray, np.ndarray]:
    t = as_amplitudes(target)
    r = as_amplitudes(realized)
    if t.size != r.size:
        raise ValueError(f"dimension mismatch: target {t.size}, realized {r.size}")
    return t, r


def state_fidelity(target, realized) -> float:
    """Quantum overlap |<target|realized>|^2.

    The target must be normalized; the realized state may be sub-normalized
    (relaxation), in which case the overlap keeps the lost norm visible.
    """
    return float(_state_overlap(*_state_pair(target, realized)))


def transfer_fidelity(target, realized) -> float:
    """Population fidelity: 1 - (1/2) * sum_i | |t_i|^2 - |r_i|^2 |.

    Measures how well the realized level populations match the target split;
    for a pi transfer from |0> this is |<1|realized>|^2, for an equal splitter
    it is 1 - |p1 - 1/2|. Insensitive to relative phases by design.
    """
    return float(_population_match(*_state_pair(target, realized)))


_METRICS: dict[str, Callable] = {"state": _state_overlap, "transfer": _population_match}


def _metric(name: str) -> Callable:
    """Batched fidelity (target, realized) -> values over the leading axes."""
    try:
        return _METRICS[name]
    except KeyError:
        raise ValueError(f"metric must be one of {sorted(_METRICS)}, got {name!r}") from None


def haar_state(rng_seed: int, dimension: int = 2) -> StateVector:
    """Deterministic-for-seed Haar-random pure state."""
    if dimension < 2:
        raise ValueError("dimension must be >= 2")
    rng = np.random.default_rng(rng_seed)
    v = rng.normal(size=dimension) + 1j * rng.normal(size=dimension)
    return StateVector.normalized(v)


@dataclass(frozen=True)
class InitialStateSet:
    """Named normalized initial states for multi-state scans."""

    names: tuple[str, ...]
    states: tuple[StateVector, ...]

    def __post_init__(self):
        if len(self.names) != len(self.states):
            raise ValueError("names and states must have equal length")
        for s in self.states:
            if abs(s.norm - 1.0) > 1e-9:
                raise ValueError("initial states must be normalized")

    def __iter__(self):
        return iter(zip(self.names, self.states))

    def __len__(self):
        return len(self.names)

    @classmethod
    def reference_states(cls, dimension: int = 2) -> "InitialStateSet":
        """The three benchmark states: ground, equal superposition, and the
        0.9-weighted partial superposition."""
        if dimension == 2:
            trio = {
                "|0>": [1.0, 0.0],
                "(|0>+|1>)/sqrt2": [1.0 / np.sqrt(2), 1.0 / np.sqrt(2)],
                "0.9|0>+sqrt(0.19)|1>": [0.9, np.sqrt(0.19)],
            }
        else:
            rest = np.sqrt(0.19 / (dimension - 1))
            trio = {
                "|0>": [1.0] + [0.0] * (dimension - 1),
                "uniform": [1.0 / np.sqrt(dimension)] * dimension,
                "0.9|0>+spread": [0.9] + [rest] * (dimension - 1),
            }
        return cls(tuple(trio), tuple(StateVector.normalized(v) for v in trio.values()))


@dataclass(frozen=True)
class Axis:
    name: str
    unit: str
    samples: tuple

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        if not self.samples:
            raise ValueError(f"axis {self.name!r} needs at least one sample")


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return f"{float(value):.12g}"


@dataclass(frozen=True)
class ScanResult:
    """Dense grid of fidelity (or infidelity) values with axis metadata."""

    axes: tuple[Axis, ...]
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        expected = tuple(len(ax.samples) for ax in self.axes)
        if values.shape != expected:
            raise ValueError(f"grid shape {values.shape} does not match axes {expected}")

    @property
    def value_name(self) -> str:
        return self.metadata.get("value_name", "fidelity")

    def to_csv(self) -> str:
        """Header of axis names then one row per grid point, 12 significant
        digits."""
        lines = [",".join([ax.name for ax in self.axes] + [self.value_name])]
        for idx in np.ndindex(self.values.shape):
            coords = [_fmt(ax.samples[i]) for ax, i in zip(self.axes, idx)]
            lines.append(",".join(coords + [_fmt(self.values[idx])]))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "axes": [
                {"name": ax.name, "unit": ax.unit, "samples": list(ax.samples)}
                for ax in self.axes
            ],
            "values": self.values.tolist(),
            "metadata": self.metadata,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def write(self, path, fmt: str = "csv") -> None:
        text = self.to_csv() if fmt == "csv" else self.to_json()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _lifted_target(seq: CompositeSequence, dimension: int) -> np.ndarray:
    return _lift(target_rotation(seq), dimension)


def _image(gate: np.ndarray, state) -> np.ndarray:
    amps = as_amplitudes(state)
    if amps.size != gate.shape[0]:
        raise ValueError(f"state has dimension {amps.size}, expected {gate.shape[0]}")
    return gate @ amps


def state_target(seq: CompositeSequence, state, dimension: int = 2) -> StateVector:
    """Image of the initial state under the sense-matched ideal rotation."""
    return StateVector(_image(_lifted_target(seq, dimension), state))


def _propagators_for_eps(seq: CompositeSequence, eps_values: np.ndarray, dimension: int) -> np.ndarray:
    """Stack of propagators over area errors, shape (len(eps), dim, dim)."""
    return _lift(compose_grid(seq, area_scale=eps_values), dimension)


def area_scan(
    seq: CompositeSequence,
    states: InitialStateSet,
    eps_values: Sequence[float],
    *,
    dimension: int = 2,
    metric: str = "state",
) -> ScanResult:
    """Fidelity vs joint pulse-area error, one grid row per initial state.

    Targets are the sense-matched ideal rotation images of each state; values
    are `metric` fidelities of the realized states.
    """
    eps = np.asarray(list(eps_values), dtype=float)
    if eps.size == 0 or not np.all(np.isfinite(eps)):
        raise ValueError("eps_values must be a nonempty finite sample list")
    fid = _metric(metric)
    gate = _lifted_target(seq, dimension)
    targets = np.stack([_image(gate, s) for _, s in states])
    amps = np.stack([as_amplitudes(s) for _, s in states])
    evolved = np.einsum("eij,sj->sei", _propagators_for_eps(seq, eps, dimension), amps)
    return ScanResult(
        axes=(
            Axis("state", "label", tuple(states.names)),
            Axis("area_error", "fraction", tuple(eps.tolist())),
        ),
        values=fid(targets[:, None, :], evolved),
        metadata={
            "sequence": seq.label or "custom",
            "ratios": [float(r) for r in seq.ratios],
            "target_angle": float(seq.target_angle),
            "dimension": dimension,
            "metric": metric,
            "error_model": "joint duration scaling",
            "value_name": "fidelity",
        },
    )


def robustness_radius(
    seq: CompositeSequence,
    state,
    threshold: float,
    *,
    metric: str = "transfer",
    dimension: int = 2,
    scan_step: float = 1e-3,
    refine_tol: float = 1e-4,
    cap: float = 0.999,
) -> float:
    """Largest eps* with infidelity <= threshold for all |eps| <= eps*.

    Scans the symmetric envelope max(infid(+eps), infid(-eps)) outward in
    `scan_step` increments, then bisects the first crossing down to
    `refine_tol`. Returns `cap` when the envelope never crosses. The default
    metric is the transfer (population) fidelity; see the module docstring.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie in (0, 1)")
    fid = _metric(metric)
    amps = as_amplitudes(state)
    target = _image(_lifted_target(seq, dimension), amps)

    def envelope(eps_mag: np.ndarray) -> np.ndarray:
        both = np.concatenate([eps_mag, -eps_mag])
        infid = 1.0 - fid(target, _propagators_for_eps(seq, both, dimension) @ amps)
        return np.maximum(infid[: eps_mag.size], infid[eps_mag.size:])

    if envelope(np.array([0.0]))[0] > threshold:
        raise ValueError("zero-error infidelity is already above the threshold")

    block = 250
    lo = 0.0
    hi = None
    start = scan_step
    while start <= cap and hi is None:
        eps_block = np.arange(start, min(cap, start + block * scan_step) + scan_step / 2, scan_step)
        if eps_block.size == 0:
            break
        vals = envelope(eps_block)
        bad = np.nonzero(vals > threshold)[0]
        if bad.size:
            first = bad[0]
            hi = float(eps_block[first])
            lo = float(eps_block[first - 1]) if first > 0 else lo
            break
        lo = float(eps_block[-1])
        start = float(eps_block[-1]) + scan_step
    if hi is None:
        return cap
    while hi - lo > refine_tol / 10.0:
        mid = 0.5 * (lo + hi)
        if envelope(np.array([mid]))[0] > threshold:
            hi = mid
        else:
            lo = mid
    return lo


def scan_2d(
    seq: CompositeSequence,
    state,
    coupling_values: Sequence[float],
    detuning_values: Sequence[float],
    *,
    metric: str = "state",
) -> ScanResult:
    """Fidelity grid over correlated per-segment coupling and detuning errors.

    The same fractional error applies to every segment's coupling (rows) and
    detuning (columns); durations stay at their target values. Two-level only.
    """
    cs = np.asarray(list(coupling_values), dtype=float)
    ds = np.asarray(list(detuning_values), dtype=float)
    if cs.size == 0 or ds.size == 0:
        raise ValueError("scan ranges must be nonempty")
    fid = _metric(metric)
    amps = as_amplitudes(state)
    target = _image(_lifted_target(seq, 2), amps)
    us = compose_grid(seq, coupling_frac=cs[:, None], detuning_frac=ds[None, :])
    return ScanResult(
        axes=(
            Axis("coupling_error", "fraction", tuple(cs.tolist())),
            Axis("detuning_error", "fraction", tuple(ds.tolist())),
        ),
        values=fid(target, us @ amps),
        metadata={
            "sequence": seq.label or "custom",
            "ratios": [float(r) for r in seq.ratios],
            "target_angle": float(seq.target_angle),
            "metric": metric,
            "error_model": "correlated fractional coupling/detuning, target durations",
            "initial_state": [repr(complex(a)) for a in amps],
            "value_name": "fidelity",
        },
    )


def decoherence_scan(
    seq: CompositeSequence,
    state,
    gamma_values: Sequence[float],
    *,
    dimension: int = 2,
) -> ScanResult:
    """Raw and renormalized infidelity vs relaxation rate gamma.

    The comparison target is the sequence's own gamma = 0 output state, so the
    curve isolates relaxation: it is exactly 0 at gamma = 0. The raw row keeps
    the decayed norm (population loss counts as infidelity); the renormalized
    row rescales the evolved state to unit norm first (gate-shape distortion
    only). Emitting both sidesteps the normalization ambiguity in the
    published relaxation threshold claim.
    """
    gs = np.asarray(list(gamma_values), dtype=float)
    if gs.size == 0 or np.any(gs < 0):
        raise ValueError("gamma samples must be nonempty and >= 0")
    amps = as_amplitudes(state)
    reference = _image(_lift(compose(seq), dimension), amps)
    reference = reference / np.linalg.norm(reference)
    outs = _lift(np.stack([compose(seq, ErrorModel(gamma=float(g))) for g in gs]), dimension) @ amps
    norms = np.linalg.norm(outs, axis=-1, keepdims=True)
    renorm = outs / np.where(norms > 0, norms, 1.0)
    values = 1.0 - np.stack([_state_overlap(reference, outs), _state_overlap(reference, renorm)])
    return ScanResult(
        axes=(
            Axis("fidelity_metric", "label", ("raw", "renormalized")),
            Axis("gamma", "units of coupling", tuple(gs.tolist())),
        ),
        values=values,
        metadata={
            "sequence": seq.label or "custom",
            "ratios": [float(r) for r in seq.ratios],
            "dimension": dimension,
            "target": "gamma=0 output state",
            "initial_state": [repr(complex(a)) for a in amps],
            "value_name": "infidelity",
        },
    )
