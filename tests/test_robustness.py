import json

import numpy as np
import pytest

from dmcp.catalog import catalog_sequence
from dmcp.dynamics import (
    CompositeSequence,
    ErrorModel,
    StateVector,
    apply,
    compose,
    compose_grid,
    gate_distance,
    resonant_pulse,
    target_rotation,
)
from dmcp.robustness import (
    Axis,
    InitialStateSet,
    ScanResult,
    area_scan,
    decoherence_scan,
    haar_state,
    robustness_radius,
    scan_2d,
    state_fidelity,
    state_target,
    transfer_fidelity,
)

RESONANT_F_AT_5PCT = 0.9938441702975689  # sin^2(1.05*pi/2)


def test_state_fidelity_basics():
    s = haar_state(3)
    assert state_fidelity(s, s) == pytest.approx(1.0, abs=1e-12)
    assert state_fidelity([1, 0], [0, 1]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="dimension"):
        state_fidelity([1, 0], [1, 0, 0])
    with pytest.raises(ValueError, match="normalized"):
        state_fidelity([0.5, 0], [1, 0])


def test_transfer_fidelity_basics():
    assert transfer_fidelity([1, 0], [0, 1]) == pytest.approx(0.0)
    assert transfer_fidelity([1, 0], [1j, 0]) == pytest.approx(1.0)  # phase-blind
    equal = [1 / np.sqrt(2), 1 / np.sqrt(2)]
    assert transfer_fidelity(equal, [0.6, 0.8]) == pytest.approx(1 - abs(0.64 - 0.5))


def test_haar_state_deterministic_and_normalized():
    a, b = haar_state(42), haar_state(42)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert abs(a.norm - 1.0) < 1e-12
    assert haar_state(42, 5).dimension == 5
    with pytest.raises(ValueError):
        haar_state(0, 1)


def test_haar_moment():
    vals = [haar_state(seed).populations[0] for seed in range(10_000)]
    assert abs(np.mean(vals) - 0.5) < 0.02


def test_initial_state_set_validation():
    with pytest.raises(ValueError, match="equal length"):
        InitialStateSet(("a",), ())
    trio = InitialStateSet.reference_states(2)
    assert len(trio) == 3
    for _, s in trio:
        assert abs(s.norm - 1.0) < 1e-9
    # the 0.9-weighted state is exactly normalized: 0.81 + 0.19 = 1
    assert trio.states[2].populations[0] == pytest.approx(0.81)


def test_area_scan_zero_error_unity():
    for name in ("pi-n4-o1", "pi-n6-o2", "pi2-n4-o1", "pi2-n6-o1"):
        seq = catalog_sequence(name)
        result = area_scan(seq, InitialStateSet.reference_states(2), [0.0])
        assert np.all(result.values >= 1 - 1e-3), name


def test_area_scan_resonant_closed_form():
    states = InitialStateSet(("|0>",), (StateVector.normalized([1, 0]),))
    result = area_scan(resonant_pulse(np.pi), states, [0.0, 0.05])
    assert result.values[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert result.values[0, 1] == pytest.approx(RESONANT_F_AT_5PCT, abs=1e-12)


def test_area_scan_second_order_at_20_percent():
    seq = catalog_sequence("pi-n6-o2")
    states = InitialStateSet(("|0>",), (StateVector.normalized([1, 0]),))
    result = area_scan(seq, states, [0.2])
    assert 1.0 - result.values[0, 0] < 1e-4


def test_area_scan_published_pi_row_at_5_percent():
    seq = catalog_sequence("pi-n4-o1")
    states = InitialStateSet(("|0>",), (StateVector.normalized([1, 0]),))
    result = area_scan(seq, states, [0.05, -0.05])
    assert np.all(1.0 - result.values > 0)
    assert np.all(1.0 - result.values < 1e-4)


def test_area_scan_even_symmetry():
    """First derivative of fidelity in eps vanishes at 0 (real-amplitude states)."""
    h = 1e-4
    seq = catalog_sequence("pi-n4-o1")
    result = area_scan(seq, InitialStateSet.reference_states(2), [-h, h])
    first = (result.values[:, 1] - result.values[:, 0]) / (2 * h)
    assert np.max(np.abs(first)) < 1e-6


@pytest.mark.parametrize("metric", ["state", "transfer"])
def test_area_scan_cells_match_scalar_path(metric):
    seq = catalog_sequence("pi-n6-o1")
    eps = np.linspace(-0.2, 0.2, 41)
    states = InitialStateSet.reference_states(2)
    result = area_scan(seq, states, eps, metric=metric)
    fid = state_fidelity if metric == "state" else transfer_fidelity
    for row, (_, state) in enumerate(states):
        target = state_target(seq, state)
        for col, e in enumerate(eps):
            realized = compose(seq, ErrorModel(area_scale=float(e))) @ state.amplitudes
            assert abs(result.values[row, col] - fid(target, realized)) < 1e-12


def test_area_scan_input_validation():
    with pytest.raises(ValueError):
        area_scan(resonant_pulse(), InitialStateSet.reference_states(2), [])
    with pytest.raises(ValueError, match="metric"):
        area_scan(resonant_pulse(), InitialStateSet.reference_states(2), [0.0], metric="trace")


def test_universality_haar_states_and_gate_bound(derived_pi_o1):
    """Zero-error universality plus the state-infidelity <= 2*gate-distance bound."""
    for name in ("pi-n4-o1", "pi2-n4-o1", "pi-n6-o2"):
        seq = catalog_sequence(name)
        target_gate = target_rotation(seq)
        u0 = compose(seq)
        worst = max(
            1.0 - state_fidelity(target_gate @ haar_state(k).amplitudes,
                                 u0 @ haar_state(k).amplitudes)
            for k in range(100)
        )
        assert worst < 1e-3, name
    # bound at finite eps for a sample of states
    seq = derived_pi_o1
    target_gate = target_rotation(seq)
    for eps in (0.0, 0.05, 0.1, 0.2):
        u = compose_grid(seq, area_scale=np.array([eps]))[0]
        d = gate_distance(u, target_gate)
        for k in range(25):
            s = haar_state(k).amplitudes
            infid = 1.0 - state_fidelity(target_gate @ s, u @ s)
            assert infid <= 2 * d + 1e-6


def test_radius_resonant_reference():
    r = robustness_radius(resonant_pulse(np.pi), [1, 0], 1e-4)
    assert r == pytest.approx(0.00636, abs=2e-3)


def test_radius_published_second_order():
    r = robustness_radius(catalog_sequence("pi-n6-o2"), [1, 0], 1e-4)
    assert r == pytest.approx(0.289, abs=5e-3)


def test_radius_metric_choice(derived_pi2_o1):
    """The pi/2 splitter holds its ratio to ~8% but its quantum state fidelity
    from |0> only to ~0.4% (axis-azimuth drift): the two metrics differ."""
    r_transfer = robustness_radius(derived_pi2_o1, [1, 0], 1e-4, metric="transfer")
    r_state = robustness_radius(derived_pi2_o1, [1, 0], 1e-4, metric="state")
    assert r_transfer == pytest.approx(0.08, abs=0.02)
    assert r_state < 0.01


def test_radius_state_independence_contrast(derived_pi_o1):
    """Universal pi: healthy radii from all three reference states; its PP
    half collapses from superposition states. Regression of kind=universal."""
    trio = InitialStateSet.reference_states(2)
    universal_radii = [
        robustness_radius(derived_pi_o1, s.amplitudes, 1e-4) for _, s in trio
    ]
    assert min(universal_radii) >= 0.05
    half = CompositeSequence.from_ratios(derived_pi_o1.ratios[:2], np.pi / 2)
    pp_ground = robustness_radius(half, [1, 0], 1e-4)
    pp_super = robustness_radius(half, [1 / np.sqrt(2), 1 / np.sqrt(2)], 1e-4)
    assert pp_ground >= 0.05
    assert pp_super <= 0.01
    assert pp_super < pp_ground / 5


def test_radius_degenerate_input():
    seq = catalog_sequence("pi-n4-o1")
    with pytest.raises(ValueError, match="threshold"):
        robustness_radius(seq, [1, 0], 1.5)
    # published two-decimal row misses a 1e-9 threshold already at eps = 0
    with pytest.raises(ValueError, match="already above"):
        robustness_radius(seq, [1, 0], 1e-9)


def test_radius_cap():
    # populations of an equatorial state are pinned under any y rotation
    seq = catalog_sequence("pi-n4-o1")
    r = robustness_radius(seq, [1 / np.sqrt(2), 1 / np.sqrt(2)], 0.5, metric="transfer")
    assert r == pytest.approx(0.999)


def test_scan_2d_origin_and_contrast():
    seq = catalog_sequence("pi-n4-o1")
    axis = np.linspace(-1.0, 1.0, 41)
    grid = scan_2d(seq, [1, 0], axis, axis)
    mid = 20
    assert grid.values[mid, mid] > 1 - 1e-3
    qualifying = 1.0 - grid.values <= 1e-4
    assert qualifying.sum() >= 3
    single = scan_2d(resonant_pulse(np.pi), [1, 0], axis, axis)
    q_single = 1.0 - single.values <= 1e-4
    rows, _ = np.nonzero(q_single)
    # with Delta = 0, relative detuning errors are inert: only the zero
    # coupling-error column can qualify
    assert np.all(np.abs(axis[rows]) < 1e-12)


@pytest.mark.parametrize("metric", ["state", "transfer"])
def test_scan_2d_cells_match_scalar_path(metric):
    seq = catalog_sequence("pi2-n4-o1")
    cs = np.linspace(-0.5, 0.5, 21)
    ds = np.linspace(-0.4, 0.6, 17)
    state = haar_state(11).amplitudes
    result = scan_2d(seq, state, cs, ds, metric=metric)
    fid = state_fidelity if metric == "state" else transfer_fidelity
    target = state_target(seq, state)
    n = len(seq.segments)
    for i, c in enumerate(cs):
        for j, d in enumerate(ds):
            err = ErrorModel(coupling_errors=(float(c),) * n, detuning_errors=(float(d),) * n)
            realized = compose(seq, err) @ state
            assert abs(result.values[i, j] - fid(target, realized)) < 1e-12


def test_decoherence_scan_properties(derived_pi_o1):
    gammas = np.linspace(0.0, 0.2, 21)
    result = decoherence_scan(derived_pi_o1, [1, 0], gammas)
    raw, renorm = result.values
    assert raw[0] < 1e-10 and renorm[0] < 1e-10
    assert np.all(np.diff(raw) >= -1e-12)
    assert np.all(np.diff(renorm) >= -1e-12)
    assert np.all(raw[1:] >= renorm[1:])          # norm loss counts against raw only
    assert result.axes[0].samples == ("raw", "renormalized")
    # threshold-point report (not asserted against any published value)
    probe = decoherence_scan(derived_pi_o1, [1, 0], [0.1])
    assert 0.15 < probe.values[0, 0] < 0.40
    assert probe.values[1, 0] < 0.01


def test_decoherence_scan_validation():
    with pytest.raises(ValueError):
        decoherence_scan(resonant_pulse(), [1, 0], [-0.1])


def test_state_target_dimensions(derived_pi_o1):
    t2 = state_target(derived_pi_o1, [1, 0])
    assert abs(t2.populations[1] - 1.0) < 1e-12
    t3 = state_target(derived_pi_o1, [1, 0, 0], dimension=3)
    assert abs(t3.populations[2] - 1.0) < 1e-12
    with pytest.raises(ValueError, match="dimension"):
        state_target(derived_pi_o1, [1, 0], dimension=3)


def test_scan_result_validation_and_serialization(tmp_path):
    with pytest.raises(ValueError, match="does not match"):
        ScanResult((Axis("x", "u", (1.0, 2.0)),), np.zeros((3,)))
    result = ScanResult(
        (Axis("state", "label", ("a", "b")), Axis("eps", "fraction", (0.0, 0.1, 0.2))),
        np.arange(6, dtype=float).reshape(2, 3) / 10,
        metadata={"value_name": "fidelity"},
    )
    csv_text = result.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "state,eps,fidelity"
    assert len(lines) == 1 + 6
    assert lines[1] == "a,0,0"
    doc = json.loads(result.to_json())
    assert doc["axes"][1]["samples"] == [0.0, 0.1, 0.2]
    assert np.array(doc["values"]).shape == (2, 3)
    p = tmp_path / "scan.csv"
    result.write(p)
    assert p.read_text().startswith("state,eps,fidelity")


def test_scan_csv_12_digit_formatting():
    result = ScanResult(
        (Axis("eps", "fraction", (0.1,)),),
        np.array([0.123456789012345]),
    )
    assert "0.123456789012" in result.to_csv()


def test_fidelity_values_in_range():
    seq = catalog_sequence("pi2-n6-o2")
    eps = np.linspace(-0.5, 0.5, 101)
    result = area_scan(seq, InitialStateSet.reference_states(2), eps)
    assert np.all(result.values >= 0.0)
    assert np.all(result.values <= 1.0 + 1e-10)
