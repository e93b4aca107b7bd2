import numpy as np
import pytest
from scipy.linalg import expm

from dmcp.catalog import catalog_sequence
from dmcp.dynamics import ErrorModel, compose, resonant_pulse
from dmcp.nlevel import (
    SpinSystem,
    nlevel_propagator,
    population_trajectory,
    spin_generators,
    wigner_d,
    wigner_d_matrix,
    wigner_lift,
)
from dmcp.robustness import InitialStateSet, area_scan


def random_su2(rng):
    """Haar-ish SU(2) sample via a random traceless Hermitian generator."""
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = (h + h.conj().T) / 2
    h -= np.trace(h) / 2 * np.eye(2)
    return expm(-1j * h)


def test_spin_generators_n2_are_half_paulis():
    g = spin_generators(2)
    assert np.allclose(g.jx, [[0, 0.5], [0.5, 0]])
    assert np.allclose(g.jy, [[0, -0.5j], [0.5j, 0]])
    assert np.allclose(g.jz, [[0.5, 0], [0, -0.5]])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_spin_generator_commutators(n):
    g = spin_generators(n)
    for a, b, c in ((g.jx, g.jy, g.jz), (g.jy, g.jz, g.jx), (g.jz, g.jx, g.jy)):
        comm = a @ b - b @ a
        assert np.max(np.abs(comm - 1j * c)) < 1e-12
    j = (n - 1) / 2
    assert np.allclose(np.diag(g.jz), j - np.arange(n))


def test_spin_generators_reject_small_n():
    with pytest.raises(ValueError):
        spin_generators(1)


def test_jacobi_couplings_three_level():
    sys3 = SpinSystem(3, base_coupling=1.0)
    assert np.allclose(sys3.jacobi_couplings, [np.sqrt(2), np.sqrt(2)])
    # the ladder couplings are exactly the scaled Jx matrix elements
    g = spin_generators(3)
    assert np.allclose(2 * np.diag(np.asarray(g.jx), 1).real, sys3.jacobi_couplings)
    sys_off = SpinSystem(4, base_detuning=0.5, offset=0.1)
    assert np.allclose(sys_off.ladder_detunings, [0.6, 1.1, 1.6])
    with pytest.raises(ValueError):
        SpinSystem(1)


def test_nlevel_reduces_to_two_level():
    seq = catalog_sequence("pi-n4-o1")
    for err in (ErrorModel(), ErrorModel(area_scale=0.07, coupling_errors=(0.02,)),
                ErrorModel(gamma=0.1)):
        assert np.max(np.abs(nlevel_propagator(seq, 2, err) - compose(seq, err))) < 1e-12


def test_three_level_published_transfer():
    u = nlevel_propagator(catalog_sequence("pi-n4-o1"), 3)
    assert abs(abs(u[2, 0]) ** 2 - 1.0) < 1e-3


def test_three_level_resonant_pi_full_transfer():
    """Spin-1 pi rotation moves the top level to the bottom; the Wigner-d
    oracle fixes the expected amplitude pattern."""
    u = nlevel_propagator(resonant_pulse(np.pi), 3)
    d = wigner_d_matrix(3, np.pi)
    assert abs(abs(u[2, 0]) ** 2 - 1.0) < 1e-10
    assert abs(d[2, 0] - 1.0) < 1e-12  # d^1_{-1,1}(pi) = 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 14, 40])
def test_wigner_d_matches_exponential(n):
    g = spin_generators(n)
    for beta in (0.3, 1.234, np.pi / 2, np.pi, 5.0):
        assert np.max(np.abs(wigner_d_matrix(n, beta) - expm(-1j * beta * g.jy))) < 1e-12


def test_wigner_d_half_spin_entries():
    beta = 0.77
    assert wigner_d(0.5, 0.5, 0.5, beta) == pytest.approx(np.cos(beta / 2))
    assert wigner_d(0.5, 0.5, -0.5, beta) == pytest.approx(-np.sin(beta / 2))


def test_wigner_lift_identity_and_validation():
    for n in (2, 3, 5):
        assert np.max(np.abs(wigner_lift(np.eye(2), n) - np.eye(n))) < 1e-12
    with pytest.raises(ValueError, match="unitary"):
        wigner_lift(np.array([[1.0, 1.0], [0.0, 1.0]]), 3)
    with pytest.raises(ValueError, match="special-unitary"):
        wigner_lift(1j * np.eye(2), 3)
    with pytest.raises(ValueError, match="2x2"):
        wigner_lift(np.eye(3), 3)


def test_wigner_lift_negative_identity():
    # -I lifts to (-1)^(2j) * I: -I for even n (half-integer j), +I for odd n
    assert np.max(np.abs(wigner_lift(-np.eye(2), 2) + np.eye(2))) < 1e-12
    assert np.max(np.abs(wigner_lift(-np.eye(2), 3) - np.eye(3))) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_wigner_lift_homomorphism(n):
    rng = np.random.default_rng(11 + n)
    for _ in range(20):
        u, v = random_su2(rng), random_su2(rng)
        lhs = wigner_lift(u @ v, n)
        rhs = wigner_lift(u, n) @ wigner_lift(v, n)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def exponential_product(seq, n, err):
    """Test-side oracle: product over pieces of exp(-i dt (Omega Jx - Delta Jz
    - i gamma/2 * excitation number)), one scipy exponential per piece."""
    g = spin_generators(n)
    excitations = np.diag(np.arange(n)).astype(complex)
    u = np.eye(n, dtype=complex)
    for k, seg in enumerate(seq.segments):
        omega = seg.coupling * (1.0 + err.coupling_error(k))
        delta = seg.detuning * (1.0 + err.detuning_error(k))
        dt = seg.duration * (1.0 + err.area_scale)
        u = expm(-1j * dt * (omega * g.jx - delta * g.jz - 0.5j * err.gamma * excitations)) @ u
    return u


def perturbed(gamma):
    return ErrorModel(area_scale=0.03, coupling_errors=(0.02, -0.01), detuning_errors=(0.0, 0.05),
                      gamma=gamma)


def test_wigner_lift_matches_propagator_for_resonant_pulse():
    want = expm(-1j * np.pi * spin_generators(3).jx)
    assert np.max(np.abs(nlevel_propagator(resonant_pulse(np.pi), 3) - want)) < 1e-12
    assert np.max(np.abs(wigner_lift(compose(resonant_pulse(np.pi)), 3) - want)) < 1e-12


@pytest.mark.parametrize("name", ["pi-n4-o1", "pi-n6-o2", "pi2-n4-o1"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_representation_consistency(name, n):
    """Central theorem: the lift of the composed two-level propagator equals
    the product of the spin-j exponentials, with and without relaxation."""
    seq = catalog_sequence(name)
    for err in (ErrorModel(), perturbed(0.0), perturbed(0.05)):
        assert np.max(np.abs(nlevel_propagator(seq, n, err) - exponential_product(seq, n, err))) < 1e-12


@pytest.mark.parametrize("gamma", [0.0, 0.05])
@pytest.mark.parametrize("n", [8, 14, 16, 32])
def test_large_n_propagator_matches_exponential_product(n, gamma):
    for name in ("pi-n6-o2", "pi2-n4-o1"):
        seq = catalog_sequence(name)
        err = perturbed(gamma)
        assert np.max(np.abs(nlevel_propagator(seq, n, err) - exponential_product(seq, n, err))) < 1e-12


def test_lift_rejects_more_levels_than_double_range():
    with pytest.raises(ValueError, match="at most 1000 levels"):
        nlevel_propagator(resonant_pulse(np.pi), 1001)


@pytest.mark.parametrize("n", [3, 5])
def test_nlevel_unitarity_and_norm(n):
    seq = catalog_sequence("pi-n6-o1")
    u = nlevel_propagator(seq, n)
    assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-12
    state = np.zeros(n, complex)
    state[0] = 1.0
    assert abs(np.linalg.norm(u @ state) - 1.0) < 1e-12


def test_nlevel_relaxation_shrinks_norm():
    seq = catalog_sequence("pi-n4-o1")
    state = np.zeros(3, complex)
    state[0] = 1.0
    norms = [
        np.linalg.norm(nlevel_propagator(seq, 3, ErrorModel(gamma=float(g))) @ state)
        for g in (0.0, 0.05, 0.1, 0.2)
    ]
    assert norms[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(norms) < 0)


def test_population_trajectory_endpoint_and_resolution():
    seq = catalog_sequence("pi-n4-o1")
    rows = population_trajectory(seq, 3, samples_per_segment=16)
    assert rows.shape == (1 + 4 * 16, 4)
    assert abs(rows[-1, 3] - 1.0) < 1e-3           # ends in the bottom level
    assert np.max(np.abs(rows[:, 1:].sum(axis=1) - 1.0)) < 1e-12
    with pytest.raises(ValueError):
        population_trajectory(seq, 3, samples_per_segment=1)
    with pytest.raises(ValueError, match="dimension"):
        population_trajectory(seq, 3, init=[1, 0])


def test_three_level_multi_state_flatness(derived_pi_o1):
    """The three reference states keep population fidelity above 1 - 1e-2
    across +-10% area error for the first-order pi sequence, and coincide at
    F = 1 within 1e-3 at zero error (state fidelity)."""
    states = InitialStateSet.reference_states(3)
    at_zero = area_scan(derived_pi_o1, states, [0.0], dimension=3, metric="state")
    assert np.all(at_zero.values >= 1 - 1e-3)
    eps = np.linspace(-0.1, 0.1, 21)
    scan = area_scan(derived_pi_o1, states, eps, dimension=3, metric="transfer")
    assert np.all(scan.values >= 1 - 1e-2)
