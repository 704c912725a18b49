import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gtokit.states import (
    GaussianState,
    HamiltonianSpec,
    entropy,
    free_energy,
    normal_mode_spectrum,
    nu_of,
    rotation,
    single_mode_decompose,
    squeezer,
    thermal_state,
    validate_state,
)
from gtokit.symplectic import random_symplectic

LN3 = 1.0986122886681098
VALIDATION_TOLS = (1e-12, 1e-9, 1e-8, 1e-6)
PLANTS = ("none", "asymmetry", "sub-vacuum", "nan", "indefinite")


@st.composite
def planted_cms(draw):
    """A 1-3 mode CM ``S diag(nu) S^T`` with ``nu`` in [1, 5], and at most one planted fault.

    The fault's parameters are drawn first: Hypothesis spreads early draws
    evenly but pushes later ones towards their bounds.
    """
    plant = draw(st.sampled_from(PLANTS))
    asymmetry = 10.0 ** draw(st.floats(-14.0, -4.0))  # relative to max |cm|
    i, j = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    n = draw(st.integers(1, 3))
    S = random_symplectic(n, draw(st.integers(0, 2**32 - 1)))
    nus = draw(st.lists(st.floats(1.0, 5.0), min_size=n, max_size=n))
    if plant == "sub-vacuum":
        nus[i % n] = draw(st.floats(0.3, 0.99))
    cm = S @ np.diag(np.repeat(nus, 2)) @ S.T
    cm = 0.5 * (cm + cm.T)
    i, j = i % (2 * n), (i + j) % (2 * n)
    if plant == "asymmetry":
        j = j if j != i else (i + 1) % (2 * n)  # off the diagonal
        cm[i, j] += asymmetry * np.abs(cm).max()
    elif plant == "nan":
        cm[i, j] = math.nan
    elif plant == "indefinite":
        cm[i, i] = -cm[i, i]
    return cm


def reference_physical(cm, tol):
    """Physicality of ``cm`` in plain numpy: finite, symmetric within ``tol``
    times max(1, max |cm|), positive definite, and smallest symplectic
    eigenvalue >= 1 - tol.  The eigenvalues are the positive spectrum of the
    Hermitian matrix ``sigma^1/2 (i Omega) sigma^1/2``, ``sigma`` the symmetric part."""
    if not np.isfinite(cm).all():
        return False
    if np.abs(cm - cm.T).max() > tol * max(1.0, np.abs(cm).max()):
        return False
    if np.linalg.eigvalsh(cm).min() <= 0:
        return False
    w, V = np.linalg.eigh(0.5 * (cm + cm.T))
    root = (V * np.sqrt(w)) @ V.T
    n = len(cm) // 2
    Om = np.kron(np.eye(n), [[0.0, 1.0], [-1.0, 0.0]])
    return bool(np.abs(np.linalg.eigvalsh(root @ (1j * Om) @ root)).min() >= 1.0 - tol)


class TestValidateState:
    def test_vacuum_is_valid(self):
        assert validate_state(GaussianState.vacuum(1))

    def test_below_uncertainty_is_invalid(self):
        state = GaussianState(1, np.zeros(2), np.diag([0.5, 0.5]))
        assert not validate_state(state)

    def test_asymmetric_squeezed_state(self):
        # nu = sqrt(4 * 0.3) = sqrt(1.2) > 1, so this is physical.
        state = GaussianState(1, np.zeros(2), np.diag([4.0, 0.3]))
        assert validate_state(state)
        assert_allclose(math.sqrt(np.linalg.det(state.cm)), 1.0954451150103322)

    def test_non_symmetric_cm_is_invalid(self):
        state = GaussianState(1, np.zeros(2), np.array([[2.0, 0.5], [0.0, 2.0]]))
        assert not validate_state(state)

    def test_asymmetry_within_tol_gives_a_verdict(self):
        state = GaussianState(1, np.zeros(2), np.array([[2.0, 0.1 + 5e-9], [0.1, 1.0]]))
        assert validate_state(state, tol=1e-8)
        assert not validate_state(state)

    @given(cm=planted_cms())
    @settings(max_examples=300, deadline=None)
    def test_verdict_equals_the_numpy_statement(self, cm):
        state = GaussianState(len(cm) // 2, np.zeros(len(cm)), cm)
        for tol in VALIDATION_TOLS:
            assert validate_state(state, tol) == reference_physical(cm, tol), tol

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            GaussianState(2, np.zeros(2), np.eye(2))


class TestNuOf:
    def test_log3_gives_two(self):
        assert_allclose(nu_of(LN3, 1.0), 2.0, rtol=1e-14)

    def test_unit_argument(self):
        # (e + 1) / (e - 1), evaluated independently.
        assert_allclose(nu_of(1.0, 1.0), 2.1639534137386528, rtol=1e-15)

    def test_ground_state_limit(self):
        assert nu_of(200.0, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert nu_of(math.inf, 1.0) == 1.0

    def test_monotone_decreasing(self):
        grid = np.linspace(0.1, 5.0, 50)
        vals = [nu_of(bw, 1.0) for bw in grid]
        assert np.all(np.diff(vals) < 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            nu_of(-1.0, 1.0)
        with pytest.raises(ValueError):
            nu_of(1.0, 0.0)


class TestThermalState:
    def test_scalar_hamiltonian(self):
        state = thermal_state(LN3, HamiltonianSpec(H=np.eye(2)))
        assert_allclose(state.cm, 2.0 * np.eye(2), rtol=1e-12)
        assert_allclose(state.first_moments, np.zeros(2))

    def test_squeezed_normal_frame(self):
        # H = S S^T for S = diag(2, 1/2) has omega = 1, so the Gibbs state at
        # beta = ln 3 is 2 S S^T.
        S = squeezer(2.0)
        ham = HamiltonianSpec(H=S @ S.T)
        state = thermal_state(LN3, ham)
        assert_allclose(state.cm, 2.0 * np.diag([4.0, 0.25]), rtol=1e-12)

    def test_ground_state(self):
        S = squeezer(2.0)
        ham = HamiltonianSpec(H=S @ S.T)
        state = thermal_state(math.inf, ham)
        assert_allclose(state.cm, S @ S.T, rtol=1e-12)

    def test_center_is_used(self):
        ham = HamiltonianSpec(H=np.eye(2), center=np.array([1.5, -0.5]))
        state = thermal_state(1.0, ham)
        assert_allclose(state.first_moments, [1.5, -0.5])

    def test_output_is_valid(self):
        rng = np.random.default_rng(2)
        for seed in range(30):
            n = int(rng.integers(1, 4))
            S = random_symplectic(n, seed)
            oms = rng.uniform(0.5, 3.0, size=n)
            H = S @ np.diag(np.repeat(oms, 2)) @ S.T
            state = thermal_state(rng.uniform(0.2, 3.0), HamiltonianSpec(H=H))
            assert validate_state(state)

    def test_rejects_non_finite_hamiltonian(self):
        with pytest.raises(ValueError, match="H must be finite"):
            HamiltonianSpec(H=np.array([[2.0, math.nan], [math.nan, 1.0]]))

    def test_rejects_nonpositive_hamiltonian(self):
        with pytest.raises(ValueError):
            HamiltonianSpec(H=np.diag([1.0, -0.1]))


class TestNormalModeSpectrum:
    def test_fully_degenerate(self):
        spec = normal_mode_spectrum(HamiltonianSpec(H=np.eye(4)))
        assert len(spec.sectors) == 1
        assert spec.sectors[0].multiplicity == 2
        assert_allclose(spec.sectors[0].omega, 1.0)

    def test_two_distinct_frequencies(self):
        spec = normal_mode_spectrum(HamiltonianSpec(H=np.diag([1.0, 1.0, 2.0, 2.0])))
        assert sorted(sec.omega for sec in spec.sectors) == pytest.approx([1.0, 2.0])
        assert all(sec.multiplicity == 1 for sec in spec.sectors)

    def test_construct_then_decompose(self):
        for seed in range(20):
            S = random_symplectic(2, seed)
            H = S @ np.eye(4) @ S.T
            spec = normal_mode_spectrum(HamiltonianSpec(H=H))
            assert len(spec.sectors) == 1
            assert spec.sectors[0].multiplicity == 2
            assert_allclose(spec.sectors[0].omega, 1.0, rtol=1e-9)
            # the normalizing symplectic brings H back to omega * identity
            S_inv = np.linalg.inv(spec.S)
            assert_allclose(S_inv @ H @ S_inv.T, np.eye(4), atol=1e-9)

    def test_per_mode_frequencies(self):
        spec = normal_mode_spectrum(HamiltonianSpec(H=np.diag([3.0, 3.0, 1.0, 1.0])))
        assert_allclose(spec.frequencies, [3.0, 1.0])


class TestSingleModeDecompose:
    def test_thermal(self):
        form = single_mode_decompose(3.0 * np.eye(2))
        assert (form.nu, form.z, form.phi) == pytest.approx((3.0, 1.0, 0.0))

    def test_squeezed_thermal(self):
        form = single_mode_decompose(np.diag([8.0, 0.5]))
        assert form.nu == pytest.approx(2.0)
        assert form.z == pytest.approx(4.0)
        assert form.phi == pytest.approx(0.0)

    def test_round_trip_specific(self):
        nu, z, phi = 2.0, 4.0, 1.1
        cm = nu * rotation(phi) @ np.diag([z, 1.0 / z]) @ rotation(phi).T
        form = single_mode_decompose(cm)
        assert (form.nu, form.z, form.phi) == pytest.approx((nu, z, phi))

    def test_round_trip_seeded(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            nu = rng.uniform(1.0, 6.0)
            z = rng.uniform(1.0 + 1e-6, 5.0)
            phi = rng.uniform(0.0, np.pi)
            cm = nu * rotation(phi) @ np.diag([z, 1.0 / z]) @ rotation(phi).T
            form = single_mode_decompose(cm)
            assert_allclose([form.nu, form.z], [nu, z], rtol=1e-9)
            assert math.isclose(form.phi, phi, abs_tol=1e-7) or math.isclose(
                abs(form.phi - phi), math.pi, abs_tol=1e-7
            )
            assert np.abs(form.to_cm() - cm).max() <= 1e-10

    def test_rejects_unphysical(self):
        with pytest.raises(ValueError):
            single_mode_decompose(0.5 * np.eye(2))
        with pytest.raises(ValueError):
            single_mode_decompose(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestEntropy:
    def test_pure_state(self):
        assert entropy(1.0) == 0.0

    def test_nu_three(self):
        # (nu+1)/2 = 2 and (nu-1)/2 = 1, so the entropy is 2 ln 2.
        assert_allclose(entropy(3.0), 1.3862943611198906, rtol=1e-15)

    def test_nu_two(self):
        assert_allclose(entropy(2.0), 0.9547712524422192, rtol=1e-15)

    def test_monotone(self):
        grid = np.linspace(1.01, 10.0, 200)
        vals = [entropy(nu) for nu in grid]
        assert np.all(np.diff(vals) > 0)

    def test_continuous_at_one(self):
        assert entropy(1.0 + 1e-12) < 1e-10

    def test_domain_error(self):
        with pytest.raises(ValueError):
            entropy(0.9)

    @pytest.mark.parametrize("nu", [math.inf, math.nan])
    def test_refuses_non_finite(self, nu):
        with pytest.raises(ValueError, match="nu must be finite and >= 1"):
            entropy(nu)


class TestFreeEnergy:
    def test_ground_state_energy(self):
        assert_allclose(free_energy(1.0, 1.0, beta=2.0, omega=1.3), 1.3 / 2.0)

    def test_minimum_at_bath_value(self):
        """At z = 1 the free-energy minimum over nu sits at nu_of(beta, omega)."""
        for beta, om in [(0.5, 1.0), (1.0, 0.7), (2.0, 1.5), (0.8, 2.0)]:
            grid = np.linspace(1.0, 12.0, 40001)
            vals = [free_energy(nu, 1.0, beta, om) for nu in grid]
            nu_star = grid[int(np.argmin(vals))]
            assert abs(nu_star - nu_of(beta, om)) <= grid[1] - grid[0]

    def test_increasing_in_z(self):
        f = [free_energy(2.0, z, 1.0, 1.0) for z in (1.0, 1.5, 2.0, 3.0)]
        assert np.all(np.diff(f) > 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            free_energy(2.0, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="z must be finite"):
            free_energy(2.0, math.inf, 1.0, 1.0)
        with pytest.raises(ValueError):
            free_energy(2.0, 1.0, -1.0, 1.0)


class TestSerialization:
    def test_state_round_trip(self, gtokit_run):
        # States are read and written only by the CLI; the identity channel hands one back unchanged.
        state = {"n_modes": 1, "first_moments": [0.3, -0.2], "cm": [[4.0, 0.0], [0.0, 0.3]]}
        identity = {"X": np.eye(2).tolist(), "Y": np.zeros((2, 2)).tolist(), "d": [0.0, 0.0]}
        code, out = gtokit_run(["apply"], {"state": state, "channel": identity})
        assert code == 0
        assert json.loads(out) == state
