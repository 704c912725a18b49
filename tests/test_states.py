import json
import math

import mpmath
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
from gtokit.symplectic import STRUCTURAL_TOL, _is_symmetric, random_symplectic

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
        n = len(cm) // 2
        if not np.isfinite(cm).all():
            # No state holds a NaN, so validate_state never sees one.
            with pytest.raises(ValueError, match="^cm must be finite"):
                GaussianState(n, np.zeros(2 * n), cm)
            return
        state = GaussianState(n, np.zeros(2 * n), cm)
        for tol in VALIDATION_TOLS:
            assert validate_state(state, tol) == reference_physical(cm, tol), tol

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_constructor_refuses_non_finite_entries(self, bad):
        # GaussianState(1, [nan, 0], eye(2)) used to build a state.
        with pytest.raises(ValueError, match="^first_moments must be finite"):
            GaussianState(1, [bad, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="^cm must be finite"):
            GaussianState(1, np.zeros(2), np.diag([bad, 1.0]))

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
        # H = S S^T for S = diag(2, 1/2) has omega = 1 and normal coordinates
        # S^T r, so the Gibbs state at beta = ln 3 (nu = 2) is 2 S^-T S^-1 =
        # 2 diag(1/4, 4), with energy tr(H sigma) / 4 = nu omega / 2 = 1.
        S = squeezer(2.0)
        ham = HamiltonianSpec(H=S @ S.T)
        state = thermal_state(LN3, ham)
        assert_allclose(state.cm, 2.0 * np.diag([0.25, 4.0]), rtol=1e-12)
        assert np.trace(ham.H @ state.cm) / 4 == pytest.approx(1.0, rel=1e-12)

    def test_ground_state(self):
        # The ground state S^-T S^-1 has the zero-point energy omega / 2.
        S = squeezer(2.0)
        ham = HamiltonianSpec(H=S @ S.T)
        state = thermal_state(math.inf, ham)
        assert_allclose(state.cm, np.diag([0.25, 4.0]), rtol=1e-12)
        assert np.trace(ham.H @ state.cm) / 4 == pytest.approx(0.5, rel=1e-12)

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

    @given(
        nu=st.floats(1.0, 10.0),
        z=st.floats(1.0, 1e6),
        phi=st.floats(0.0, math.pi, exclude_max=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_50_digit_form(self, nu, z, phi):
        # The reference decomposes the float matrix itself, so that only the
        # decomposition's own rounding is measured: nu within 2 ulps, z within
        # 4 (over 80k seeded draws the worst were 1.13 and 3.0 ulps).
        R = rotation(phi)
        cm = nu * R @ np.diag([z, 1.0 / z]) @ R.T
        cm = 0.5 * (cm + cm.T)
        with mpmath.workdps(50):
            a, b, _, c = (mpmath.mpf(float(v)) for v in cm.ravel())
            want_nu = mpmath.sqrt(a * c - b * b)
            want_z = ((a + c) / 2 + mpmath.sqrt(((a - c) / 2) ** 2 + b * b)) / want_nu
            want_nu, want_z = float(want_nu), float(want_z)
        try:
            form = single_mode_decompose(cm)
        except ValueError as exc:
            # Rounding the entries moves det by up to ~z^2 ulps, so at nu = 1
            # the float matrix itself may sit below the vacuum.
            assert str(exc).startswith("not a physical state")
            assert want_nu < 1.0 - STRUCTURAL_TOL + 2 * math.ulp(1.0)
            return
        assert abs(form.nu - want_nu) <= 2 * math.ulp(want_nu)
        assert abs(form.z - want_z) <= 4 * math.ulp(want_z)
        assert 0.0 <= form.phi < math.pi
        # Below z = 1 + STRUCTURAL_TOL the long axis is dropped (phi = 0),
        # which moves the matrix by at most nu (z - 1/z).
        slack = want_nu * (want_z - 1.0 / want_z) if form.z <= 1.0 + STRUCTURAL_TOL else 0.0
        assert np.abs(form.to_cm() - cm).max() <= 1e-10 * np.abs(cm).max() + slack

    def test_keeps_the_digits_of_a_pure_state_under_strong_squeezing(self):
        # Cassini's identity F45 F43 - F44^2 = 1 makes this integer matrix a
        # pure state at z ~ 1.6e9: ac and b^2 agree to all but their last
        # unit, so a determinant rounded at each product keeps no digit of nu.
        F45, F44, F43 = 1134903170, 701408733, 433494437
        form = single_mode_decompose(np.array([[F45, F44], [F44, F43]], dtype=float))
        assert (form.nu, form.z) == (1.0, 1568397607.0)

    def test_huge_entries_do_not_overflow(self):
        form = single_mode_decompose(np.diag([4e200, 0.25e200]))
        assert_allclose([form.nu, form.z, form.phi], [1e200, 4.0, 0.0], rtol=1e-15)

    @given(
        ma=st.floats(1.0, 2.0, exclude_max=True),
        mc=st.floats(1.0, 2.0, exclude_max=True),
        ea=st.integers(-1021, 1023),
        e_sum=st.integers(0, 2044),
    )
    @settings(max_examples=300, deadline=None)
    def test_widely_spread_diagonal_keeps_nu_to_one_ulp(self, ma, mc, ea, e_sum):
        # diag(3e300, 3e-300) was refused as not positive definite: a power-of-two
        # pre-scale sent 3e-300 to zero before the determinant was taken.
        ec = min(max(e_sum - ea, -1021), 1023)  # ea + ec >= 0, so a c >= 1
        a, c = math.ldexp(ma, ea), math.ldexp(mc, ec)
        form = single_mode_decompose(np.diag([a, c]))
        with mpmath.workprec(200):
            want = float(mpmath.sqrt(mpmath.mpf(a) * mpmath.mpf(c)))
        assert abs(form.nu - want) <= math.ulp(want)

    @pytest.mark.parametrize("a, c", [(3e300, 3e-300), (3e200, 3e-200), (3e-300, 3e300)])
    def test_far_apart_entries_are_positive_definite(self, a, c):
        assert single_mode_decompose(np.diag([a, c])).nu == pytest.approx(3.0, rel=1e-15)

    def test_phi_stays_below_pi(self):
        # 0.5 atan2(-b, (a - c)/2) is -1.3e-21 here, and -1.3e-21 mod pi rounds to pi.
        form = single_mode_decompose(np.array([[8.0, 1e-20], [1e-20, 0.5]]))
        assert (form.nu, form.z, form.phi) == (2.0, 4.0, 0.0)

    @pytest.mark.parametrize(
        "cm, message",
        [
            (np.array([[1.0, 0.5], [0.0, 1.0]]), "covariance matrix must be symmetric"),
            (np.array([[1.0, 2.0], [2.0, 1.0]]), "covariance matrix must be positive definite"),
            (np.array([[-2.0, 0.0], [0.0, -2.0]]), "covariance matrix must be positive definite"),
            (np.zeros((2, 2)), "covariance matrix must be positive definite"),
            (0.5 * np.eye(2), r"not a physical state: symplectic eigenvalue 0.5 < 1"),
            (np.eye(4), r"expected a 2x2 covariance matrix, got \(4, 4\)"),
            (np.ones(4), r"expected a 2x2 covariance matrix, got \(4,\)"),
        ],
    )
    def test_refusals_name_their_rule(self, cm, message):
        with pytest.raises(ValueError, match=message):
            single_mode_decompose(cm)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entries", [[(0, 0)], [(0, 1)], [(1, 0)], [(1, 1)], [(0, 1), (1, 0)]])
    def test_non_finite_entries_are_refused(self, value, entries):
        cm = np.array([[3.0, 0.5], [0.5, 2.0]])
        for ij in entries:
            cm[ij] = value
        # NaN anywhere, or an infinite diagonal or pair, is an asymmetry (as in
        # _is_symmetric); one infinite off-diagonal entry passes the relative
        # symmetry bound and leaves an infinite or NaN determinant.
        lone_infinity = len(entries) == 1 and entries[0] in ((0, 1), (1, 0)) and math.isinf(value)
        rule = "positive definite" if lone_infinity else "symmetric"
        with pytest.raises(ValueError, match=f"covariance matrix must be {rule}"):
            single_mode_decompose(cm)

    @given(
        entries=st.lists(
            st.one_of(st.floats(-5.0, 5.0), st.sampled_from([math.nan, math.inf, -math.inf])), min_size=3, max_size=3
        ),
        asymmetry=st.floats(-12.0, -6.0),
        tol=st.sampled_from(VALIDATION_TOLS),
    )
    @settings(max_examples=300, deadline=None)
    def test_symmetry_rule_is_the_array_rule(self, entries, asymmetry, tol):
        a, b, c = entries
        cm = np.array([[a, b], [b + 10.0**asymmetry * max(1.0, abs(b)), c]])
        try:
            single_mode_decompose(cm, tol)
            refused = False
        except ValueError as exc:
            refused = str(exc) == "covariance matrix must be symmetric"
        with np.errstate(invalid="ignore"):  # inf - inf in cm - cm^T
            assert refused == (not _is_symmetric(cm, tol))


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

    @given(
        nu=st.one_of(
            st.floats(min_value=1.0, max_value=1e300, exclude_min=True),
            st.floats(min_value=-16.0, max_value=0.0).map(lambda t: 1.0 + 10.0**t).filter(lambda nu: nu > 1.0),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_50_digit_value(self, nu):
        # The two x ln x terms cancel down to the entropy, so the reference
        # carries 50 digits beyond the terms' own magnitude.
        with mpmath.workdps(50 + int(math.log10(nu))):
            up, dn = (mpmath.mpf(nu) + 1) / 2, (mpmath.mpf(nu) - 1) / 2
            want = up * mpmath.log(up) - dn * mpmath.log(dn)
            assert abs(entropy(nu) - want) <= 5e-16 * want

    def test_keeps_its_digits_at_huge_nu(self):
        # the cancelling form lost every digit here and returned 0.0 from nu ~ 1e16
        assert entropy(1e150) == 345.6946167685469


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
