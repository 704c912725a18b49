import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gtokit.channels import _act, _single_mode_xy, apply_channel, single_mode_gto
from gtokit.cooling import (
    CoolingTrace,
    ProtocolStep,
    _nu_of_cm,
    entropy_lower_bound,
    greedy_adversary,
    run_protocol,
    sideband_swap,
)
from gtokit.states import (
    GaussianState,
    HamiltonianSpec,
    entropy,
    nu_of,
    rotation,
    squeezer,
    thermal_state,
)

LN3 = 1.0986122886681098
# 1/tanh(5), i.e. the thermal symplectic eigenvalue at beta*omega = 10
NU_AT_10 = 1.0000908039820194


def random_single_mode_cm(rng, nu_max=5.0):
    nu = rng.uniform(1.0, nu_max)
    U = rotation(rng.uniform(0, 2 * np.pi)) @ squeezer(rng.uniform(1.0, 3.0))
    return nu * U @ U.T, nu


def step_by_step_nus(initial, steps, nu_b, S=None):
    """Symplectic eigenvalues along a protocol, through the public checking
    API: ``single_mode_gto`` and ``apply_channel`` on every step."""
    cm, r = initial.cm, initial.first_moments
    nus = [max(math.sqrt(max(np.linalg.det(cm), 0.0)), 1.0)]
    for step in steps:
        U = step.unitary
        ch = single_mode_gto(step.gto_p, step.gto_phi, nu_b, S)
        out = apply_channel(ch, GaussianState(1, U @ r, U @ cm @ U.T))
        cm, r = out.cm, out.first_moments
        nus.append(max(math.sqrt(max(np.linalg.det(cm), 0.0)), 1.0))
    return np.array(nus)


angles = st.floats(0.0, 2 * np.pi)
protocol_steps = st.lists(
    st.builds(
        ProtocolStep.from_params,
        squeeze=st.floats(1.0, 5.0),
        rotate=angles,
        p=st.floats(0.0, 1.0),
        phi=angles,
    ),
    min_size=1,
    max_size=20,
)
frames = st.none() | st.builds(lambda z, a: rotation(a) @ squeezer(z), st.floats(1.0, 2.0), angles)


class TestProtocolStep:
    def test_from_params_builds_rotation_after_squeeze(self):
        step = ProtocolStep.from_params(squeeze=2.0, rotate=0.7, p=0.5)
        assert_allclose(step.unitary, rotation(0.7) @ squeezer(2.0))

    def test_rejects_non_symplectic_unitary(self):
        with pytest.raises(ValueError):
            ProtocolStep(unitary=2.0 * np.eye(2), gto_p=0.5)

    def test_rejects_p_out_of_range(self):
        with pytest.raises(ValueError):
            ProtocolStep(unitary=np.eye(2), gto_p=1.5)

    def test_dict_round_trip(self, gtokit_run):
        # ``gtokit cool`` reads a step given by its unitary, p and phi
        step = ProtocolStep.from_params(squeeze=1.5, rotate=0.3, p=0.4, phi=0.2)
        steps = [{"unitary": step.unitary.tolist(), "p": 0.4, "phi": 0.2}]
        payload = {"nu0": 3.0, "z0": 1.2, "nu_b": 2.0, "steps": steps}
        code, out = gtokit_run(["cool", "--json"], payload)
        assert code == 0
        initial = GaussianState(1, np.zeros(2), 3.0 * squeezer(1.2))
        assert json.loads(out)["steps"] == [list(s) for s in run_protocol(initial, [step], 2.0).steps]

    def test_cli_reads_the_params_form(self, gtokit_run):
        # squeeze and rotate build rotation(rotate) @ squeezer(squeeze); phi defaults to 0
        payload = {"nu0": 3.0, "z0": 1.2, "nu_b": 2.0, "steps": [{"squeeze": 1.5, "rotate": 0.3, "p": 0.4}]}
        code, out = gtokit_run(["cool", "--json"], payload)
        assert code == 0
        step = ProtocolStep(unitary=rotation(0.3) @ squeezer(1.5), gto_p=0.4)
        initial = GaussianState(1, np.zeros(2), 3.0 * squeezer(1.2))
        assert json.loads(out)["steps"] == [list(s) for s in run_protocol(initial, [step], 2.0).steps]


class TestRunProtocol:
    def test_empty_protocol(self):
        state = GaussianState(1, np.zeros(2), 3.0 * np.eye(2))
        trace = run_protocol(state, [], nu_b=2.0)
        assert len(trace.steps) == 1
        assert trace.nus[0] == pytest.approx(3.0)
        assert not trace.violated

    def test_single_full_thermalization(self):
        state = GaussianState(1, np.zeros(2), 5.0 * np.eye(2))
        trace = run_protocol(state, [ProtocolStep(np.eye(2), 0.0)], nu_b=2.0)
        assert trace.nus[-1] == 2.0
        assert trace.entropies[-1] == pytest.approx(entropy(2.0))
        assert not trace.violated

    def test_thermal_fixed_point_is_exact(self):
        # p = 1/4 has an exactly representable sqrt, so the arithmetic of
        # X cm X^T + Y reproduces 2 * identity bit for bit.
        state = GaussianState(1, np.zeros(2), 2.0 * np.eye(2))
        steps = [ProtocolStep(np.eye(2), 0.25) for _ in range(8)]
        trace = run_protocol(state, steps, nu_b=2.0)
        assert all(nu == 2.0 for nu in trace.nus)

    def test_bound_never_violated_random_protocols(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            nu_0 = rng.uniform(1.0, 5.0)
            state = GaussianState(1, np.zeros(2), nu_0 * np.eye(2))
            steps = [
                ProtocolStep.from_params(
                    squeeze=float(np.exp(rng.uniform(0, np.log(5.0)))),
                    rotate=rng.uniform(0, 2 * np.pi),
                    p=rng.uniform(0, 1),
                    phi=rng.uniform(0, 2 * np.pi),
                )
                for _ in range(20)
            ]
            trace = run_protocol(state, steps, nu_b=2.0)
            assert not trace.violated
            assert trace.nus.min() >= min(nu_0, 2.0) - 1e-9

    def test_per_step_mixing_bound(self):
        """Every single step obeys nu_out >= p nu_in + (1-p) nu_b."""
        rng = np.random.default_rng(59)
        for k in range(2000):
            cm, nu = random_single_mode_cm(rng)
            p = rng.uniform(0, 1)
            nu_b = rng.uniform(1.0, 3.0)
            S = squeezer(rng.uniform(1.0, 2.0)) if k % 2 else None
            ch = single_mode_gto(p, rng.uniform(0, 2 * np.pi), nu_b, S)
            out = ch.X @ cm @ ch.X.T + ch.Y
            nu_out = math.sqrt(np.linalg.det(out))
            assert nu_out >= p * nu + (1.0 - p) * nu_b - 1e-9

    def test_bound_holds_in_squeezed_channel_frame(self):
        rng = np.random.default_rng(61)
        state = GaussianState(1, np.zeros(2), 4.0 * np.eye(2))
        steps = [
            ProtocolStep.from_params(
                squeeze=rng.uniform(1.0, 3.0),
                rotate=rng.uniform(0, 2 * np.pi),
                p=rng.uniform(0, 1),
            )
            for _ in range(15)
        ]
        trace = run_protocol(state, steps, nu_b=2.0, S=squeezer(1.7))
        assert not trace.violated
        assert trace.nus.min() >= 2.0 - 1e-9

    def test_rejects_multimode_initial_state(self):
        with pytest.raises(ValueError):
            run_protocol(GaussianState.vacuum(2), [], nu_b=2.0)

    def test_rejects_invalid_initial_state(self):
        bad = GaussianState(1, np.zeros(2), 0.5 * np.eye(2))
        with pytest.raises(ValueError):
            run_protocol(bad, [], nu_b=2.0)

    @given(
        nu_0=st.floats(1.0, 6.0),
        z_0=st.floats(1.0, 3.0),
        nu_b=st.floats(1.0, 6.0),
        steps=protocol_steps,
        S=frames,
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_checked_step_by_step_route(self, nu_0, z_0, nu_b, steps, S):
        initial = GaussianState(1, np.array([0.3, -0.2]), nu_0 * np.diag([z_0, 1.0 / z_0]))
        try:
            want = step_by_step_nus(initial, steps, nu_b, S)
        except ValueError:
            # Rounding made a state look unphysical to the eigenvalue checks
            # (conditioning ~1e16, reachable by heating in a squeezed frame).
            assume(False)
        trace = run_protocol(initial, steps, nu_b, S)
        assert_allclose(trace.nus, want, rtol=1e-12, atol=0.0)
        assert_allclose(trace.entropies, [entropy(nu) for nu in want], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("steps", [[], [ProtocolStep(np.eye(2), 0.5)]])
    def test_rejects_non_symplectic_frame(self, steps):
        state = GaussianState(1, np.zeros(2), 3.0 * np.eye(2))
        with pytest.raises(ValueError, match="symplectic"):
            run_protocol(state, steps, nu_b=2.0, S=2.0 * np.eye(2))

    @pytest.mark.parametrize("nu_b", [math.nan, math.inf, 0.5])
    def test_rejects_bad_bath(self, nu_b):
        state = GaussianState(1, np.zeros(2), 3.0 * np.eye(2))
        for steps in ([], [ProtocolStep(np.eye(2), 0.5)]):
            with pytest.raises(ValueError, match="nu_b"):
                run_protocol(state, steps, nu_b=nu_b)

    @pytest.mark.parametrize("cm, r", [(math.nan * np.eye(2), np.zeros(2)), (2.0 * np.eye(2), [math.inf, 0.0])])
    def test_rejects_non_finite_initial_state(self, cm, r):
        with pytest.raises(ValueError, match="initial state"):
            run_protocol(GaussianState(1, r, cm), [], nu_b=2.0)

    def test_checks_the_output_of_the_last_step(self):
        state = GaussianState(1, np.zeros(2), 3.0 * np.eye(2))
        steps = [ProtocolStep(np.eye(2), 0.5), ProtocolStep(np.eye(2), 1.0)]
        steps[-1].unitary = 0.1 * np.eye(2)  # bypasses the step's own check
        with pytest.raises(ValueError, match="invalid covariance matrix"):
            run_protocol(state, steps, nu_b=2.0)


class TestEntropyLowerBound:
    def test_ground_state_floor_is_zero(self):
        assert entropy_lower_bound(1.0, 2.0) == 0.0
        assert entropy_lower_bound(3.0, 1.0) == 0.0

    def test_takes_the_colder_of_the_two(self):
        assert entropy_lower_bound(5.0, 2.0) == pytest.approx(entropy(2.0))
        assert entropy_lower_bound(1.5, 2.0) == pytest.approx(entropy(1.5))

    def test_domain(self):
        with pytest.raises(ValueError):
            entropy_lower_bound(0.5, 2.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                entropy_lower_bound(bad, 2.0)
            with pytest.raises(ValueError):
                entropy_lower_bound(2.0, bad)


class TestGreedyAdversary:
    def test_never_beats_the_floor(self):
        trace = greedy_adversary(5.0, 2.0, n_steps=10)
        assert len(trace.steps) == 11
        assert not trace.violated
        assert trace.nus.min() >= 2.0 - 1e-6

    def test_descends_towards_the_floor(self):
        trace = greedy_adversary(5.0, 2.0, n_steps=10)
        nus = trace.nus
        assert all(nus[k + 1] <= nus[k] + 1e-9 for k in range(len(nus) - 1))
        assert nus[-1] == pytest.approx(2.0, abs=1e-6)

    def test_ground_state_cannot_be_heated_by_greed(self):
        trace = greedy_adversary(1.0, 2.0, n_steps=5)
        assert trace.nus.max() <= 1.0 + 1e-9

    def test_cold_system_is_shielded(self):
        # with nu_0 < nu_b the best move is to not touch the state
        trace = greedy_adversary(1.5, 2.0, n_steps=5)
        assert_allclose(trace.nus, 1.5 * np.ones(6), atol=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            greedy_adversary(5.0, 2.0, n_steps=0)
        with pytest.raises(ValueError):
            greedy_adversary(0.9, 2.0, n_steps=1)

    @pytest.mark.parametrize("n_steps", [2.5, 3.0, "3", None, True])
    def test_rejects_non_integer_steps(self, n_steps):
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            greedy_adversary(5.0, 2.0, n_steps)

    @pytest.mark.parametrize("search_grid", [0, -3, 2.5, 16.0, True])
    def test_rejects_bad_search_grid(self, search_grid):
        with pytest.raises(ValueError, match="search_grid must be an integer >= 1"):
            greedy_adversary(5.0, 2.0, 3, search_grid)

    def test_accepts_numpy_integers(self):
        trace = greedy_adversary(5.0, 2.0, np.int64(3), np.int32(4))
        assert trace.nus.tolist() == greedy_adversary(5.0, 2.0, 3, 4).nus.tolist()

    @pytest.mark.parametrize("nu_0, nu_b", [(math.nan, 2.0), (2.0, math.nan), (math.inf, 2.0), (2.0, math.inf)])
    def test_rejects_non_finite(self, nu_0, nu_b):
        with pytest.raises(ValueError, match="finite"):
            greedy_adversary(nu_0, nu_b, n_steps=3)

    @pytest.mark.parametrize("nu_0, nu_b", [(1.5, 3.0), (3.0, 1.5), (1.2, 5.0)])
    def test_ties_at_full_survival_keep_the_floor(self, nu_0, nu_b):
        # At p = 1 every unitary gives the same eigenvalue; the tie must not
        # pick squeezing, which compounds until sqrt(det) loses every digit.
        trace = greedy_adversary(nu_0, nu_b, n_steps=40)
        floor = min(nu_0, nu_b)
        assert not trace.violated
        assert trace.nus.min() >= floor - 1e-9
        assert trace.nus.min() <= floor + 1e-6


def one_expression_adversary_nus(nu_0, nu_b, n_steps, search_grid=16):
    """``greedy_adversary``'s eigenvalues with the grid determinant written as
    the one expression ``p*p*det(cm) + p*q*tr_s + q*q``, minimised by argmin."""
    zs = np.logspace(0.0, 1.0, search_grid)
    phis = np.linspace(0.0, np.pi, 32, endpoint=False)
    ps = np.linspace(0.0, 1.0, 64)
    eye, zero = np.eye(2), np.zeros(2)
    cos, sin = np.cos(phis), np.sin(phis)
    z2 = zs[:, None] ** 2
    p = ps[:, None, None]
    q = (1.0 - ps)[:, None, None] * nu_b
    cm = nu_0 * eye
    nus = [_nu_of_cm(cm)]
    for _ in range(n_steps):
        a, b, c = cm[0, 0], cm[0, 1], cm[1, 1]
        a_r = cos**2 * a + 2.0 * cos * sin * b + sin**2 * c
        c_r = sin**2 * a - 2.0 * cos * sin * b + cos**2 * c
        tr_s = z2 * a_r[None, :] + c_r[None, :] / z2
        det = p * p * (a * c - b * b) + p * q * tr_s[None] + q * q
        k_p, k_z, k_phi = np.unravel_index(np.argmin(det), det.shape)
        U = squeezer(float(zs[k_z])) @ rotation(float(phis[k_phi]))
        X, Y = _single_mode_xy(float(ps[k_p]), 0.0, nu_b, eye, eye)
        cm, _ = _act(X, Y, zero, U @ cm @ U.T, zero)
        nus.append(_nu_of_cm(cm))
    return nus


class TestGreedyAdversaryGrid:
    """The reduced search picks the same grid point as the full-grid argmin."""

    @pytest.mark.parametrize("n_steps", [10, 40])
    @pytest.mark.parametrize("nu_0, nu_b", [(5.0, 2.0), (1.5, 3.0), (3.0, 1.5), (1.2, 5.0)])
    def test_panel_traces_equal_the_one_expression(self, nu_0, nu_b, n_steps):
        trace = greedy_adversary(nu_0, nu_b, n_steps)
        assert trace.nus.tolist() == one_expression_adversary_nus(nu_0, nu_b, n_steps)

    # Ties: nu_0 = nu_b, and the vacuum on either side.
    @pytest.mark.parametrize("search_grid", [1, 2, 7, 33])
    @pytest.mark.parametrize("nu_0, nu_b", [(5.0, 2.0), (1.5, 3.0), (2.5, 2.5), (1.0, 3.0), (3.0, 1.0), (1.0, 1.0)])
    def test_grid_sizes_equal_the_one_expression(self, nu_0, nu_b, search_grid):
        trace = greedy_adversary(nu_0, nu_b, 40, search_grid)
        assert trace.nus.tolist() == one_expression_adversary_nus(nu_0, nu_b, 40, search_grid)

    @settings(max_examples=40, deadline=None)
    @given(
        nu_0=st.floats(1.0, 6.0),
        nu_b=st.floats(1.0, 6.0),
        n_steps=st.integers(1, 40),
        search_grid=st.integers(1, 40),
    )
    def test_generated_traces_equal_the_one_expression(self, nu_0, nu_b, n_steps, search_grid):
        trace = greedy_adversary(nu_0, nu_b, n_steps, search_grid)
        assert trace.nus.tolist() == one_expression_adversary_nus(nu_0, nu_b, n_steps, search_grid)


class TestSidebandSwap:
    def test_installs_ancilla_eigenvalue_exactly(self):
        state = GaussianState(1, np.zeros(2), 2.0 * np.eye(2))
        cooled, nu = sideband_swap(state, beta=LN3, omega_ancilla=10.0 / LN3)
        assert nu == pytest.approx(NU_AT_10, abs=1e-12)
        assert_allclose(cooled.cm, nu_of(LN3, 10.0 / LN3) * np.eye(2))

    def test_matches_thermal_eigenvalue_for_any_frequency(self):
        state = GaussianState(1, np.zeros(2), np.diag([4.0, 0.3]))
        for omega in (0.5, 1.0, 3.0, 8.0):
            _, nu = sideband_swap(state, beta=1.1, omega_ancilla=omega)
            assert nu == pytest.approx(nu_of(1.1, omega), abs=1e-12)

    def test_higher_sideband_cools_further(self):
        state = GaussianState(1, np.zeros(2), 3.0 * np.eye(2))
        nus = [sideband_swap(state, 1.0, om)[1] for om in (1.0, 2.0, 5.0, 10.0)]
        assert all(a > b for a, b in zip(nus, nus[1:]))

    def test_beats_the_single_mode_floor(self):
        # the two-mode swap reaches below min(nu_0, nu_b) = 2
        state = GaussianState(1, np.zeros(2), 2.0 * np.eye(2))
        _, nu = sideband_swap(state, beta=LN3, omega_ancilla=10.0)
        assert nu < 2.0 - 0.9

    def test_equal_frequency_swap_is_neutral(self):
        gibbs = thermal_state(LN3, HamiltonianSpec(H=np.eye(2)))
        _, nu = sideband_swap(gibbs, beta=LN3, omega_ancilla=1.0)
        assert nu == pytest.approx(2.0, abs=1e-12)

    def test_rejects_multimode_system(self):
        with pytest.raises(ValueError):
            sideband_swap(GaussianState.vacuum(2), 1.0, 2.0)

    @pytest.mark.parametrize(
        "cm", [0.2 * np.eye(2), 2.0 * np.diag([-2.0, -0.5])], ids=["below-vacuum", "negative-definite"]
    )
    def test_rejects_an_unphysical_system(self, cm):
        # The swap discards the system, so without a check any CM came out "cooled".
        with pytest.raises(ValueError, match="initial state has an invalid covariance matrix"):
            sideband_swap(GaussianState(1, np.zeros(2), cm), beta=1.0, omega_ancilla=3.0)


class TestCoolingTrace:
    def test_properties_align(self):
        trace = CoolingTrace(steps=[(3.0, entropy(3.0)), (2.0, entropy(2.0))], bound=0.1, violated=False)
        assert trace.nus.tolist() == [3.0, 2.0]
        assert trace.entropies[1] == entropy(2.0)
