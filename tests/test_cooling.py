import json
import math
from dataclasses import FrozenInstanceError

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gtokit.channels import single_mode_gto
from gtokit.cli import main
from gtokit.cooling import (
    CoolingTrace,
    ProtocolStep,
    _gto_step,
    _nu_of_det,
    entropy_lower_bound,
    greedy_adversary,
    run_protocol,
    sideband_swap,
)
from gtokit.scalar import _det
from gtokit.states import (
    GaussianState,
    HamiltonianSpec,
    SingleModeNormalForm,
    entropy,
    nu_of,
    rotation,
    squeezer,
    thermal_state,
    validate_state,
)

LN3 = 1.0986122886681098
# 1/tanh(5), i.e. the thermal symplectic eigenvalue at beta*omega = 10
NU_AT_10 = 1.0000908039820194


def random_single_mode_cm(rng, nu_max=5.0):
    nu = rng.uniform(1.0, nu_max)
    U = rotation(rng.uniform(0, 2 * np.pi)) @ squeezer(rng.uniform(1.0, 3.0))
    return nu * U @ U.T, nu


def _mp(M) -> tuple:
    return tuple(tuple(mpmath.mpf(x) for x in row) for row in np.asarray(M, dtype=float).tolist())


def _mul(A, B) -> tuple:
    (a, b), (c, d) = A
    (e, f), (g, h) = B
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _transpose(A) -> tuple:
    (a, b), (c, d) = A
    return ((a, c), (b, d))


def exact_trace(initial, steps, nu_b, dps=50):
    """``(nus, kappas)`` along a protocol in ``dps``-digit arithmetic, from the same
    float inputs: the initial CM and each step's unitary, ``p`` and ``phi``.
    Each step is ``cm -> X U cm U^T X^T + Y`` with ``single_mode_gto``'s
    ``X = sqrt(p) D_phi`` and ``Y = (1 - p) nu_b 1``;
    ``kappa = (a + c)^2 / (4 det)`` is the conditioning of
    ``cm = [[a, b], [b, c]]``."""
    with mpmath.workdps(dps):
        nus, kappas = [], []

        def record(cm):
            det = cm[0][0] * cm[1][1] - cm[0][1] * cm[1][0]
            nus.append(max(float(mpmath.sqrt(det)), 1.0))
            kappas.append(float((cm[0][0] + cm[1][1]) ** 2 / (4 * det)))

        cm = _mp(initial.cm)
        record(cm)
        for step in steps:
            co, si = mpmath.cos(step.gto_phi), mpmath.sin(step.gto_phi)
            p = mpmath.mpf(step.gto_p)
            q = (1 - p) * nu_b
            V = _mul(((co, si), (-si, co)), _mp(step.unitary))
            A = _mul(_mul(V, cm), _transpose(V))
            cm = tuple(tuple(p * A[i][j] + (q if i == j else 0) for j in range(2)) for i in range(2))
            record(cm)
    return nus, kappas


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


def in_bath_frame(initial, steps, S):
    """``initial`` and ``steps`` conjugated by ``S^-1 = Omega S^T Omega^T``:
    ``S^-1 cm S^-T`` and unitaries ``S^-1 U S``.  A run on them is a run
    against a bath in a squeezed normal-mode frame, taken in that frame, so
    ``S`` sets the conditioning the step kernel meets."""
    if S is None:
        return initial, steps
    Om = np.array([[0.0, 1.0], [-1.0, 0.0]])
    S_inv = Om @ S.T @ Om.T
    state = GaussianState(1, S_inv @ initial.first_moments, S_inv @ initial.cm @ S_inv.T)
    return state, [ProtocolStep(S_inv @ (step.unitary @ S), step.gto_p, step.gto_phi) for step in steps]


class TestProtocolStep:
    def test_from_params_builds_rotation_after_squeeze(self):
        step = ProtocolStep.from_params(squeeze=2.0, rotate=0.7, p=0.5)
        assert_allclose(step.unitary, rotation(0.7) @ squeezer(2.0))

    @given(squeeze=st.floats(1e-3, 1e3), rotate=angles)
    def test_from_params_entries_equal_the_matrix_product(self, squeeze, rotate):
        step = ProtocolStep.from_params(squeeze, rotate, 0.5)
        assert step.unitary.tolist() == (rotation(rotate) @ squeezer(squeeze)).tolist()

    @pytest.mark.parametrize("squeeze", [0.0, -2.0])
    def test_from_params_refuses_a_non_positive_squeeze(self, squeeze):
        with pytest.raises(ValueError, match="squeeze factor must be positive"):
            ProtocolStep.from_params(squeeze, 0.3, 0.5)

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

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(nu_0=st.floats(1.0, 6.0), z_0=st.floats(0.2, 5.0), nu_b=st.floats(1.0, 6.0), steps=protocol_steps)
    def test_cli_prints_the_library_trace(self, gtokit_run, nu_0, z_0, nu_b, steps):
        # ``gtokit cool`` runs the library's float loop on the payload's numbers.
        payload = {"nu0": nu_0, "z0": z_0, "nu_b": nu_b,
                   "steps": [{"unitary": s.unitary.tolist(), "p": s.gto_p, "phi": s.gto_phi} for s in steps]}
        code, out = gtokit_run(["cool", "--json"], payload)
        trace = run_protocol(GaussianState(1, np.zeros(2), nu_0 * squeezer(z_0)), steps, nu_b)
        assert json.loads(out) == {"steps": [list(s) for s in trace.steps], "bound": trace.bound,
                                   "violated": trace.violated}
        assert code == 0


class TestRunProtocol:
    @given(nu_0=st.floats(1.0, 1e6), z_0=st.floats(1e-3, 1e3))
    def test_initial_nu_is_the_root_of_the_exact_determinant(self, nu_0, z_0):
        # One rounding for det, one for its root: within one ulp, where
        # numpy's log-determinant read det(3 * 1) as 9.000000000000002.
        cm = nu_0 * squeezer(z_0)
        nu = run_protocol(GaussianState(1, np.zeros(2), cm), [], nu_b=2.0).nus[0]
        assert abs(nu - mpmath.sqrt(mpmath.mpf(cm[0, 0]) * mpmath.mpf(cm[1, 1]))) <= math.ulp(nu)
        assert run_protocol(GaussianState(1, np.zeros(2), 3.0 * np.eye(2)), [], nu_b=2.0).nus[0] == 3.0

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
        # p = 1/4 and q = (1 - p) nu_b = 3/2 are dyadic, so every product of
        # the step's entries and determinant is exact: 2 * identity comes
        # back bit for bit.
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
        trace = run_protocol(*in_bath_frame(state, steps, squeezer(1.7)), nu_b=2.0)
        assert not trace.violated
        assert trace.nus.min() >= 2.0 - 1e-9

    def test_rejects_multimode_initial_state(self):
        with pytest.raises(ValueError):
            run_protocol(GaussianState.vacuum(2), [], nu_b=2.0)

    def test_rejects_invalid_initial_state(self):
        bad = GaussianState(1, np.zeros(2), 0.5 * np.eye(2))
        with pytest.raises(ValueError):
            run_protocol(bad, [], nu_b=2.0)

    @given(a=st.floats(-1e300, 1e300), b=st.floats(-1e300, 1e300), c=st.floats(-1e300, 1e300))
    def test_det_is_exact_at_any_spread_of_the_entries(self, a, b, c):
        # One common power-of-two scale sent c = 3e-300 to zero beside a =
        # 3e300, so a start nu0 = 3, z0 = 1e300 read as nu_0 = 1.
        with mpmath.workprec(2400):
            exact = mpmath.mpf(a) * c - mpmath.mpf(b) ** 2
            expected, det = float(exact), _det(a, b, c)
            if math.isinf(expected):
                assert det == expected
            else:
                assert abs(mpmath.mpf(det) - exact) <= math.ulp(expected)

    def test_cli_runs_from_a_start_squeezed_to_the_double_range(self, gtokit_run):
        code, out = gtokit_run(["cool", "--json"], {"nu0": 3.0, "nu_b": 2.0, "z0": 1e300})
        assert code == 0
        assert json.loads(out)["steps"][0][0] == pytest.approx(3.0, rel=1e-15)

    def test_accepts_the_widely_spread_start_that_cli_cool_accepts(self, gtokit_run):
        # validate_state refused diag(3e300, 3e-300), so run_protocol did, while
        # cool answered nu_0 = 3 on the same start.
        state = GaussianState(1, np.zeros(2), np.diag([3e300, 3e-300]))
        assert validate_state(state)
        trace = run_protocol(state, [ProtocolStep(np.eye(2), 0.5)], nu_b=2.0)
        code, out = gtokit_run(["cool", "--json"], {"nu0": 3.0, "nu_b": 2.0, "z0": 1e300, "steps": [{"p": 0.5}]})
        assert code == 0
        assert trace.nus[0] == pytest.approx(3.0, rel=1e-15)
        rows = np.array(json.loads(out)["steps"])
        assert_allclose(rows[:, :2], np.column_stack([trace.nus, trace.entropies]), rtol=1e-15)

    def test_runs_from_every_state_that_validate_state_accepts(self):
        # Rounding the entries of this squeezed near-vacuum state puts the
        # root of its error-free determinant at 0.9999999988, below 1 -
        # STRUCTURAL_TOL; validate_state accepts it, so the run does too.
        state = GaussianState(1, np.zeros(2), SingleModeNormalForm(1.0, 6664.0, 1.0).to_cm())
        assert validate_state(state)
        trace = run_protocol(state, [ProtocolStep(np.eye(2), 0.5)], nu_b=2.0)
        assert trace.nus[0] == 1.0
        assert not trace.violated

    @given(
        nu_0=st.floats(1.0, 6.0),
        z_0=st.floats(1.0, 3.0),
        nu_b=st.floats(1.0, 6.0),
        steps=protocol_steps,
        S=frames,
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_50_digit_reference(self, nu_0, z_0, nu_b, steps, S):
        initial = GaussianState(1, np.array([0.3, -0.2]), nu_0 * np.diag([z_0, 1.0 / z_0]))
        initial, steps = in_bath_frame(initial, steps, S)
        trace = run_protocol(initial, steps, nu_b)
        want, _ = exact_trace(initial, steps, nu_b)
        assert_allclose(trace.nus, want, rtol=1e-12, atol=0.0)
        assert trace.entropies.tolist() == [entropy(nu) for nu in trace.nus.tolist()]

    def test_ill_conditioned_squeezed_frame_protocols_stay_exact(self):
        # Heating in a squeezed bath frame drives the CM's conditioning past
        # 1e12; a determinant taken from the entries (a c - b^2, or LU) then
        # keeps few digits or none, and such protocols were refused as
        # unphysical.  The determinant recursion keeps every one exact.
        rng = np.random.default_rng(7)
        ill_conditioned = 0
        for _ in range(320):
            nu_0, nu_b = rng.uniform(1.0, 5.0), rng.uniform(1.0, 5.0)
            S = squeezer(rng.uniform(1.0, 2.0))
            steps = [
                ProtocolStep.from_params(
                    squeeze=float(np.exp(rng.uniform(0.0, np.log(5.0)))),
                    rotate=rng.uniform(0.0, 2.0 * np.pi),
                    p=rng.uniform(0.0, 1.0),
                    phi=rng.uniform(0.0, 2.0 * np.pi),
                )
                for _ in range(20)
            ]
            initial, steps = in_bath_frame(GaussianState(1, np.zeros(2), nu_0 * np.eye(2)), steps, S)
            want, kappas = exact_trace(initial, steps, nu_b)
            if max(kappas) <= 1e12:
                continue
            ill_conditioned += 1
            assert_allclose(run_protocol(initial, steps, nu_b).nus, want, rtol=1e-12, atol=0.0)
        assert ill_conditioned >= 30

    @pytest.mark.parametrize("nu_b", [math.nan, math.inf, 0.5])
    def test_rejects_bad_bath(self, nu_b):
        state = GaussianState(1, np.zeros(2), 3.0 * np.eye(2))
        for steps in ([], [ProtocolStep(np.eye(2), 0.5)]):
            with pytest.raises(ValueError, match="nu_b"):
                run_protocol(state, steps, nu_b=nu_b)

    @pytest.mark.parametrize("cm, r", [(math.nan * np.eye(2), np.zeros(2)), (2.0 * np.eye(2), [math.inf, 0.0])])
    def test_rejects_non_finite_initial_state(self, cm, r):
        # No state holds them, so run_protocol has nothing left to check.
        with pytest.raises(ValueError, match="must be finite"):
            GaussianState(1, r, cm)
        state = GaussianState.vacuum(1)
        with pytest.raises(FrozenInstanceError):
            state.cm = cm
        with pytest.raises(FrozenInstanceError):
            state.first_moments = r

    # The first three used to warn, then blame the input state.
    # "error": the refusal alone reports the overflow, with no numpy warning.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "params",
        [[(1.5, 0.0), (1e200, 0.0)], [(1.5, 0.0), (1e-200, 0.0)], [(1e-153, 0.0)] * 2, [(1.5, 0.0), (1e-160, 0.3)]],
    )
    def test_refuses_an_overflowing_step_by_number(self, params):
        state = GaussianState(1, np.zeros(2), 2.0 * np.eye(2))
        steps = [ProtocolStep.from_params(z, rotate, 0.5) for z, rotate in params]
        with pytest.raises(ValueError, match="^protocol step 2 overflows"):
            run_protocol(state, steps, nu_b=2.0)

    @pytest.mark.filterwarnings("error")
    def test_numpy_scalars_overflow_without_a_warning(self):
        state = GaussianState(1, np.zeros(2), 2.0 * np.eye(2))
        steps = [ProtocolStep(squeezer(z), np.float64(0.5)) for z in (1.5, 1e200)]
        with pytest.raises(ValueError, match="^protocol step 2 overflows"):
            run_protocol(state, steps, nu_b=np.float64(2.0))

    def test_a_finite_determinant_near_overflow_is_exact(self):
        # Every entry of the output is about 1e306, so a determinant taken
        # from them overflows on the way (it was refused as an overflow) and
        # cancels some 306 digits: the reference needs 400.  The determinant
        # itself, about 7e305, is finite.
        state = GaussianState(1, np.zeros(2), 2.0 * np.eye(2))
        steps = [ProtocolStep.from_params(z, rotate, 0.5) for z, rotate in [(1.5, 0.0), (1e-153, 0.3)]]
        trace = run_protocol(state, steps, nu_b=2.0)
        assert_allclose(trace.nus, exact_trace(state, steps, 2.0, dps=400)[0], rtol=1e-12, atol=0.0)
        assert trace.nus[-1] == pytest.approx(8.5e152, rel=0.01)

    # Each step's |det U - 1| = 1e-9 passes its own check, but eleven of them
    # take the vacuum's determinant below (1 - CHANNEL_TOL)^2.
    DRIFTING_STEP = np.diag([1.0 - 1e-9, 1.0])

    def test_checks_the_output_of_the_last_step(self, tmp_path, capsys):
        message = "protocol step 11 output has an invalid covariance matrix"
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_protocol(GaussianState.vacuum(1), [ProtocolStep(self.DRIFTING_STEP, 1.0)] * 11, nu_b=2.0)
        path = tmp_path / "in.json"
        step = {"unitary": self.DRIFTING_STEP.tolist(), "p": 1.0}
        path.write_text(json.dumps({"nu0": 1.0, "nu_b": 2.0, "steps": [step] * 11}))
        assert main(["cool", "--input", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_ten_drifting_steps_still_run(self):
        trace = run_protocol(GaussianState.vacuum(1), [ProtocolStep(self.DRIFTING_STEP, 1.0)] * 10, nu_b=2.0)
        assert len(trace.nus) == 11 and not trace.violated


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
    the one expression ``p*p*det + p*q*tr_s + q*q`` over the full grid,
    minimised by argmin; the chosen step is applied by the step kernel."""
    zs = np.logspace(0.0, 1.0, search_grid)
    phis = np.linspace(0.0, np.pi, 32, endpoint=False)
    ps = np.linspace(0.0, 1.0, 64)
    cos, sin = np.cos(phis), np.sin(phis)
    z2 = zs[:, None] ** 2
    p = ps[:, None, None]
    q = (1.0 - ps)[:, None, None] * nu_b
    a, b, c = float(nu_0), 0.0, float(nu_0)
    det = a * c
    nus = [_nu_of_det(det)]
    for _ in range(n_steps):
        a_r = cos**2 * a + 2.0 * cos * sin * b + sin**2 * c
        c_r = sin**2 * a - 2.0 * cos * sin * b + cos**2 * c
        tr_s = z2 * a_r[None, :] + c_r[None, :] / z2
        grid = p * p * det + p * q * tr_s[None] + q * q
        k_p, k_z, k_phi = np.unravel_index(np.argmin(grid), grid.shape)
        z, co, si, p_k = float(zs[k_z]), float(cos[k_phi]), float(sin[k_phi]), float(ps[k_p])
        M = (squeezer(z) @ np.array([[co, si], [-si, co]])).ravel().tolist()
        a, b, c, det = _gto_step(a, b, c, det, M, M[0] * M[3] - M[1] * M[2], p_k, (1.0 - p_k) * nu_b)
        nus.append(_nu_of_det(det))
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

    @given(nu_0=st.floats(1.0, 6.0), beta=st.floats(0.5, 2.0), omega=st.floats(0.1, 16.0))
    def test_achieved_nu_is_the_ancilla_value_exactly(self, nu_0, beta, omega):
        # The swap leaves nu_a * 1, whose error-free determinant has nu_a as its root.
        _, nu = sideband_swap(GaussianState(1, np.zeros(2), nu_0 * np.eye(2)), beta, omega)
        assert nu == nu_of(beta, omega)

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
