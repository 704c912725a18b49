import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gtokit.channels import apply_channel, single_mode_gto
from gtokit.feasibility import (
    REASON_INCONSISTENT,
    REASON_OK,
    REASON_P_RANGE,
    REASON_POSITIVITY,
    FeasibilityResult,
    TransformQuery,
    necessary_bounds,
    single_mode_feasible,
    squeezed_bath_feasible,
)
from gtokit.states import GaussianState, SingleModeNormalForm, single_mode_decompose


def forward_simulate(nu_i, z_i, p, nu_b):
    """Push a normal-form state through the mixing channel and re-decompose."""
    cm = SingleModeNormalForm(nu=nu_i, z=z_i, phi=0.0).to_cm()
    out = apply_channel(single_mode_gto(p, 0.0, nu_b), GaussianState(1, np.zeros(2), cm))
    return single_mode_decompose(out.cm)


class TestSingleModeFeasible:
    def test_worked_example(self):
        # nu=2, z=4 with a nu_b=2 bath reaches nu=5/2, z=2 at p = 1/2
        q = TransformQuery(nu_i=2.0, z_i=4.0, nu_f=2.5, z_f=2.0, nu_b=2.0)
        res = single_mode_feasible(q)
        assert res.feasible
        assert res.reason == REASON_OK
        assert abs(res.p - 0.5) <= 1e-10

    def test_identity_target(self):
        q = TransformQuery(nu_i=3.0, z_i=2.0, nu_f=3.0, z_f=2.0, nu_b=1.5)
        res = single_mode_feasible(q)
        assert res.feasible and abs(res.p - 1.0) <= 1e-12

    def test_full_thermalization_target(self):
        q = TransformQuery(nu_i=3.0, z_i=2.0, nu_f=1.7, z_f=1.0, nu_b=1.7)
        res = single_mode_feasible(q)
        assert res.feasible and abs(res.p) <= 1e-12

    def test_cooling_below_both_floors_infeasible(self):
        q = TransformQuery(nu_i=3.0, z_i=1.0, nu_f=1.5, z_f=1.0, nu_b=2.0)
        res = single_mode_feasible(q)
        assert not res.feasible
        assert res.p is None
        assert res.reason == REASON_P_RANGE

    def test_inconsistent_axes(self):
        # x-axis ratio is degenerate while the target misses the y-axis line
        q = TransformQuery(nu_i=2.0, z_i=2.0, nu_f=2.0, z_f=1.5, nu_b=1.0)
        res = single_mode_feasible(q)
        assert not res.feasible
        assert res.reason == REASON_INCONSISTENT

    def test_degenerate_denominator_feasible(self):
        # x-variance already equals the bath's: any p preserves it, so only
        # the y-axis equation pins p down.
        q = TransformQuery(nu_i=2.0, z_i=2.0, nu_f=2.5, z_f=1.6, nu_b=4.0)
        res = single_mode_feasible(q)
        assert res.feasible
        assert abs(res.p - 0.8125) <= 1e-10

    def test_input_equal_to_bath(self):
        base = dict(nu_i=2.0, z_i=1.0, nu_b=2.0)
        stay = single_mode_feasible(TransformQuery(nu_f=2.0, z_f=1.0, **base))
        assert stay.feasible and abs(stay.p - 1.0) <= 1e-12
        leave = single_mode_feasible(TransformQuery(nu_f=2.5, z_f=1.0, **base))
        assert not leave.feasible and leave.reason == REASON_INCONSISTENT

    def test_rejects_squeezed_bath_query(self):
        q = TransformQuery(nu_i=2.0, z_i=4.0, nu_f=2.5, z_f=2.0, nu_b=2.0, vartheta=0.0)
        with pytest.raises(ValueError):
            single_mode_feasible(q)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            TransformQuery(nu_i=0.5, z_i=1.0, nu_f=2.0, z_f=1.0, nu_b=2.0)
        with pytest.raises(ValueError):
            TransformQuery(nu_i=2.0, z_i=0.9, nu_f=2.0, z_f=1.0, nu_b=2.0)

    WORKED = dict(nu_i=2.0, z_i=4.0, nu_f=2.5, z_f=2.0, nu_b=2.0)

    def test_refuses_nan_input(self):
        # Used to give feasible=True with p = nan.
        with pytest.raises(ValueError, match="nu_i must be finite"):
            TransformQuery(**dict(self.WORKED, nu_i=math.nan))

    def test_refuses_infinite_input(self):
        # Used to give feasible=True with p = 1.0: the degeneracy test scales by inf.
        with pytest.raises(ValueError, match="nu_i must be finite"):
            TransformQuery(**dict(self.WORKED, nu_i=math.inf))

    def test_refuses_infinite_target_squeezing(self):
        with pytest.raises(ValueError, match="z_f must be finite"):
            TransformQuery(**dict(self.WORKED, z_f=math.inf))

    @pytest.mark.parametrize("name", ["nu_i", "z_i", "nu_f", "z_f", "nu_b"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_every_non_finite_field(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 1"):
            TransformQuery(**dict(self.WORKED, **{name: bad}))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite_bath_angle(self, bad):
        with pytest.raises(ValueError, match="vartheta must be finite"):
            TransformQuery(**self.WORKED, vartheta=bad)

    def test_forward_simulated_targets_all_feasible(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            nu_i = rng.uniform(1.0, 4.0)
            z_i = rng.uniform(1.0, 4.0)
            nu_b = rng.uniform(1.0, 3.0)
            p = rng.uniform(0.0, 1.0)
            nf = forward_simulate(nu_i, z_i, p, nu_b)
            q = TransformQuery(nu_i=nu_i, z_i=z_i, nu_f=nf.nu, z_f=nf.z, nu_b=nu_b)
            res = single_mode_feasible(q)
            assert res.feasible, (q, res)
            assert abs(res.p - p) <= 1e-8


def segment_target(nu_i, z_i, nu_b, p):
    """Target ``(nu, z)`` at weight ``p`` on the segment from ``(nu_i z_i, nu_i / z_i)`` to ``(nu_b, nu_b)``."""
    x = p * nu_i * z_i + (1.0 - p) * nu_b
    y = p * nu_i / z_i + (1.0 - p) * nu_b
    return math.sqrt(x * y), math.sqrt(x / y)


class TestSegmentAndReachableSet:
    """The reachable targets are the segment to the bath point, traversed by the witness ``p``."""

    def witness(self, nu_i, z_i, nu_b, p):
        nu_f, z_f = segment_target(nu_i, z_i, nu_b, p)
        return single_mode_feasible(TransformQuery(nu_i=nu_i, z_i=z_i, nu_f=nu_f, z_f=z_f, nu_b=nu_b))

    def test_endpoints(self):
        assert self.witness(2.0, 4.0, 2.0, 1.0) == FeasibilityResult(True, 1.0, REASON_OK)
        assert self.witness(2.0, 4.0, 2.0, 0.0) == FeasibilityResult(True, 0.0, REASON_OK)

    def test_midpoint_matches_worked_example(self):
        assert_allclose(segment_target(2.0, 4.0, 2.0, 0.5), [2.5, 2.0])
        assert self.witness(2.0, 4.0, 2.0, 0.5).p == pytest.approx(0.5, abs=1e-12)

    def test_p_domain(self):
        # the line through the segment, continued past either end, is not reachable;
        # past the bath end only an unsqueezed input keeps z >= 1
        for nu_i, z_i, p in ((2.0, 4.0, 1.2), (3.0, 1.0, -0.1)):
            res = self.witness(nu_i, z_i, 2.0, p)
            assert not res.feasible and res.reason == REASON_P_RANGE

    def test_reachable_set_path(self):
        for (nu_f, z_f), p in zip([(2.0, 4.0), (2.5, 2.0), (2.0, 1.0)], [1.0, 0.5, 0.0]):
            res = single_mode_feasible(TransformQuery(nu_i=2.0, z_i=4.0, nu_f=nu_f, z_f=z_f, nu_b=2.0))
            assert res.feasible and res.p == pytest.approx(p, abs=1e-12)

    def test_reachable_set_points_are_feasible(self):
        for p in np.linspace(1.0, 0.0, 25):
            res = self.witness(3.0, 2.5, 1.8, p)
            assert res.feasible and res.p == pytest.approx(p, abs=1e-12)


class TestSqueezedBathFeasible:
    def test_worked_example_at_aligned_axis(self):
        q = TransformQuery(nu_i=2.0, z_i=4.0, nu_f=2.5, z_f=2.0, nu_b=2.0, vartheta=0.0)
        res = squeezed_bath_feasible(q)
        assert res.feasible
        assert abs(res.p - 0.5) <= 1e-8

    def test_plain_feasible_implies_aligned_squeezed_feasible(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            nu_i = rng.uniform(1.0, 4.0)
            z_i = rng.uniform(1.0, 4.0)
            nu_b = rng.uniform(1.0, 3.0)
            p = rng.uniform(0.05, 0.95)
            nf = forward_simulate(nu_i, z_i, p, nu_b)
            q = TransformQuery(
                nu_i=nu_i, z_i=z_i, nu_f=nf.nu, z_f=nf.z, nu_b=nu_b, vartheta=0.0
            )
            res = squeezed_bath_feasible(q)
            assert res.feasible, (q, res)
            # the determinant condition must also hold at the plain-mixing p
            xi = 0.5 * (z_i / nf.z + nf.z / z_i)
            residual = (
                (nu_i**2 - nu_b**2) * p**2
                + 2.0 * (nu_b**2 - xi * nu_i * nf.nu) * p
                + nf.nu**2
                - nu_b**2
            )
            assert abs(residual) <= 1e-6 * max(1.0, nu_i**2, nu_b**2)

    def test_identity_on_bath_state_any_angle(self):
        for vartheta in (0.0, 0.4, np.pi / 2):
            q = TransformQuery(
                nu_i=2.0, z_i=1.0, nu_f=2.0, z_f=1.0, nu_b=2.0, vartheta=vartheta
            )
            res = squeezed_bath_feasible(q)
            assert res.feasible, (vartheta, res)

    def test_below_floor_still_infeasible(self):
        # squeezing the bath cannot break the temperature floor
        for vartheta in (0.0, 0.7, np.pi / 2):
            q = TransformQuery(
                nu_i=3.0, z_i=1.0, nu_f=1.2, z_f=1.0, nu_b=2.0, vartheta=vartheta
            )
            res = squeezed_bath_feasible(q)
            assert not res.feasible, (vartheta, res)
            assert res.reason in (REASON_P_RANGE, REASON_INCONSISTENT, REASON_POSITIVITY)

    def test_rejects_plain_query(self):
        q = TransformQuery(nu_i=2.0, z_i=4.0, nu_f=2.5, z_f=2.0, nu_b=2.0)
        with pytest.raises(ValueError):
            squeezed_bath_feasible(q)

    def test_bath_squeezing_opens_new_targets(self):
        # a squeezed cold bath can push the output more anisotropic than any
        # plain thermal mixing from the same input
        plain = TransformQuery(nu_i=2.0, z_i=1.0, nu_f=2.0, z_f=1.8, nu_b=2.0)
        assert not single_mode_feasible(plain).feasible
        found = False
        for vartheta in np.linspace(0.0, np.pi / 2, 40):
            q = TransformQuery(
                nu_i=2.0, z_i=1.0, nu_f=2.0, z_f=1.8, nu_b=2.0, vartheta=float(vartheta)
            )
            if squeezed_bath_feasible(q).feasible:
                found = True
                break
        assert found


class TestNecessaryBounds:
    def test_worked_example_bounds_hold(self):
        q = TransformQuery(nu_i=2.0, z_i=4.0, nu_f=2.5, z_f=2.0, nu_b=2.0)
        bounds = dict(necessary_bounds(q))
        assert bounds["nu_f>=min(nu_i,nu_b)"]
        assert bounds["z_f<=z_i"]

    def test_temperature_floor_violation_detected(self):
        q = TransformQuery(nu_i=3.0, z_i=1.0, nu_f=1.5, z_f=1.0, nu_b=2.0)
        bounds = dict(necessary_bounds(q))
        assert not bounds["nu_f>=min(nu_i,nu_b)"]

    def test_squeezing_gain_violation_detected(self):
        q = TransformQuery(nu_i=2.0, z_i=1.5, nu_f=2.5, z_f=3.0, nu_b=2.0)
        bounds = dict(necessary_bounds(q))
        assert not bounds["z_f<=z_i"]

    def test_z_bound_dropped_for_squeezed_bath(self):
        q = TransformQuery(nu_i=2.0, z_i=1.0, nu_f=2.0, z_f=1.8, nu_b=2.0, vartheta=0.3)
        names = [name for name, _ in necessary_bounds(q)]
        assert "nu_f>=min(nu_i,nu_b)" in names
        assert "z_f<=z_i" not in names

    def test_bounds_hold_on_feasible_queries(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            nu_i = rng.uniform(1.0, 4.0)
            z_i = rng.uniform(1.0, 4.0)
            nu_b = rng.uniform(1.0, 3.0)
            nf = forward_simulate(nu_i, z_i, rng.uniform(0, 1), nu_b)
            q = TransformQuery(nu_i=nu_i, z_i=z_i, nu_f=nf.nu, z_f=nf.z, nu_b=nu_b)
            assert all(ok for _, ok in necessary_bounds(q))


class TestSerialization:
    """Queries are read and verdicts written only by ``gtokit feasible``."""

    QUERY = {"nu_i": 2.0, "z_i": 4.0, "nu_f": 2.5, "z_f": 2.0, "nu_b": 2.0}

    def test_query_round_trip(self, gtokit_run):
        code, out = gtokit_run(["feasible"], self.QUERY)
        res = single_mode_feasible(TransformQuery(**self.QUERY))
        assert code == 0
        assert json.loads(out) == {
            "feasible": True,
            "p": res.p,
            "reason": "ok",
            "bounds": {"nu_f>=min(nu_i,nu_b)": True, "z_f<=z_i": True},
        }

    def test_squeezed_query_round_trip(self, gtokit_run):
        code, out = gtokit_run(["feasible"], dict(self.QUERY, vartheta=0.3))
        res = squeezed_bath_feasible(TransformQuery(**self.QUERY, vartheta=0.3))
        assert code == (0 if res.feasible else 1)
        assert json.loads(out) == {
            "feasible": res.feasible,
            "p": res.p,
            "reason": res.reason,
            "bounds": {"nu_f>=min(nu_i,nu_b)": True},
        }

    def test_result_round_trip(self, gtokit_run):
        code, out = gtokit_run(["feasible"], self.QUERY)
        assert code == 0
        assert list(json.loads(out)) == ["feasible", "p", "reason", "bounds"]
        assert abs(json.loads(out)["p"] - 0.5) <= 1e-10
