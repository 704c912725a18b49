import json
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import block_diag

from gtokit.channels import (
    GaussianChannel,
    GTOSector,
    GTOSpec,
    apply_channel,
    compose,
    dilate_and_trace,
    displaced_gto,
    gto_to_channel,
    oracle_apply,
    single_mode_gto,
    validate_channel,
)
from gtokit.states import (
    FrequencySector,
    FrequencySpectrum,
    GaussianState,
    HamiltonianSpec,
    normal_mode_spectrum,
    nu_of,
    rotation,
    squeezer,
    thermal_state,
    validate_state,
)
from gtokit.symplectic import random_symplectic, random_unitary, unitary_to_passive

LN3 = 1.0986122886681098


def random_cm(n_modes, rng, nu_max=3.0):
    S = random_symplectic(n_modes, int(rng.integers(0, 2**32)))
    nus = rng.uniform(1.0, nu_max, size=n_modes)
    return S @ np.diag(np.repeat(nus, 2)) @ S.T


def uniform_sector_spec(n, omega, beta, Z, thetas, W, S=None):
    spectrum = FrequencySpectrum(
        S=np.eye(2 * n) if S is None else S,
        sectors=(FrequencySector(omega=omega, multiplicity=n, mode_indices=tuple(range(n))),),
    )
    return GTOSpec(spectrum=spectrum, beta=beta, sectors=[GTOSector(Z=Z, thetas=thetas, W=W)])


def assert_field_refused(name, value):
    """A one-mode channel whose field ``name`` holds ``value`` is refused by
    the constructor, and a built channel's field cannot be set to it."""
    fields = {"X": np.eye(2), "Y": np.zeros((2, 2)), "d": np.zeros(2), name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        GaussianChannel(**fields)
    with pytest.raises(FrozenInstanceError):
        setattr(GaussianChannel.identity(1), name, value)


class TestNonFiniteConstruction:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["X", "Y", "d"])
    def test_channel_refuses_and_names_the_field(self, field, bad):
        fields = {"X": np.eye(2), "Y": np.zeros((2, 2)), "d": np.zeros(2)}
        fields[field] = fields[field].copy()
        fields[field].flat[0] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            GaussianChannel(**fields)

    def test_channel_repro(self):
        # Used to build a channel whose X holds inf.
        with pytest.raises(ValueError, match="^X must be finite"):
            GaussianChannel(X=[[math.inf, 0.0], [0.0, 1.0]], Y=np.zeros((2, 2)), d=np.zeros(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_sector_refuses_non_finite_thetas(self, bad):
        with pytest.raises(ValueError, match="^thetas must be finite"):
            GTOSector(Z=np.eye(1), thetas=[bad], W=np.eye(1))

    @pytest.mark.parametrize("block", ["Z", "W"])
    def test_spec_refuses_a_nan_sector_unitary(self, block):
        # A NaN deviation from unitarity used to pass the check (NaN > tol is False).
        blocks = {"Z": np.eye(1), "W": np.eye(1)}
        blocks[block] = np.array([[math.nan]])
        with pytest.raises(ValueError, match=f"^{block} is not unitary"):
            uniform_sector_spec(1, 1.0, 1.0, blocks["Z"], [0.3], blocks["W"])


class TestValidateChannel:
    def test_identity(self):
        assert validate_channel(GaussianChannel.identity(1))

    def test_total_thermalization(self):
        ch = GaussianChannel(np.zeros((2, 2)), 2.0 * np.eye(2), np.zeros(2))
        assert validate_channel(ch)

    def test_negative_noise_fails(self):
        ch = GaussianChannel(np.eye(2), -0.1 * np.eye(2), np.zeros(2))
        assert not validate_channel(ch)

    def test_lossy_without_noise_fails(self):
        # pure loss needs compensating noise to stay a channel
        ch = GaussianChannel(0.5 * np.eye(2), np.zeros((2, 2)), np.zeros(2))
        assert not validate_channel(ch)

    # validate_channel itself no longer looks for non-finite entries: no
    # channel can hold one.
    def test_non_finite_noise_fails(self):
        assert_field_refused("Y", np.diag([math.nan, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_transfer_fails(self, bad):
        assert_field_refused("X", np.diag([bad, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_displacement_fails(self, bad):
        assert_field_refused("d", np.array([bad, 0.0]))


def per_sector_gto_to_channel(spec):
    """Reference: ``gto_to_channel`` as it was built sector by sector, with
    each sector's ``W`` and ``Z`` converted to real matrices on their own."""
    n = spec.spectrum.n_modes
    dim = 2 * n
    X_nm = np.zeros((dim, dim))
    Y_nm = np.zeros((dim, dim))
    for gto_sec, freq_sec in zip(spec.sectors, spec.spectrum.sectors):
        nu_l = nu_of(spec.beta, freq_sec.omega)
        KW = unitary_to_passive(gto_sec.W)
        KZ = unitary_to_passive(gto_sec.Z)
        cos2 = np.repeat(np.cos(gto_sec.thetas), 2)
        sin2 = np.repeat(np.sin(gto_sec.thetas) ** 2, 2)
        X_l = (KW * cos2) @ KZ
        Y_l = (KW * (nu_l * sin2)) @ KW.T
        rows = np.ravel([[2 * i, 2 * i + 1] for i in freq_sec.mode_indices])
        X_nm[np.ix_(rows, rows)] = X_l
        Y_nm[np.ix_(rows, rows)] = Y_l

    S = spec.spectrum.S
    F = np.linalg.inv(S).T
    return GaussianChannel(X=F @ X_nm @ S.T, Y=F @ Y_nm @ F.T, d=np.zeros(dim))


@st.composite
def partitioned_specs(draw):
    """A GTOSpec on 1-8 modes whose sectors take a random, generally
    non-contiguous, partition of the modes, in the identity or a squeezed frame."""
    n = draw(st.integers(1, 8))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    groups = [tuple(order[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    S = random_symplectic(n, seed) if draw(st.booleans()) else np.eye(2 * n)
    omegas = 0.5 + 0.1 * rng.permutation(40)[: len(groups)]
    spectrum = FrequencySpectrum(
        S=S, sectors=tuple(FrequencySector(float(w), len(g), g) for w, g in zip(omegas, groups))
    )
    sectors = [
        GTOSector(
            Z=random_unitary(len(g), seed + 2 * k + 1),
            thetas=rng.uniform(0.0, np.pi / 2, size=len(g)),
            W=random_unitary(len(g), seed + 2 * k + 2),
        )
        for k, g in enumerate(groups)
    ]
    return GTOSpec(spectrum=spectrum, beta=float(rng.uniform(0.3, 2.0)), sectors=sectors)


class TestGtoToChannel:
    @given(spec=partitioned_specs())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_sector_construction(self, spec):
        got, want = gto_to_channel(spec), per_sector_gto_to_channel(spec)
        for name in ("X", "Y"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max()), name
        assert np.array_equal(got.d, want.d)

    @pytest.mark.parametrize("block", ["W", "Z"])
    def test_refuses_a_sector_block_made_non_unitary_after_construction(self, block):
        spectrum = FrequencySpectrum(
            S=np.eye(6),
            sectors=(
                FrequencySector(omega=1.0, multiplicity=2, mode_indices=(0, 2)),
                FrequencySector(omega=2.0, multiplicity=1, mode_indices=(1,)),
            ),
        )
        blocks = {"Z": random_unitary(2, 1), "W": random_unitary(2, 2)}
        spec = GTOSpec(spectrum, 1.0, [GTOSector(blocks["Z"], [0.2, 0.4], blocks["W"]),
                                       GTOSector(np.eye(1), [0.3], np.eye(1))])
        # (1 + 1e-9)^2 - 1 ~ 2e-9: just past STRUCTURAL_TOL, in a non-contiguous sector
        bad = (1.0 + 1e-9) * blocks[block]
        with pytest.raises(FrozenInstanceError):
            setattr(spec.sectors[0], block, bad)
        with pytest.raises(ValueError, match="read-only"):
            getattr(spec.sectors[0], block)[...] = bad
        blocks[block] = bad
        with pytest.raises(ValueError, match=f"^{block} is not unitary"):
            GTOSpec(spectrum, 1.0, [GTOSector(blocks["Z"], [0.2, 0.4], blocks["W"]), spec.sectors[1]])

    def test_identity_spec(self):
        spec = uniform_sector_spec(1, 1.0, LN3, np.eye(1), [0.0], np.eye(1))
        ch = gto_to_channel(spec)
        assert_allclose(ch.X, np.eye(2), atol=1e-12)
        assert_allclose(ch.Y, np.zeros((2, 2)), atol=1e-12)

    def test_full_thermalization_spec(self):
        spec = uniform_sector_spec(1, 1.0, LN3, np.eye(1), [np.pi / 2], np.eye(1))
        ch = gto_to_channel(spec)
        assert_allclose(ch.X, np.zeros((2, 2)), atol=1e-12)
        assert_allclose(ch.Y, 2.0 * np.eye(2), rtol=1e-12)

    def test_oracle_equivalence_degenerate_modes(self):
        """Decomposed form vs explicit dilation for two equal-frequency modes.

        The dilation unitary carries random bath-side blocks that the normal
        form does not know about; they must not affect the channel.
        """
        rng = np.random.default_rng(21)
        for seed in range(100):
            n = 2
            W = random_unitary(n, 3 * seed)
            Z = random_unitary(n, 3 * seed + 1)
            Xb = random_unitary(n, 3 * seed + 2)
            Yb = random_unitary(n, 3 * seed + 7)
            thetas = rng.uniform(0.0, np.pi / 2, size=n)
            C, Sn = np.diag(np.cos(thetas)), np.diag(np.sin(thetas))
            U = (
                block_diag(W, Xb)
                @ np.block([[C, Sn], [-Sn, C]])
                @ block_diag(Z, Yb)
            )
            beta, om = rng.uniform(0.3, 2.0), rng.uniform(0.5, 2.0)
            nu_b = nu_of(beta, om)

            ch = gto_to_channel(uniform_sector_spec(n, om, beta, Z, thetas, W))
            cm = random_cm(n, rng)
            via_oracle = dilate_and_trace(cm, unitary_to_passive(U), [nu_b] * n)
            assert np.abs(ch.X @ cm @ ch.X.T + ch.Y - via_oracle).max() <= 1e-9

    def test_oracle_apply_matches_normal_form(self):
        """The dilation route agrees with the normal form on a 3-mode
        spectrum with a degenerate pair, in a squeezed frame, with moments."""
        rng = np.random.default_rng(8)
        for seed in range(20):
            S = random_symplectic(3, seed)
            spectrum = FrequencySpectrum(
                S=S,
                sectors=(
                    FrequencySector(omega=2.0, multiplicity=1, mode_indices=(0,)),
                    FrequencySector(omega=0.8, multiplicity=2, mode_indices=(1, 2)),
                ),
            )
            sectors = [
                GTOSector(
                    Z=random_unitary(d, 5 * seed + d),
                    thetas=rng.uniform(0.0, np.pi / 2, size=d),
                    W=random_unitary(d, 5 * seed + d + 2),
                )
                for d in (1, 2)
            ]
            spec = GTOSpec(spectrum=spectrum, beta=rng.uniform(0.3, 2.0), sectors=sectors)
            state = GaussianState(3, rng.standard_normal(6), random_cm(3, rng))
            want = apply_channel(gto_to_channel(spec), state)
            got = oracle_apply(spec, state)
            # Measured: at most 4e-16 relative on these cases.
            assert_allclose(got.cm, want.cm, rtol=0, atol=1e-12 * np.abs(want.cm).max())
            r_scale = max(1.0, np.abs(want.first_moments).max())
            assert_allclose(got.first_moments, want.first_moments, rtol=0, atol=1e-12 * r_scale)

    def test_validates_sector_shapes(self):
        spectrum = FrequencySpectrum(
            S=np.eye(4),
            sectors=(FrequencySector(omega=1.0, multiplicity=2, mode_indices=(0, 1)),),
        )
        with pytest.raises(ValueError):
            GTOSpec(spectrum=spectrum, beta=1.0, sectors=[GTOSector(np.eye(1), [0.1], np.eye(1))])
        with pytest.raises(ValueError):
            GTOSpec(spectrum=spectrum, beta=-1.0, sectors=[GTOSector(np.eye(2), [0.1, 0.2], np.eye(2))])

    @pytest.mark.parametrize(
        "S, sectors, match",
        [
            (2.0 * np.eye(2), ((1.0, 1, (0,)),), "symplectic"),
            (np.eye(4), ((1.0, 1, (0,)),), "symplectic"),
            (np.eye(4), ((1.0, 1, (0,)), (2.0, 1, (0,))), "partition"),
            (np.eye(4), ((1.0, 1, (0,)), (2.0, 1, (2,))), "partition"),
            (np.eye(4), ((1.0, 1, (0, 1)),), "mode_indices"),
        ],
        ids=[
            "scaled-frame", "oversized-frame", "repeated-mode", "mode-out-of-range", "multiplicity-mismatch",
        ],
    )
    def test_refuses_a_frame_that_is_not_one(self, S, sectors, match):
        spectrum = FrequencySpectrum(S=S, sectors=tuple(FrequencySector(*sec) for sec in sectors))
        blocks = [GTOSector(np.eye(1), [0.3], np.eye(1)) for _ in sectors]
        with pytest.raises(ValueError, match=match):
            GTOSpec(spectrum=spectrum, beta=1.0, sectors=blocks)


class TestApplyChannel:
    def test_identity(self):
        state = GaussianState(1, np.array([0.5, -1.0]), np.diag([4.0, 0.3]))
        out = apply_channel(GaussianChannel.identity(1), state)
        assert_allclose(out.cm, state.cm)
        assert_allclose(out.first_moments, state.first_moments)

    def test_full_thermalization_of_vacuum(self):
        ch = GaussianChannel(np.zeros((2, 2)), 2.0 * np.eye(2), np.zeros(2))
        out = apply_channel(ch, GaussianState.vacuum(1))
        assert_allclose(out.cm, 2.0 * np.eye(2))

    def test_half_mixing_worked_example(self):
        # (nu=2, z=4) with p = 1/2 and nu_b = 2 lands on (nu=5/2, z=2),
        # i.e. diag(8, 0.5) -> diag(5, 1.25).
        ch = single_mode_gto(0.5, 0.0, 2.0)
        state = GaussianState(1, np.zeros(2), np.diag([8.0, 0.5]))
        out = apply_channel(ch, state)
        assert_allclose(out.cm, np.diag([5.0, 1.25]), atol=1e-12)

    def test_rejects_invalid_inputs(self):
        bad_state = GaussianState(1, np.zeros(2), 0.5 * np.eye(2))
        with pytest.raises(ValueError):
            apply_channel(GaussianChannel.identity(1), bad_state)
        bad_channel = GaussianChannel(np.eye(2), -np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            apply_channel(bad_channel, GaussianState.vacuum(1))
        with pytest.raises(ValueError):
            apply_channel(GaussianChannel.identity(2), GaussianState.vacuum(1))

    def test_gto_output_always_valid(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            p = rng.uniform(0.0, 1.0)
            ch = single_mode_gto(p, rng.uniform(0, 2 * np.pi), rng.uniform(1.0, 3.0))
            state = GaussianState(1, rng.standard_normal(2), random_cm(1, rng))
            assert validate_state(apply_channel(ch, state))


class TestSingleModeGto:
    def test_p_one_is_identity(self):
        ch = single_mode_gto(1.0, 0.0, 2.0)
        assert_allclose(ch.X, np.eye(2))
        assert_allclose(ch.Y, np.zeros((2, 2)))

    def test_p_zero_is_constant_map(self):
        # Full thermalization installs the bath's Gibbs state nu_b F F^T, F = S^-T.
        S = squeezer(1.5)
        F = np.linalg.inv(S).T
        ch = single_mode_gto(0.0, 0.3, 2.0, S)
        assert_allclose(ch.X, np.zeros((2, 2)), atol=1e-12)
        assert_allclose(ch.Y, 2.0 * F @ F.T)

    def test_matches_one_mode_normal_form(self):
        # cos(theta) = sqrt(p): the explicit single-mode channel and the
        # sectored construction must agree block by block.
        p, phi, nu_b = 0.25, 1.2, 2.0
        S = squeezer(1.7)
        direct = single_mode_gto(p, phi, nu_b, S)
        spec = uniform_sector_spec(
            1,
            omega=1.0,
            beta=LN3,
            Z=np.array([[np.exp(1j * phi)]]),
            thetas=[math.acos(math.sqrt(p))],
            W=np.eye(1),
            S=S,
        )
        via_spec = gto_to_channel(spec)
        assert_allclose(direct.X, via_spec.X, atol=1e-12)
        assert_allclose(direct.Y, via_spec.Y, atol=1e-12)

    def test_phase_covariant_in_normal_frame(self):
        # with phi = 0 and S = identity the channel commutes with rotations
        ch = single_mode_gto(0.4, 0.0, 2.0)
        for psi in (0.3, 1.0, 2.2):
            rot = GaussianChannel(rotation(psi), np.zeros((2, 2)), np.zeros(2))
            left = compose(rot, ch)
            right = compose(ch, rot)
            assert_allclose(left.X, right.X, atol=1e-12)
            assert_allclose(left.Y, right.Y, atol=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            single_mode_gto(1.2, 0.0, 2.0)
        with pytest.raises(ValueError):
            single_mode_gto(0.5, 0.0, 0.8)
        with pytest.raises(ValueError):
            single_mode_gto(0.5, 0.0, 2.0, np.diag([2.0, 2.0]))

    def test_rejects_non_symplectic_frame(self):
        with pytest.raises(ValueError, match="S must be a 2x2 symplectic matrix"):
            single_mode_gto(0.5, 0.0, 2.0, 2.0 * np.eye(2))


class TestDilateAndTrace:
    def test_identity_bath_interaction(self):
        cm = np.diag([4.0, 0.3])
        assert_allclose(dilate_and_trace(cm, np.eye(4), [2.0]), cm)

    def test_full_swap_installs_bath(self):
        swap = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
        out = dilate_and_trace(np.diag([4.0, 0.3]), swap, [3.0])
        assert_allclose(out, 3.0 * np.eye(2))

    def test_beam_splitter_formula(self):
        # cos^2(theta) sigma + sin^2(theta) nu_b * identity
        theta, nu_b = 0.6, 2.0
        U = np.array(
            [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]],
            dtype=complex,
        )
        O = unitary_to_passive(U)
        sigma = np.array([[4.0, 0.7], [0.7, 0.9]])
        out = dilate_and_trace(sigma, O, [nu_b])
        expected = np.cos(theta) ** 2 * sigma + np.sin(theta) ** 2 * nu_b * np.eye(2)
        assert_allclose(out, expected, atol=1e-12)

    def test_oversized_bath_accepted(self):
        O = unitary_to_passive(random_unitary(3, 4))
        out = dilate_and_trace(np.diag([4.0, 0.3]), O, [1.5, 2.5])
        assert out.shape == (2, 2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            dilate_and_trace(np.eye(2), np.diag([2.0, 0.5, 1.0, 1.0]), [2.0])
        with pytest.raises(ValueError):
            dilate_and_trace(np.eye(2), np.eye(4), [0.5])
        with pytest.raises(ValueError):
            dilate_and_trace(np.eye(2), np.eye(6), [2.0])

    @pytest.mark.parametrize("nu_b", [math.nan, math.inf])
    def test_rejects_non_finite_bath(self, nu_b):
        with pytest.raises(ValueError, match="finite"):
            dilate_and_trace(np.eye(2), np.eye(4), [nu_b])


class TestDisplacedGto:
    def test_zero_center_unchanged(self):
        ch = single_mode_gto(0.5, 0.0, 2.0)
        assert_allclose(displaced_gto(ch, np.zeros(2)).d, np.zeros(2))

    def test_full_thermalization_lands_on_center(self):
        ch = single_mode_gto(0.0, 0.0, 2.0)
        out = displaced_gto(ch, np.array([1.0, -2.0]))
        assert_allclose(out.d, [1.0, -2.0])

    def test_half_attenuation(self):
        ch = GaussianChannel(0.5 * np.eye(2), 0.75 * 2.0 * np.eye(2), np.zeros(2))
        out = displaced_gto(ch, np.array([2.0, 0.0]))
        assert_allclose(out.d, [1.0, 0.0])

    def test_fixed_point_moves_to_center(self):
        center = np.array([0.7, -0.3])
        ch = displaced_gto(single_mode_gto(0.35, 0.0, 2.0), center)
        state = GaussianState(1, center.copy(), 2.0 * np.eye(2))
        out = apply_channel(ch, state)
        assert_allclose(out.first_moments, center, atol=1e-12)
        assert_allclose(out.cm, state.cm, atol=1e-12)


class TestCompose:
    def test_identity_neutral(self):
        ch = single_mode_gto(0.6, 0.4, 2.0)
        both = compose(GaussianChannel.identity(1), ch)
        assert_allclose(both.X, ch.X)
        assert_allclose(both.Y, ch.Y)

    def test_semigroup_of_mixing_weights(self):
        a = single_mode_gto(0.5, 0.0, 2.0)
        twice = compose(a, a)
        quarter = single_mode_gto(0.25, 0.0, 2.0)
        assert_allclose(twice.X, quarter.X, atol=1e-12)
        assert_allclose(twice.Y, quarter.Y, atol=1e-12)

    def test_action_matches_sequential_application(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            ch1 = single_mode_gto(rng.uniform(0, 1), rng.uniform(0, 2 * np.pi), rng.uniform(1, 3))
            ch2 = single_mode_gto(rng.uniform(0, 1), rng.uniform(0, 2 * np.pi), rng.uniform(1, 3))
            state = GaussianState(1, rng.standard_normal(2), random_cm(1, rng))
            via_compose = apply_channel(compose(ch2, ch1), state)
            via_steps = apply_channel(ch2, apply_channel(ch1, state))
            assert_allclose(via_compose.cm, via_steps.cm, atol=1e-10)
            assert_allclose(via_compose.first_moments, via_steps.first_moments, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose(GaussianChannel.identity(1), GaussianChannel.identity(2))


class TestThermalFixedPoint:
    def test_every_gto_fixes_the_thermal_state(self):
        rng = np.random.default_rng(31)
        for seed in range(30):
            S = random_symplectic(2, seed)
            oms = np.array([2.0, 0.8])
            H = S @ np.diag(np.repeat(oms, 2)) @ S.T
            ham = HamiltonianSpec(H=H)
            spectrum = normal_mode_spectrum(ham)
            beta = rng.uniform(0.3, 2.0)
            sectors = [
                GTOSector(
                    Z=random_unitary(sec.multiplicity, int(rng.integers(0, 2**32))),
                    thetas=rng.uniform(0, np.pi / 2, size=sec.multiplicity),
                    W=random_unitary(sec.multiplicity, int(rng.integers(0, 2**32))),
                )
                for sec in spectrum.sectors
            ]
            ch = gto_to_channel(GTOSpec(spectrum=spectrum, beta=beta, sectors=sectors))
            gibbs = thermal_state(beta, ham)
            out = apply_channel(ch, gibbs)
            assert np.abs(out.cm - gibbs.cm).max() <= 1e-9 * max(1.0, np.abs(gibbs.cm).max())

    def test_sector_separation(self):
        """Different frequency sectors never mix in the normal-mode frame."""
        rng = np.random.default_rng(37)
        spectrum = FrequencySpectrum(
            S=np.eye(6),
            sectors=(
                FrequencySector(omega=2.0, multiplicity=2, mode_indices=(0, 1)),
                FrequencySector(omega=1.0, multiplicity=1, mode_indices=(2,)),
            ),
        )
        sectors = [
            GTOSector(Z=random_unitary(2, 1), thetas=rng.uniform(0, np.pi / 2, 2), W=random_unitary(2, 2)),
            GTOSector(Z=random_unitary(1, 3), thetas=rng.uniform(0, np.pi / 2, 1), W=random_unitary(1, 4)),
        ]
        ch = gto_to_channel(GTOSpec(spectrum=spectrum, beta=0.7, sectors=sectors))
        assert np.abs(ch.X[:4, 4:]).max() <= 1e-10
        assert np.abs(ch.X[4:, :4]).max() <= 1e-10
        assert np.abs(ch.Y[:4, 4:]).max() <= 1e-10
        assert np.abs(ch.Y[4:, :4]).max() <= 1e-10


def state_json(state):
    return {"n_modes": state.n_modes, "first_moments": state.first_moments.tolist(), "cm": state.cm.tolist()}


def complex_json(M):
    return [[[float(v.real), float(v.imag)] for v in row] for row in M]


class TestSerialization:
    """Channels are read only by ``gtokit apply``: each payload form gives the
    library's answer exactly, since JSON round-trips every double."""

    def apply_both_ways(self, gtokit_run, key, value, channel, n_modes=1):
        cm = random_cm(n_modes, np.random.default_rng(3))
        state = GaussianState(n_modes, np.linspace(-0.5, 0.7, 2 * n_modes), cm)
        code, out = gtokit_run(["apply"], {"state": state_json(state), key: value})
        assert code == 0
        assert json.loads(out) == state_json(apply_channel(channel, state))
        return json.loads(out)

    def test_channel_round_trip(self, gtokit_run):
        ch = single_mode_gto(0.3, 1.1, 2.5, squeezer(1.4))
        payload = {"X": ch.X.tolist(), "Y": ch.Y.tolist(), "d": [0.25, -0.5]}
        self.apply_both_ways(gtokit_run, "channel", payload, GaussianChannel(ch.X, ch.Y, [0.25, -0.5]))

    def test_gto_spec_round_trip(self, gtokit_run):
        spec = uniform_sector_spec(
            2, 1.3, 0.9, random_unitary(2, 1), [0.2, 0.4], random_unitary(2, 2), S=random_symplectic(2, 4)
        )
        payload = {
            "spectrum": {
                "S": spec.spectrum.S.tolist(),
                "sectors": [{"omega": 1.3, "multiplicity": 2, "mode_indices": [0, 1]}],
            },
            "beta": 0.9,
            "sectors": [{"Z": complex_json(sec.Z), "thetas": sec.thetas.tolist(), "W": complex_json(sec.W)}
                        for sec in spec.sectors],
        }
        self.apply_both_ways(gtokit_run, "gto", payload, gto_to_channel(spec), n_modes=2)

    def test_single_mode_gto_round_trip(self, gtokit_run):
        payload = {"p": 0.4, "phi": 0.2, "nu_b": 2.0, "S": squeezer(1.3).tolist()}
        ch = single_mode_gto(0.4, 0.2, 2.0, squeezer(1.3))
        out = self.apply_both_ways(gtokit_run, "single_mode_gto", payload, ch)
        # phi and S are read: without them the answer differs
        payload = {"p": 0.4, "nu_b": 2.0}
        plain = self.apply_both_ways(gtokit_run, "single_mode_gto", payload, single_mode_gto(0.4, 0.0, 2.0))
        assert out["cm"] != plain["cm"]
