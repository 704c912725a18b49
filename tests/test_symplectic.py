import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import block_diag

from gtokit import symplectic
from gtokit.symplectic import (
    _realify,
    build_isotropy_element,
    cosine_sine_decompose,
    is_passive,
    is_symplectic,
    omega,
    passive_to_unitary,
    random_symplectic,
    random_unitary,
    symplectic_eigenvalues,
    triangularize_offdiagonal,
    unitary_to_passive,
    williamson,
)


def rotation(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-s, c]])


class TestOmega:
    def test_single_mode(self):
        assert_allclose(omega(1), [[0.0, 1.0], [-1.0, 0.0]])

    def test_direct_sum(self):
        assert_allclose(omega(2), block_diag(omega(1), omega(1)))

    def test_squares_to_minus_identity(self):
        Om = omega(3)
        assert_allclose(Om @ Om, -np.eye(6))

    def test_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            omega(0)

    def test_memoised_and_read_only(self):
        assert omega(3) is omega(3)
        with pytest.raises(ValueError):
            omega(2)[0, 1] = 5.0
        assert omega(2)[0, 1] == 1.0


_U3 = random_unitary(3, 0)
_S2 = random_symplectic(2, 5)
# Block lists of the shapes gtokit passes to block_diag, by call site.
BLOCK_DIAG_CASES = {
    "williamson-fixups": [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)],
    "one-block": [np.eye(2)],
    "real-sectors": [w * np.eye(2 * d) for w, d in zip((0.7, 1.9, 3.1), (1, 3, 2))],
    "complex-sectors": [random_unitary(1, 1), _U3, random_unitary(2, 2)],
    "triangularize": [np.eye(2), _U3],
    "cosine-sine": [_U3, random_unitary(3, 4)],
    "dilation": [_S2 @ np.diag([2.0, 2.0, 1.5, 1.5]) @ _S2.T, np.diag(np.repeat([1.5, 2.5, 4.0], 2))],
    "oracle-mixed": [_U3, np.eye(3)],
    "int-and-float": [np.eye(2, dtype=int), np.ones((1, 1))],
    "no-blocks": [],
}


class TestBlockDiag:
    @pytest.mark.parametrize("name", BLOCK_DIAG_CASES)
    def test_equals_scipy_in_values_and_dtype(self, name):
        blocks = BLOCK_DIAG_CASES[name]
        got = symplectic.block_diag(*blocks)
        want = block_diag(*blocks)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)


class TestPredicates:
    def test_identity_is_symplectic(self):
        assert is_symplectic(np.eye(4))

    def test_squeezer_is_symplectic_but_not_passive(self):
        S = np.diag([2.0, 0.5])
        assert is_symplectic(S)
        assert not is_passive(S)

    def test_uniform_scaling_is_not_symplectic(self):
        assert not is_symplectic(np.diag([2.0, 2.0]))

    def test_rotation_is_passive(self):
        assert is_passive(rotation(0.3))

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            is_symplectic(np.eye(3))


class TestBogoliubov:
    def test_identity(self):
        assert_allclose(unitary_to_passive(np.eye(1, dtype=complex)), np.eye(2))

    def test_phase_gives_rotation(self):
        phi = 0.77
        K = unitary_to_passive(np.array([[np.exp(1j * phi)]]))
        assert_allclose(K, rotation(phi), atol=1e-15)

    def test_real_rotation_gives_beam_splitter(self):
        # A real 2-mode rotation must map to the standard 4x4 beam splitter.
        th = 0.41
        U = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
        K = unitary_to_passive(U)
        expected = np.block(
            [
                [np.cos(th) * np.eye(2), np.sin(th) * np.eye(2)],
                [-np.sin(th) * np.eye(2), np.cos(th) * np.eye(2)],
            ]
        )
        assert_allclose(K, expected, atol=1e-15)

    def test_output_is_passive(self):
        for seed in range(100):
            K = unitary_to_passive(random_unitary(3, seed))
            assert is_passive(K)

    def test_round_trip(self):
        for seed in range(100):
            U = random_unitary(4, seed)
            assert_allclose(passive_to_unitary(unitary_to_passive(U)), U, atol=1e-12)
        for seed in range(20):
            K = unitary_to_passive(random_unitary(2, 1000 + seed))
            assert_allclose(unitary_to_passive(passive_to_unitary(K)), K, atol=1e-12)

    def test_homomorphism(self):
        """K(U1 U2) = K(U1) K(U2): products of unitaries map to products."""
        rng = np.random.default_rng(5)
        for _ in range(50):
            s1, s2 = rng.integers(0, 2**32, size=2)
            U1, U2 = random_unitary(3, int(s1)), random_unitary(3, int(s2))
            assert_allclose(
                unitary_to_passive(U1 @ U2),
                unitary_to_passive(U1) @ unitary_to_passive(U2),
                atol=1e-12,
            )

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            unitary_to_passive(np.array([[2.0]]))
        with pytest.raises(ValueError):
            passive_to_unitary(np.diag([2.0, 0.5]))


def complex_matrix(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestRealify:
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_products_map_to_products(self, n, seed):
        A, B = complex_matrix(n, seed), complex_matrix(n, seed + 1)
        AB = _realify(A @ B)
        assert np.abs(AB - _realify(A) @ _realify(B)).max() <= 1e-12 * max(1.0, np.abs(AB).max())

    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_adjoint_maps_to_transpose(self, n, seed):
        A = complex_matrix(n, seed)
        assert np.array_equal(_realify(A.conj().T), _realify(A).T)

    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_unitary_to_passive_equals_the_kronecker_form(self, n, seed):
        # The Kronecker-product expression unitary_to_passive was once built
        # from; array_equal compares values, so only the sign of a zero may differ.
        U = random_unitary(n, seed)
        kron = np.kron(U.real, np.eye(2)) + np.kron(U.imag, omega(1))
        assert np.array_equal(unitary_to_passive(U), kron)


class TestWilliamson:
    def test_identity(self):
        form = williamson(np.eye(2))
        assert_allclose(form.nus, [1.0])
        assert is_symplectic(form.S)

    def test_thermal(self):
        form = williamson(np.diag([2.0, 2.0]))
        assert_allclose(form.nus, [2.0])

    def test_rotated_squeezed_thermal(self):
        nu, z, phi = 3.0, 2.0, 0.7
        P = nu * rotation(phi) @ np.diag([z, 1.0 / z]) @ rotation(phi).T
        form = williamson(P)
        assert_allclose(form.nus, [nu], rtol=1e-12)
        assert_allclose(form.reconstruct(), P, atol=1e-12)

    def test_degenerate_eigenvalues(self):
        P = 2.5 * np.eye(4)
        form = williamson(P)
        assert_allclose(form.nus, [2.5, 2.5])
        assert is_symplectic(form.S)
        assert_allclose(form.reconstruct(), P, atol=1e-10)

    def test_random_round_trips(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            A = rng.standard_normal((2 * n, 2 * n))
            P = A @ A.T + 0.5 * np.eye(2 * n)
            form = williamson(P)
            assert is_symplectic(form.S)
            assert np.abs(form.reconstruct() - P).max() <= 1e-8 * np.abs(P).max()
            assert np.all(np.diff(form.nus) <= 1e-12)  # sorted descending

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            williamson(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
        with pytest.raises(ValueError):
            williamson(np.diag([1.0, -1.0]))  # not positive definite


class TestSymplecticEigenvalues:
    def test_matches_williamson(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = rng.standard_normal((4, 4))
            P = A @ A.T + 0.3 * np.eye(4)
            assert_allclose(symplectic_eigenvalues(P), williamson(P).nus, rtol=1e-9)

    def test_determinant_identity(self):
        """det P equals the product of squared symplectic eigenvalues."""
        rng = np.random.default_rng(4)
        for _ in range(50):
            A = rng.standard_normal((4, 4))
            P = A @ A.T + 0.3 * np.eye(4)
            nus = symplectic_eigenvalues(P)
            assert_allclose(np.prod(nus**2), np.linalg.det(P), rtol=1e-8)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(6)
        for seed in range(100):
            n = int(rng.integers(1, 4))
            A = rng.standard_normal((2 * n, 2 * n))
            P = A @ A.T + 0.4 * np.eye(2 * n)
            S = random_symplectic(n, seed)
            assert_allclose(
                symplectic_eigenvalues(S @ P @ S.T),
                symplectic_eigenvalues(P),
                rtol=1e-8,
            )


def eigvals_route(P):
    """Symplectic eigenvalues as |eig(i Omega P)| from the general complex eigensolver."""
    n = len(P) // 2
    ev = np.abs(np.linalg.eigvals(1j * omega(n) @ P))
    return np.sort(ev)[::-1][::2]


@st.composite
def conditioned_spectra(draw):
    """``(P, nu)`` with ``P = S diag(nu) S^T`` on 1-6 modes, condition number up to ~1e8.

    ``nu`` mixes unit values (pure modes) and values in [1, 10], and may
    repeat one value across all modes; ``S = K1 diag(e^r, e^-r) K2`` with
    squeezing ``r`` up to 4, so ``cond P <= 10 e^16 ~ 9e7``.
    """
    n = draw(st.integers(1, 6))
    nus = draw(st.lists(st.one_of(st.just(1.0), st.floats(1.0, 10.0)), min_size=n, max_size=n))
    if draw(st.booleans()):
        nus = [nus[0]] * n
    r = np.array(draw(st.lists(st.floats(0.0, 4.0), min_size=n, max_size=n)))
    seed = draw(st.integers(0, 2**32 - 1))
    K1 = unitary_to_passive(random_unitary(n, seed))
    K2 = unitary_to_passive(random_unitary(n, seed + 1))
    stretch = np.exp(np.stack([r, -r], axis=1).ravel())
    S = (K1 * stretch) @ K2
    P = (S * np.repeat(nus, 2)) @ S.T
    return 0.5 * (P + P.T), np.sort(nus)[::-1]


class TestSymplecticEigenvaluesConditioning:
    @given(case=conditioned_spectra())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_eigvals_route_and_the_drawn_spectrum(self, case):
        P, nus = case
        tol = 1e-13 * np.linalg.cond(P)
        got = symplectic_eigenvalues(P)
        assert np.all(np.diff(got) <= 0)
        assert np.abs(got / nus - 1).max() <= tol
        assert np.abs(got / eigvals_route(P) - 1).max() <= tol


class TestTriangularization:
    def test_minimal_case_keeps_shape(self):
        U = random_unitary(2, 0)
        U_m, V_m, reduced = triangularize_offdiagonal(U, 1, 1)
        assert reduced.shape == (2, 2)
        # 1x1 off-diagonal blocks are trivially triangular already.
        err = np.abs(block_diag(np.eye(1), U_m) @ U @ block_diag(np.eye(1), V_m) - reduced).max()
        assert err <= 1e-12

    def test_zero_pattern_1_3(self):
        for seed in range(20):
            U = random_unitary(4, seed)
            _, _, reduced = triangularize_offdiagonal(U, 1, 3)
            beta = reduced[:1, 1:]
            gamma = reduced[1:, :1]
            assert np.abs(beta[0, 1:]).max() <= 1e-10
            assert np.abs(gamma[1:, 0]).max() <= 1e-10

    def test_zero_pattern_2_4(self):
        """Off-diagonal blocks end up supported on leading lower triangles."""
        for seed in range(50):
            U = random_unitary(6, seed)
            U_m, V_m, reduced = triangularize_offdiagonal(U, 2, 4)
            assert_allclose(
                block_diag(np.eye(2), U_m) @ U @ block_diag(np.eye(2), V_m),
                reduced,
                atol=1e-12,
            )
            beta = reduced[:2, 2:]   # 2x4: zeros above diagonal and beyond col 2
            gamma = reduced[2:, :2]  # 4x2: zeros below the leading triangle
            assert abs(beta[0, 1]) <= 1e-10
            assert np.abs(beta[:, 2:]).max() <= 1e-10
            assert abs(gamma[1, 0]) <= 1e-10
            assert np.abs(gamma[2:, :]).max() <= 1e-10
            # unitarity survives the one-sided rotations
            assert np.abs(reduced @ reduced.conj().T - np.eye(6)).max() <= 1e-12

    def test_rejects_small_bath(self):
        with pytest.raises(ValueError):
            triangularize_offdiagonal(random_unitary(3, 0), 2, 1)


class TestCosineSine:
    def test_identity(self):
        form = cosine_sine_decompose(np.eye(4, dtype=complex))
        assert_allclose(form.thetas, [0.0, 0.0], atol=1e-12)
        assert_allclose(form.reconstruct(), np.eye(4), atol=1e-12)

    def test_full_swap(self):
        U = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        form = cosine_sine_decompose(U)
        assert_allclose(form.thetas, [np.pi / 2], atol=1e-12)
        assert_allclose(form.reconstruct(), U, atol=1e-12)

    def test_round_trip_seeded(self):
        for seed in range(100):
            n = 1 + seed % 6
            U = random_unitary(2 * n, seed)
            form = cosine_sine_decompose(U)
            assert np.abs(form.reconstruct() - U).max() <= 1e-9
            for block in (form.W, form.X, form.Z, form.Y):
                assert np.abs(block @ block.conj().T - np.eye(n)).max() <= 1e-10
            assert np.all(form.thetas >= -1e-12)
            assert np.all(form.thetas <= np.pi / 2 + 1e-12)

    def test_angles_from_singular_values(self):
        for seed in range(20):
            U = random_unitary(6, 500 + seed)
            form = cosine_sine_decompose(U)
            sv = np.linalg.svd(U[:3, 3:], compute_uv=False)
            assert_allclose(np.sort(np.sin(form.thetas)), np.sort(sv), atol=1e-10)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            cosine_sine_decompose(random_unitary(3, 0))


class TestIsotropy:
    def test_single_identity_sector(self):
        assert_allclose(build_isotropy_element([2], [np.eye(2)]), np.eye(4))

    def test_preserves_sectored_form(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            mults = [int(rng.integers(1, 4)), int(rng.integers(1, 4))]
            oms = [1.0, 2.0]
            blocks = [random_unitary(d, int(rng.integers(0, 2**32))) for d in mults]
            K = build_isotropy_element(mults, blocks)
            Y = block_diag(*[w * np.eye(2 * d) for w, d in zip(oms, mults)])
            Om = omega(sum(mults))
            assert np.abs(K @ Y @ K.T - Y).max() <= 1e-10
            assert np.abs(K @ (Y @ Om) - (Y @ Om) @ K).max() <= 1e-10

    def test_cross_sector_mixing_violates(self):
        # A beam splitter between sectors of different frequency is NOT in
        # the isotropy group.
        K_bad = unitary_to_passive(
            np.array([[np.cos(0.3), np.sin(0.3)], [-np.sin(0.3), np.cos(0.3)]])
        )
        Y = block_diag(1.0 * np.eye(2), 2.0 * np.eye(2))
        assert np.abs(K_bad @ Y @ K_bad.T - Y).max() > 1e-3

    def test_rejects_mismatched_blocks(self):
        with pytest.raises(ValueError):
            build_isotropy_element([2], [np.eye(3)])
        with pytest.raises(ValueError):
            build_isotropy_element([1, 2], [np.eye(1)])


class TestRandomGenerators:
    def test_unitary_is_unitary_and_deterministic(self):
        for seed in range(50):
            U = random_unitary(3, seed)
            assert np.abs(U @ U.conj().T - np.eye(3)).max() <= 1e-12
        assert_allclose(random_unitary(4, 9), random_unitary(4, 9))

    def test_symplectic_is_symplectic_and_deterministic(self):
        for seed in range(50):
            assert is_symplectic(random_symplectic(2, seed))
        assert_allclose(random_symplectic(3, 9), random_symplectic(3, 9))
