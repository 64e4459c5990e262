"""Eigensolver, capacity, gradient and norm kernels against independent
oracles: LAPACK reconstruction, hand determinant expansion, elementwise
sums, and central finite differences."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyncov import capacity, capacity_gradient, frobenius, herm_eig, psd_cap_project
from dyncov.channel import PAPER_H1
from dyncov.linalg import require_hermitian, symmetrize, trace_real

# elementwise oracle: sqrt(sum of printed squared magnitudes)
H1_FROBENIUS = 4.692305883038744
# direct 2x2 determinant expansion of det(I + H1 H1^H)
H1_IDENTITY_CAPACITY = 3.441468408299966


def random_hermitian(rng, n, scale=1.0):
    g = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return 0.5 * (g + g.conj().T)


class TestHermEig:
    def test_identity(self):
        e = herm_eig(np.eye(2, dtype=complex))
        assert np.allclose(e.sigma, [1.0, 1.0])
        assert frobenius(e.u @ e.u.conj().T - np.eye(2)) <= 1e-10

    def test_diagonal(self):
        e = herm_eig(np.diag([3.0, 1.0]).astype(complex))
        assert sorted(e.sigma) == pytest.approx([1.0, 3.0])
        # eigenvectors are the standard basis up to phase
        assert np.allclose(np.abs(e.u), np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_reconstruction(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(50):
            a = random_hermitian(rng, n)
            e = herm_eig(a)
            assert frobenius(e.reconstruct() - a) <= 1e-10
            assert frobenius(e.u @ e.u.conj().T - np.eye(n)) <= 1e-10
            assert np.isrealobj(e.sigma)

    def test_matches_lapack_eigenvalues(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = random_hermitian(rng, 4)
            assert np.allclose(
                np.sort(herm_eig(a).sigma), np.linalg.eigvalsh(a), atol=1e-10
            )

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            herm_eig(np.zeros((2, 3)))

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, n, bad):
        a = np.eye(n, dtype=complex)
        a[n - 1, n - 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            herm_eig(a)

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_descending_order(self, n):
        e = herm_eig(random_hermitian(np.random.default_rng(n), n))
        assert np.all(np.diff(e.sigma) <= 0.0)


class TestCapacity:
    def test_zero_channel(self):
        h = np.zeros((2, 2))
        q = np.eye(2)
        assert capacity(h, q) == 0.0

    def test_scalar_closed_form(self):
        assert capacity(np.array([[1.0]]), np.array([[1.0]])) == pytest.approx(
            np.log(2.0), abs=1e-12
        )

    def test_h1_identity_against_determinant_expansion(self):
        assert capacity(PAPER_H1, np.eye(2)) == pytest.approx(
            H1_IDENTITY_CAPACITY, abs=1e-12
        )

    def test_nonnegative_on_random_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert capacity(h, g @ g.conj().T) >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            capacity(np.zeros((2, 3)), np.eye(2))

    def test_indefinite_argument_rejected(self):
        # strongly negative "covariance" drives I + H Q H^H indefinite
        with pytest.raises(ValueError, match="indefinite"):
            capacity(np.eye(2) * 2.0, -np.eye(2))

    def test_midpoint_concavity(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            g1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            g2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            q1, q2 = g1 @ g1.conj().T, g2 @ g2.conj().T
            assert capacity(h, 0.5 * (q1 + q2)) >= (
                0.5 * (capacity(h, q1) + capacity(h, q2)) - 1e-9
            )


class TestCapacityGradient:
    def test_zero_covariance_gives_gram(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        d = capacity_gradient(h, np.zeros((2, 2)))
        assert frobenius(d - h.conj().T @ h) <= 1e-12

    def test_scalar_closed_form(self):
        h = np.array([[1.5 + 0.5j]])
        q = np.array([[0.7]])
        g = abs(h[0, 0]) ** 2
        assert capacity_gradient(h, q)[0, 0] == pytest.approx(g / (1 + g * 0.7))

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(11)
        eps = 1e-5
        for _ in range(20):
            h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            q = g @ g.conj().T
            d = capacity_gradient(h, q)
            step = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            step = 0.5 * (step + step.conj().T)
            fd = (capacity(h, q + eps * step) - capacity(h, q - eps * step)) / (2 * eps)
            directional = np.trace(d.conj().T @ step).real
            assert fd == pytest.approx(directional, abs=1e-5)

    def test_result_hermitian_psd(self):
        rng = np.random.default_rng(13)
        h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        d = capacity_gradient(h, g @ g.conj().T)
        assert frobenius(d - d.conj().T) <= 1e-12
        assert np.linalg.eigvalsh(d).min() >= -1e-10


class TestStacks:
    @given(
        n_r=st.integers(1, 8),
        n_t=st.integers(1, 8),
        count=st.integers(1, 6),
        scale=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_equals_per_matrix(self, n_r, n_t, count, scale, seed):
        rng = np.random.default_rng(seed)
        h = scale * (
            rng.standard_normal((count, n_r, n_t))
            + 1j * rng.standard_normal((count, n_r, n_t))
        )
        g = rng.standard_normal((count, n_t, n_t)) + 1j * rng.standard_normal(
            (count, n_t, n_t)
        )
        q = scale * (g @ np.conj(np.swapaxes(g, 1, 2)))
        r, d, tr = capacity(h, q), capacity_gradient(h, q), trace_real(q)
        # one covariance broadcast over the channel stack
        r0, d0 = capacity(h, q[0]), capacity_gradient(h, q[0])
        assert r.shape == r0.shape == tr.shape == (count,)
        for k in range(count):
            assert r[k] == capacity(h[k], q[k])
            assert np.array_equal(d[k], capacity_gradient(h[k], q[k]))
            assert tr[k] == trace_real(q[k])
            assert r0[k] == capacity(h[k], q[0])
            assert np.array_equal(d0[k], capacity_gradient(h[k], q[0]))

    def test_single_pair_types(self):
        assert isinstance(capacity(PAPER_H1, np.eye(2)), float)
        assert isinstance(trace_real(np.eye(2)), float)
        assert capacity_gradient(PAPER_H1, np.eye(2)).shape == (2, 2)

    def test_leading_axes_broadcast(self):
        h = np.broadcast_to(PAPER_H1, (3, 4, 2, 2))
        assert capacity(h, np.eye(2)).shape == (3, 4)
        assert capacity_gradient(h, np.eye(2)).shape == (3, 4, 2, 2)

    def test_rejects_vectors(self):
        with pytest.raises(ValueError, match="ndim=1"):
            capacity(np.ones(2), np.eye(2))
        with pytest.raises(ValueError, match="ndim=1"):
            capacity_gradient(np.eye(2), np.ones(2))


class TestFrobenius:
    def test_zero(self):
        assert frobenius(np.zeros((3, 2))) == 0.0

    def test_identity(self):
        assert frobenius(np.eye(3)) == pytest.approx(np.sqrt(3.0), abs=1e-14)

    def test_h1_elementwise_oracle(self):
        assert frobenius(PAPER_H1) == pytest.approx(H1_FROBENIUS, abs=1e-12)

    def test_equals_trace_form(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        assert frobenius(a) == pytest.approx(
            np.sqrt(np.trace(a.conj().T @ a).real), abs=1e-12
        )


class TestHelpers:
    def test_symmetrize_fixes_round_off(self):
        a = np.array([[1.0, 0.5 + 1e-14j], [0.5 - 2e-14j, 2.0]])
        s = symmetrize(a)
        assert frobenius(s - s.conj().T) == 0.0

    def test_require_hermitian_tolerance(self):
        good = np.array([[1.0, 0.5 + 5e-13j], [0.5 - 5e-13j, 2.0]])
        require_hermitian(good)
        bad = np.array([[1.0, 0.5 + 1e-9j], [0.5 - 5e-9j, 2.0]])
        with pytest.raises(ValueError):
            require_hermitian(bad)

    def test_large_gram_round_off_accepted(self):
        # at scale 1e10 the round-off asymmetry of g g^H is ~1e-6 absolute,
        # ~1e-16 relative
        rng = np.random.default_rng(1)
        g = 1e5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        a = g @ g.conj().T
        assert np.max(np.abs(a - a.conj().T)) > 1e-12
        herm_eig(a)
        assert trace_real(psd_cap_project(a, 1.0)) <= 1.0 + 1e-9

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e10])
    def test_relative_asymmetry_rejected(self, scale):
        a = scale * np.array([[1.0, 0.5 + 1e-6], [0.5 - 1e-6, 2.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            require_hermitian(a)
        with pytest.raises(ValueError, match="Hermitian"):
            herm_eig(a)

    def test_trace_real(self):
        assert trace_real(np.diag([1.0 + 0j, 2.0])) == 3.0
