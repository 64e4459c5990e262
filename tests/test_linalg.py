"""Eigensolver, capacity, gradient and norm kernels against independent
oracles: LAPACK reconstruction, hand determinant expansion, elementwise
sums, and central finite differences."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.linalg import LinAlgError, _umath_linalg

from dyncov import (
    ChannelPath,
    DppSpec,
    ExactCsit,
    ExperimentConfig,
    OgdSpec,
    ProductChannel,
    capacity,
    capacity_gradient,
    frobenius,
    herm_eig,
    ogd_step,
    psd_cap_project,
)
from dyncov.channel import PAPER_H1
from dyncov.linalg import (
    Workspace,
    _capacity_gradient,
    _compose,
    _ct,
    _eigh,
    _eigh_desc,
    _eye,
    _gram,
    _lapack_guard,
    nearest_index,
    require_hermitian,
    trace_real,
)
from dyncov.solvers import _cap_project, _cap_threshold
from dyncov.validate import check_lapack_kernels

# elementwise oracle: sqrt(sum of printed squared magnitudes)
H1_FROBENIUS = 4.692305883038744
# direct 2x2 determinant expansion of det(I + H1 H1^H)
H1_IDENTITY_CAPACITY = 3.441468408299966


def random_hermitian(rng, n, scale=1.0):
    g = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return 0.5 * (g + g.conj().T)


def hermitian_stack(rng, n, count, kind, scale):
    """An exactly Hermitian (count, n, n) stack with a generic spectrum, rank
    below n (possibly zero), or eigenvalues repeated from {-1, 0, 2}."""
    g = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    if kind == "rank-deficient":
        g[..., rng.integers(0, n) :] = 0.0
        a = g @ _ct(g)
    elif kind == "repeated":
        unitary, _ = np.linalg.qr(g)
        w = rng.choice([-1.0, 0.0, 2.0], size=(count, n))
        a = unitary @ (w[..., None] * _ct(unitary))
    else:
        a = g
    return scale * (0.5 * (a + _ct(a)))


def outcome(f, *args):
    """What a call does, comparable byte for byte: the LinAlgError it raises
    or the bytes of every array it returns.  Any warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = f(*args)
        except LinAlgError:
            return LinAlgError
    return tuple(x.tobytes() for x in (out if isinstance(out, tuple) else (out,)))


def eigh_oracle(a):
    """``_eigh_desc`` through ``np.linalg.eigh``: its pair reversed, the
    descending eigenvalues and the eigenvector columns in their order."""
    w, v = np.linalg.eigh(a)
    return w[..., ::-1], v[..., ::-1]


def gradient_oracle(h, q):
    """``_capacity_gradient`` of h's Gram through ``np.linalg.solve``."""
    g = _gram(h)
    d = np.linalg.solve(np.eye(q.shape[-1]) + g @ q, g)
    return 0.5 * (d + _ct(d))


def guarded(f, *args):
    with _lapack_guard():  # what the hot loops hold around their steps
        return f(*args)


def gradient_kernel(h, q):
    return guarded(_capacity_gradient, _gram(h), q)


def eigh_kernel(a):
    return guarded(_eigh_desc, a)


# hypothesis arguments of the ``hermitian_stack`` property tests
HERMITIAN_STACKS = dict(
    n=st.integers(1, 8),
    count=st.integers(1, 6),
    kind=st.sampled_from(["generic", "rank-deficient", "repeated"]),
    scale=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    seed=st.integers(0, 2**32 - 1),
)


NAN_PATTERNS = ["corner", "full", "one-entry"]


def nan_matrix(n, pattern):
    a = np.eye(n, dtype=complex) if pattern == "corner" else np.ones((n, n), dtype=complex)
    if pattern == "corner":
        a[0, -1] = a[-1, 0] = np.nan
    elif pattern == "full":
        a[:] = np.nan
    else:
        a[0, 0] = np.nan
    return a


class TestLapackKernels:
    """The kernels call LAPACK's gufuncs without np.linalg's wrappers; they
    must equal np.linalg byte for byte and fail exactly where it fails."""

    @given(**HERMITIAN_STACKS)
    def test_direct_calls_equal_np_linalg(self, n, count, kind, scale, seed):
        rng = np.random.default_rng(seed)
        a = hermitian_stack(rng, n, count, kind, scale)
        h = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
        q = a @ a  # PSD, so I + H Q H^H is nonsingular
        assert outcome(eigh_kernel, a) == outcome(eigh_oracle, a)
        assert outcome(gradient_kernel, h, q) == outcome(gradient_oracle, h, q)
        for k in range(count):
            # the lean projection against the public eigensolve and compose, or
            # the shift X - tau I where every mode stays active and tau <= cap
            sigma, v = herm_eig(a[k])
            expect = shift_projection(a[k], scale)
            if expect is None:
                expect = _compose(v, _cap_threshold(sigma.tolist(), 0.0, scale)[0])
            assert guarded(_cap_project, a[k], scale).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("pattern", NAN_PATTERNS)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_nan_input_fails_like_np_linalg(self, n, pattern):
        # np.linalg.eigh raises on some NaN inputs and returns NaN on others;
        # np.linalg.solve returns NaN.  The direct calls do the same, with no
        # RuntimeWarning either way; the public gradient rejects NaN input
        a = nan_matrix(n, pattern)
        assert outcome(eigh_kernel, a) == outcome(eigh_oracle, a)
        h, q = np.ones((n, n), dtype=complex), np.eye(n, dtype=complex)
        h[0, 0] = np.nan
        assert outcome(gradient_kernel, h, q) == outcome(gradient_oracle, h, q)
        assert outcome(gradient_kernel, a, q) == outcome(gradient_oracle, a, q)
        with pytest.raises(ValueError, match="channel has non-finite entries"):
            capacity_gradient(a, q)

    def test_unconverged_eigensolve_raises(self):
        nan = nan_matrix(3, "full")
        assert outcome(eigh_oracle, nan) is LinAlgError
        assert outcome(eigh_kernel, nan) is LinAlgError
        assert outcome(guarded, _cap_project, nan, 1.0) is LinAlgError
        # the step holds the guard itself: a block of one row raises with or without it
        assert outcome(guarded, ogd_step, [nan], [np.eye(3)], 1.0, 1.0) is LinAlgError
        assert outcome(ogd_step, [nan], [np.eye(3)], 1.0, 1.0) is LinAlgError
        # the public functions reject a NaN input before LAPACK sees it
        for f, args in ((herm_eig, ()), (psd_cap_project, (1.0,))):
            with pytest.raises(ValueError, match="non-finite"):
                f(nan, *args)

    def test_singular_system_raises(self):
        # I + H Q H^H = 0 for H = I, Q = -I
        eye = np.eye(2, dtype=complex)
        assert outcome(gradient_oracle, eye, -eye) is LinAlgError
        assert outcome(gradient_kernel, eye, -eye) is LinAlgError
        assert outcome(guarded, ogd_step, [-eye], [eye], 1.0, 1.0) is LinAlgError
        assert outcome(ogd_step, [-eye], [eye], 1.0, 1.0) is LinAlgError
        assert outcome(capacity_gradient, eye, -eye) is LinAlgError

    @pytest.mark.parametrize(
        "controller", [DppSpec(v=10.0), OgdSpec(gamma=0.1)], ids=["dpp", "ogd"]
    )
    def test_run_decide_raises_on_unconverged_eigensolve(self, controller):
        # each spec's decide holds the guard itself, with no guard of its caller's;
        # without one the failed eigensolve would be a RuntimeWarning and NaN covariances
        cfg = ExperimentConfig(
            channel=ProductChannel(n_r=3, n_t=3, v_max=1.0), csit_error=ExactCsit(),
            controller=controller, p=3.0, p_bar=2.0, horizon=5, seed=1,
        )
        h, h_obs = ChannelPath(cfg.channel, cfg.csit_error, cfg.seed).draw(0, cfg.horizon)
        h_obs[0] = np.nan
        assert outcome(cfg.controller.decide, cfg, 0, h, h_obs, None) is LinAlgError

    def test_validate_check_passes(self):
        check = check_lapack_kernels()
        assert check.passed, check.detail


def lean_cap_project(x, cap):
    """The projection as it composed on LAPACK's columns before ``_compose``
    existed, verbatim: the oracle of the shared kernel's projection."""
    w, v = _umath_linalg.eigh_lo(x, signature="D->dD")
    theta = _cap_threshold(w[::-1].tolist(), 0.0, cap)[0]
    v = v[:, ::-1]
    q = v @ (np.asarray(theta)[:, None] * v.conj().T)
    return 0.5 * (q + q.conj().T)


def shift_projection(x, cap):
    """X - tau I when the capped threshold of X's eigenvalues keeps every mode
    and tau <= cap, theta and tau from the same sweep; None where the
    projection composes."""
    theta, tau = _cap_threshold(np.linalg.eigh(x)[0][::-1].tolist(), 0.0, cap)
    return x - tau * np.eye(len(x)) if theta[-1] > 0.0 and tau <= cap else None


class TestDotEqualsMatmul:
    """The hot path multiplies one matrix by ``np.dot`` (``ogd_step``'s G Q, a
    single-matrix ``_compose``) and a stack by ``np.matmul``, on the premise
    that both call the same BLAS zgemm and give the same bits.  Pinned on the
    layouts that path passes, under the numpy that CI installs."""

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_dot_equals_matmul_on_hot_path_layouts(self, n, scale):
        rng = np.random.default_rng(100 + n)
        count = 16
        g, q = scale * (
            rng.standard_normal((2, count, n, n)) + 1j * rng.standard_normal((2, count, n, n))
        )
        x = hermitian_stack(rng, n, count, "generic", scale)
        stacked = np.matmul(g, q)
        work = Workspace(n)
        for k in range(count):
            guarded(_eigh, x[k], work.eig)
            v_desc = work.eig[1][:, ::-1]  # the reversed-column view of LAPACK's vectors
            c = np.conjugate(v_desc, out=work.sq)
            c *= rng.uniform(0.0, scale, (1, n))  # as _compose scales conj(V)
            # contiguous stack rows (G and Q), then V against the transpose of conj(V)
            for a, b in ((g[k], q[k]), (v_desc, c.T)):
                expect = np.matmul(a, b).tobytes()
                assert np.dot(a, b).tobytes() == expect
                out = np.empty((n, n), dtype=complex)
                assert np.dot(a, b, out=out) is out and out.tobytes() == expect
            assert stacked[k].tobytes() == np.dot(g[k], q[k]).tobytes()


class TestSpectralLayout:
    """One layout: ``_eigh_desc`` and the public ``herm_eig`` return
    (sigma, v) with eigenvector columns, and ``_compose`` turns a stack of
    them back into matrices."""

    @pytest.mark.parametrize("kind", ["generic", "rank-deficient", "repeated"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_stacked_compose_equals_per_matrix(self, n, kind):
        # a stack composes by np.matmul and one matrix by np.dot: this pins the two alike
        rng = np.random.default_rng(60 + n)
        a = hermitian_stack(rng, n, 64, kind, 1.0)
        sigma, v = guarded(_eigh_desc, a)
        theta = rng.uniform(0.0, 2.0, (64, n)).tolist()
        q = _compose(v, theta)
        for k in range(64):
            assert q[k].tobytes() == _compose(v[k], theta[k]).tobytes()
        assert np.array_equal(q, _ct(q))  # exactly Hermitian
        assert np.allclose(_compose(v, sigma), a, atol=1e-12)  # V diag(sigma) V^H = A

    @given(**HERMITIAN_STACKS)
    def test_cap_project_equals_lean_formula(self, n, count, kind, scale, seed):
        a = hermitian_stack(np.random.default_rng(seed), n, count, kind, scale)
        for k in range(count):
            for cap in (0.5 * scale, 2.0 * scale):
                got = outcome(guarded, _cap_project, a[k].copy(), cap)  # it overwrites its input
                shift = shift_projection(a[k], cap)
                if shift is None:
                    assert got == outcome(guarded, lean_cap_project, a[k], cap)
                else:
                    # the shift is the compose up to rounding relative to the cap
                    assert got == (shift.tobytes(),)
                    lean = guarded(lean_cap_project, a[k], cap)
                    assert frobenius(shift - lean) <= 1e-14 * n * cap

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_nearly_scalar_input_at_tiny_cap_composes(self, n):
        # X = 3 I + 1e-11 (A + A^H) at cap 1e-9 keeps every mode, but at
        # tau ~ 3 the shift X - tau I would cancel 3 - tau at the rounding of
        # 3 (4e-16 per diagonal entry, 4e-7 of the cap): tau > cap composes
        rng = np.random.default_rng(90 + n)
        cap = 1e-9
        for _ in range(300):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            x = 3.0 * np.eye(n) + 1e-11 * (g + _ct(g))
            q = guarded(_cap_project, x.copy(), cap)
            assert trace_real(q) <= cap * (1.0 + 1e-12)
            assert q.tobytes() == guarded(lean_cap_project, x, cap).tobytes()

    @given(**HERMITIAN_STACKS)
    def test_herm_eig_equals_np_linalg(self, n, count, kind, scale, seed):
        # the public pair is np.linalg.eigh's pair reversed
        a = hermitian_stack(np.random.default_rng(seed), n, count, kind, scale)
        for k in range(count):
            w, v = np.linalg.eigh(a[k])
            sigma, vecs = herm_eig(a[k])
            assert vecs.tobytes() == v[:, ::-1].tobytes()
            assert sigma.tobytes() == w[::-1].tobytes()


def compose_out_of_place(v, theta):
    """``_compose`` as it re-symmetrized before it worked in place: two new arrays."""
    q = v @ (np.asarray(theta)[..., None] * _ct(v))
    return 0.5 * (q + _ct(q))


class TestSetupFreeKernels:
    """The hot kernels' per-call setup is gone without a changed bit: one cached,
    read-only identity per size, and a compose that re-symmetrizes in place."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_identity_built_once_per_size_and_read_only(self, n):
        eye = _eye(n)
        assert _eye(n) is eye
        assert eye.dtype == np.complex128 and eye.tobytes() == np.eye(n, dtype=complex).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            eye[0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            eye += 1.0
        assert _eye(n).tobytes() == np.eye(n, dtype=complex).tobytes()

    @pytest.mark.parametrize(
        "shape", [(2, 2), (4, 4), (1, 2, 2), (1, 4, 4), (5000, 2, 2), (300, 4, 4)]
    )
    @pytest.mark.parametrize("kind", ["generic", "rank-deficient", "repeated"])
    def test_in_place_compose_equals_out_of_place(self, shape, kind):
        n, count = shape[-1], int(np.prod(shape[:-2]))
        rng = np.random.default_rng(80 + n + count)
        sigma, v = guarded(_eigh_desc, hermitian_stack(rng, n, count, kind, 1.0).reshape(shape))
        for theta in (sigma, np.maximum(sigma, 0.0), rng.uniform(0.0, 2.0, sigma.shape).tolist()):
            assert _compose(v, theta).tobytes() == compose_out_of_place(v, theta).tobytes()

    @given(**HERMITIAN_STACKS)
    def test_in_place_compose_equals_out_of_place_property(self, n, count, kind, scale, seed):
        rng = np.random.default_rng(seed)
        sigma, v = guarded(_eigh_desc, hermitian_stack(rng, n, count, kind, scale))
        theta = rng.uniform(0.0, scale, sigma.shape)
        for vv, tt in ((v, theta), (v[0], theta[0])):
            assert _compose(vv, tt).tobytes() == compose_out_of_place(vv, tt).tobytes()


class TestHermEig:
    def test_identity(self):
        sigma, v = herm_eig(np.eye(2, dtype=complex))
        assert np.allclose(sigma, [1.0, 1.0])
        assert frobenius(v.conj().T @ v - np.eye(2)) <= 1e-10

    def test_diagonal(self):
        sigma, v = herm_eig(np.diag([3.0, 1.0]).astype(complex))
        assert sorted(sigma) == pytest.approx([1.0, 3.0])
        # eigenvectors are the standard basis up to phase
        assert np.allclose(np.abs(v), np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_reconstruction(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(50):
            a = random_hermitian(rng, n)
            sigma, v = herm_eig(a)
            assert frobenius(v @ np.diag(sigma) @ v.conj().T - a) <= 1e-10
            assert frobenius(v.conj().T @ v - np.eye(n)) <= 1e-10
            assert np.isrealobj(sigma)

    def test_matches_lapack_eigenvalues(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = random_hermitian(rng, 4)
            assert np.allclose(
                np.sort(herm_eig(a)[0]), np.linalg.eigvalsh(a), atol=1e-10
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
        sigma, _ = herm_eig(random_hermitian(np.random.default_rng(n), n))
        assert np.all(np.diff(sigma) <= 0.0)

    @given(**HERMITIAN_STACKS)
    def test_stack_kernel_equals_herm_eig(self, n, count, kind, scale, seed):
        # the solvers decompose exactly Hermitian stacks with the unvalidated
        # kernel; each entry must be the public herm_eig result bit for bit
        a = hermitian_stack(np.random.default_rng(seed), n, count, kind, scale)
        sigma, v = _eigh_desc(a)
        for k in range(count):
            sigma_k, v_k = herm_eig(a[k])
            assert np.array_equal(v[k], v_k)
            assert np.array_equal(sigma[k], sigma_k)


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

    @pytest.mark.parametrize("f", [capacity, capacity_gradient])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("what", ["channel", "covariance"])
    def test_rejects_non_finite(self, f, bad, what):
        # the public boundary names the argument; without the check NaN
        # came back silently and inf as NaN with a RuntimeWarning
        h, q = np.eye(2, dtype=complex), np.eye(2, dtype=complex)
        (h if what == "channel" else q)[1, 0] = bad
        with pytest.raises(ValueError, match=f"^{what} has non-finite entries$"):
            f(h, q)
        with pytest.raises(ValueError, match=f"^{what} has non-finite entries$"):
            f(np.stack([np.eye(2), h]), np.stack([np.eye(2), q]))

    def test_indefinite_argument_rejected(self):
        # strongly negative "covariance" drives I + H Q H^H indefinite
        with pytest.raises(ValueError, match="indefinite"):
            capacity(np.eye(2) * 2.0, -np.eye(2))

    @pytest.mark.parametrize(
        "h, q",
        [
            (np.full((2, 2), 1e200), np.eye(2)),  # H H^H past the float range
            (np.eye(2), np.diag([1.7e308, 1.7e308])),  # H Q H^H finite, its symmetrizing sum not
            (np.stack([np.eye(2), np.full((2, 2), 1e200)]), np.eye(2)),  # one stacked entry
            (np.stack([np.eye(2)] * 3), np.stack([np.eye(2), np.eye(2), 1.7e308 * np.eye(2)])),
        ],
        ids=["overflow", "symmetrizing-overflow", "stack-one-q", "stack"],
    )
    def test_overflowed_argument_rejected(self, h, q):
        # unchecked, an overflowed argument would give inf or NaN and RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^capacity argument I \+ H Q H\^H overflowed$"):
                capacity(h, q)

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

    @given(
        shape=st.sampled_from([(1, 4), (4, 1), (3, 8), (2, 2)]),
        h_rank=st.integers(0, 8),
        q_rank=st.integers(0, 8),
        h_scale=st.floats(-1.0, 1.0).map(lambda e: 10.0**e),
        q_scale=st.floats(-1.0, 1.0).map(lambda e: 10.0**e),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_resolvent_form(self, shape, h_rank, q_rank, h_scale, q_scale, seed):
        # independent of the push-through identity the kernel rests on: the
        # n_r x n_r resolvent form H^H (I + H Q H^H)^{-1} H by np.linalg, for
        # H of full or deficient rank and Q PSD with zero eigenvalues
        n_r, n_t = shape
        rng = np.random.default_rng(seed)

        def product(m, k, n):
            a = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
            b = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
            return a @ b

        h = h_scale * product(n_r, min(h_rank, n_r, n_t), n_t)
        u = product(n_t, min(q_rank, n_t), n_t)
        q = q_scale * (u @ u.conj().T)
        expect = h.conj().T @ np.linalg.solve(np.eye(n_r) + h @ q @ h.conj().T, h)
        g = h.conj().T @ h
        assert frobenius(capacity_gradient(h, q) - expect) <= 1e-12 * (1.0 + frobenius(g) ** 2)

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
        # one covariance broadcast over the channel stack, and one channel
        # over the covariance stack (the gradient's solve broadcasts it)
        r0, d0 = capacity(h, q[0]), capacity_gradient(h, q[0])
        r1, d1 = capacity(h[0], q), capacity_gradient(h[0], q)
        assert r.shape == r0.shape == r1.shape == tr.shape == (count,)
        for k in range(count):
            assert r[k] == capacity(h[k], q[k])
            assert np.array_equal(d[k], capacity_gradient(h[k], q[k]))
            assert tr[k] == trace_real(q[k])
            assert r0[k] == capacity(h[k], q[0])
            assert np.array_equal(d0[k], capacity_gradient(h[k], q[0]))
            assert r1[k] == capacity(h[0], q[k])
            assert np.array_equal(d1[k], capacity_gradient(h[0], q[k]))

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


class TestNearestIndex:
    @given(
        n_r=st.integers(1, 8),
        n_t=st.integers(1, 8),
        count=st.integers(1, 100),
        seed=st.integers(0, 2**32 - 1),
        ties=st.sampled_from(["none", "duplicates", "mirrored"]),
    )
    def test_equals_list_argmin(self, n_r, n_t, count, seed, ties):
        # the stacked distances are the per-matrix frobenius values exactly,
        # so the index (first on a tie) is the list-and-argmin index
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((n_r, n_t)) + 1j * rng.standard_normal((n_r, n_t))
        states = [
            rng.standard_normal((n_r, n_t)) + 1j * rng.standard_normal((n_r, n_t))
            for _ in range(count)
        ]
        if ties == "duplicates":
            states = states + states[::-1]
        elif ties == "mirrored":
            # h +- d are equidistant from h, with the far states behind them
            d = 0.01 * states[0]
            states = [h - s for s in states] + [h + d, h - d]
        dists = [frobenius(h - s) for s in states]
        assert nearest_index(h, np.stack(states)) == int(np.argmin(dists))

    @pytest.mark.parametrize("count", [1, 256, 257, 700])
    def test_stack_equals_per_matrix(self, count):
        # a stack of more than one block gives each matrix's own index
        rng = np.random.default_rng(count)
        states = rng.standard_normal((5, 3, 2)) + 1j * rng.standard_normal((5, 3, 2))
        h = rng.standard_normal((count, 3, 2)) + 1j * rng.standard_normal((count, 3, 2))
        k = nearest_index(h, states)
        assert k.shape == (count,)
        assert k.tolist() == [nearest_index(m, states) for m in h]


class TestHelpers:
    def test_require_hermitian_fixes_round_off(self):
        a = np.array([[1.0, 0.5 + 1e-14j], [0.5 - 2e-14j, 2.0]])
        s = require_hermitian(a)
        assert frobenius(s - s.conj().T) == 0.0
        assert s.tobytes() == (0.5 * (a + a.conj().T)).tobytes()

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
