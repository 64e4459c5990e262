"""Exact solvers against hand-solved cases, grid searches, random feasible
points, and their KKT optimality conditions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyncov import (
    DiscreteChannel,
    capacity,
    capacity_gradient,
    cdi_optimal_policy,
    empirical_policy,
    ergodic_constant_covariance,
    frobenius,
    psd_cap_project,
    waterfill_penalized,
)
from dyncov.linalg import trace_real
from dyncov.validate import (
    capacity_stack,
    psd_cap_project_stack,
    random_complex,
    random_hermitian,
    random_hermitian_stack,
)

# property-test inputs: dimension 1..8, magnitudes over twelve decades
SIZES = st.integers(1, 8)
SCALES = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
SEEDS = st.integers(0, 2**32 - 1)
CAP_RATIOS = st.floats(0.01, 100.0)


def scalar_channel(sigma):
    # 1x1 channel whose Gram eigenvalue is sigma
    return np.array([[np.sqrt(sigma)]], dtype=complex)


class TestWaterfill:
    def test_zero_penalty_full_power(self):
        # sigma = 4: the cap binds, mu = 1/(1/4 + 3) = 4/13, theta = cap
        wf = waterfill_penalized(scalar_channel(4.0), 0.0, 3.0)
        assert wf.mu == pytest.approx(4.0 / 13.0, abs=1e-12)
        assert wf.theta.sum() == pytest.approx(3.0, abs=1e-12)

    def test_interior_solution(self):
        # sigma = 4, z/v = 1: water level 1, theta = 1 - 1/4 = 0.75 < cap
        wf = waterfill_penalized(scalar_channel(4.0), 1.0, 3.0)
        assert wf.mu == 0.0
        assert wf.theta.sum() == pytest.approx(0.75, abs=1e-12)

    def test_large_penalty_shuts_off(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        sigma_max = float(np.linalg.eigvalsh(h.conj().T @ h).max())
        wf = waterfill_penalized(h, sigma_max * 1.0001, 3.0)
        assert frobenius(wf.q) == 0.0

    def test_zero_channel(self):
        for z_over_v in (0.0, 0.5):
            wf = waterfill_penalized(np.zeros((2, 2)), z_over_v, 1.0)
            assert frobenius(wf.q) == 0.0
            assert wf.mu == 0.0

    def test_kkt_invariants_random(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n_t = int(rng.integers(1, 5))
            h = rng.standard_normal((3, n_t)) + 1j * rng.standard_normal((3, n_t))
            sigma_max = float(np.linalg.eigvalsh(h.conj().T @ h).max())
            z = rng.uniform(0.0, 2.0 * sigma_max)
            cap = rng.uniform(0.5, 5.0)
            wf = waterfill_penalized(h, z, cap)
            assert trace_real(wf.q) <= cap + 1e-9
            assert np.linalg.eigvalsh(wf.q).min() >= -1e-10
            assert wf.mu >= 0.0
            # complementary slackness
            assert wf.mu * (wf.theta.sum() - cap) == pytest.approx(0.0, abs=1e-8)
            # loading formula on the positive modes
            level = 1.0 / (wf.mu + z) if wf.mu + z > 0 else np.inf
            for sig, th in zip(wf.sigma, wf.theta):
                if sig > 1e-12 and np.isfinite(level):
                    assert th == pytest.approx(max(0.0, level - 1.0 / sig), abs=1e-9)

    def test_beats_random_feasible(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            z = rng.uniform(0.0, 3.0)
            cap = rng.uniform(0.5, 4.0)
            wf = waterfill_penalized(h, z, cap)
            best = capacity(h, wf.q) - z * trace_real(wf.q)
            qs = psd_cap_project_stack(random_hermitian_stack(rng, 200, 3, 2.0), cap)
            objs = capacity_stack(h, qs) - z * trace_real(qs)
            assert objs.max() <= best + 1e-9

    def test_repeated_eigenvalues_regression(self):
        # equal Gram eigenvalues: any accepted sweep index gives the same loading
        h = np.diag([2.0, 2.0]).astype(complex)  # sigma = (4, 4)
        wf = waterfill_penalized(h, 0.0, 2.0)
        assert np.allclose(wf.theta, [1.0, 1.0], atol=1e-12)
        wf2 = waterfill_penalized(h, 0.5, 10.0)
        assert np.allclose(wf2.theta, wf2.theta[::-1], atol=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="cap"):
            waterfill_penalized(scalar_channel(1.0), 0.0, 0.0)
        with pytest.raises(ValueError, match="z_over_v"):
            waterfill_penalized(scalar_channel(1.0), -0.1, 1.0)
        with pytest.raises(ValueError, match="z_over_v"):
            waterfill_penalized(scalar_channel(1.0), float("nan"), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_channel(self, bad):
        h = np.array([[1.0, bad], [0.5, 2.0]], dtype=complex)
        with pytest.raises(ValueError, match="non-finite"):
            waterfill_penalized(h, 0.5, 3.0)

    @given(n_t=SIZES, n_r=SIZES, scale=SCALES, seed=SEEDS,
           z_ratio=st.just(0.0) | st.floats(0.0, 1.2), cap_ratio=CAP_RATIOS)
    def test_kkt_certificate_property(self, n_t, n_r, scale, seed, z_ratio, cap_ratio):
        # Gram eigenvalues ~ scale, penalty up to past the top eigenvalue,
        # cap ~ 1/scale so that both the free and the capped branch occur
        h = random_complex(np.random.default_rng(seed), (n_r, n_t)) * np.sqrt(scale)
        ref = np.maximum(np.linalg.eigvalsh(h.conj().T @ h)[::-1], 0.0)
        sigma_max = ref[0]
        z = z_ratio * sigma_max
        cap = cap_ratio / scale
        wf = waterfill_penalized(h, z, cap)
        sig, theta, mu = wf.sigma, wf.theta, wf.mu

        assert np.allclose(sig, ref, rtol=0.0, atol=1e-12 * sigma_max)
        assert np.linalg.eigvalsh(wf.q).min() >= -1e-12 * cap
        assert trace_real(wf.q) <= cap * (1.0 + 1e-12)
        assert np.allclose(
            np.linalg.eigvalsh(wf.q), np.sort(theta), rtol=0.0, atol=1e-12 * cap
        )
        assert capacity(h, wf.q) == pytest.approx(
            np.log1p(sig * theta).sum(), rel=1e-9, abs=1e-12
        )
        # dual feasibility and complementary slackness
        assert mu >= 0.0
        assert mu == 0.0 or theta.sum() == pytest.approx(cap, rel=1e-12)
        # stationarity: marginal utility equals the price on the active
        # modes and does not exceed it on the idle ones
        price = z + mu
        active = theta > 0.0
        marginal = sig[active] / (1.0 + sig[active] * theta[active])
        assert np.allclose(marginal, price, rtol=1e-9, atol=0.0)
        assert np.all(sig[~active] <= price * (1.0 + 1e-9) + 1e-12 * sigma_max)


class TestProjection:
    def test_feasible_fixed_point(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q = g @ g.conj().T
        q *= 0.9 / trace_real(q)
        assert frobenius(psd_cap_project(q, 1.0) - q) <= 1e-10

    def test_hand_solved_diagonal(self):
        out = psd_cap_project(np.diag([2.0, 1.0]).astype(complex), 1.0)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_negative_semidefinite_maps_to_zero(self):
        out = psd_cap_project(np.diag([-1.0, -2.0]).astype(complex), 1.0)
        assert frobenius(out) == 0.0

    def test_output_feasible(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            cap = rng.uniform(0.5, 5.0)
            q = psd_cap_project(random_hermitian(rng, n, 2.0), cap)
            assert trace_real(q) <= cap + 1e-9
            assert np.linalg.eigvalsh(q).min() >= -1e-10

    def test_matches_reference_projection(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            cap = rng.uniform(0.5, 5.0)
            x = random_hermitian(rng, n, 2.0)
            mine = psd_cap_project(x, cap)
            ref = psd_cap_project_stack(x[None], cap)[0]
            assert frobenius(mine - ref) <= 1e-8

    def test_repeated_eigenvalues_regression(self):
        x = np.diag([2.0, 2.0, -1.0]).astype(complex)
        out = psd_cap_project(x, 2.0)
        assert np.allclose(out, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            psd_cap_project(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    @given(n=SIZES, scale=SCALES, seed=SEEDS, cap_ratio=CAP_RATIOS)
    def test_variational_inequality_property(self, n, scale, seed, cap_ratio):
        # P = proj(X) iff P is feasible and <X - P, Y - P> <= 0 for every
        # feasible Y; probed at the origin, rank-one vertices and interior points
        rng = np.random.default_rng(seed)
        x = random_hermitian(rng, n, scale)  # exactly Hermitian
        cap = cap_ratio * scale
        p = psd_cap_project(x, cap)
        size = frobenius(x) + cap

        assert np.linalg.eigvalsh(p).min() >= -1e-12 * size
        assert trace_real(p) <= cap * (1.0 + 1e-12)
        g = random_complex(rng, (16, n, n))
        g[:8, :, 1:] = 0.0  # rank one
        ys = g @ np.conj(np.swapaxes(g, 1, 2))
        weights = np.concatenate([[0.0], np.ones(7), rng.uniform(0.0, 1.0, 8)])
        ys *= (weights * cap / trace_real(ys))[:, None, None]
        inner = np.einsum("ij,bji->b", x - p, ys - p).real
        assert inner.max() <= 1e-10 * size**2

        ref = psd_cap_project_stack(x[None], cap)[0]
        assert frobenius(p - ref) <= 1e-10 * size


class TestCdiPolicy:
    def test_single_state_budget_binds(self):
        rng = np.random.default_rng(19)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h *= 3.0 / frobenius(h)  # strong channel: full-power level above p_bar
        model = DiscreteChannel(states=(h,), probs=np.array([1.0]))
        pol = cdi_optimal_policy(model, p_bar=1.0, p=4.0, tol=1e-8)
        assert trace_real(pol.covariances[0]) == pytest.approx(1.0, abs=1e-6)

    def test_zero_channel_state(self):
        model = DiscreteChannel(
            states=(np.zeros((2, 2)),), probs=np.array([1.0])
        )
        pol = cdi_optimal_policy(model, p_bar=1.0, p=2.0)
        assert pol.r_opt == 0.0
        assert frobenius(pol.covariances[0]) == 0.0

    def test_preset_opportunistic_and_kkt(self, preset_model, cdi_reference):
        pol = cdi_reference
        tr1 = trace_real(pol.covariances[0])
        tr2 = trace_real(pol.covariances[1])
        # the strong state gets more power
        assert tr1 > tr2
        # long-term budget met within tolerance, never exceeded
        assert pol.average_power() <= 2.0 + 1e-9
        assert pol.average_power() >= 2.0 - 1e-5
        # per-state short-term caps
        assert max(tr1, tr2) <= 3.0 + 1e-9
        # bit-for-bit waterfill reproduction at the converged multiplier
        for s, q in zip(pol.states, pol.covariances):
            again = waterfill_penalized(s, pol.lam, 3.0).q
            assert np.array_equal(again, q)

    def test_preset_policy_is_lagrangian_optimal(self, preset_model, cdi_reference):
        # each state's covariance maximizes capacity - lam * power over the cap set
        rng = np.random.default_rng(23)
        pol = cdi_reference
        for s, q in zip(pol.states, pol.covariances):
            mine = capacity(s, q) - pol.lam * trace_real(q)
            qs = psd_cap_project_stack(random_hermitian_stack(rng, 500, 2, 2.0), 3.0)
            objs = capacity_stack(s, qs) - pol.lam * trace_real(qs)
            assert objs.max() <= mine + 1e-9

    def test_lookup_returns_nearest(self, cdi_reference):
        assert np.array_equal(
            cdi_reference.lookup(cdi_reference.states[1]),
            cdi_reference.covariances[1],
        )

    def test_requires_discrete_model(self):
        from dyncov import paper_continuous

        with pytest.raises(TypeError):
            cdi_optimal_policy(paper_continuous(), 1.0, 2.0)


class TestConstantCovariance:
    def test_identity_channel_symmetry(self):
        model = DiscreteChannel(states=(np.eye(2, dtype=complex),), probs=np.array([1.0]))
        out = ergodic_constant_covariance(model, p_bar=2.0)
        assert out.converged
        assert frobenius(out.q - np.eye(2)) <= 1e-6

    def test_fixed_point_property(self, preset_model, constant_reference):
        out = constant_reference
        grad = sum(
            p * capacity_gradient(s, out.q)
            for p, s in zip(preset_model.probs, preset_model.states)
        )
        again = psd_cap_project(out.q + 0.05 * grad, 2.0)
        assert frobenius(again - out.q) <= 1e-9

    def test_beats_random_feasible(self, preset_model, constant_reference):
        rng = np.random.default_rng(29)
        out = constant_reference
        qs = psd_cap_project_stack(random_hermitian_stack(rng, 1000, 2, 2.0), 2.0)
        objs = sum(
            p * capacity_stack(s, qs)
            for p, s in zip(preset_model.probs, preset_model.states)
        )
        assert objs.max() <= out.r_opt + 1e-6

    def test_iter_cap_flags_non_convergence(self, preset_model):
        out = ergodic_constant_covariance(preset_model, 2.0, iter_cap=3)
        assert not out.converged
        assert out.iterations == 3


class TestEmpiricalPolicy:
    def test_equals_exact_policy_on_true_states(self, preset_model, cdi_reference):
        pol = empirical_policy(
            list(preset_model.states), p_bar=2.0, p=3.0, mode="with-csit"
        )
        assert pol.lam == cdi_reference.lam
        for a, b in zip(pol.covariances, cdi_reference.covariances):
            assert np.array_equal(a, b)
        assert pol.r_opt == cdi_reference.r_opt

    def test_lookup_stored_sample(self, preset_model):
        pol = empirical_policy(
            list(preset_model.states), p_bar=2.0, p=3.0, mode="with-csit"
        )
        assert np.array_equal(pol.lookup(preset_model.states[0]), pol.covariances[0])

    def test_hundred_samples_hundred_covariances(self):
        from dyncov import paper_continuous, sample_channel
        from dyncov.channel import sampling_rng

        rng = sampling_rng(1)
        samples = [sample_channel(paper_continuous(), rng) for _ in range(100)]
        pol = empirical_policy(samples, p_bar=2.0, p=3.0, mode="with-csit")
        assert len(pol.covariances) == 100

    def test_no_csit_mode(self, preset_model, constant_reference):
        pol = empirical_policy(
            list(preset_model.states), p_bar=2.0, p=3.0, mode="no-csit"
        )
        assert frobenius(pol.q - constant_reference.q) <= 1e-7

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            empirical_policy([], 1.0, 2.0, "with-csit")

    def test_unknown_mode_rejected(self, preset_model):
        with pytest.raises(ValueError, match="mode"):
            empirical_policy(list(preset_model.states), 1.0, 2.0, "sideways")
