"""Controller step semantics and the closed-form bound constants."""

import numpy as np
import pytest

from dyncov import (
    DppSpec,
    ExactCsit,
    ExperimentConfig,
    OgdSpec,
    capacity_gradient,
    dpp_step,
    frobenius,
    herm_eig,
    ogd_step,
    paper_two_state,
    psd_cap_project,
    run_experiment,
    theoretical_bounds,
    waterfill_penalized,
)
from dyncov.harness import ConfigError
from dyncov.linalg import _gram, trace_real
from dyncov.solvers import _sum, _waterfill_thresholds

ZERO = np.zeros((2, 2), dtype=complex)


def strong_channel():
    # large Gram eigenvalues so full-power water-filling uses the whole cap
    return np.diag([4.0, 4.0]).astype(complex)


def gram(h):
    """What dpp_step takes of the Gram matrix H^H H: the water-filling
    thresholds of its spectrum and its size."""
    sigma, _ = herm_eig(h.conj().T @ h)
    return _waterfill_thresholds(sigma), len(sigma)


class TestDppStep:
    def test_zero_queue_is_plain_waterfilling(self):
        h = strong_channel()
        theta, _ = dpp_step(0.0, *gram(h), v=100.0, p=3.0, p_bar=2.0)
        assert theta == waterfill_penalized(h, 0.0, 3.0).theta.tolist()

    def test_saturated_queue_emits_zero(self):
        # queue at v * sigma_max shuts every mode off and the queue drains
        sigma_max = 16.0
        z = 10.0 * sigma_max
        theta, z_next = dpp_step(z, *gram(strong_channel()), v=10.0, p=3.0, p_bar=2.0)
        assert theta == [0.0, 0.0]
        assert z_next == z - 2.0

    def test_queue_arithmetic(self):
        # sum(theta) = 3 against p_bar = 2 from z = 1 books one unit
        theta, z_next = dpp_step(1.0, *gram(strong_channel()), v=100.0, p=3.0, p_bar=2.0)
        assert _sum(theta) == pytest.approx(3.0, abs=1e-9)
        assert z_next == pytest.approx(2.0, abs=1e-9)
        assert z_next == max(0.0, 1.0 + _sum(theta) - 2.0)

    def test_queue_never_negative(self):
        theta, z_next = dpp_step(0.0, *gram(np.zeros((2, 2))), v=100.0, p=3.0, p_bar=2.0)
        assert theta == [0.0, 0.0]
        assert z_next == 0.0

    def test_state_validation(self):
        # the controller's parameters are checked once, at the spec
        with pytest.raises(ConfigError, match="v must be positive"):
            DppSpec(v=0.0)
        with pytest.raises(ConfigError, match="'v' must be finite"):
            DppSpec(v=float("nan"))
        with pytest.raises(ConfigError, match="p_bar"):
            ExperimentConfig(
                channel=paper_two_state(), csit_error=ExactCsit(),
                controller=DppSpec(v=1.0), p=1.0, p_bar=2.0, horizon=1, seed=0,
            )


class TestOgdStep:
    def test_warm_up_emits_zero_without_observation(self):
        # no observation has arrived before slot T, so the first T slots
        # transmit nothing and the first step lands at slot T
        result = run_experiment(
            ExperimentConfig(
                channel=paper_two_state(), csit_error=ExactCsit(),
                controller=OgdSpec(gamma=0.01, t_delay=3),
                p=3.0, p_bar=2.0, horizon=6, seed=0,
            )
        )
        assert result.tr_q[:3].tolist() == [0.0, 0.0, 0.0]
        assert result.r[:3].tolist() == [0.0, 0.0, 0.0]
        assert result.tr_q[3] > 0.0

    def test_three_slot_delay_recursion(self):
        # Q(t) must depend only on Q(t-3) and the observation from t-3, so
        # the three residue classes mod 3 evolve as independent chains
        rng = np.random.default_rng(3)
        obs = [
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(9)
        ]
        gamma, p_bar, lag = 0.1, 2.0, 3

        def run(observations):
            qs = []
            for t in range(9):
                q = ZERO if t < lag else ogd_step(
                    [qs[t - lag]], [_gram(observations[t - lag])], gamma, p_bar
                )[0]
                qs.append(q)
            return qs

        qs = run(obs)
        for t in range(3):
            assert frobenius(qs[t]) == 0.0
        for t in range(3, 9):
            q_lag = qs[t - lag]
            expect = psd_cap_project(
                q_lag + gamma * capacity_gradient(obs[t - lag], q_lag), p_bar
            )
            assert frobenius(qs[t] - expect) <= 1e-12
        # replacing the observations off the t = 0 (mod 3) chain leaves it as is
        other = [o if t % lag == 0 else 2.0 * o for t, o in enumerate(obs)]
        for t, (a, b) in enumerate(zip(qs, run(other))):
            if t % lag == 0:
                assert np.array_equal(a, b)

    def test_zero_step_keeps_feasible_iterate(self):
        # nonzero feasible previous covariance survives a zero-size step
        q0 = np.diag([1.2, 0.5]).astype(complex)
        q = ogd_step([q0], [_gram(strong_channel())], 0.0, 2.0)[0]
        assert frobenius(q - q0) <= 1e-10

    def test_gradient_at_zero(self):
        gamma = 0.05
        h = strong_channel()
        q = ogd_step([ZERO], [_gram(h)], gamma, 2.0)[0]
        expect = psd_cap_project(gamma * h.conj().T @ h, 2.0)
        assert frobenius(q - expect) <= 1e-12

    def test_real_arrays_step_as_their_complex_values(self):
        # np.dot writes no real product into the complex buffer: the Grams are
        # taken as complex first, so real input steps as it did through matmul
        q0, g = np.diag([1.2, 0.5]), np.array([[2.0, 1.0], [1.0, 3.0]])
        expect = ogd_step([q0.astype(complex)], [g.astype(complex)], 0.05, 1.0)[0]
        d = np.linalg.solve(np.eye(2) + g @ q0, g)  # the gradient (I + G Q)^{-1} G
        assert frobenius(expect - psd_cap_project(q0 + 0.025 * (d + d.T), 1.0)) <= 1e-12
        for q_lag in (q0, q0.astype(complex)):
            for g_lag in (g, g.astype(complex)):
                assert ogd_step([q_lag], [g_lag], 0.05, 1.0)[0].tobytes() == expect.tobytes()

    def test_inverse_sqrt_schedule(self):
        # the harness passes step 1/sqrt(t): slot 1 takes a unit step, slot 4 half
        h = strong_channel()
        for t, step in ((1, 1.0), (4, 0.5)):
            assert 1.0 / np.sqrt(t) == step
            expect = psd_cap_project(step * h.conj().T @ h, 2.0)
            assert frobenius(ogd_step([ZERO], [_gram(h)], step, 2.0)[0] - expect) <= 1e-12

    def test_trace_cap_always(self):
        rng = np.random.default_rng(5)
        q = ZERO
        for _ in range(49):
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q = ogd_step([q], [_gram(h)], 0.5, 2.0)[0]
            assert trace_real(q) <= 2.0 + 1e-9

    def test_per_step_descent_inequality(self):
        # distance to any fixed feasible point never grows through the
        # projection: ||Q(t) - Q*|| <= ||Q(t-1) + gamma D(t-1) - Q*||
        rng = np.random.default_rng(41)
        p_bar, gamma = 2.0, 0.05
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q_star = g @ g.conj().T
        q_star *= p_bar / trace_real(q_star)
        q_prev = ZERO
        for _ in range(100):
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q = ogd_step([q_prev], [_gram(h)], gamma, p_bar)[0]
            pre_projection = q_prev + gamma * capacity_gradient(h, q_prev)
            assert (
                frobenius(q - q_star)
                <= frobenius(pre_projection - q_star) + 1e-9
            )
            q_prev = q


class TestTheoreticalBounds:
    def test_epsilon_inverts_tradeoff_choice(self):
        rep = theoretical_bounds(
            b=4.0, delta=0.0, p=3.0, p_bar=2.0, n_t=2, n_r=2,
            v=100.0,
        )
        assert rep.epsilon == pytest.approx(0.02, abs=1e-15)

    def test_queue_bound_instantiation(self):
        rep = theoretical_bounds(
            b=5.0, delta=0.0, p=3.0, p_bar=2.0, n_t=2, n_r=2,
            v=100.0,
        )
        assert rep.queue_bound == pytest.approx(2501.0, abs=1e-12)

    def test_zero_delta_collapse(self):
        rep = theoretical_bounds(
            b=4.0, delta=0.0, p=3.0, p_bar=2.0, n_t=2, n_r=2,
        )
        assert rep.phi_delta == 0.0
        assert rep.psi_delta == 0.0
        t = 1000
        expect = 2 * 2.0**2 / (0.01 * t) + 0.01 * 2 * 4.0**4 / 2
        assert rep.regret_bound(t, 0.01, 1) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("b, p", [(4.0, 1e308), (1e103, 3.0)], ids=["phi", "psi"])
    def test_zero_delta_terms_are_zero_at_any_scale(self, b, p):
        # 2 p overflows at p = 1e308, and (b + delta)^3 at b = 1e103: inf * 0
        # would make phi or psi NaN, and the config check would reject the run
        rep = theoretical_bounds(b=b, delta=0.0, p=p, p_bar=2.0, n_t=2, n_r=2)
        assert (rep.phi_delta, rep.psi_delta) == (0.0, 0.0)

    def test_formulas_with_error(self):
        b, delta, p, p_bar, n_t, n_r = 4.0, 0.5, 3.0, 2.0, 2, 3
        rep = theoretical_bounds(
            b=b, delta=delta, p=p, p_bar=p_bar, n_t=n_t, n_r=n_r,
        )
        assert rep.phi_delta == pytest.approx(
            2 * p * np.sqrt(n_t) * (2 * b + delta) * delta, rel=1e-12
        )
        psi = (
            np.sqrt(n_r) * b
            + np.sqrt(n_r) * (b + delta)
            + (b + delta) ** 2 * n_r * p_bar * (2 * b + delta)
        ) * delta
        assert rep.psi_delta == pytest.approx(psi, rel=1e-12)
        worst = psi + np.sqrt(n_r) * b**2
        t = 50
        assert rep.regret_bound(t, None, 1) == pytest.approx(
            2 * p_bar**2 / np.sqrt(t) + worst**2 / np.sqrt(t) + 2 * psi * p_bar,
            rel=1e-12,
        )

    @pytest.mark.parametrize("b, delta", [(4.0, 0.0), (2.0, 0.3), (0.7, 1.5)])
    @pytest.mark.parametrize("gamma", [0.0005, 0.01, 0.3])
    def test_unit_delay_keeps_the_undelayed_closed_forms(self, b, delta, gamma):
        # at T = 1 both bounds are the closed forms without a delay, bit for bit
        rep = theoretical_bounds(b=b, delta=delta, p=3.0, p_bar=2.0, n_t=2, n_r=3)
        worst = rep.psi_delta + rep.grad_norm_bound
        for t in (1, 2, 7, 1000, np.arange(1, 300, dtype=float)):
            const = (
                2.0 * rep.p_bar**2 / (gamma * t)
                + gamma * worst**2 / 2.0
                + 2.0 * rep.psi_delta * rep.p_bar
            )
            root = np.sqrt(t)
            sqrt = 2.0 * rep.p_bar**2 / root + worst**2 / root + 2.0 * rep.psi_delta * rep.p_bar
            assert np.array_equal(rep.regret_bound(t, gamma, 1), const)
            assert np.array_equal(rep.regret_bound(t, None, 1), sqrt)

    @pytest.mark.parametrize("t_delay", [1, 2, 5, 500, 2000])
    def test_array_of_t_gives_the_per_slot_values(self, t_delay):
        # certify_run passes the whole t axis, the acceptance criteria one int at a time
        rep = theoretical_bounds(b=3.0, delta=0.2, p=3.0, p_bar=2.0, n_t=2, n_r=2)
        t_axis = np.arange(1, 4001, dtype=float)
        for gamma in (0.002, 0.1):
            per_int = [rep.regret_bound(int(t), gamma, t_delay) for t in t_axis]
            assert rep.regret_bound(t_axis, gamma, t_delay).tolist() == per_int
        per_int = [rep.regret_bound(int(t), None, t_delay) for t in t_axis]
        assert rep.regret_bound(t_axis, None, t_delay).tolist() == per_int

    @pytest.mark.parametrize("t_delay", [2, 5, 500, 2000])
    def test_delay_scales_the_distance_term(self, t_delay):
        # T chains, each with one chain's distance term: T 2 p_bar^2 / (gamma t) for a
        # constant step, and T^(3/2) 2 p_bar^2 / sqrt(t), which covers the chains'
        # T 2 p_bar^2 sqrt(t - 1 + T) / t, for the 1/sqrt(t) schedule
        rep = theoretical_bounds(b=3.0, delta=0.2, p=3.0, p_bar=2.0, n_t=2, n_r=2)
        t = np.arange(1, 5001, dtype=float)
        one_chain, root_term = 2.0 * 2.0**2 / (0.01 * t), 2.0 * 2.0**2 / np.sqrt(t)
        distance = rep.regret_bound(t, 0.01, t_delay) - rep.regret_bound(t, 0.01, 1)
        assert distance == pytest.approx((t_delay - 1) * one_chain, rel=1e-9)
        distance = rep.regret_bound(t, None, t_delay) - rep.regret_bound(t, None, 1)
        assert distance == pytest.approx((t_delay**1.5 - 1) * root_term, rel=1e-9)
        chains = t_delay * 2.0 * 2.0**2 * np.sqrt(t - 1 + t_delay) / t
        assert np.all(chains <= t_delay**1.5 * root_term * (1 + 1e-15))

    def test_rejects_bad_parameters(self):
        good = dict(b=1.0, delta=0.0, p=3.0, p_bar=2.0, n_t=2, n_r=2, v=1.0)
        for field, bad in (
            ("b", -1.0), ("delta", -0.1), ("p", 0.0), ("p_bar", 0.0), ("v", 0.0),
        ):
            with pytest.raises(ValueError, match="bound parameters"):
                theoretical_bounds(**{**good, field: bad})

    def test_no_tradeoff_parameter_gives_no_tradeoff_constants(self):
        # only the queue controller has v: without it the two constants that
        # need one are None, the others as with one
        good = dict(b=1.0, delta=0.1, p=3.0, p_bar=2.0, n_t=2, n_r=2)
        rep = theoretical_bounds(**good)
        ref = theoretical_bounds(**good, v=1.0)
        assert (rep.epsilon, rep.queue_bound) == (None, None)
        for name in ("phi_delta", "psi_delta", "grad_norm_bound"):
            assert getattr(rep, name) == getattr(ref, name)
        assert np.array_equal(rep.regret_bound(np.arange(1, 50), None, 1),
                              ref.regret_bound(np.arange(1, 50), None, 1))

    def test_zero_norm_cap_is_accepted(self):
        # an all-zero channel has b = 0; no bound divides by it
        rep = theoretical_bounds(
            b=0.0, delta=0.0, p=3.0, p_bar=2.0, n_t=2, n_r=2,
            v=10.0,
        )
        assert (rep.phi_delta, rep.psi_delta, rep.grad_norm_bound) == (0.0, 0.0, 0.0)
        assert rep.queue_bound == 1.0
