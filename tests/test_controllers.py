"""Controller step semantics and the closed-form bound constants."""

import numpy as np
import pytest

from dyncov import (
    capacity_gradient,
    dpp_init,
    dpp_step,
    frobenius,
    ogd_init,
    ogd_step,
    psd_cap_project,
    theoretical_bounds,
    waterfill_penalized,
)
from dyncov.linalg import trace_real


def strong_channel():
    # large Gram eigenvalues so full-power water-filling uses the whole cap
    return np.diag([4.0, 4.0]).astype(complex)


class TestDppStep:
    def test_zero_queue_is_plain_waterfilling(self):
        state = dpp_init(v=100.0, p=3.0, p_bar=2.0)
        h = strong_channel()
        q, _ = dpp_step(state, h)
        assert np.array_equal(q, waterfill_penalized(h, 0.0, 3.0).q)

    def test_saturated_queue_emits_zero(self):
        # queue at v * sigma_max shuts every mode off and the queue drains
        h = strong_channel()
        sigma_max = 16.0
        state = dpp_init(v=10.0, p=3.0, p_bar=2.0, z0=10.0 * sigma_max)
        q, nxt = dpp_step(state, h)
        assert frobenius(q) == 0.0
        assert nxt.z == state.z - 2.0

    def test_queue_arithmetic(self):
        # tr(q) = 3 against p_bar = 2 from z = 1 books one unit
        state = dpp_init(v=100.0, p=3.0, p_bar=2.0, z0=1.0)
        q, nxt = dpp_step(state, strong_channel())
        assert trace_real(q) == pytest.approx(3.0, abs=1e-9)
        assert nxt.z == pytest.approx(2.0, abs=1e-9)
        assert nxt.t == 1

    def test_queue_never_negative(self):
        state = dpp_init(v=100.0, p=3.0, p_bar=2.0)
        q, nxt = dpp_step(state, np.zeros((2, 2)))
        assert frobenius(q) == 0.0
        assert nxt.z == 0.0

    def test_state_validation(self):
        with pytest.raises(ValueError):
            dpp_init(v=0.0, p=3.0, p_bar=2.0)
        with pytest.raises(ValueError):
            dpp_init(v=1.0, p=1.0, p_bar=2.0)
        with pytest.raises(ValueError, match="queue"):
            dpp_init(v=1.0, p=3.0, p_bar=2.0, z0=float("nan"))


class TestOgdStep:
    def test_warm_up_emits_zero_without_observation(self):
        state = ogd_init(n_t=2, p_bar=2.0, gamma=0.01, t_delay=3)
        for _ in range(3):
            q, state = ogd_step(state, None)
            assert frobenius(q) == 0.0
        assert state.t == 3

    def test_zero_step_keeps_feasible_iterate(self):
        from dyncov import OgdState

        # nonzero feasible previous covariance survives a zero-size step
        q0 = np.diag([1.2, 0.5]).astype(complex)
        state = OgdState(ring=(q0,), p_bar=2.0, gamma=0.0, t_delay=1, t=1)
        q, _ = ogd_step(state, strong_channel())
        assert frobenius(q - q0) <= 1e-10

    def test_gradient_at_zero(self):
        gamma = 0.05
        state = ogd_init(n_t=2, p_bar=2.0, gamma=gamma)
        _, state = ogd_step(state, None)
        h = strong_channel()
        q, _ = ogd_step(state, h)
        expect = psd_cap_project(gamma * h.conj().T @ h, 2.0)
        assert frobenius(q - expect) <= 1e-12

    def test_three_slot_delay_recursion(self):
        # Q(t) must depend only on Q(t-3) and the observation from t-3
        rng = np.random.default_rng(3)
        obs = [
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(9)
        ]
        gamma, p_bar, lag = 0.1, 2.0, 3
        state = ogd_init(n_t=2, p_bar=p_bar, gamma=gamma, t_delay=lag)
        qs = []
        for t in range(9):
            delayed = obs[t - lag] if t >= lag else None
            q, state = ogd_step(state, delayed)
            qs.append(q)
        zero = np.zeros((2, 2), dtype=complex)
        for t in range(3):
            assert frobenius(qs[t] - zero) == 0.0
        for t in range(3, 9):
            q_lag = qs[t - lag] if t - lag >= 0 else zero
            expect = psd_cap_project(
                q_lag + gamma * capacity_gradient(obs[t - lag], q_lag), p_bar
            )
            assert frobenius(qs[t] - expect) <= 1e-12

    def test_inverse_sqrt_schedule(self):
        state = ogd_init(n_t=2, p_bar=2.0, gamma=None)
        assert state.step_size(1) == 1.0
        assert state.step_size(4) == 0.5
        _, state = ogd_step(state, None)
        h = strong_channel()
        q, _ = ogd_step(state, h)  # slot 1: step 1/sqrt(1)
        expect = psd_cap_project(1.0 * h.conj().T @ h, 2.0)
        assert frobenius(q - expect) <= 1e-12

    def test_trace_cap_always(self):
        rng = np.random.default_rng(5)
        state = ogd_init(n_t=2, p_bar=2.0, gamma=0.5)
        _, state = ogd_step(state, None)
        for t in range(1, 50):
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, state = ogd_step(state, h)
            assert trace_real(q) <= 2.0 + 1e-9

    def test_per_step_descent_inequality(self):
        # distance to any fixed feasible point never grows through the
        # projection: ||Q(t) - Q*|| <= ||Q(t-1) + gamma D(t-1) - Q*||
        rng = np.random.default_rng(41)
        p_bar, gamma = 2.0, 0.05
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q_star = g @ g.conj().T
        q_star *= p_bar / trace_real(q_star)
        state = ogd_init(n_t=2, p_bar=p_bar, gamma=gamma)
        q_prev, state = ogd_step(state, None)
        for _ in range(100):
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, state = ogd_step(state, h)
            pre_projection = q_prev + gamma * capacity_gradient(h, q_prev)
            assert (
                frobenius(q - q_star)
                <= frobenius(pre_projection - q_star) + 1e-9
            )
            q_prev = q

    def test_observation_timing_errors(self):
        state = ogd_init(n_t=2, p_bar=2.0, gamma=0.01, t_delay=2)
        with pytest.raises(ValueError, match="no observation"):
            ogd_step(state, strong_channel())
        _, state = ogd_step(state, None)
        _, state = ogd_step(state, None)
        with pytest.raises(ValueError, match="required"):
            ogd_step(state, None)


class TestTheoreticalBounds:
    def test_epsilon_inverts_tradeoff_choice(self):
        rep = theoretical_bounds(
            b=4.0, delta=0.0, p=3.0, p_bar=2.0, n_t=2, n_r=2,
            v_or_gamma=100.0, horizon=5000,
        )
        assert rep.epsilon == pytest.approx(0.02, abs=1e-15)

    def test_queue_bound_instantiation(self):
        rep = theoretical_bounds(
            b=5.0, delta=0.0, p=3.0, p_bar=2.0, n_t=2, n_r=2,
            v_or_gamma=100.0, horizon=1,
        )
        assert rep.queue_bound == pytest.approx(2501.0, abs=1e-12)

    def test_zero_delta_collapse(self):
        rep = theoretical_bounds(
            b=4.0, delta=0.0, p=3.0, p_bar=2.0, n_t=2, n_r=2,
            v_or_gamma=0.01, horizon=5000,
        )
        assert rep.phi_delta == 0.0
        assert rep.psi_delta == 0.0
        t = 1000
        expect = 2 * 2.0**2 / (0.01 * t) + 0.01 * 2 * 4.0**4 / 2
        assert rep.regret_bound(t) == pytest.approx(expect, rel=1e-12)

    def test_formulas_with_error(self):
        b, delta, p, p_bar, n_t, n_r = 4.0, 0.5, 3.0, 2.0, 2, 3
        rep = theoretical_bounds(
            b=b, delta=delta, p=p, p_bar=p_bar, n_t=n_t, n_r=n_r,
            v_or_gamma=0.02, horizon=100,
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
        assert rep.regret_bound_sqrt(t) == pytest.approx(
            2 * p_bar**2 / np.sqrt(t) + worst**2 / np.sqrt(t) + 2 * psi * p_bar,
            rel=1e-12,
        )

    def test_power_residual_matches_queue_bound(self):
        rep = theoretical_bounds(
            b=4.0, delta=0.1, p=3.0, p_bar=2.0, n_t=2, n_r=2,
            v_or_gamma=100.0, horizon=100,
        )
        assert rep.power_residual_bound(100) == pytest.approx(
            rep.queue_bound / 100, rel=1e-15
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            theoretical_bounds(
                b=0.0, delta=0.0, p=3.0, p_bar=2.0, n_t=2, n_r=2,
                v_or_gamma=1.0, horizon=1,
            )
