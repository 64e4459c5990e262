"""The two online transmit-covariance policies and their performance bounds.

The virtual-queue controller handles instantaneous (possibly inaccurate)
observations: each slot solves a penalized water-filling whose penalty is
the queue-to-tradeoff ratio, then books the power overshoot into the
queue.  The projected-gradient controller handles observations delayed by
T slots: it takes one inexact gradient step from the covariance committed
T slots ago and projects back onto the trace-capped PSD set.

Controllers never see the true channel; the harness computes realized
utility separately.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import capacity_gradient, trace_real
from .solvers import psd_cap_project, waterfill_penalized


@dataclass(frozen=True)
class DppState:
    """Virtual-queue controller state: queue z, tradeoff v, power caps, slot t."""

    z: float
    v: float
    p: float
    p_bar: float
    t: int = 0

    def __post_init__(self):
        if not self.v > 0:
            raise ValueError("v must be positive")
        if not (self.p >= self.p_bar > 0):
            raise ValueError("need p >= p_bar > 0")
        if not self.z >= 0:
            raise ValueError("queue must be nonnegative")


def dpp_init(v: float, p: float, p_bar: float, z0: float = 0.0) -> DppState:
    """Fresh controller state; z0 defaults to an empty queue."""
    return DppState(z=z0, v=v, p=p, p_bar=p_bar, t=0)


def dpp_step(state: DppState, h_tilde) -> tuple[np.ndarray, DppState]:
    """One slot: solve the queue-penalized water-filling on the observed
    channel, then update the queue with the power overshoot."""
    wf = waterfill_penalized(h_tilde, state.z / state.v, state.p)
    used = trace_real(wf.q)
    z_next = max(0.0, state.z + used - state.p_bar)
    return wf.q, replace(state, z=z_next, t=state.t + 1)


@dataclass(frozen=True)
class OgdState:
    """Projected-gradient controller state.

    ``ring`` holds the last ``t_delay`` committed covariances, oldest
    first, so ring[0] is the covariance from t_delay slots ago once the
    warm-up has passed.  ``gamma`` is the constant step size, or None for
    the 1/sqrt(t) schedule.
    """

    ring: tuple[np.ndarray, ...]
    p_bar: float
    gamma: float | None
    t_delay: int = 1
    t: int = 0

    def __post_init__(self):
        if not self.p_bar > 0:
            raise ValueError("p_bar must be positive")
        if self.gamma is not None and not self.gamma >= 0:
            raise ValueError("gamma must be nonnegative")
        if self.t_delay < 1:
            raise ValueError("delay must be at least one slot")

    def step_size(self, t: int) -> float:
        if self.gamma is not None:
            return self.gamma
        return 1.0 / np.sqrt(t)


def ogd_init(
    n_t: int,
    p_bar: float,
    gamma: float | None = 0.01,
    t_delay: int = 1,
) -> OgdState:
    """Fresh state starting from the zero covariance (feasible, deterministic).

    gamma=None selects the 1/sqrt(t) step schedule.
    """
    q0 = np.zeros((n_t, n_t), dtype=np.complex128)
    return OgdState(ring=(q0,), p_bar=p_bar, gamma=gamma, t_delay=t_delay, t=0)


def ogd_step(state: OgdState, h_tilde_delayed) -> tuple[np.ndarray, OgdState]:
    """One slot.  During the first t_delay slots no observation has arrived
    yet and the initial covariance is re-emitted; afterwards the committed
    covariance is project(Q(t - T) + step * gradient at Q(t - T)) where the
    gradient uses the delayed observation."""
    t = state.t
    if t < state.t_delay:
        if h_tilde_delayed is not None:
            raise ValueError(
                f"no observation can have arrived before slot {state.t_delay}"
            )
        q = state.ring[0]
        ring = state.ring + (q,) if len(state.ring) < state.t_delay else state.ring
        return q, replace(state, ring=ring, t=t + 1)

    if h_tilde_delayed is None:
        raise ValueError("a delayed observation is required after warm-up")
    q_lag = state.ring[0]
    grad = capacity_gradient(h_tilde_delayed, q_lag)
    q = psd_cap_project(q_lag + state.step_size(t) * grad, state.p_bar)
    ring = state.ring[1:] + (q,)
    return q, replace(state, ring=ring, t=t + 1)


@dataclass(frozen=True)
class BoundReport:
    """Closed-form performance constants for a run configuration.

    All delta-dependent terms vanish at delta = 0.  ``v_or_gamma`` is the
    queue controller's tradeoff parameter or the gradient controller's
    constant step, whichever applies.
    """

    b: float
    delta: float
    p: float
    p_bar: float
    n_t: int
    n_r: int
    v_or_gamma: float
    horizon: int
    epsilon: float
    phi_delta: float
    psi_delta: float
    queue_bound: float
    grad_norm_bound: float

    def utility_gap(self) -> float:
        """Floor offset for the queue controller: average utility is within
        epsilon + phi of the distribution-aware optimum."""
        return self.epsilon + self.phi_delta

    def power_residual_bound(self, t: int) -> float:
        """Bound on average power minus p_bar after t slots."""
        return self.queue_bound / t

    def regret_bound(self, t: int | np.ndarray) -> float | np.ndarray:
        """Average-utility deficit bound for the constant-step gradient
        controller after t slots (elementwise for an array of t)."""
        gamma = self.v_or_gamma
        worst_grad = self.psi_delta + self.grad_norm_bound
        return (
            2.0 * self.p_bar**2 / (gamma * t)
            + gamma * worst_grad**2 / 2.0
            + 2.0 * self.psi_delta * self.p_bar
        )

    def regret_bound_sqrt(self, t: int | np.ndarray) -> float | np.ndarray:
        """Deficit bound under the 1/sqrt(t) step schedule."""
        worst_grad = self.psi_delta + self.grad_norm_bound
        root = np.sqrt(t)
        return (
            2.0 * self.p_bar**2 / root
            + worst_grad**2 / root
            + 2.0 * self.psi_delta * self.p_bar
        )


def theoretical_bounds(
    b: float,
    delta: float,
    p: float,
    p_bar: float,
    n_t: int,
    n_r: int,
    v_or_gamma: float,
    horizon: int,
) -> BoundReport:
    """Instantiate every certified constant for the given configuration.

    epsilon inverts the tradeoff choice v = max(p_bar^2, (p - p_bar)^2) / (2 eps);
    phi is the instantaneous-observation degradation 2 p sqrt(n_t) (2b + delta) delta;
    psi bounds the gradient error under delayed observations; the queue
    bound is v (b + delta)^2 + (p - p_bar).
    """
    if min(b, p, p_bar, v_or_gamma) <= 0 or delta < 0:
        raise ValueError("bound parameters must be positive (delta nonnegative)")
    epsilon = max(p_bar**2, (p - p_bar) ** 2) / (2.0 * v_or_gamma)
    phi = 2.0 * p * np.sqrt(n_t) * (2.0 * b + delta) * delta
    psi = (
        np.sqrt(n_r) * b
        + np.sqrt(n_r) * (b + delta)
        + (b + delta) ** 2 * n_r * p_bar * (2.0 * b + delta)
    ) * delta
    queue_bound = v_or_gamma * (b + delta) ** 2 + (p - p_bar)
    grad_norm = np.sqrt(n_r) * b**2
    return BoundReport(
        b=b,
        delta=delta,
        p=p,
        p_bar=p_bar,
        n_t=n_t,
        n_r=n_r,
        v_or_gamma=v_or_gamma,
        horizon=horizon,
        epsilon=float(epsilon),
        phi_delta=float(phi),
        psi_delta=float(psi),
        queue_bound=float(queue_bound),
        grad_norm_bound=float(grad_norm),
    )
