"""The two online transmit-covariance policies and their performance bounds.

The virtual-queue controller handles instantaneous (possibly inaccurate)
observations: each slot solves a penalized water-filling whose penalty is
the queue-to-tradeoff ratio, then books the power overshoot into the
queue.  The projected-gradient controller handles observations delayed by
T slots: it takes one inexact gradient step from the covariance committed
T slots ago and projects back onto the trace-capped PSD set.

Both steps are one-slot functions of the recursion's state (the scalar queue
Z, or the covariance Q(t - T)), which ``dyncov.harness`` keeps in the run's
arrays; the gradient step writes Q(t) into the row it is given.  Controllers
never see the true channel; the harness computes realized utility separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _capacity_gradient
from .solvers import _cap_project, _cap_threshold, _sum


def dpp_step(
    z: float, a: list[float], n: int, v: float, p: float, p_bar: float
) -> tuple[list[float], float]:
    """One slot at queue z: the queue-penalized water-filling loading theta on
    the n eigenmodes of the observed Gram matrix H~^H H~, given the thresholds
    a = -1/sigma of its positive modes, and Z(t+1) = max(Z(t) + sum(theta) - p_bar, 0),
    where sum(theta) = tr Q(t) in exact arithmetic; the queue never reads Q(t)."""
    z_over_v = z / v
    theta = _cap_threshold(a, -1.0 / z_over_v if z_over_v > 0.0 else -np.inf, p)[0]
    theta += [0.0] * (n - len(a))  # from eight terms on, _sum's order depends on the count
    return theta, max(0.0, z + _sum(theta) - p_bar)


def ogd_step(
    q_lag: np.ndarray, g_lag: np.ndarray, step: float, p_bar: float, out=None, work=None, diag=None
) -> np.ndarray:
    """One slot: Q(t) = P[Q(t-T) + step * D~(t-T)], the projection onto
    {tr Q <= p_bar} of one inexact gradient step from the covariance committed
    T slots ago, with the gradient taken on the observation from that slot,
    given as its Gram matrix g_lag = H~^H H~ (``linalg._gram``).
    q_lag and g_lag are complex n_t x n_t arrays and both terms are exactly
    Hermitian, so neither the gradient nor the projection validates.  Q(t)
    is computed into ``out`` (C-contiguous, aliasing neither input; new if
    None), with every temporary and LAPACK's eigen-pair in the
    ``linalg.Workspace`` ``work``, if given, and a shift through ``diag``,
    out's ``linalg._real_diagonal``, if given; step is a float or, faster, a
    complex 0-d array.  Run it under ``linalg._lapack_guard``."""
    x = _capacity_gradient(g_lag, q_lag, out, work)  # the step is taken in its buffer
    x *= step
    x += q_lag
    return _cap_project(x, p_bar, work, diag)


@dataclass(frozen=True)
class BoundReport:
    """Closed-form performance constants for a run configuration, built once
    per run by ``ExperimentConfig`` when it is constructed.

    All delta-dependent terms are exactly 0 at delta = 0.  ``epsilon`` and
    ``queue_bound`` are the queue controller's, functions of its v; for any
    other run they are None.  The gradient controller's regret bound takes
    its step rule and its delay T.  Under delay T the run is T interleaved
    projected-gradient chains (slot s steps from slot s - T), each starting
    at Q = 0 in a set of diameter 2 p_bar, so each rule's distance term is
    T times one chain's; its gradient term sums the steps of all slots.
    """

    p_bar: float
    epsilon: float | None
    phi_delta: float
    psi_delta: float
    queue_bound: float | None
    grad_norm_bound: float

    def regret_bound(
        self, t: int | np.ndarray, gamma: float | None, t_delay: int
    ) -> float | np.ndarray:
        """Average-utility deficit bound after t slots (elementwise for an
        array of t) under delay t_delay, at constant step gamma or, for gamma
        None, under the 1/sqrt(t) schedule.  At step gamma the T chains'
        distance terms 2 p_bar^2 / gamma, over t slots, give T 2 p_bar^2 / (gamma t).
        Under 1/sqrt(t) each chain's last step is at least 1/sqrt(t - 1 + T), so
        they give T 2 p_bar^2 sqrt(t - 1 + T) / t, which is at most
        T^(3/2) 2 p_bar^2 / sqrt(t) as t - 1 + T <= t T."""
        worst_grad = self.psi_delta + self.grad_norm_bound
        if gamma is None:
            root = np.sqrt(t)
            return (
                t_delay**1.5 * 2.0 * self.p_bar**2 / root
                + worst_grad**2 / root
                + 2.0 * self.psi_delta * self.p_bar
            )
        return (
            t_delay * 2.0 * self.p_bar**2 / (gamma * t)
            + gamma * worst_grad**2 / 2.0
            + 2.0 * self.psi_delta * self.p_bar
        )


def theoretical_bounds(
    b: float,
    delta: float,
    p: float,
    p_bar: float,
    n_t: int,
    n_r: int,
    v: float | None = None,
) -> BoundReport:
    """Instantiate every certified constant for the given configuration.

    epsilon inverts the tradeoff choice v = max(p_bar^2, (p - p_bar)^2) / (2 eps);
    phi is the instantaneous-observation degradation 2 p sqrt(n_t) (2b + delta) delta;
    psi bounds the gradient error under delayed observations; the queue
    bound is v (b + delta)^2 + (p - p_bar); without v, it and epsilon are None.  Nothing
    divides by b, so an all-zero channel (b = 0) is certified like any other.
    The arithmetic is on numpy scalars, whose squares are the same libm ``pow``
    as a Python float's: a constant past the float range is inf (which
    ``ExperimentConfig`` rejects), not an OverflowError.
    """
    if min(p, p_bar, 1.0 if v is None else v) <= 0 or min(b, delta) < 0:
        raise ValueError("bound parameters must be positive (b and delta nonnegative)")
    b, delta, p, p_bar = np.float64(b), np.float64(delta), np.float64(p), np.float64(p_bar)
    phi = psi = np.float64(0.0)
    if delta > 0:  # inf * 0 is NaN, so exact observations skip the products
        phi = 2.0 * p * np.sqrt(n_t) * (2.0 * b + delta) * delta
        psi = (
            np.sqrt(n_r) * b
            + np.sqrt(n_r) * (b + delta)
            + (b + delta) ** 2 * n_r * p_bar * (2.0 * b + delta)
        ) * delta
    grad_norm = np.sqrt(n_r) * b**2
    epsilon = queue_bound = None
    if v is not None:
        epsilon = float(max(p_bar**2, (p - p_bar) ** 2) / (2.0 * v))
        queue_bound = float(v * (b + delta) ** 2 + (p - p_bar))
    return BoundReport(
        p_bar=float(p_bar),
        epsilon=epsilon,
        phi_delta=float(phi),
        psi_delta=float(psi),
        queue_bound=queue_bound,
        grad_norm_bound=float(grad_norm),
    )
