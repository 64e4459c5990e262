"""The two online transmit-covariance policies and their performance bounds.

The virtual-queue controller handles instantaneous (possibly inaccurate)
observations: each slot solves a penalized water-filling whose penalty is
the queue-to-tradeoff ratio, then books the power overshoot into the
queue.  The projected-gradient controller handles observations delayed by
T slots: it takes one inexact gradient step from the covariance committed
T slots ago and projects back onto the trace-capped PSD set.

The queue step is a one-slot function of the scalar queue Z; the gradient
step runs a block of slots, each from the covariance Q(t - T), writing Q(t)
into the rows it is given.  ``dyncov.harness`` carries Z, or the last T
covariances and observed Grams, between blocks.  Controllers never see the
true channel; the harness computes realized utility separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np
from numpy.linalg import _umath_linalg

from .linalg import Workspace, _compose, _eye, _lapack_guard, _real_diagonal
from .solvers import _cap_plan, _cap_threshold, _sum


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


def ogd_step(q_lag, g_lag, step, p_bar: float, out=None) -> np.ndarray:
    """The projected-gradient recursion over one block of slots: out[k] =
    P[q_lag[k] + step D~], the projection onto {tr Q <= p_bar} of one inexact
    gradient step from the covariance committed T slots before, with the
    gradient taken on that slot's observation, given as its Gram matrix
    g_lag[k] = H~^H H~ (``linalg._gram``).  Both are exactly Hermitian complex
    n_t x n_t arrays, so nothing validates; step is one float or one per slot.
    ``out``, a C-contiguous (m, n_t, n_t) stack (new if None), is written row
    by row, so q_lag[k + T] may be out[k]; out[k] aliases neither q_lag[k] nor
    g_lag[k].  Each slot runs ``_capacity_gradient`` and ``solvers._cap_project``
    on the gufuncs in one ``linalg.Workspace``, with the step halved once:
    (D~ / 2) step and D~ (step / 2) are the same bits unless one is subnormal.
    G Q is ``np.dot``: the matmul gufunc's zgemm, for half its dispatch cost.
    Holds ``linalg._lapack_guard``, so a failed LAPACK call raises LinAlgError."""
    if out is None:
        out = np.empty(np.shape(q_lag), dtype=np.complex128)
    g_lag = np.asarray(g_lag, dtype=np.complex128)  # np.dot puts no real product into sq
    n = out.shape[-1]
    work = Workspace(n)
    sq, sol, eig = work.sq, work.sol, work.eig
    sol_t, w, v_desc, eye = sol.T, eig[0], eig[1][:, ::-1], _eye(n)
    if np.ndim(step) == 0:
        halves = repeat(np.array(0.5 * step + 0j))
    else:  # complex 0-d arrays, which numpy multiplies by faster than floats
        halves = map(np.array, (np.multiply(step, 0.5) + 0j).tolist())
    dot, add, conj = np.dot, np.add, np.conjugate
    solve, eigh = _umath_linalg.solve, _umath_linalg.eigh_lo
    with _lapack_guard():
        for q, g, x, diag, half in zip(q_lag, g_lag, out, _real_diagonal(out), halves):
            dot(g, q, out=sq)
            sq += eye
            solve(sq, g, signature="DD->D", out=sol)  # D = (I + G Q)^{-1} G
            add(sol, conj(sol_t, out=sq), out=x)
            x *= half
            x += q
            eigh(x, signature="D->dD", out=eig)
            tau, theta = _cap_plan(w, p_bar)
            if theta is None:
                diag -= tau
            else:
                _compose(v_desc, theta, x, work)
    return out


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
