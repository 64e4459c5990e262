"""Exact solvers for the two convex subproblems behind the online policies,
plus distribution-aware baseline optimizers.

``waterfill_penalized`` maximizes  log det(I + H Q H^H) - z_over_v * tr(Q)
over PSD Q with tr(Q) <= cap by eigen-domain water-filling, and
``psd_cap_project`` is the Frobenius-nearest PSD matrix under a trace cap
by eigenvalue soft-thresholding.  Both loadings are one capped threshold
theta = max(0, a - tau) on a descending eigenvalue vector a, with the least
tau above a floor that keeps sum(theta) <= cap, so one exact sorted sweep
serves both.  Each is closed-form up to one Hermitian eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import DiscreteChannel
from .linalg import (
    ConvergenceError,
    as_matrix,
    capacity,
    capacity_gradient,
    frobenius,
    herm_eig,
    symmetrize,
    trace_real,
)

_SIGMA_FLOOR = 1e-14  # eigen-modes at or below this carry no power


@dataclass(frozen=True)
class WaterfillResult:
    """Penalized water-filling solution.

    ``theta`` is the eigen-domain power loading aligned with ``sigma``
    (the channel Gram eigenvalues, in descending order); ``mu`` is the
    multiplier of the trace cap; ``q = u^H diag(theta) u``.
    """

    q: np.ndarray
    mu: float
    theta: np.ndarray
    sigma: np.ndarray
    u: np.ndarray


def _cap_threshold(a: np.ndarray, tau0: float, cap: float) -> tuple[np.ndarray, float]:
    """theta = max(0, a - tau) for the least tau >= tau0 with sum(theta) <= cap.

    ``a`` must be in descending order, so the active set is a prefix.  tau0
    is tried first; otherwise the sweep accepts the prefix of length r whose
    threshold (sum(a[:r]) - cap) / r lies at or above tau0, below a[r-1]
    and at or above a[r].  Returns theta and tau.
    """
    theta = np.maximum(a - tau0, 0.0)
    if theta.sum() <= cap:
        return theta, tau0
    n = len(a)
    s = 0.0
    for r in range(1, n + 1):
        s += a[r - 1]
        tau = (s - cap) / r
        if tau < tau0 or not a[r - 1] - tau > 0.0:
            continue
        if r < n and a[r] - tau > 0.0:
            continue
        # loading on the accepted prefix; algebraically a_j - tau but free of
        # the large-intermediate cancellation, so it sums to the cap at
        # machine precision
        act = a[:r]
        theta = np.zeros_like(a)
        theta[:r] = np.maximum(0.0, (cap + (act[:, None] - act[None, :]).sum(axis=1)) / r)
        return theta, tau
    raise ConvergenceError(
        "capped-threshold sweep exhausted without acceptance; "
        "this contradicts the KKT structure of the problem"
    )


def waterfill_penalized(h_tilde, z_over_v: float, cap: float) -> WaterfillResult:
    """Maximize log det(I + H Q H^H) - z_over_v * tr(Q) s.t. Q PSD, tr(Q) <= cap.

    Eigendecompose H^H H.  The loading theta_i = max(0, level - 1/sigma_i)
    on the positive modes is the capped threshold of a = -1/sigma at
    tau = -level, floored at tau0 = -1/z_over_v (the zero-multiplier water
    level, infinite when z = 0); a binding cap lowers the level to
    1/(z_over_v + mu).
    """
    if not z_over_v >= 0:
        raise ValueError("z_over_v must be nonnegative")
    if not cap > 0:
        raise ValueError("cap must be positive")
    h = as_matrix(h_tilde)
    if not np.isfinite(h).all():  # before the Gram product turns inf into NaN
        raise ValueError("channel has non-finite entries")
    gram = symmetrize(h.conj().T @ h)  # exact-arithmetic Hermitian; absorb round-off
    eig = herm_eig(gram)
    sigma = np.maximum(eig.sigma, 0.0)  # Gram eigenvalues; clip round-off
    k = int(np.count_nonzero(sigma > _SIGMA_FLOOR))  # positive modes: a prefix
    tau0 = -1.0 / z_over_v if z_over_v > 0.0 else -np.inf
    theta = np.zeros_like(sigma)
    theta[:k], tau = _cap_threshold(-1.0 / sigma[:k], tau0, cap)
    # tau >= tau0 gives mu >= 0 up to the rounding of -1/tau0 back to z_over_v
    mu = 0.0 if tau == tau0 else max(0.0, -1.0 / tau - z_over_v)
    return WaterfillResult(
        q=eig.compose(theta), mu=float(mu), theta=theta, sigma=sigma, u=eig.u
    )


def psd_cap_project(x, cap: float) -> np.ndarray:
    """Frobenius projection of a Hermitian matrix onto {Q PSD, tr(Q) <= cap}.

    Eigenvalue soft-thresholding: the capped threshold of the eigenvalues
    with floor 0, i.e. drop the negative ones if that already meets the
    cap, otherwise shift all down by the exact multiplier.
    """
    if not cap > 0:
        raise ValueError("cap must be positive")
    eig = herm_eig(x)
    theta, _ = _cap_threshold(eig.sigma, 0.0, cap)
    return eig.compose(theta)


@dataclass(frozen=True)
class CdiPolicy:
    """Per-state covariance table for a discrete channel, with the long-term
    power multiplier it was solved at and the average utility it attains."""

    states: tuple[np.ndarray, ...]
    probs: np.ndarray
    covariances: tuple[np.ndarray, ...]
    lam: float
    r_opt: float

    def lookup(self, h) -> np.ndarray:
        """Covariance of the stored state nearest to h in Frobenius distance."""
        hm = as_matrix(h)
        dists = [frobenius(hm - s) for s in self.states]
        return self.covariances[int(np.argmin(dists))]

    def average_power(self) -> float:
        return float(sum(self.probs * trace_real(np.stack(self.covariances))))


def _policy_at(model: DiscreteChannel, lam: float, p: float) -> tuple[tuple[np.ndarray, ...], float]:
    covs = tuple(waterfill_penalized(s, lam, p).q for s in model.states)
    return covs, float(sum(model.probs * trace_real(np.stack(covs))))


def cdi_optimal_policy(
    model: DiscreteChannel, p_bar: float, p: float, tol: float = 1e-6
) -> CdiPolicy:
    """Distribution-aware optimum for a discrete channel with per-state
    adaptation: average power <= p_bar, per-slot power <= p.

    Lagrangian decomposition: at multiplier lam each state solves a
    penalized water-filling with cap p; lam is bisected until the average
    power lands in [p_bar - tol, p_bar] (or lam = 0 is already feasible).
    Average power is monotone non-increasing in lam.
    """
    if not isinstance(model, DiscreteChannel):
        raise TypeError("cdi_optimal_policy needs a discrete channel model")
    if not (p >= p_bar > 0):
        raise ValueError("need p >= p_bar > 0")

    covs, power = _policy_at(model, 0.0, p)
    if power <= p_bar:
        lam = 0.0
    else:
        hi = max(frobenius(s) for s in model.states) ** 2
        covs_hi, power_hi = _policy_at(model, hi, p)
        expansions = 0
        while power_hi > p_bar:
            hi *= 2.0
            expansions += 1
            if expansions > 60:
                raise ConvergenceError(
                    "could not bracket the long-term power multiplier"
                )
            covs_hi, power_hi = _policy_at(model, hi, p)
        lo = 0.0
        lam, covs, power = hi, covs_hi, power_hi
        for _ in range(200):
            if p_bar - tol <= power <= p_bar:
                break
            mid = 0.5 * (lo + hi)
            covs_mid, power_mid = _policy_at(model, mid, p)
            if power_mid > p_bar:
                lo = mid
            else:
                hi, lam, covs, power = mid, mid, covs_mid, power_mid
        else:
            raise ConvergenceError(
                f"long-term power bisection did not reach tolerance {tol}"
            )

    # builtin sum: the same sequential order as summing state by state
    r_opt = float(sum(model.probs * capacity(np.stack(model.states), np.stack(covs))))
    return CdiPolicy(
        states=model.states, probs=model.probs, covariances=covs, lam=lam, r_opt=r_opt
    )


@dataclass(frozen=True)
class ConstantCovariance:
    """Best fixed covariance for a discrete channel (no per-state adaptation)."""

    q: np.ndarray
    per_state_utility: np.ndarray
    r_opt: float
    converged: bool
    iterations: int


def ergodic_constant_covariance(
    model: DiscreteChannel,
    p_bar: float,
    step: float = 0.05,
    tol: float = 1e-9,
    iter_cap: int = 100_000,
) -> ConstantCovariance:
    """Maximize the probability-weighted capacity over {Q PSD, tr(Q) <= p_bar}
    by projected gradient ascent from Q = 0.

    Stops when consecutive iterates are within tol in Frobenius norm; if the
    iteration cap is hit first the best iterate is returned flagged
    non-converged.
    """
    if not isinstance(model, DiscreteChannel):
        raise TypeError("ergodic_constant_covariance needs a discrete channel model")
    if not p_bar > 0:
        raise ValueError("p_bar must be positive")

    states = np.stack(model.states)
    probs = model.probs[:, None, None]
    q = np.zeros((model.n_t, model.n_t), dtype=np.complex128)
    converged = False
    iterations = 0
    for iterations in range(1, iter_cap + 1):
        grad = (probs * capacity_gradient(states, q)).sum(axis=0)
        q_next = psd_cap_project(q + step * grad, p_bar)
        delta = frobenius(q_next - q)
        q = q_next
        if delta <= tol:
            converged = True
            break

    per_state = capacity(states, q)
    r_opt = float((model.probs * per_state).sum())
    return ConstantCovariance(
        q=q, per_state_utility=per_state, r_opt=r_opt, converged=converged,
        iterations=iterations,
    )


def empirical_policy(samples, p_bar: float, p: float, mode: str):
    """Policy from an observed sample of channel realizations.

    Builds the uniform discrete model over the samples; mode "with-csit"
    solves the per-state optimum (usable via ``lookup``), mode "no-csit"
    the best constant covariance.
    """
    samples = [as_matrix(s) for s in samples]
    if not samples:
        raise ValueError("empirical policy needs at least one sample")
    model = DiscreteChannel(
        states=tuple(samples), probs=np.full(len(samples), 1.0 / len(samples))
    )
    if mode == "with-csit":
        return cdi_optimal_policy(model, p_bar, p)
    if mode == "no-csit":
        return ergodic_constant_covariance(model, p_bar)
    raise ValueError(f"unknown mode {mode!r}; expected 'with-csit' or 'no-csit'")
