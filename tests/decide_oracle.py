"""An oracle for the decide that shares no kernel with it.

The run's decide steps through ``dyncov.linalg`` and ``dyncov.solvers``
kernels, and so does ``validate.decide_reference``, so a fault in a shared
kernel moves both.  Nothing here calls those kernels:

- the capacity gradient is H~^H (I + H~ Q H~^H)^{-1} H~, solved on the
  n_r x n_r system by ``np.linalg.solve``, not by the Gram push-through;
- the projection is ``validate.psd_cap_project_stack``: ``np.linalg.eigh``
  and the sorted-threshold formula;
- the water-filling bisects the water level over ``np.linalg.eigh`` of
  H~^H H~, and the queue books Z(t+1) = max(Z(t) + sum(theta) - p_bar, 0).

The oracle agrees with the decide up to rounding, not bit for bit, so tests
compare within ``Q_ATOL`` and ``Z_RTOL``.
"""

import numpy as np

from dyncov import DppSpec
from dyncov.validate import psd_cap_project_stack

SIGMA_FLOOR = 1e-14  # eigen-modes of H~^H H~ at or below this carry no power


def q_atol(p_bar: float) -> float:
    """The absolute tolerance on every entry of Q."""
    return 1e-10 * max(1.0, p_bar)


# The tolerance on Z(t), relative to max(1, |Z(t)|).
Z_RTOL = 1e-12


def gradient(h, q):
    """H^H (I + H Q H^H)^{-1} H for one channel h (n_r, n_t)."""
    hh = h.conj().T
    return hh @ np.linalg.solve(np.eye(len(h)) + h @ q @ hh, h)


def ogd_step(q_lag, h_lag, step, p_bar):
    """P[Q(t-T) + step D~(t-T)], with the gradient on the observation h_lag."""
    x = q_lag + step * gradient(h_lag, q_lag)
    return psd_cap_project_stack(0.5 * (x + x.conj().T)[None], p_bar)[0]


def waterfill(h, z_over_v, cap):
    """The maximizer of log det(I + H Q H^H) - z_over_v tr Q over
    {Q PSD, tr Q <= cap} and its loading: theta_i = max(0, L - 1/sigma_i)
    on the eigenmodes of H^H H above the floor, at the water level
    L = 1/z_over_v if that meets the cap, else the level where sum(theta)
    meets it, bisected to the last bit on the feasible side."""
    sigma, v = np.linalg.eigh(h.conj().T @ h)
    inv = [1.0 / s if s > SIGMA_FLOOR else np.inf for s in sigma.tolist()]

    def loading(level):
        return np.array([max(level - x, 0.0) for x in inv])

    if min(inv) == np.inf:  # no mode carries power
        level = 0.0
    elif z_over_v > 0.0 and loading(1.0 / z_over_v).sum() <= cap:
        level = 1.0 / z_over_v
    else:
        lo, hi = 0.0, cap + min(inv)  # at hi the strongest mode alone takes the cap
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if loading(mid).sum() > cap:
                hi = mid
            else:
                lo = mid
        level = lo
    theta = loading(level)
    return (v * theta) @ v.conj().T, theta


def decide(cfg, h_obs):
    """The decide recursion of a run on the observations h_obs: the
    covariances and, for the queue controller, Z(0..horizon)."""
    spec = cfg.controller
    q = np.zeros((cfg.horizon, cfg.n_t, cfg.n_t), dtype=np.complex128)
    if isinstance(spec, DppSpec):
        z = [0.0]
        for t in range(cfg.horizon):
            q[t], theta = waterfill(h_obs[t], z[t] / spec.v, cfg.p)
            z.append(max(0.0, z[t] + theta.sum() - cfg.p_bar))
        return q, np.array(z)
    lag = spec.t_delay
    for t in range(lag, cfg.horizon):
        step = spec.gamma if spec.gamma is not None else 1.0 / np.sqrt(t)
        q[t] = ogd_step(q[t - lag], h_obs[t - lag], step, cfg.p_bar)
    return q, None
