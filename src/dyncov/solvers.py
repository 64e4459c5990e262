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

from collections.abc import Sized
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from .channel import DiscreteChannel
from .linalg import (
    ConvergenceError,
    Workspace,
    _capacity_gradient,
    _compose,
    _eigh,
    _gram,
    _lapack_guard,
    _real_diagonal,
    as_matrix,
    capacity,
    check_fields,
    frobenius,
    herm_eig,
    matrix_stack,
    nearest_index,
    require_hermitian,
    require_psd,
    trace_real,
)

_SIGMA_FLOOR = 1e-14  # eigen-modes at or below this carry no power
_BISECTION_TOL = 1e-6  # width of cdi_optimal_policy's average-power target
_FISTA_TOL = 1e-9  # ergodic_constant_covariance's stop tolerance on ||Q+ - Y||_F
_FISTA_ITER_CAP = 100_000  # and its iteration cap


@dataclass(frozen=True)
class WaterfillResult:
    """Penalized water-filling solution.

    ``theta`` is the eigen-domain power loading aligned with ``sigma``
    (the channel Gram eigenvalues, in descending order); ``mu`` is the
    multiplier of the trace cap; ``q`` is theta composed on the Gram eigenvectors.
    """

    q: np.ndarray
    mu: float
    theta: np.ndarray
    sigma: np.ndarray


def _sum(xs: list[float]) -> float:
    """``np.sum`` of a list of floats, in numpy's order: term by term from 0.0
    below eight terms, numpy's pairwise sum from eight on."""
    return float(np.add.reduce(xs)) if len(xs) >= 8 else reduce(add, xs, 0.0)


def _cap_threshold(a: list[float], tau0: float, cap: float) -> tuple[list[float], float]:
    """theta = max(0, a - tau) for the least tau >= tau0 with sum(theta) <= cap,
    and tau (``_cap_sweep``, with the loading built)."""
    theta, r, tau = _cap_sweep(a, tau0, cap)
    return (_prefix_loading(a, r, cap) if theta is None else theta), tau


def _cap_sweep(a: list[float], tau0: float, cap: float) -> tuple[list[float] | None, int, float]:
    """theta = max(0, a - tau) for the least tau >= tau0 with sum(theta) <= cap.

    ``a`` must be in descending order, so the active set is a prefix.  tau0
    is tried first; otherwise the sweep accepts the prefix of length r whose
    threshold (sum(a[:r]) - cap) / r lies at or above tau0, below a[r-1]
    and at or above a[r].  A cap within the rounding error of the sums of a
    (1e-17 on a = [1, 1]) can round every threshold out of its interval;
    the active set is then the r entries tied with a[0], each loaded cap / r
    (or the whole cap on the first, if cap / r rounds their sum above the
    cap), which is within cap of the exact loading.  Returns theta, r and
    tau, with theta None where the sweep accepted a prefix: its loading is
    ``_prefix_loading(a, r, cap)``, which a caller builds only if it reads it.
    The sweep builds a loading only to return it: below eight terms the clip
    test sums max(0, a - tau0) as it goes, in ``_sum``'s order.  Works on
    Python floats: each operation is the IEEE one numpy would do on the array.
    """
    if len(a) < 8:  # a 0.0 term would leave s as it is, since s is never -0.0
        s = 0.0
        for x in a:
            if not x < tau0:  # max(x - tau0, 0.0) is x - tau0, NaN included
                s += x - tau0
    else:
        s = _sum([max(x - tau0, 0.0) for x in a])
    if s <= cap:  # "or 0.0": a -0.0 term loads +0.0, as numpy's maximum gives
        return [max(x - tau0, 0.0) or 0.0 for x in a], 0, tau0
    n = len(a)
    s = 0.0
    for r in range(1, n + 1):
        s += a[r - 1]
        tau = (s - cap) / r
        if tau < tau0 or not a[r - 1] - tau > 0.0:
            continue
        if r < n and a[r] - tau > 0.0:
            continue
        return None, r, tau
    theta = _prefix_loading(a, a.count(a[0]), cap)
    if _sum(theta) > cap:  # cap / r rounded up, as a subnormal cap can
        theta = _prefix_loading(a, 1, cap)
    return theta, 0, a[0] - theta[0]


def _sum_minus(x: float, a: list[float]) -> float:
    """_sum([x - y for y in a]), with no list below eight terms."""
    if len(a) >= 8:
        return _sum([x - y for y in a])
    s = 0.0
    for y in a:
        s += x - y
    return s


def _prefix_loading(a: list[float], r: int, cap: float) -> list[float]:
    """The loading on the active prefix a[:r] at its threshold, algebraically
    a_j - tau but free of the large-intermediate cancellation, so it sums to
    the cap at machine precision; zero past the prefix."""
    act = a[:r]
    theta = [max((cap + _sum_minus(x, act)) / r, 0.0) for x in act]
    return theta + [0.0] * (len(a) - r)


def _waterfill_thresholds(sigma: np.ndarray) -> list:
    """The capped-threshold input a = -1/sigma on the positive modes of the
    descending Gram eigenvalues sigma (n,), which are the prefix above the
    floor; for a stack (m, n), the list of each spectrum's."""
    if sigma.ndim == 1:
        return [-1.0 / x for x in sigma.tolist() if x > _SIGMA_FLOOR]
    positive = sigma > _SIGMA_FLOOR
    a = np.divide(-1.0, sigma, out=np.zeros_like(sigma), where=positive).tolist()
    return [row[:r] for row, r in zip(a, positive.sum(axis=1).tolist())]


def _waterfill_loading(
    a: list[float], n: int, z_over_v: float, cap: float
) -> tuple[list[float], float]:
    """Water-filling loading theta on n modes, given the thresholds ``a`` of
    the positive ones (``_waterfill_thresholds``), and the multiplier mu of
    the trace cap."""
    tau0 = -1.0 / z_over_v if z_over_v > 0.0 else -np.inf
    theta, tau = _cap_threshold(a, tau0, cap)
    # tau >= tau0 gives mu >= 0 up to the rounding of -1/tau0 back to z_over_v
    mu = 0.0 if tau == tau0 else max(0.0, -1.0 / tau - z_over_v)
    return theta + [0.0] * (n - len(a)), float(mu)


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
    if not 0.0 < cap < np.inf:  # one comparison, NaN included
        raise ValueError("cap must be positive" if cap <= 0 else "cap must be finite")
    h = as_matrix(h_tilde)
    if not np.isfinite(h).all():  # before the Gram product turns inf into NaN
        raise ValueError("channel has non-finite entries")
    sigma, v = herm_eig(_gram(h))  # also rejects a Gram product that overflowed
    theta, mu = _waterfill_loading(_waterfill_thresholds(sigma), h.shape[1], z_over_v, cap)
    return WaterfillResult(
        q=_compose(v, theta), mu=mu, theta=np.array(theta), sigma=np.maximum(sigma, 0.0)
    )


def _cap_plan(w: np.ndarray, cap: float) -> tuple[float, list[float] | None]:
    """The projection of a Hermitian X with ascending eigenvalues w (n,):
    (tau, None) where every mode keeps a positive loading and tau <= cap, so
    that it is X - tau I, else (tau, theta), the descending loading to compose,
    a prefix's built only then; the kept test sums as it goes (``_sum_minus``)."""
    a = w.tolist()
    a.reverse()  # descending
    theta, r, tau = _cap_sweep(a, 0.0, cap)
    n = len(a)
    if theta is None:  # the last mode is loaded as in _prefix_loading, on a prefix of all n
        kept = r == n and (cap + _sum_minus(a[-1], a)) / n > 0.0
    else:
        kept = theta[-1] > 0.0
    if kept and tau <= cap:  # every mode kept: V diag(sigma - tau) V^H = X - tau I
        return tau, None
    return tau, _prefix_loading(a, r, cap) if theta is None else theta


def _cap_project(x: np.ndarray, cap: float, work=None) -> np.ndarray:
    """``psd_cap_project`` of an exactly Hermitian C-contiguous complex matrix
    (unvalidated) into x itself: ``_cap_plan``'s shift, or its loading composed
    on the reversed eigenvectors.  Given a ``Workspace`` ``work``, LAPACK's
    pair and the compose's temporaries go into it."""
    w, v = _eigh(x, (None, None) if work is None else work.eig)
    tau, theta = _cap_plan(w, cap)
    if theta is None:
        diag = _real_diagonal(x)
        diag -= tau  # the imaginary parts minus 0.0 would keep their bits
        return x
    return _compose(v[:, ::-1], theta, x, work)


def psd_cap_project(x, cap: float) -> np.ndarray:
    """Frobenius projection of a Hermitian matrix onto {Q PSD, tr(Q) <= cap}.

    Eigenvalue soft-thresholding: the capped threshold of the eigenvalues
    with floor 0, i.e. drop the negative ones if that already meets the
    cap, otherwise shift all down by the exact multiplier tau.

    When every mode stays active (theta_n > 0), V diag(sigma - tau) V^H is
    exactly X - tau I, so the projection is that shift and skips composing
    the eigenvectors.  The shift is taken only when also tau <= cap: every
    eigenvalue then lies in [0, 2 cap] (sigma_n > tau >= 0, and
    sigma_1 - tau <= cap), so the shift's rounding error stays relative to
    the cap, as the compose's does.  A larger tau would subtract two close
    numbers far above the cap (X = 3 I + 1e-11 (A + A^H) at cap 1e-9), and
    the shifted trace could exceed the cap by up to 8e-6 of it; those inputs
    compose.
    """
    if not 0.0 < cap < np.inf:  # one comparison, NaN included
        raise ValueError("cap must be positive" if cap <= 0 else "cap must be finite")
    with _lapack_guard():
        return _cap_project(np.array(require_hermitian(x), order="C"), cap)  # a copy to overwrite


@dataclass(frozen=True)
class CdiPolicy:
    """Per-state covariance table for a discrete channel, with the long-term
    power multiplier it was solved at and the average utility it attains.

    ``states`` (k, n_r, n_t) and ``covariances`` (k, n_t, n_t) are complex
    stacks, built from any sequence of matrices, with one probability and one
    covariance per state."""

    lam: float = field(metadata={"key": "lambda"})
    r_opt: float
    probs: np.ndarray
    states: np.ndarray = field(metadata={"json": "matrices"})
    covariances: np.ndarray = field(metadata={"json": "matrices"})

    def __post_init__(self):
        check_fields(self, finite=("lam", "r_opt"), arrays=("probs",))
        # a table that is not a sequence is left to matrix_stack, which names it
        if isinstance(self.states, Sized) and isinstance(self.covariances, Sized):
            counts = len(self.states), len(self.probs), len(self.covariances)
            if not counts[0] or len(set(counts)) > 1:
                raise ValueError(
                    "with-csit policy needs one probability and one covariance per state: "
                    "{} states, {} probs, {} covariances".format(*counts)
                )
        object.__setattr__(self, "states", matrix_stack(self.states, "states"))
        object.__setattr__(self, "covariances", matrix_stack(self.covariances, "covariances"))
        require_psd(self.covariances, "covariances")

    def lookup(self, h) -> np.ndarray:
        """Covariance of the stored state nearest to h in Frobenius distance;
        a stack of channels (k, n_r, n_t) gives the k covariances."""
        return self.covariances[nearest_index(h, self.states)]


def _policy_at(model: DiscreteChannel, lam: float, p: float) -> tuple[np.ndarray, float]:
    covs = np.stack([waterfill_penalized(s, lam, p).q for s in model.states])
    return covs, float(sum(model.probs * trace_real(covs)))


def cdi_optimal_policy(model: DiscreteChannel, p_bar: float, p: float) -> CdiPolicy:
    """Distribution-aware optimum for a discrete channel with per-state
    adaptation: average power <= p_bar, per-slot power <= p.

    Lagrangian decomposition: at multiplier lam each state solves a
    penalized water-filling with cap p; lam is bisected until the average
    power lands in [p_bar - 1e-6, p_bar] (or lam = 0 is already feasible).
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
            if p_bar - _BISECTION_TOL <= power <= p_bar:
                break
            mid = 0.5 * (lo + hi)
            covs_mid, power_mid = _policy_at(model, mid, p)
            if power_mid > p_bar:
                lo = mid
            else:
                hi, lam, covs, power = mid, mid, covs_mid, power_mid
        else:
            raise ConvergenceError(
                f"long-term power bisection did not reach tolerance {_BISECTION_TOL}"
            )

    # builtin sum: the same sequential order as summing state by state
    r_opt = float(sum(model.probs * capacity(model.states, covs)))
    return CdiPolicy(
        lam=lam, r_opt=r_opt, probs=model.probs, states=model.states, covariances=covs
    )


@dataclass(frozen=True)
class ConstantCovariance:
    """Best fixed covariance for a discrete channel (no per-state adaptation)."""

    q: np.ndarray = field(metadata={"json": "matrix"})
    r_opt: float
    per_state_utility: np.ndarray
    converged: bool
    iterations: int = 0

    def __post_init__(self):
        check_fields(self, finite=("r_opt",), counts=("iterations",), arrays=("per_state_utility",))
        if not isinstance(self.converged, bool):  # not bool(...): "false" is truthy
            raise ValueError(f"'converged' must be true or false, got {self.converged!r}")
        object.__setattr__(self, "q", matrix_stack([self.q], "q")[0])
        require_psd(self.q[None], "q")


def ergodic_constant_covariance(model: DiscreteChannel, p_bar: float) -> ConstantCovariance:
    """Maximize the probability-weighted capacity over {Q PSD, tr(Q) <= p_bar}
    by accelerated projected gradient ascent from Q = 0.

    FISTA (Beck & Teboulle 2009), restarted when the step Q+ - Y opposes the
    move Q+ - Q (O'Donoghue & Candes 2015), with Q+ = P(Y + grad f(Y) / L).
    The step 1/L is read from the curvature at Y.  The gradient of
    f(Y) = sum_k p_k log det(I + G_k Y) is sum_k p_k D_k with
    D_k = (I + G_k Y)^{-1} G_k, and D_k changes along a direction Delta by
    -D_k Delta D_k, so the Hessian's quadratic form is
    -sum_k p_k tr(D_k Delta D_k Delta).  For Y PSD each D_k is Hermitian PSD,
    so tr(D_k Delta D_k Delta) = ||D_k^{1/2} Delta D_k^{1/2}||_F^2, which is
    at most ||D_k||_2^2 ||Delta||_F^2 <= ||D_k||_F^2 ||Delta||_F^2: the form
    is bounded by L ||Delta||_F^2 with L = sum_k p_k ||D_k||_F^2.  L = 0 only
    when every weighted D_k is zero, and then so is the gradient, so Q+ = P(Y).
    Stops when ||Q+ - Y||_F <= 1e-9 and returns Q+; if 100 000 iterations
    pass first the last iterate is returned flagged non-converged.
    """
    if not isinstance(model, DiscreteChannel):
        raise TypeError("ergodic_constant_covariance needs a discrete channel model")
    if not p_bar > 0:
        raise ValueError("p_bar must be positive")

    probs = model.probs[:, None, None]
    grams = _gram(model.states)  # the gradient's channel part, formed once
    q = y = np.zeros((model.n_t, model.n_t), dtype=np.complex128)
    work = Workspace(model.n_t)
    momentum = 1.0
    converged = False
    iterations = 0
    with _lapack_guard():
        for iterations in range(1, _FISTA_ITER_CAP + 1):
            # y stays exactly Hermitian: sums and real multiples of Hermitian matrices
            d = _capacity_gradient(grams, y)
            grad = (probs * d).sum(axis=0)
            lip = float(model.probs @ (d.real**2 + d.imag**2).sum(axis=(1, 2)))
            # Y + grad / L in the gradient's buffer, or a copy of Y (on the first pass also Q)
            x = np.add(y, np.divide(grad, lip, out=grad), out=grad) if lip > 0.0 else y.copy()
            q_prev, q = q, _cap_project(x, p_bar, work)
            delta = q - y
            if frobenius(delta) <= _FISTA_TOL:
                converged = True
                break
            move = q - q_prev
            if np.vdot(delta, move).real < 0.0:  # restart: momentum opposes the step
                momentum = 1.0
            momentum_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum * momentum))
            y = q + ((momentum - 1.0) / momentum_next) * move
            momentum = momentum_next

    per_state = capacity(model.states, q)
    r_opt = float((model.probs * per_state).sum())
    return ConstantCovariance(
        q=q, r_opt=r_opt, per_state_utility=per_state, converged=converged,
        iterations=iterations,
    )


def empirical_policy(samples, p_bar: float, p: float, mode: str):
    """Policy from an observed sample of channel realizations.

    Builds the uniform discrete model over the samples; mode "with-csit"
    solves the per-state optimum (usable via ``lookup``), mode "no-csit"
    the best constant covariance.
    """
    k = len(samples)  # DiscreteChannel rejects an empty sample
    model = DiscreteChannel(states=samples, probs=np.full(k, 1.0 / max(k, 1)))
    if mode == "with-csit":
        return cdi_optimal_policy(model, p_bar, p)
    if mode == "no-csit":
        return ergodic_constant_covariance(model, p_bar)
    raise ValueError(f"unknown mode {mode!r}; expected 'with-csit' or 'no-csit'")
