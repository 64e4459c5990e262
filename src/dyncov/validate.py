"""Invariant and property suite with independent oracles.

Each check draws a fixed number of instances from a fixed seed, so its row
depends only on the code and numpy, and tests solver output against
certificates that do not depend on how the solver computes it: objective
dominance over random feasible points and over fine grids in the two-mode
cases, the projection's variational inequality and nonexpansiveness,
capacities by slogdet, and direct arithmetic for the norm inequalities.
The ``validate`` CLI subcommand runs everything here and prints a table.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import LinAlgError

from . import channel as ch
from .controllers import ogd_step, theoretical_bounds
from .harness import DppSpec, ExperimentConfig, OgdSpec, _decide, run_experiment, trace_to_csv
from .linalg import (
    _capacity_gradient, _ct, _eigh_desc, _gram, _lapack_guard,
    capacity, capacity_gradient, frobenius, trace_real,
)
from .rate_adapt import RateLedger, decode_check
from .solvers import _sum, ergodic_constant_covariance, psd_cap_project, waterfill_penalized

SEED = 20240821  # every check draws from SEED + its own offset


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# ------------------------------------------------------------ random inputs


def random_complex(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, n: int, scale: float = 1.0) -> np.ndarray:
    return random_hermitian_stack(rng, 1, n, scale)[0]


def random_psd(rng, n: int, scale: float = 1.0) -> np.ndarray:
    return random_psd_stack(rng, 1, n, scale)[0]


def random_hermitian_stack(rng, count: int, n: int, scale: float = 1.0) -> np.ndarray:
    g = random_complex(rng, (count, n, n)) * scale
    return 0.5 * (g + np.conj(np.swapaxes(g, 1, 2)))


def random_psd_stack(rng, count: int, n: int, scale: float = 1.0) -> np.ndarray:
    g = random_complex(rng, (count, n, n)) * scale
    return g @ np.conj(np.swapaxes(g, 1, 2))


# ------------------------------------------------- stacked oracle primitives


def psd_cap_project_stack(xs: np.ndarray, cap: float) -> np.ndarray:
    """Reference projection of a stack of Hermitian matrices onto
    {Q PSD, tr(Q) <= cap}, via LAPACK eigendecomposition and the sorted
    threshold formula (independent of the library's sweep)."""
    w, v = np.linalg.eigh(xs)
    theta = np.maximum(w, 0.0)
    need = theta.sum(axis=1) > cap
    if np.any(need):
        ws = np.sort(w[need], axis=1)[:, ::-1]
        ks = np.arange(1, ws.shape[1] + 1)
        mus = (np.cumsum(ws, axis=1) - cap) / ks
        kstar = (ws - mus > 0).sum(axis=1)
        mu = mus[np.arange(len(ws)), kstar - 1]
        theta[need] = np.maximum(w[need] - mu[:, None], 0.0)
    return np.einsum("bij,bj,bkj->bik", v, theta, np.conj(v))


def capacity_stack(h: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """log det(I + H Q H^H) for a stack of covariances, via slogdet."""
    m = np.eye(h.shape[0]) + np.einsum("ij,bjk,lk->bil", h, qs, np.conj(h))
    sign, logdet = np.linalg.slogdet(m)
    return logdet


def decide_reference(cfg, h_obs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The decide recursion of ``run_experiment`` on the observations h_obs,
    slot by slot through the validated public functions: the queue
    controller by ``waterfill_penalized``, booking its loading's sum, the gradient
    controller by ``psd_cap_project(q + step * capacity_gradient(h, q), p_bar)``.
    Returns the covariances and, for the queue controller, Z(0..horizon)."""
    spec = cfg.controller
    q = np.zeros((cfg.horizon, cfg.n_t, cfg.n_t), dtype=np.complex128)
    if isinstance(spec, DppSpec):
        z = [0.0]
        for t in range(cfg.horizon):
            wf = waterfill_penalized(h_obs[t], z[t] / spec.v, cfg.p)
            q[t] = wf.q
            z.append(max(0.0, z[t] + _sum(wf.theta.tolist()) - cfg.p_bar))
        return q, np.array(z)
    lag = spec.t_delay
    for t in range(lag, cfg.horizon):
        step = spec.gamma if spec.gamma is not None else 1.0 / np.sqrt(t)
        grad = capacity_gradient(h_obs[t - lag], q[t - lag])
        q[t] = psd_cap_project(q[t - lag] + step * grad, cfg.p_bar)
    return q, None


def decide_blocks(cfg, h: np.ndarray, h_obs: np.ndarray, size: int):
    """The run's decide (``harness._decide``) on a drawn path, folded over
    blocks of ``size`` slots with the carry passed from block to block:
    returns what ``decide_reference`` does."""
    qs, zs, carry = [], [], None
    for start in range(0, cfg.horizon, size):
        block = slice(start, start + size)
        q, z, carry = _decide(cfg, start, h[block], h_obs[block], carry)
        qs.append(q)
        zs.append(z[:-1] if z is not None else None)
    return np.concatenate(qs), None if zs[0] is None else np.append(np.concatenate(zs), carry)


# ----------------------------------------------------------- matrix algebra


def check_norm_identities() -> CheckResult:
    """Adjoint invariance, triangle inequality, submultiplicativity and the
    trace-product bound of the Frobenius norm, with 1e-9 slack, on 1000
    random draws."""
    rng = np.random.default_rng(SEED)
    worst = -np.inf
    for _ in range(1000):
        m, n, k = rng.integers(1, 6, size=3)
        a = random_complex(rng, (m, n))
        b = random_complex(rng, (m, n))
        c = random_complex(rng, (n, k))
        worst = max(
            worst,
            abs(frobenius(a) - frobenius(a.conj().T)),
            frobenius(a + b) - (frobenius(a) + frobenius(b)),
            frobenius(a @ c) - frobenius(a) * frobenius(c),
            abs(np.trace(a.conj().T @ b)) - frobenius(a) * frobenius(b),
        )
    return CheckResult("norm-identities", worst <= 1e-9, f"worst violation {worst:.3e}")


def check_psd_norm_vs_trace() -> CheckResult:
    """For PSD matrices the Frobenius norm is at most the trace (1000 draws)."""
    rng = np.random.default_rng(SEED + 1)
    worst = -np.inf
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        a = random_psd(rng, n)
        worst = max(worst, frobenius(a) - trace_real(a))
    return CheckResult("psd-norm-vs-trace", worst <= 1e-9, f"worst violation {worst:.3e}")


def check_resolvent_norm_cap() -> CheckResult:
    """||(I + X)^{-1}||_F <= sqrt(n) for PSD X (1000 draws)."""
    rng = np.random.default_rng(SEED + 2)
    worst = -np.inf
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        x = random_psd(rng, n)
        inv = np.linalg.inv(np.eye(n) + x)
        worst = max(worst, frobenius(inv) - np.sqrt(n))
    return CheckResult("resolvent-norm-cap", worst <= 1e-9, f"worst violation {worst:.3e}")


def check_gram_perturbation() -> CheckResult:
    """||H^H H - G^H G||_F <= (2B + d) d when ||H|| <= B and ||G - H|| <= d
    (1000 draws)."""
    rng = np.random.default_rng(SEED + 3)
    worst = -np.inf
    for _ in range(1000):
        m, n = rng.integers(1, 6, size=2)
        h = random_complex(rng, (m, n))
        b = frobenius(h) / rng.uniform(0.5, 1.0)  # valid cap >= ||H||
        e = random_complex(rng, (m, n))
        delta = frobenius(e)
        g = h + e
        lhs = frobenius(h.conj().T @ h - g.conj().T @ g)
        worst = max(worst, lhs - (2 * b + delta) * delta)
    return CheckResult("gram-perturbation", worst <= 1e-9, f"worst violation {worst:.3e}")


def check_resolvent_lipschitz() -> CheckResult:
    """||(I+Y)^{-1} - (I+X)^{-1}||_F <= n ||Y - X||_F on 1000 PSD pairs."""
    rng = np.random.default_rng(SEED + 4)
    worst = -np.inf
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        x = random_psd(rng, n)
        y = random_psd(rng, n)
        lhs = frobenius(
            np.linalg.inv(np.eye(n) + y) - np.linalg.inv(np.eye(n) + x)
        )
        worst = max(worst, lhs - n * frobenius(y - x))
    return CheckResult("resolvent-lipschitz", worst <= 1e-9, f"worst violation {worst:.3e}")


def check_capacity_concavity() -> CheckResult:
    """Midpoint concavity of Q -> log det(I + H Q H^H) (200 draws)."""
    rng = np.random.default_rng(SEED + 5)
    worst = -np.inf
    for _ in range(200):
        m, n = rng.integers(1, 5, size=2)
        h = random_complex(rng, (m, n))
        q1 = random_psd(rng, n)
        q2 = random_psd(rng, n)
        mid = capacity(h, 0.5 * (q1 + q2))
        worst = max(worst, 0.5 * (capacity(h, q1) + capacity(h, q2)) - mid)
    return CheckResult("capacity-concavity", worst <= 1e-9, f"worst violation {worst:.3e}")


# ------------------------------------------------------------ exact solvers


def check_waterfill_beats_random() -> CheckResult:
    """On 1000 instances, the sweep solution's objective dominates 1000 random
    feasible covariances (random Hermitian matrices projected onto the
    feasible set)."""
    rng = np.random.default_rng(SEED + 6)
    worst = -np.inf
    for _ in range(1000):
        n_t = int(rng.integers(1, 5))
        n_r = int(rng.integers(1, 5))
        h = random_complex(rng, (n_r, n_t))
        sigma_max = float(np.linalg.eigvalsh(h.conj().T @ h).max())
        z = rng.uniform(0.0, 2.0 * max(sigma_max, 1e-6))
        cap = rng.uniform(0.5, 5.0)
        wf = waterfill_penalized(h, z, cap)
        best = capacity(h, wf.q) - z * trace_real(wf.q)
        rand = psd_cap_project_stack(
            random_hermitian_stack(rng, 1000, n_t, scale=2.0), cap
        )
        objs = capacity_stack(h, rand) - z * trace_real(rand)
        worst = max(worst, float(objs.max()) - best)
    return CheckResult(
        "waterfill-beats-random", worst <= 1e-9, f"worst objective excess {worst:.3e}"
    )


def check_waterfill_grid() -> CheckResult:
    """40 two-mode instances: the sweep objective is no worse than the best
    point of a 400 x 400 search over the eigen-domain loadings."""
    rng = np.random.default_rng(SEED + 7)
    worst = -np.inf
    for _ in range(40):
        h = random_complex(rng, (2, 2))
        sig = np.linalg.eigvalsh(h.conj().T @ h)
        z = rng.uniform(0.0, 1.5 * float(sig.max()))
        cap = rng.uniform(0.5, 5.0)
        wf = waterfill_penalized(h, z, cap)
        best = capacity(h, wf.q) - z * trace_real(wf.q)
        axis = np.linspace(0.0, cap, 400)
        t1, t2 = np.meshgrid(axis, axis, indexing="ij")
        feas = t1 + t2 <= cap
        obj = (
            np.log1p(sig[0] * t1) + np.log1p(sig[1] * t2) - z * (t1 + t2)
        )
        grid_best = float(obj[feas].max())
        worst = max(worst, grid_best - best)
    return CheckResult(
        "waterfill-grid", worst <= 1e-6, f"worst grid excess {worst:.3e}"
    )


def check_projection_nonexpansive() -> CheckResult:
    """||P(X) - P(Y)||_F <= ||X - Y||_F on 1000 random Hermitian pairs."""
    rng = np.random.default_rng(SEED + 8)
    worst = -np.inf
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        cap = rng.uniform(0.5, 5.0)
        x = random_hermitian(rng, n, scale=2.0)
        y = random_hermitian(rng, n, scale=2.0)
        lhs = frobenius(psd_cap_project(x, cap) - psd_cap_project(y, cap))
        worst = max(worst, lhs - frobenius(x - y))
    return CheckResult(
        "projection-nonexpansive", worst <= 1e-8, f"worst violation {worst:.3e}"
    )


def check_projection_variational() -> CheckResult:
    """tr((X - P(X))^H (Q - P(X))) <= 0 for feasible Q: P(X) is the unique
    nearest feasible point.  1000 instances, each against 100 random
    feasible Q."""
    rng = np.random.default_rng(SEED + 9)
    worst = -np.inf
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        cap = rng.uniform(0.5, 5.0)
        x = random_hermitian(rng, n, scale=2.0)
        px = psd_cap_project(x, cap)
        qs = random_psd_stack(rng, 100, n)
        scale = rng.uniform(0.0, cap, size=100) / np.maximum(
            trace_real(qs), 1e-300
        )
        qs *= scale[:, None, None]
        resid = x - px
        inner = np.einsum("ij,bij->b", np.conj(resid), qs - px[None, :, :]).real
        worst = max(worst, float(inner.max()))
    return CheckResult(
        "projection-variational", worst <= 1e-8, f"worst inner product {worst:.3e}"
    )


def check_projection_grid() -> CheckResult:
    """40 diagonal two-mode instances: the projection distance matches the
    best point of a 400 x 400 grid."""
    rng = np.random.default_rng(SEED + 10)
    worst = -np.inf
    for _ in range(40):
        cap = rng.uniform(0.5, 4.0)
        d = rng.uniform(-3.0, 3.0, size=2)
        x = np.diag(d).astype(complex)
        px = psd_cap_project(x, cap)
        dist = 0.5 * frobenius(px - x) ** 2
        axis = np.linspace(0.0, cap, 400)
        t1, t2 = np.meshgrid(axis, axis, indexing="ij")
        feas = t1 + t2 <= cap
        obj = 0.5 * ((t1 - d[0]) ** 2 + (t2 - d[1]) ** 2)
        grid_best = float(obj[feas].min())
        worst = max(worst, dist - grid_best)
    return CheckResult(
        "projection-grid", worst <= 1e-6, f"worst distance excess {worst:.3e}"
    )


# --------------------------------------------------- gradient error bounds


def check_gradient_error_bounds() -> CheckResult:
    """Norm caps on the capacity gradient and its corrupted-observation
    error: ||D|| <= sqrt(n_r) b^2, ||D - D~|| <= psi, ||D~|| <= psi + cap,
    on 10 000 draws, half 2x2 and half 3x2."""
    rng = np.random.default_rng(SEED + 11)
    b, delta, p_bar = 3.0, 0.4, 2.0
    worst = -np.inf
    for n_r, n_t, count in ((2, 2, 5000), (3, 2, 5000)):
        bounds = theoretical_bounds(b=b, delta=delta, p=p_bar, p_bar=p_bar, n_t=n_t, n_r=n_r)
        h = random_complex(rng, (count, n_r, n_t))
        h *= (b * rng.uniform(0.0, 1.0, count) / np.sqrt((np.abs(h) ** 2).sum(axis=(1, 2))))[
            :, None, None
        ]
        e = random_complex(rng, (count, n_r, n_t))
        e *= (delta * rng.uniform(0.0, 1.0, count) / np.sqrt((np.abs(e) ** 2).sum(axis=(1, 2))))[
            :, None, None
        ]
        ht = h + e
        q = random_psd_stack(rng, count, n_t)
        q *= (p_bar * rng.uniform(0.0, 1.0, count) / np.maximum(trace_real(q), 1e-300))[
            :, None, None
        ]
        d = capacity_gradient(h, q)
        dt = capacity_gradient(ht, q)
        norms = lambda x: np.sqrt((np.abs(x) ** 2).sum(axis=(1, 2)))
        worst = max(
            worst,
            float((norms(d) - bounds.grad_norm_bound).max()),
            float((norms(d - dt) - bounds.psi_delta).max()),
            float((norms(dt) - (bounds.psi_delta + bounds.grad_norm_bound)).max()),
        )
    return CheckResult(
        "gradient-error-bounds", worst <= 1e-9, f"worst violation {worst:.3e}"
    )


# ------------------------------------------------------------------ ledger


def check_ledger_properties() -> CheckResult:
    """1000 random completed ledgers: overhead in [0, last capacity), reverse
    decode feasible, assignments sum to the source size."""
    rng = np.random.default_rng(SEED + 12)
    ok = True
    detail = "all ledgers feasible"
    for i in range(1000):
        n_total = float(rng.uniform(1.0, 50.0))
        led = RateLedger(n_total)
        while not led.completed:
            r = float(rng.uniform(0.0, 5.0)) if rng.random() > 0.05 else 0.0
            led.record(r)
        last = led.capacities[led.completed_at - 1]
        table = decode_check(led)
        assigned = sum(row["assigned"] for row in table)
        if not (0.0 <= led.overhead < last) or abs(assigned - n_total) > 1e-9:
            ok = False
            detail = f"ledger {i}: overhead {led.overhead!r} vs last {last!r}"
            break
    return CheckResult("ledger-properties", ok, detail)


# ------------------------------------------------------------ observations


def check_observation_radius() -> CheckResult:
    """Every error model keeps observations within its reported radius, and
    phase quantization preserves the moduli: 500 draws per model."""
    rng = np.random.default_rng(SEED + 13)
    model = ch.paper_two_state()
    worst = -np.inf
    mod_drift = -np.inf
    for err in (
        ch.ExactCsit(),
        ch.PhaseQuantizeCsit(step=np.pi / 4),
        ch.MagPhaseQuantizeCsit(mag_step=0.1, phase_step=np.pi / 2),
        ch.BoundedBallCsit(delta=0.3),
        ch.paper_error_case("case1"),
        ch.paper_error_case("case2"),
    ):
        delta = ch.channel_bounds(model, err).delta
        for k in range(500):
            h = ch.sample_channel(model, rng)
            h_obs = ch.observe_csit(h, err, rng)
            worst = max(worst, frobenius(h_obs - h) - delta)
            if isinstance(err, ch.PhaseQuantizeCsit):
                mod_drift = max(
                    mod_drift, float(np.max(np.abs(np.abs(h_obs) - np.abs(h))))
                )
    ok = worst <= 1e-9 and mod_drift <= 1e-12
    return CheckResult(
        "observation-radius",
        ok,
        f"worst radius excess {worst:.3e}, modulus drift {mod_drift:.3e}",
    )


def check_draw_stream() -> CheckResult:
    """The run's vectorised draw equals the ``slot_rng`` reference, slot by
    slot and byte for byte, over 150 slots of every channel/CSIT pair (a
    one-word and a three-word seed), on the 2x2 presets and a 4x4 continuous
    channel, since the stacked reductions depend on the shape.  A numpy whose
    SeedSequence or PCG64 stream moved fails here instead of silently
    changing traces."""
    errs = (
        ch.ExactCsit(),
        ch.PhaseQuantizeCsit(step=np.pi / 4),
        ch.MagPhaseQuantizeCsit(mag_step=0.1, phase_step=np.pi / 2),
        ch.BoundedBallCsit(delta=0.3),
        ch.paper_error_case("case1"),
    )
    horizon = 150
    failed = []
    checked = 0
    for model in (ch.paper_two_state(), ch.paper_continuous(), ch.ProductChannel(4, 4, 0.5)):
        for err in errs if model.n_r == 2 else errs[:-1]:  # the case1 table is 2x2
            for s in (SEED, SEED + 2**64):
                h, h_obs = ch.ChannelPath(model, err, s).draw(0, horizon)
                checked += horizon
                for t in range(horizon):
                    rng = ch.slot_rng(s, t)
                    ref = ch.sample_channel(model, rng)
                    ref_obs = ch.observe_csit(ref, err, rng)
                    if h[t].tobytes() + h_obs[t].tobytes() != ref.tobytes() + ref_obs.tobytes():
                        pair = f"{type(model).__name__}/{type(err).__name__}"
                        failed.append(f"{pair} seed={s} t={t}")
                        break
    detail = f"failed: {', '.join(failed)}" if failed else f"{checked} slots byte-identical"
    return CheckResult("draw-stream", not failed, detail)


def check_lapack_kernels() -> CheckResult:
    """The kernels that call LAPACK's gufuncs directly equal ``np.linalg``
    byte for byte on stacks of 40 matrices for each n = 1..8 and each of
    generic, rank-deficient and repeated spectra; a singular system and an
    unconverged eigensolve (3x3 NaN) raise LinAlgError, not a
    RuntimeWarning, in the hot path (``ogd_step``, on a block of one row)
    and through the public ``capacity_gradient``, each holding the guard
    itself.  The hot path also rests on ``np.dot`` and ``np.matmul`` giving
    the same bytes on one matrix (one zgemm); ``tests/test_linalg.py`` pins
    that under the numpy CI installs (2.4.6)."""
    rng = np.random.default_rng(SEED + 14)
    count = 40
    failed = []
    for n in range(1, 9):
        g = random_complex(rng, (3, count, n, n))
        g[1, ..., n // 2:] = 0.0  # rank n // 2
        u, w = np.linalg.qr(g[2])[0], rng.choice([-1.0, 0.0, 2.0], size=(count, n))
        a = np.concatenate([g[0], g[1] @ _ct(g[1]), u @ (w[..., None] * _ct(u))])
        a, h = 0.5 * (a + _ct(a)), random_complex(rng, a.shape)
        gh, q = _gram(h), a @ a
        with _lapack_guard():
            got = (*_eigh_desc(a), _capacity_gradient(gh, q))
        w, v = np.linalg.eigh(a)
        d_ref = np.linalg.solve(np.eye(n) + gh @ q, gh)
        ref = (w[..., ::-1], v[..., ::-1], 0.5 * (d_ref + _ct(d_ref)))
        if any(x.tobytes() != y.tobytes() for x, y in zip(got, ref)):
            failed.append(f"n={n}")
    eye, nan = np.eye(3, dtype=complex), np.full((3, 3), np.nan, dtype=complex)
    for what, call in (
        ("singular hot path", lambda: ogd_step([-eye], [eye], 1.0, 1.0)),
        ("singular capacity_gradient", lambda: capacity_gradient(eye, -eye)),
        ("NaN hot path", lambda: ogd_step([nan], [eye], 1.0, 1.0)),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call()
            except LinAlgError:
                continue
            except RuntimeWarning:
                pass
        failed.append(what)
    detail = f"failed: {', '.join(failed)}" if failed else (
        f"{24 * count} decompositions and solves byte-identical, failures raise"
    )
    return CheckResult("lapack-kernels", not failed, detail)


def check_decide_recursion() -> CheckResult:
    """The run's decide step, which skips validation and precomputes what
    does not depend on the recursion state, equals ``decide_reference`` byte
    for byte (q and z) over 300 slots, folded over blocks of 7 slots so that
    the state crosses 42 block boundaries, for both controllers and both step
    rules on a 2x2 discrete, a 2x2 continuous and a 4x4 continuous channel."""
    horizon = 300
    cases = (
        (ch.paper_two_state(), ch.paper_error_case("case1")),
        (ch.paper_continuous(), ch.BoundedBallCsit(delta=0.1)),
        (ch.ProductChannel(n_r=4, n_t=4, v_max=0.5), ch.BoundedBallCsit(delta=0.1)),
    )
    specs = (DppSpec(v=100.0), OgdSpec(gamma=0.01, t_delay=2), OgdSpec(gamma=None))
    failed = []
    for model, err in cases:
        h, h_obs = ch.ChannelPath(model, err, SEED).draw(0, horizon)
        for spec in specs:
            cfg = ExperimentConfig(
                channel=model, csit_error=err, controller=spec,
                p=3.0, p_bar=2.0, horizon=horizon, seed=SEED,
            )
            (q, z), (q_ref, z_ref) = decide_blocks(cfg, h, h_obs, 7), decide_reference(cfg, h_obs)
            if q.tobytes() != q_ref.tobytes() or (z is not None and z.tobytes() != z_ref.tobytes()):
                failed.append(f"{type(model).__name__}({model.n_r}x{model.n_t})/{spec}")
    detail = f"failed: {', '.join(failed)}" if failed else (
        f"{len(cases) * len(specs)} runs of {horizon} slots byte-identical"
    )
    return CheckResult("decide-recursion", not failed, detail)


def check_controller_certifications() -> CheckResult:
    """A 1500-slot seeded run of each controller (corrupted observations)
    must pass every in-run bound certification."""
    model = ch.paper_two_state()
    ref = ergodic_constant_covariance(model, 2.0)
    dpp = run_experiment(
        ExperimentConfig(
            channel=model, csit_error=ch.paper_error_case("case1"),
            controller=DppSpec(v=100.0),
            p=3.0, p_bar=2.0, horizon=1500, seed=SEED,
        )
    )
    ogd = run_experiment(
        ExperimentConfig(
            channel=model, csit_error=ch.paper_error_case("case2"),
            controller=OgdSpec(gamma=0.01),
            p=3.0, p_bar=2.0, horizon=1500, seed=SEED, reference=ref,
        )
    )
    ok = dpp.summary["all_passed"] and ogd.summary["all_passed"]
    failed = [
        c["name"]
        for res in (dpp, ogd)
        for c in res.summary["certifications"]
        if c["passed"] is False
    ]
    return CheckResult(
        "controller-certifications",
        ok,
        "all run certifications hold" if ok else f"failed: {', '.join(failed)}",
    )


def check_trace_determinism() -> CheckResult:
    """Two runs of one 300-slot config must emit byte-identical traces."""
    cfg = ExperimentConfig(
        channel=ch.paper_two_state(), csit_error=ch.BoundedBallCsit(delta=0.2),
        controller=DppSpec(v=100.0),
        p=3.0, p_bar=2.0, horizon=300, seed=SEED,
    )
    first = trace_to_csv(run_experiment(cfg)).encode()
    second = trace_to_csv(run_experiment(cfg)).encode()
    ok = first == second
    return CheckResult(
        "trace-determinism",
        ok,
        "repeated run is byte-identical" if ok else "trace bytes differ",
    )


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_norm_identities,
    check_psd_norm_vs_trace,
    check_resolvent_norm_cap,
    check_gram_perturbation,
    check_resolvent_lipschitz,
    check_capacity_concavity,
    check_waterfill_beats_random,
    check_waterfill_grid,
    check_projection_nonexpansive,
    check_projection_variational,
    check_projection_grid,
    check_gradient_error_bounds,
    check_ledger_properties,
    check_observation_radius,
    check_draw_stream,
    check_lapack_kernels,
    check_decide_recursion,
    check_controller_certifications,
    check_trace_determinism,
)


def run_all() -> list[CheckResult]:
    return [fn() for fn in ALL_CHECKS]
