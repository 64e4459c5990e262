"""Invariant and property suite with independent oracles.

Each check draws seeded random instances and tests solver output against
certificates that do not depend on how the solver computes it: objective
dominance over random feasible points and over fine grids in the
two-mode cases, the projection's variational inequality and
nonexpansiveness, capacities by slogdet, and direct arithmetic for the
norm inequalities.  The ``validate`` CLI subcommand runs everything here
and prints a table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import channel as ch
from .controllers import theoretical_bounds
from .linalg import capacity, capacity_gradient, frobenius, trace_real
from .rate_adapt import RateLedger, decode_check
from .solvers import psd_cap_project, waterfill_penalized

DEFAULT_SEED = 20240821


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# ------------------------------------------------------------ random inputs


def random_complex(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, n: int, scale: float = 1.0) -> np.ndarray:
    g = random_complex(rng, (n, n)) * scale
    return 0.5 * (g + g.conj().T)


def random_psd(rng, n: int, scale: float = 1.0) -> np.ndarray:
    g = random_complex(rng, (n, n)) * scale
    return g @ g.conj().T


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


# ----------------------------------------------------------- matrix algebra


def check_norm_identities(n_draws: int = 1000, seed: int = DEFAULT_SEED) -> CheckResult:
    """Adjoint invariance, triangle inequality, submultiplicativity and the
    trace-product bound of the Frobenius norm, with 1e-9 slack."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n_draws):
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


def check_psd_norm_vs_trace(n_draws: int = 1000, seed: int = DEFAULT_SEED) -> CheckResult:
    """For PSD matrices the Frobenius norm is at most the trace."""
    rng = np.random.default_rng(seed + 1)
    worst = -np.inf
    for _ in range(n_draws):
        n = int(rng.integers(1, 6))
        a = random_psd(rng, n)
        worst = max(worst, frobenius(a) - trace_real(a))
    return CheckResult("psd-norm-vs-trace", worst <= 1e-9, f"worst violation {worst:.3e}")


def check_resolvent_norm_cap(n_draws: int = 1000, seed: int = DEFAULT_SEED) -> CheckResult:
    """||(I + X)^{-1}||_F <= sqrt(n) for PSD X."""
    rng = np.random.default_rng(seed + 2)
    worst = -np.inf
    for _ in range(n_draws):
        n = int(rng.integers(1, 7))
        x = random_psd(rng, n)
        inv = np.linalg.inv(np.eye(n) + x)
        worst = max(worst, frobenius(inv) - np.sqrt(n))
    return CheckResult("resolvent-norm-cap", worst <= 1e-9, f"worst violation {worst:.3e}")


def check_gram_perturbation(n_draws: int = 1000, seed: int = DEFAULT_SEED) -> CheckResult:
    """||H^H H - G^H G||_F <= (2B + d) d when ||H|| <= B and ||G - H|| <= d."""
    rng = np.random.default_rng(seed + 3)
    worst = -np.inf
    for _ in range(n_draws):
        m, n = rng.integers(1, 6, size=2)
        h = random_complex(rng, (m, n))
        b = frobenius(h) / rng.uniform(0.5, 1.0)  # valid cap >= ||H||
        e = random_complex(rng, (m, n))
        delta = frobenius(e)
        g = h + e
        lhs = frobenius(h.conj().T @ h - g.conj().T @ g)
        worst = max(worst, lhs - (2 * b + delta) * delta)
    return CheckResult("gram-perturbation", worst <= 1e-9, f"worst violation {worst:.3e}")


def check_resolvent_lipschitz(n_draws: int = 1000, seed: int = DEFAULT_SEED) -> CheckResult:
    """||(I+Y)^{-1} - (I+X)^{-1}||_F <= n ||Y - X||_F on PSD pairs."""
    rng = np.random.default_rng(seed + 4)
    worst = -np.inf
    for _ in range(n_draws):
        n = int(rng.integers(1, 5))
        x = random_psd(rng, n)
        y = random_psd(rng, n)
        lhs = frobenius(
            np.linalg.inv(np.eye(n) + y) - np.linalg.inv(np.eye(n) + x)
        )
        worst = max(worst, lhs - n * frobenius(y - x))
    return CheckResult("resolvent-lipschitz", worst <= 1e-9, f"worst violation {worst:.3e}")


def check_capacity_concavity(n_draws: int = 200, seed: int = DEFAULT_SEED) -> CheckResult:
    """Midpoint concavity of Q -> log det(I + H Q H^H)."""
    rng = np.random.default_rng(seed + 5)
    worst = -np.inf
    for _ in range(n_draws):
        m, n = rng.integers(1, 5, size=2)
        h = random_complex(rng, (m, n))
        q1 = random_psd(rng, n)
        q2 = random_psd(rng, n)
        mid = capacity(h, 0.5 * (q1 + q2))
        worst = max(worst, 0.5 * (capacity(h, q1) + capacity(h, q2)) - mid)
    return CheckResult("capacity-concavity", worst <= 1e-9, f"worst violation {worst:.3e}")


# ------------------------------------------------------------ exact solvers


def check_waterfill_beats_random(
    n_instances: int = 1000, n_feasible: int = 1000, seed: int = DEFAULT_SEED
) -> CheckResult:
    """The sweep solution's objective dominates random feasible covariances
    (random Hermitian matrices projected onto the feasible set)."""
    rng = np.random.default_rng(seed + 6)
    worst = -np.inf
    for _ in range(n_instances):
        n_t = int(rng.integers(1, 5))
        n_r = int(rng.integers(1, 5))
        h = random_complex(rng, (n_r, n_t))
        sigma_max = float(np.linalg.eigvalsh(h.conj().T @ h).max())
        z = rng.uniform(0.0, 2.0 * max(sigma_max, 1e-6))
        cap = rng.uniform(0.5, 5.0)
        wf = waterfill_penalized(h, z, cap)
        best = capacity(h, wf.q) - z * trace_real(wf.q)
        rand = psd_cap_project_stack(
            random_hermitian_stack(rng, n_feasible, n_t, scale=2.0), cap
        )
        objs = capacity_stack(h, rand) - z * trace_real(rand)
        worst = max(worst, float(objs.max()) - best)
    return CheckResult(
        "waterfill-beats-random", worst <= 1e-9, f"worst objective excess {worst:.3e}"
    )


def check_waterfill_grid(
    n_instances: int = 25, grid: int = 400, seed: int = DEFAULT_SEED
) -> CheckResult:
    """Two-mode instances: the sweep objective is no worse than the best
    point of a grid x grid search over the eigen-domain loadings."""
    rng = np.random.default_rng(seed + 7)
    worst = -np.inf
    for _ in range(n_instances):
        h = random_complex(rng, (2, 2))
        sig = np.linalg.eigvalsh(h.conj().T @ h)
        z = rng.uniform(0.0, 1.5 * float(sig.max()))
        cap = rng.uniform(0.5, 5.0)
        wf = waterfill_penalized(h, z, cap)
        best = capacity(h, wf.q) - z * trace_real(wf.q)
        axis = np.linspace(0.0, cap, grid)
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


def check_projection_nonexpansive(
    n_draws: int = 1000, seed: int = DEFAULT_SEED
) -> CheckResult:
    """||P(X) - P(Y)||_F <= ||X - Y||_F on random Hermitian pairs."""
    rng = np.random.default_rng(seed + 8)
    worst = -np.inf
    for _ in range(n_draws):
        n = int(rng.integers(1, 5))
        cap = rng.uniform(0.5, 5.0)
        x = random_hermitian(rng, n, scale=2.0)
        y = random_hermitian(rng, n, scale=2.0)
        lhs = frobenius(psd_cap_project(x, cap) - psd_cap_project(y, cap))
        worst = max(worst, lhs - frobenius(x - y))
    return CheckResult(
        "projection-nonexpansive", worst <= 1e-8, f"worst violation {worst:.3e}"
    )


def check_projection_variational(
    n_instances: int = 1000, n_feasible: int = 100, seed: int = DEFAULT_SEED
) -> CheckResult:
    """tr((X - P(X))^H (Q - P(X))) <= 0 for feasible Q: P(X) is the unique
    nearest feasible point."""
    rng = np.random.default_rng(seed + 9)
    worst = -np.inf
    for _ in range(n_instances):
        n = int(rng.integers(1, 5))
        cap = rng.uniform(0.5, 5.0)
        x = random_hermitian(rng, n, scale=2.0)
        px = psd_cap_project(x, cap)
        qs = random_psd_stack(rng, n_feasible, n)
        scale = rng.uniform(0.0, cap, size=n_feasible) / np.maximum(
            trace_real(qs), 1e-300
        )
        qs *= scale[:, None, None]
        resid = x - px
        inner = np.einsum("ij,bij->b", np.conj(resid), qs - px[None, :, :]).real
        worst = max(worst, float(inner.max()))
    return CheckResult(
        "projection-variational", worst <= 1e-8, f"worst inner product {worst:.3e}"
    )


def check_projection_grid(
    n_instances: int = 25, grid: int = 400, seed: int = DEFAULT_SEED
) -> CheckResult:
    """Diagonal two-mode case: projection distance matches a fine grid."""
    rng = np.random.default_rng(seed + 10)
    worst = -np.inf
    for _ in range(n_instances):
        cap = rng.uniform(0.5, 4.0)
        d = rng.uniform(-3.0, 3.0, size=2)
        x = np.diag(d).astype(complex)
        px = psd_cap_project(x, cap)
        dist = 0.5 * frobenius(px - x) ** 2
        axis = np.linspace(0.0, cap, grid)
        t1, t2 = np.meshgrid(axis, axis, indexing="ij")
        feas = t1 + t2 <= cap
        obj = 0.5 * ((t1 - d[0]) ** 2 + (t2 - d[1]) ** 2)
        grid_best = float(obj[feas].min())
        worst = max(worst, dist - grid_best)
    return CheckResult(
        "projection-grid", worst <= 1e-6, f"worst distance excess {worst:.3e}"
    )


# --------------------------------------------------- gradient error bounds


def check_gradient_error_bounds(
    n_draws: int = 10_000, seed: int = DEFAULT_SEED
) -> CheckResult:
    """Norm caps on the capacity gradient and its corrupted-observation
    error: ||D|| <= sqrt(n_r) b^2, ||D - D~|| <= psi, ||D~|| <= psi + cap."""
    rng = np.random.default_rng(seed + 11)
    b, delta, p_bar = 3.0, 0.4, 2.0
    worst = -np.inf
    for n_r, n_t, count in ((2, 2, n_draws // 2), (3, 2, n_draws - n_draws // 2)):
        bounds = theoretical_bounds(
            b=b, delta=delta, p=p_bar, p_bar=p_bar, n_t=n_t, n_r=n_r,
            v_or_gamma=1.0, horizon=1,
        )
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


def check_ledger_properties(n_runs: int = 1000, seed: int = DEFAULT_SEED) -> CheckResult:
    """Random completed ledgers: overhead in [0, last capacity), reverse
    decode feasible, assignments sum to the source size."""
    rng = np.random.default_rng(seed + 12)
    ok = True
    detail = "all ledgers feasible"
    for i in range(n_runs):
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


def check_observation_radius(n_draws: int = 500, seed: int = DEFAULT_SEED) -> CheckResult:
    """Every error model keeps observations within its reported radius, and
    phase quantization preserves the moduli."""
    rng = np.random.default_rng(seed + 13)
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
        for k in range(n_draws):
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


def check_controller_certifications(seed: int = DEFAULT_SEED) -> CheckResult:
    """Short seeded runs of both controllers (corrupted observations) must
    pass every in-run bound certification."""
    from .harness import DppSpec, ExperimentConfig, OgdSpec, run_experiment
    from .solvers import ergodic_constant_covariance

    model = ch.paper_two_state()
    ref = ergodic_constant_covariance(model, 2.0)
    dpp = run_experiment(
        ExperimentConfig(
            channel=model, csit_error=ch.paper_error_case("case1"),
            controller=DppSpec(v=100.0),
            p=3.0, p_bar=2.0, horizon=1500, seed=seed,
        )
    )
    ogd = run_experiment(
        ExperimentConfig(
            channel=model, csit_error=ch.paper_error_case("case2"),
            controller=OgdSpec(gamma=0.01),
            p=3.0, p_bar=2.0, horizon=1500, seed=seed, reference=ref,
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


def check_trace_determinism(seed: int = DEFAULT_SEED) -> CheckResult:
    """Identical configs must emit byte-identical traces."""
    from .harness import DppSpec, ExperimentConfig, run_experiment, trace_to_csv

    cfg = ExperimentConfig(
        channel=ch.paper_two_state(), csit_error=ch.BoundedBallCsit(delta=0.2),
        controller=DppSpec(v=100.0),
        p=3.0, p_bar=2.0, horizon=300, seed=seed,
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
    check_controller_certifications,
    check_trace_determinism,
)


def run_all() -> list[CheckResult]:
    return [fn() for fn in ALL_CHECKS]
