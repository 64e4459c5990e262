"""Experiment orchestration: slotted simulation, per-run certification of
the performance bounds, and trace/summary/plot emission.

A run is draw -> decide -> evaluate.  The channel path never depends on a
decision, so the whole horizon of (H(t), H~(t)) is drawn first; then only
the controller's recursion runs slot by slot; then capacities and powers
are evaluated on the stacked trace in one call each.  The observation lag
is the controller's: none for the queue controller, ``t_delay`` slots for
the gradient controller.

A run is fully determined by its config (seeded per-slot random streams),
so repeating a config yields byte-identical CSV output.  Certification
re-derives every verdict from quantities that also land in the CSV.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import channel as ch
from .controllers import (
    BoundReport,
    dpp_init,
    dpp_step,
    ogd_init,
    ogd_step,
    theoretical_bounds,
)
from .linalg import ConvergenceError, capacity, trace_real
from .matrixio import matrix_from_json, matrix_to_json
from .rate_adapt import RateLedger, decode_check
from .solvers import (
    CdiPolicy,
    ConstantCovariance,
    cdi_optimal_policy,
    empirical_policy,
    ergodic_constant_covariance,
)
from .svgplot import line_chart

CSV_HEADER = "t,r,runavg_r,tr_q,runavg_tr_q,z"

SLACK = 1e-9


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass(frozen=True)
class DppSpec:
    v: float
    z0: float = 0.0


@dataclass(frozen=True)
class OgdSpec:
    gamma: Optional[float] = 0.01  # None selects the 1/sqrt(t) schedule
    t_delay: int = 1  # observations arrive t_delay slots late

    def __post_init__(self):
        # the regret bound divides by gamma, so reject it before the run
        if self.gamma is not None and not self.gamma > 0:
            raise ConfigError("gamma must be positive")
        if self.t_delay < 1:
            raise ConfigError("t_delay must be at least one slot")


@dataclass(frozen=True)
class ReplaySpec:
    policy: Union[CdiPolicy, ConstantCovariance]


ControllerSpec = Union[DppSpec, OgdSpec, ReplaySpec]


@dataclass(frozen=True)
class OutputPaths:
    csv: Optional[str] = None
    summary: Optional[str] = None
    svg_utility: Optional[str] = None
    svg_power: Optional[str] = None


@dataclass(frozen=True)
class ExperimentConfig:
    channel: ch.ChannelModel
    csit_error: ch.CsitErrorModel
    controller: ControllerSpec
    p: float
    p_bar: float
    horizon: int
    seed: int
    rate_adapt_n: Optional[float] = None
    reference: Union[CdiPolicy, ConstantCovariance, float, None] = None
    outputs: Optional[OutputPaths] = None

    def __post_init__(self):
        if not (self.p >= self.p_bar > 0):
            raise ConfigError("need p >= p_bar > 0")
        if self.horizon < 1:
            raise ConfigError("horizon must be at least 1")
        if (
            isinstance(self.controller, OgdSpec)
            and self.reference is not None
            and not isinstance(self.reference, ConstantCovariance)
        ):
            raise ConfigError(
                "the gradient controller's reference must be a constant-covariance policy"
            )

    @property
    def n_t(self) -> int:
        return self.channel.n_t

    @property
    def n_r(self) -> int:
        return self.channel.n_r


@dataclass
class RunResult:
    """Per-slot trace of one run; ``runavg_*`` are the prefix means of ``r``
    and ``tr_q``, and ``z`` the pre-decision queue (queue controller only)."""

    config: ExperimentConfig
    r: np.ndarray
    runavg_r: np.ndarray
    tr_q: np.ndarray
    runavg_tr_q: np.ndarray
    z: Optional[np.ndarray]
    z_final: Optional[float]
    r_ref: Optional[np.ndarray]
    ledger: Optional[RateLedger]
    summary: dict


# ---------------------------------------------------------------- config io


def _number(obj: dict, key: str, default: Optional[float] = None) -> float:
    """obj[key] (or the default when given and the key is absent) as a
    finite float; NaN and infinities are rejected with the field's name."""
    x = float(obj[key] if default is None else obj.get(key, default))
    if not math.isfinite(x):
        raise ConfigError(f"field {key!r} must be finite, got {x!r}")
    return x


def _finite_array(obj: dict, key: str) -> np.ndarray:
    """obj[key] as a float array; NaN and infinities are rejected with the
    field's name."""
    x = np.asarray(obj[key], dtype=float)
    if not np.isfinite(x).all():
        raise ConfigError(f"field {key!r} must be finite")
    return x


def _parse_channel(obj: dict) -> ch.ChannelModel:
    if "preset" in obj:
        name = obj["preset"]
        if name == "paper-two-state":
            return ch.paper_two_state()
        if name == "paper-continuous":
            return ch.paper_continuous()
        raise ConfigError(f"unknown channel preset {name!r}")
    kind = obj.get("kind")
    if kind == "discrete":
        states = tuple(matrix_from_json(s) for s in obj["states"])
        return ch.DiscreteChannel(states=states, probs=np.asarray(obj["probs"], dtype=float))
    if kind == "continuous-product":
        return ch.ProductChannel(
            n_r=int(obj["n_r"]), n_t=int(obj["n_t"]), v_max=_number(obj, "v_max")
        )
    raise ConfigError(f"unknown channel kind {kind!r}")


def _parse_csit_error(obj: dict) -> ch.CsitErrorModel:
    if obj is None:
        return ch.ExactCsit()
    if "preset" in obj:
        return ch.paper_error_case(obj["preset"])
    kind = obj.get("kind", "exact")
    if kind == "exact":
        return ch.ExactCsit()
    if kind == "phase-quantize":
        return ch.PhaseQuantizeCsit(step=_number(obj, "step"))
    if kind == "mag-phase-quantize":
        return ch.MagPhaseQuantizeCsit(
            mag_step=_number(obj, "mag_step"), phase_step=_number(obj, "phase_step")
        )
    if kind == "bounded-ball":
        return ch.BoundedBallCsit(delta=_number(obj, "delta"))
    if kind == "per-state":
        return ch.TabulatedCsit(
            states=tuple(matrix_from_json(s) for s in obj["states"]),
            observed=tuple(matrix_from_json(s) for s in obj["observed"]),
        )
    raise ConfigError(f"unknown CSIT error kind {kind!r}")


def _parse_controller(obj: dict, base_dir: Optional[Path]) -> ControllerSpec:
    kind = obj.get("kind")
    if kind == "dpp":
        return DppSpec(v=_number(obj, "v"), z0=_number(obj, "z0", 0.0))
    if kind == "ogd":
        if obj.get("step") == "inverse-sqrt":
            gamma = None
        else:
            gamma = _number(obj, "gamma", 0.01)
        return OgdSpec(gamma=gamma, t_delay=int(obj.get("t_delay", 1)))
    if kind == "baseline-replay":
        return ReplaySpec(policy=load_policy(_resolve(obj["policy"], base_dir)))
    raise ConfigError(f"unknown controller kind {kind!r}")


def _resolve(path: str, base_dir: Optional[Path]) -> Path:
    p = Path(path)
    if not p.is_absolute() and base_dir is not None:
        p = base_dir / p
    return p


_CONFIG_KEYS = frozenset({
    "channel", "csit_error", "controller", "p", "p_bar", "horizon",
    "seed", "rate_adapt", "reference", "outputs",
})


def load_config(source: Union[str, Path, dict]) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON file path or an equivalent dict."""
    base_dir: Optional[Path] = None
    if isinstance(source, (str, Path)):
        base_dir = Path(source).resolve().parent
        with open(source, encoding="utf-8") as fh:
            obj = json.load(fh)
    else:
        obj = source
    unknown = sorted(set(obj) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
    try:
        controller = _parse_controller(obj["controller"], base_dir)
        model = _parse_channel(obj["channel"])
        err = _parse_csit_error(obj.get("csit_error"))
        rate = obj.get("rate_adapt")
        reference = obj.get("reference")
        if reference is not None:
            if "policy" in reference:
                reference = load_policy(_resolve(reference["policy"], base_dir))
            elif "r_opt" in reference:
                reference = _number(reference, "r_opt")
            else:
                raise ConfigError("reference needs a 'policy' path or an 'r_opt' value")
        outputs = obj.get("outputs")
        if outputs is not None:
            outputs = OutputPaths(
                csv=outputs.get("csv"),
                summary=outputs.get("summary"),
                svg_utility=outputs.get("svg_utility"),
                svg_power=outputs.get("svg_power"),
            )
        return ExperimentConfig(
            channel=model,
            csit_error=err,
            controller=controller,
            p=_number(obj, "p"),
            p_bar=_number(obj, "p_bar"),
            horizon=int(obj["horizon"]),
            seed=int(obj["seed"]),
            rate_adapt_n=_number(rate, "n_total") if rate else None,
            reference=reference,
            outputs=outputs,
        )
    except KeyError as exc:
        raise ConfigError(f"missing config field: {exc}") from exc


# ------------------------------------------------------------- policy files


def save_policy(policy: Union[CdiPolicy, ConstantCovariance], path) -> None:
    if isinstance(policy, CdiPolicy):
        obj = {
            "kind": "with-csit",
            "lambda": policy.lam,
            "r_opt": policy.r_opt,
            "probs": [float(p) for p in policy.probs],
            "states": [matrix_to_json(s) for s in policy.states],
            "covariances": [matrix_to_json(q) for q in policy.covariances],
        }
    elif isinstance(policy, ConstantCovariance):
        obj = {
            "kind": "no-csit",
            "q": matrix_to_json(policy.q),
            "r_opt": policy.r_opt,
            "per_state_utility": [float(x) for x in policy.per_state_utility],
            "converged": bool(policy.converged),
            "iterations": int(policy.iterations),
        }
    else:
        raise TypeError(f"cannot save policy of type {type(policy).__name__}")
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def load_policy(path) -> Union[CdiPolicy, ConstantCovariance]:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    kind = obj.get("kind")
    if kind == "with-csit":
        return CdiPolicy(
            states=tuple(matrix_from_json(s) for s in obj["states"]),
            probs=_finite_array(obj, "probs"),
            covariances=tuple(matrix_from_json(q) for q in obj["covariances"]),
            lam=_number(obj, "lambda"),
            r_opt=_number(obj, "r_opt"),
        )
    if kind == "no-csit":
        return ConstantCovariance(
            q=matrix_from_json(obj["q"]),
            per_state_utility=_finite_array(obj, "per_state_utility"),
            r_opt=_number(obj, "r_opt"),
            converged=bool(obj["converged"]),
            iterations=int(obj.get("iterations", 0)),
        )
    raise ConfigError(f"unknown policy kind {kind!r}")


def compute_baseline(
    cfg: ExperimentConfig, kind: str, n_samples: int = 100
) -> Union[CdiPolicy, ConstantCovariance]:
    """Distribution-aware reference policy for the configured channel.

    Discrete channels are solved on their exact distribution.  Continuous
    channels get the empirical route: n_samples accurate realizations are
    drawn from a dedicated stream of the run seed and the policy is solved
    on the uniform empirical distribution.
    """
    if isinstance(cfg.channel, ch.DiscreteChannel):
        if kind == "with-csit":
            return cdi_optimal_policy(cfg.channel, cfg.p_bar, cfg.p)
        if kind == "no-csit":
            return ergodic_constant_covariance(cfg.channel, cfg.p_bar)
        raise ConfigError(f"unknown baseline kind {kind!r}")
    rng = ch.sampling_rng(cfg.seed)
    samples = [ch.sample_channel(cfg.channel, rng) for _ in range(n_samples)]
    return empirical_policy(samples, cfg.p_bar, cfg.p, mode=kind)


# ---------------------------------------------------------------- main loop


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Simulate the configured horizon and certify every applicable bound."""
    horizon = cfg.horizon

    # draw: the channel path is exogenous, one seeded stream per slot
    h = np.empty((horizon, cfg.n_r, cfg.n_t), dtype=np.complex128)
    h_obs = np.empty_like(h)
    for t in range(horizon):
        rng = ch.slot_rng(cfg.seed, t)
        h[t] = ch.sample_channel(cfg.channel, rng)
        h_obs[t] = ch.observe_csit(h[t], cfg.csit_error, rng)

    # decide: only the controller's recursion is sequential
    q = np.empty((horizon, cfg.n_t, cfg.n_t), dtype=np.complex128)
    z_pre = None
    state = None
    spec = cfg.controller
    if isinstance(spec, DppSpec):
        z_pre = np.empty(horizon)
        state = dpp_init(spec.v, cfg.p, cfg.p_bar, z0=spec.z0)
    elif isinstance(spec, OgdSpec):
        state = ogd_init(cfg.n_t, cfg.p_bar, gamma=spec.gamma, t_delay=spec.t_delay)
    for t in range(horizon):
        try:
            if isinstance(spec, DppSpec):
                z_pre[t] = state.z
                q[t], state = dpp_step(state, h_obs[t])
            elif isinstance(spec, OgdSpec):
                lag = spec.t_delay
                q[t], state = ogd_step(state, h_obs[t - lag] if t >= lag else None)
            elif isinstance(spec.policy, CdiPolicy):
                q[t] = spec.policy.lookup(h[t])
            else:
                q[t] = spec.policy.q
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"solver failure at slot {t}: {exc}", residual=exc.residual
            ) from exc

    # evaluate: true-channel capacities and powers over the whole stack
    r = capacity(h, q)
    tr_q = trace_real(q)
    r_ref = None
    if isinstance(spec, OgdSpec) and isinstance(cfg.reference, ConstantCovariance):
        r_ref = capacity(h, cfg.reference.q)
    ledger = None
    if cfg.rate_adapt_n:
        ledger = RateLedger(cfg.rate_adapt_n)
        for r_t in r.tolist():
            if ledger.completed:
                break
            ledger.record(r_t)

    t_axis = np.arange(1, horizon + 1, dtype=float)
    result = RunResult(
        config=cfg,
        r=r,
        runavg_r=np.cumsum(r) / t_axis,
        tr_q=tr_q,
        runavg_tr_q=np.cumsum(tr_q) / t_axis,
        z=z_pre,
        z_final=state.z if isinstance(spec, DppSpec) else None,
        r_ref=r_ref,
        ledger=ledger,
        summary={},
    )
    result.summary = _build_summary(result)
    return result


# ------------------------------------------------------------ certification


def _cert(name: str, passed: Optional[bool], detail: str, margin: Optional[float] = None) -> dict:
    entry = {"name": name, "passed": passed, "detail": detail}
    if margin is not None:
        entry["margin"] = float(margin)
    return entry


def certify_run(result: RunResult, bounds: Optional[BoundReport]) -> list[dict]:
    """Bound verdicts for one run; every check is re-derivable from the
    per-slot trace (plus the final queue value, which follows from the last
    row by the queue recursion)."""
    cfg = result.config
    certs: list[dict] = []
    t_axis = np.arange(1, cfg.horizon + 1, dtype=float)

    # the gradient controller projects onto tr(Q) <= p_bar; the others cap at p
    if isinstance(cfg.controller, OgdSpec):
        cap_name, cap_field, cap = "trace-cap", "p_bar", cfg.p_bar
    else:
        cap_name, cap_field, cap = "short-term-power-cap", "p", cfg.p
    cap_gap = float(np.max(result.tr_q) - cap)
    certs.append(
        _cert(
            cap_name,
            cap_gap <= SLACK,
            f"max tr(Q) - {cap_field} = {cap_gap:.3e}",
            margin=-cap_gap,
        )
    )

    if isinstance(cfg.controller, DppSpec):
        # queue vs running power: pure queue arithmetic, distribution-free
        z_seq = np.append(result.z[1:], result.z_final)  # Z(t) for t = 1..horizon
        rel = result.runavg_tr_q - (cfg.p_bar + z_seq / t_axis)
        worst = float(np.max(rel))
        certs.append(
            _cert(
                "running-power-vs-queue",
                worst <= SLACK,
                f"max over t of avg power - (p_bar + Z(t)/t) = {worst:.3e}",
                margin=-worst,
            )
        )
        if bounds is not None:
            worst_z = float(max(np.max(result.z), result.z_final) - bounds.queue_bound)
            certs.append(
                _cert(
                    "queue-bound",
                    worst_z <= SLACK,
                    f"max Z(t) - queue bound = {worst_z:.3e}",
                    margin=-worst_z,
                )
            )
            budget = cfg.p_bar + bounds.power_residual_bound(cfg.horizon)
            gap = float(result.runavg_tr_q[-1] - budget)
            certs.append(
                _cert(
                    "average-power-budget",
                    gap <= SLACK,
                    f"final avg power - budgeted bound = {gap:.3e}",
                    margin=-gap,
                )
            )
            r_opt = _reference_utility(result)
            if r_opt is not None:
                floor = r_opt - bounds.utility_gap()
                gap = float(result.runavg_r[-1] - floor)
                certs.append(
                    _cert(
                        "utility-floor",
                        gap >= -SLACK,
                        f"final avg utility - (reference - eps - phi) = {gap:.3e}",
                        margin=gap,
                    )
                )
        else:
            certs.append(
                _cert("queue-bound", None, "skipped: channel norm has no certified cap")
            )

    elif isinstance(cfg.controller, OgdSpec):
        if bounds is not None and result.r_ref is not None:
            avg_ref = np.cumsum(result.r_ref) / t_axis
            if cfg.controller.gamma is None:
                slack_seq = bounds.regret_bound_sqrt(t_axis)
            else:
                slack_seq = bounds.regret_bound(t_axis)
            rel = result.runavg_r - (avg_ref - slack_seq)
            worst = float(np.min(rel))
            certs.append(
                _cert(
                    "per-slot-regret-floor",
                    worst >= -SLACK,
                    f"min over t of avg utility - (reference avg - bound) = {worst:.3e}",
                    margin=worst,
                )
            )
        elif bounds is None:
            certs.append(
                _cert(
                    "per-slot-regret-floor",
                    None,
                    "skipped: channel norm has no certified cap",
                )
            )

    return certs


def _reference_utility(result: RunResult) -> Optional[float]:
    ref = result.config.reference
    if ref is None:
        return None
    if isinstance(ref, float):
        return ref
    return ref.r_opt


def _build_summary(result: RunResult) -> dict:
    cfg = result.config
    cb = ch.channel_bounds(cfg.channel, cfg.csit_error)
    bounds: Optional[BoundReport] = None
    if not cb.unbounded_support:
        if isinstance(cfg.controller, DppSpec):
            v_or_gamma = cfg.controller.v
        elif isinstance(cfg.controller, OgdSpec):
            v_or_gamma = cfg.controller.gamma if cfg.controller.gamma is not None else 1.0
        else:
            v_or_gamma = 1.0
        bounds = theoretical_bounds(
            b=cb.b,
            delta=cb.delta,
            p=cfg.p,
            p_bar=cfg.p_bar,
            n_t=cfg.n_t,
            n_r=cfg.n_r,
            v_or_gamma=v_or_gamma,
            horizon=cfg.horizon,
        )

    certs = certify_run(result, bounds)
    summary = {
        "horizon": cfg.horizon,
        "seed": cfg.seed,
        "controller": type(cfg.controller).__name__,
        "final": {
            "runavg_r": float(result.runavg_r[-1]),
            "runavg_tr_q": float(result.runavg_tr_q[-1]),
            "z_final": result.z_final,
        },
        "constants": {
            "b": cb.b,
            "delta": cb.delta,
            "unbounded_support": cb.unbounded_support,
            "epsilon": bounds.epsilon if bounds else None,
            "phi_delta": bounds.phi_delta if bounds else None,
            "psi_delta": bounds.psi_delta if bounds else None,
            "queue_bound": bounds.queue_bound if bounds else None,
            "grad_norm_bound": bounds.grad_norm_bound if bounds else None,
        },
        "reference_r_opt": _reference_utility(result),
        "certifications": certs,
        "all_passed": all(c["passed"] is not False for c in certs),
    }
    if result.ledger is not None:
        led = result.ledger
        summary["rate_adaptation"] = {
            "n_total": led.n_total,
            "completed": led.completed,
            "slots_used": led.completed_at,
            "overhead": led.overhead,
            "relative_overhead": led.relative_overhead,
            "decode_feasible": bool(decode_check(led)) if led.completed else None,
        }
    return summary


# -------------------------------------------------------------- file output


def trace_to_csv(result: RunResult) -> str:
    """Render the per-slot trace as CSV text (repr of Python floats: shortest
    exact round-trip)."""
    z = result.z.tolist() if result.z is not None else [None] * len(result.r)
    rows = zip(
        result.r.tolist(),
        result.runavg_r.tolist(),
        result.tr_q.tolist(),
        result.runavg_tr_q.tolist(),
        z,
    )
    lines = [CSV_HEADER]
    for t, (r, avg_r, tr, avg_tr, z_t) in enumerate(rows):
        z_txt = repr(z_t) if z_t is not None else ""
        lines.append(f"{t},{r!r},{avg_r!r},{tr!r},{avg_tr!r},{z_txt}")
    return "\n".join(lines) + "\n"


def csv_to_columns(text: str) -> dict[str, list]:
    """Parse CSV text produced by trace_to_csv back into columns."""
    lines = [ln for ln in text.strip().split("\n") if ln]
    if lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    names = CSV_HEADER.split(",")
    cols: dict[str, list] = {n: [] for n in names}
    for ln in lines[1:]:
        parts = ln.split(",")
        cols["t"].append(int(parts[0]))
        for name, raw in zip(names[1:], parts[1:]):
            cols[name].append(float(raw) if raw else None)
    return cols


def emit_outputs(result: RunResult, outputs: Optional[OutputPaths] = None) -> list[str]:
    """Write any configured output files; returns the written paths."""
    outputs = outputs or result.config.outputs
    written: list[str] = []
    if outputs is None:
        return written
    if outputs.csv:
        Path(outputs.csv).parent.mkdir(parents=True, exist_ok=True)
        Path(outputs.csv).write_text(trace_to_csv(result), encoding="utf-8")
        written.append(outputs.csv)
    if outputs.summary:
        Path(outputs.summary).parent.mkdir(parents=True, exist_ok=True)
        Path(outputs.summary).write_text(
            json.dumps(result.summary, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        written.append(outputs.summary)
    ts = range(len(result.r))
    if outputs.svg_utility:
        line_chart(
            ts,
            result.runavg_r,
            "running average utility",
            "nats per slot",
            outputs.svg_utility,
        )
        written.append(outputs.svg_utility)
    if outputs.svg_power:
        line_chart(
            ts,
            result.runavg_tr_q,
            "running average transmit power",
            "power",
            outputs.svg_power,
        )
        written.append(outputs.svg_power)
    return written
