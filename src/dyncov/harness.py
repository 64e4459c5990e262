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
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import channel as ch
from .controllers import BoundReport, dpp_step, ogd_step, theoretical_bounds
from .linalg import ConvergenceError, _compose, _lapack_guard, capacity, check_fields, trace_real
from .matrixio import json_text, matrix_from_json, replace_file
from .rate_adapt import RateLedger, decode_check
from .solvers import (
    CdiPolicy,
    ConstantCovariance,
    _gram_eig,
    _waterfill_thresholds,
    cdi_optimal_policy,
    empirical_policy,
    ergodic_constant_covariance,
)
from .svgplot import line_chart

CSV_HEADER = "t,r,runavg_r,tr_q,runavg_tr_q,z"

SLACK = 1e-9

# the BoundReport constants a summary reports, None without a certified cap
_BOUND_CONSTANTS = ("epsilon", "phi_delta", "psi_delta", "queue_bound", "grad_norm_bound")


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass(frozen=True)
class DppSpec:
    v: float
    z0: float = 0.0  # queue before slot 0

    def __post_init__(self):
        # z / v is the water-filling penalty, and a queue is never negative
        if not self.v > 0:
            raise ConfigError("v must be positive")
        if not self.z0 >= 0:
            raise ConfigError("z0 must be nonnegative")
        check_fields(self, finite=("v", "z0"), error=ConfigError)  # NaN keeps its sign message


@dataclass(frozen=True)
class OgdSpec:
    gamma: Optional[float] = 0.01  # None selects the 1/sqrt(t) schedule
    t_delay: int = 1  # observations arrive t_delay slots late

    def __post_init__(self):
        check_fields(self, finite=("gamma",), counts=("t_delay",), error=ConfigError)
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
        check_fields(
            self, finite=("p", "p_bar", "rate_adapt_n"), counts=("horizon", "seed"),
            error=ConfigError,
        )
        if not (self.p >= self.p_bar > 0):
            raise ConfigError("need p >= p_bar > 0")
        if self.horizon < 1:
            raise ConfigError("horizon must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.rate_adapt_n is not None and not self.rate_adapt_n > 0:
            raise ConfigError("rate_adapt n_total must be positive")
        if (
            isinstance(self.controller, OgdSpec)
            and self.reference is not None
            and not isinstance(self.reference, ConstantCovariance)
        ):
            raise ConfigError(
                "the gradient controller's reference must be a constant-covariance policy"
            )
        # a table or policy made for other antenna counts would fail only mid-run
        channel_shape, cov_shape = (self.n_r, self.n_t), (self.n_t, self.n_t)
        table = self.csit_error
        if isinstance(table, ch.TabulatedCsit) and table.states.shape[1:] != channel_shape:
            raise ConfigError(
                f"per-state CSIT table entries are {table.states.shape[1:]}, "
                f"not the channel's {channel_shape}"
            )
        replayed = getattr(self.controller, "policy", None)
        for role, policy in (("replayed", replayed), ("reference", self.reference)):
            if isinstance(policy, ConstantCovariance):
                fits = policy.q.shape == cov_shape
            elif isinstance(policy, CdiPolicy):
                fits = (
                    policy.states.shape[1:] == channel_shape
                    and policy.covariances.shape[1:] == cov_shape
                )
            else:
                continue
            if not fits:
                raise ConfigError(
                    f"{role} policy dimensions do not fit the {self.n_r}x{self.n_t} channel"
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
    finite float; bools, non-numbers, NaN and infinities are rejected with
    the field's name."""
    x = obj[key] if default is None else obj.get(key, default)
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ConfigError(f"field {key!r} must be a number, got {x!r}")
    x = float(x)
    if not math.isfinite(x):
        raise ConfigError(f"field {key!r} must be finite, got {x!r}")
    return x


def _integer(obj: dict, key: str, default: Optional[int] = None) -> int:
    """obj[key] (or the default when given and the key is absent) as an int;
    bools, fractions, non-finite and non-numeric values are rejected with
    the field's name (an integral float such as 20.0 is accepted)."""
    x = obj[key] if default is None else obj.get(key, default)
    if isinstance(x, numbers.Integral) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, float) and math.isfinite(x) and x.is_integer():
        return int(x)
    raise ConfigError(f"field {key!r} must be an integer, got {x!r}")


def _finite_array(obj: dict, key: str) -> np.ndarray:
    """obj[key] as a float array; NaN and infinities are rejected with the
    field's name."""
    x = np.asarray(obj[key], dtype=float)
    if not np.isfinite(x).all():
        raise ConfigError(f"field {key!r} must be finite")
    return x


def _matrices(obj: dict, key: str) -> list[np.ndarray]:
    """obj[key], a list of matrices in the JSON schema, as complex arrays."""
    x = obj[key]
    if not isinstance(x, list):
        raise ConfigError(f"field {key!r} must be a list of matrices, got {x!r}")
    return [matrix_from_json(m) for m in x]


def _keys(obj: dict, allowed: set, section: Optional[str] = None) -> None:
    """Reject any key of obj outside ``allowed``, naming the section (None
    for the top level) and the keys."""
    unknown = sorted(repr(k) for k in set(obj) - allowed)
    if unknown:
        where = f" in {section!r}" if section else ""
        raise ConfigError(f"unknown config key(s){where}: {', '.join(unknown)}")


def _parse_channel(obj: dict) -> ch.ChannelModel:
    if "preset" in obj:
        _keys(obj, {"preset"}, "channel")
        name = obj["preset"]
        if name == "paper-two-state":
            return ch.paper_two_state()
        if name == "paper-continuous":
            return ch.paper_continuous()
        raise ConfigError(f"unknown channel preset {name!r}")
    kind = obj.get("kind")
    if kind == "discrete":
        _keys(obj, {"kind", "states", "probs"}, "channel")
        return ch.DiscreteChannel(
            states=_matrices(obj, "states"), probs=np.asarray(obj["probs"], dtype=float)
        )
    if kind == "continuous-product":
        _keys(obj, {"kind", "n_r", "n_t", "v_max"}, "channel")
        return ch.ProductChannel(
            n_r=_integer(obj, "n_r"), n_t=_integer(obj, "n_t"), v_max=_number(obj, "v_max")
        )
    raise ConfigError(f"unknown channel kind {kind!r}")


def _parse_csit_error(obj: dict) -> ch.CsitErrorModel:
    if obj is None:
        return ch.ExactCsit()
    if "preset" in obj:
        _keys(obj, {"preset"}, "csit_error")
        return ch.paper_error_case(obj["preset"])
    kind = obj.get("kind", "exact")
    if kind == "exact":
        _keys(obj, {"kind"}, "csit_error")
        return ch.ExactCsit()
    if kind == "phase-quantize":
        _keys(obj, {"kind", "step"}, "csit_error")
        return ch.PhaseQuantizeCsit(step=_number(obj, "step"))
    if kind == "mag-phase-quantize":
        _keys(obj, {"kind", "mag_step", "phase_step"}, "csit_error")
        return ch.MagPhaseQuantizeCsit(
            mag_step=_number(obj, "mag_step"), phase_step=_number(obj, "phase_step")
        )
    if kind == "bounded-ball":
        _keys(obj, {"kind", "delta"}, "csit_error")
        return ch.BoundedBallCsit(delta=_number(obj, "delta"))
    if kind == "per-state":
        _keys(obj, {"kind", "states", "observed"}, "csit_error")
        try:
            return ch.TabulatedCsit(
                states=_matrices(obj, "states"), observed=_matrices(obj, "observed")
            )
        except ValueError as exc:
            raise ConfigError(f"per-state CSIT table: {exc}") from exc
    raise ConfigError(f"unknown CSIT error kind {kind!r}")


def _parse_controller(obj: dict, base_dir: Optional[Path]) -> ControllerSpec:
    kind = obj.get("kind")
    if kind == "dpp":
        _keys(obj, {"kind", "v", "z0"}, "controller")
        return DppSpec(v=_number(obj, "v"), z0=_number(obj, "z0", 0.0))
    if kind == "ogd":
        _keys(obj, {"kind", "gamma", "step", "t_delay"}, "controller")
        if "step" not in obj:
            gamma = _number(obj, "gamma", 0.01)
        elif obj["step"] != "inverse-sqrt":
            raise ConfigError(f"controller 'step' must be 'inverse-sqrt', got {obj['step']!r}")
        elif "gamma" in obj:
            raise ConfigError("controller takes 'gamma' or 'step': 'inverse-sqrt', not both")
        else:
            gamma = None
        return OgdSpec(gamma=gamma, t_delay=_integer(obj, "t_delay", 1))
    if kind == "baseline-replay":
        _keys(obj, {"kind", "policy"}, "controller")
        return ReplaySpec(policy=load_policy(_resolve(obj["policy"], base_dir)))
    raise ConfigError(f"unknown controller kind {kind!r}")


def _resolve(path: str, base_dir: Optional[Path]) -> Path:
    if not isinstance(path, str):
        raise ConfigError(f"field 'policy' must be a path string, got {path!r}")
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
    if not isinstance(obj, dict):
        raise ConfigError(f"config must be a JSON object, got {obj!r}")
    _keys(obj, _CONFIG_KEYS)
    for section in ("channel", "csit_error", "controller", "reference", "rate_adapt", "outputs"):
        if obj.get(section) is not None and not isinstance(obj[section], dict):
            raise ConfigError(f"config section {section!r} must be a JSON object")
    try:
        controller = _parse_controller(obj["controller"], base_dir)
        model = _parse_channel(obj["channel"])
        err = _parse_csit_error(obj.get("csit_error"))
        rate = obj.get("rate_adapt")
        reference = obj.get("reference")
        if reference is not None:
            _keys(reference, {"policy", "r_opt"}, "reference")
            if len(reference) != 1:
                raise ConfigError(
                    "'reference' needs one of 'policy' (a path) and 'r_opt' (a value)"
                )
            if "policy" in reference:
                reference = load_policy(_resolve(reference["policy"], base_dir))
            else:
                reference = _number(reference, "r_opt")
        if rate is not None:
            _keys(rate, {"n_total"}, "rate_adapt")
        outputs = obj.get("outputs")
        if outputs is not None:
            _keys(outputs, {"csv", "summary", "svg_utility", "svg_power"}, "outputs")
            for key, path in outputs.items():
                if not isinstance(path, str):
                    raise ConfigError(f"output {key!r} must be a path string, got {path!r}")
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
            horizon=_integer(obj, "horizon"),
            seed=_integer(obj, "seed"),
            rate_adapt_n=_number(rate, "n_total") if rate is not None else None,
            reference=reference,
            outputs=outputs,
        )
    except KeyError as exc:
        raise ConfigError(f"missing config field: {exc}") from exc
    except (ConfigError, json.JSONDecodeError):
        raise
    except ValueError as exc:  # a model's own check, such as a negative delta
        raise ConfigError(str(exc)) from exc


# ------------------------------------------------------------- policy files


def save_policy(policy: Union[CdiPolicy, ConstantCovariance], path) -> None:
    if isinstance(policy, CdiPolicy):
        obj = {
            "kind": "with-csit",
            "lambda": policy.lam,
            "r_opt": policy.r_opt,
            "probs": [float(p) for p in policy.probs],
            "states": policy.states,
            "covariances": policy.covariances,
        }
    elif isinstance(policy, ConstantCovariance):
        obj = {
            "kind": "no-csit",
            "q": policy.q,
            "r_opt": policy.r_opt,
            "per_state_utility": [float(x) for x in policy.per_state_utility],
            "converged": bool(policy.converged),
            "iterations": int(policy.iterations),
        }
    else:
        raise TypeError(f"cannot save policy of type {type(policy).__name__}")
    replace_file(path, json_text(obj) + "\n")


def load_policy(path) -> Union[CdiPolicy, ConstantCovariance]:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ConfigError(f"policy file must be a JSON object, got {obj!r}")
    kind = obj.get("kind")
    try:
        if kind == "with-csit":
            states = _matrices(obj, "states")
            probs = _finite_array(obj, "probs")
            covariances = _matrices(obj, "covariances")
            if not states or not len(states) == len(probs) == len(covariances):
                raise ConfigError(
                    f"with-csit policy needs one probability and one covariance per "
                    f"state: {len(states)} states, {len(probs)} probs, "
                    f"{len(covariances)} covariances"
                )
            return CdiPolicy(
                states=states,
                probs=probs,
                covariances=covariances,
                lam=_number(obj, "lambda"),
                r_opt=_number(obj, "r_opt"),
            )
        if kind == "no-csit":
            converged = obj["converged"]
            if not isinstance(converged, bool):  # not bool(...): "false" is truthy
                raise ConfigError(f"field 'converged' must be true or false, got {converged!r}")
            return ConstantCovariance(
                q=matrix_from_json(obj["q"]),
                per_state_utility=_finite_array(obj, "per_state_utility"),
                r_opt=_number(obj, "r_opt"),
                converged=converged,
                iterations=_integer(obj, "iterations", 0),
            )
    except KeyError as exc:
        raise ConfigError(f"missing policy field: {exc}") from exc
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
    if n_samples < 1:
        raise ConfigError(f"n_samples must be at least 1, got {n_samples}")
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


def _decide(
    cfg: ExperimentConfig, h: np.ndarray, h_obs: np.ndarray
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The controller's recursion over a drawn path: the committed
    covariances q and, for the queue controller, Z(t) for t = 0..horizon.
    Its state is these arrays: the queue z (Z(t) before slot t) or the
    lagged q[t - T]; everything that does not depend on that state is
    computed up front."""
    q = np.zeros((cfg.horizon, cfg.n_t, cfg.n_t), dtype=np.complex128)
    spec = cfg.controller
    t = 0
    try:
        with _lapack_guard():  # one failure guard for every LAPACK call of the run
            if isinstance(spec, DppSpec):
                sigma, v = _gram_eig(h_obs)  # every observed Gram spectrum in one stacked solve
                a = _waterfill_thresholds(sigma)
                z, theta = [spec.z0], []
                for t in range(cfg.horizon):
                    theta_t, z_next = dpp_step(z[t], a[t], cfg.n_t, spec.v, cfg.p, cfg.p_bar)
                    theta.append(theta_t)
                    z.append(z_next)
                # the queue never reads Q(t) = V diag(theta) V^H: compose them all at once
                return _compose(v, theta), np.array(z)
            elif isinstance(spec, OgdSpec):
                # before slot T no observation has arrived: q[t] stays zero
                lag, ts = spec.t_delay, range(spec.t_delay, cfg.horizon)
                if spec.gamma is None:
                    steps = (1.0 / np.sqrt(ts)).tolist()
                else:
                    steps = [spec.gamma] * len(ts)
                for t, step in zip(ts, steps):
                    q[t] = ogd_step(q[t - lag], h_obs[t - lag], step, cfg.p_bar)
            elif isinstance(spec.policy, CdiPolicy):
                q[:] = spec.policy.lookup(h)
            else:
                q[:] = spec.policy.q
    except ConvergenceError as exc:
        raise ConvergenceError(f"solver failure at slot {t}: {exc}") from exc
    return q, None


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Simulate the configured horizon and certify every applicable bound."""
    horizon = cfg.horizon

    # draw: the channel path is exogenous, one seeded stream per slot
    h, h_obs = ch.draw_path(cfg.channel, cfg.csit_error, cfg.seed, horizon)

    # decide: only the controller's recursion is sequential
    q, z = _decide(cfg, h, h_obs)

    # evaluate: true-channel capacities and powers over the whole stack
    r = capacity(h, q)
    tr_q = trace_real(q)
    r_ref = None
    if isinstance(cfg.controller, OgdSpec) and isinstance(cfg.reference, ConstantCovariance):
        r_ref = capacity(h, cfg.reference.q)
    ledger = None
    if cfg.rate_adapt_n is not None:
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
        z=z[:-1] if z is not None else None,
        z_final=float(z[-1]) if z is not None else None,
        r_ref=r_ref,
        ledger=ledger,
        summary={},
    )
    result.summary = _build_summary(result)
    return result


# ------------------------------------------------------------ certification


def _upper(name: str, what: str, excess: float) -> dict:
    """Verdict on an upper bound that ``what`` exceeds by ``excess``: it
    passes within SLACK, and its margin is how far below the bound it stayed."""
    detail = f"{what} = {excess:.3e}"
    return {"name": name, "passed": excess <= SLACK, "detail": detail, "margin": -excess}


def _floor(name: str, what: str, gap: float) -> dict:
    """Verdict on a floor that ``what`` stays above by ``gap`` (negative when
    below): it passes within SLACK, and its margin is the gap."""
    detail = f"{what} = {gap:.3e}"
    return {"name": name, "passed": gap >= -SLACK, "detail": detail, "margin": gap}


def _skipped(name: str) -> dict:
    return {"name": name, "passed": None, "detail": "skipped: channel norm has no certified cap"}


def certify_run(result: RunResult, bounds: Optional[BoundReport]) -> list[dict]:
    """Bound verdicts for one run; every check is re-derivable from the
    per-slot trace (plus the final queue value, which follows from the last
    row by the queue recursion)."""
    cfg = result.config
    spec = cfg.controller
    t_axis = np.arange(1, cfg.horizon + 1, dtype=float)

    # the gradient controller projects onto tr(Q) <= p_bar; the others cap at p
    if isinstance(spec, OgdSpec):
        cap_name, cap_field, cap = "trace-cap", "p_bar", cfg.p_bar
    else:
        cap_name, cap_field, cap = "short-term-power-cap", "p", cfg.p
    certs = [_upper(cap_name, f"max tr(Q) - {cap_field}", float(np.max(result.tr_q) - cap))]

    if isinstance(spec, DppSpec):
        # queue vs running power: pure queue arithmetic, distribution-free
        z_seq = np.append(result.z[1:], result.z_final)  # Z(t) for t = 1..horizon
        rel = result.runavg_tr_q - (cfg.p_bar + z_seq / t_axis)
        certs.append(_upper(
            "running-power-vs-queue", "max over t of avg power - (p_bar + Z(t)/t)",
            float(np.max(rel)),
        ))
        if bounds is None:
            certs.append(_skipped("queue-bound"))
        else:
            worst_z = max(np.max(result.z), result.z_final) - bounds.queue_bound
            certs.append(_upper("queue-bound", "max Z(t) - queue bound", float(worst_z)))
            budget = cfg.p_bar + bounds.power_residual_bound(cfg.horizon)
            certs.append(_upper(
                "average-power-budget", "final avg power - budgeted bound",
                float(result.runavg_tr_q[-1] - budget),
            ))
            r_opt = _reference_utility(result)
            if r_opt is not None:
                floor = r_opt - bounds.utility_gap()
                certs.append(_floor(
                    "utility-floor", "final avg utility - (reference - eps - phi)",
                    float(result.runavg_r[-1] - floor),
                ))

    elif isinstance(spec, OgdSpec):
        if bounds is None:
            certs.append(_skipped("per-slot-regret-floor"))
        elif result.r_ref is not None:
            avg_ref = np.cumsum(result.r_ref) / t_axis
            regret = bounds.regret_bound_sqrt if spec.gamma is None else bounds.regret_bound
            certs.append(_floor(
                "per-slot-regret-floor",
                "min over t of avg utility - (reference avg - bound)",
                float(np.min(result.runavg_r - (avg_ref - regret(t_axis)))),
            ))

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
        bounds = theoretical_bounds(
            b=cb.b,
            delta=cb.delta,
            p=cfg.p,
            p_bar=cfg.p_bar,
            n_t=cfg.n_t,
            n_r=cfg.n_r,
            v_or_gamma=getattr(cfg.controller, "v", None) or getattr(cfg.controller, "gamma", None),
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
            **{name: getattr(bounds, name, None) for name in _BOUND_CONSTANTS},
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
        replace_file(outputs.csv, trace_to_csv(result))
        written.append(outputs.csv)
    if outputs.summary:
        replace_file(outputs.summary, json.dumps(result.summary, indent=2, sort_keys=True) + "\n")
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
