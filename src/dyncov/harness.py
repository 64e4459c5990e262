"""Experiment orchestration: slotted simulation, per-run certification of
the performance bounds, and trace/summary/plot emission.

A run is draw -> decide -> evaluate, folded over blocks of slots.  The
channel path never depends on a decision, so each block's (H(t), H~(t))
is drawn first; then only the controller's recursion runs slot by slot,
from the state the block before left; then capacities and powers are
evaluated on the block's stack in one call each.  The observation lag is
the controller's: none for the queue controller, ``t_delay`` slots for the
gradient controller.

A run is fully determined by its config (seeded per-slot random streams),
so repeating a config yields byte-identical CSV output.  Certification
re-derives every verdict from quantities that also land in the CSV.
"""

from __future__ import annotations

import json
import math
import re
from collections import deque
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace
from itertools import chain, islice
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import channel as ch
from .controllers import dpp_step, ogd_step, theoretical_bounds
from .linalg import (
    _compose,
    _count,
    _eigh_desc,
    _gram,
    _lapack_guard,
    capacity,
    check_fields,
    finite_number,
    trace_real,
)
from .matrixio import json_text, matrix_from_json, replace_file
from .rate_adapt import RateLedger, decode_check
from .solvers import (
    CdiPolicy,
    ConstantCovariance,
    _waterfill_thresholds,
    cdi_optimal_policy,
    empirical_policy,
    ergodic_constant_covariance,
)
from .svgplot import line_chart

CSV_HEADER = "t,r,runavg_r,tr_q,runavg_tr_q,z"

SLACK = 1e-9

# slots per block of a run: one block of channels, observations and
# covariances is in memory at a time, and the CSV is written a block at a time
BLOCK_SLOTS = 512

# the BoundReport constants a summary reports, None without a certified cap
_BOUND_CONSTANTS = ("epsilon", "phi_delta", "psi_delta", "queue_bound", "grad_norm_bound")


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass(frozen=True)
class DppSpec:
    v: float  # the queue starts empty, Z(0) = 0, as the certified bounds assume
    cap_verdict = "short-term-power-cap", "p"  # the tr(Q) cap's verdict and config field

    def __post_init__(self):
        check_fields(self, finite=("v",), error=ConfigError)
        # z / v is the water-filling penalty
        if not self.v > 0:
            raise ConfigError("v must be positive")

    def decide(self, cfg, start, h, h_obs, carry):
        """The queue recursion over one block: the covariances, Z(t) for
        t = start..stop and the carry, Z(stop) (None: an empty queue)."""
        sigma, v = _eigh_desc(_gram(h_obs))  # every observed Gram spectrum in one stacked solve
        a = _waterfill_thresholds(sigma)
        z, theta = [0.0 if carry is None else carry], []
        args = cfg.n_t, self.v, cfg.p, cfg.p_bar  # looked up once, not per slot
        for k in range(len(h)):
            theta_t, z_next = dpp_step(z[k], a[k], *args)
            theta.append(theta_t)
            z.append(z_next)
        # the queue never reads Q(t) = V diag(theta) V^H: compose them all at once
        return _compose(v, theta), np.array(z), z[-1]

    def certify(self, result, bounds) -> list[dict]:
        cfg = result.config
        # queue vs running power: pure queue arithmetic, distribution-free
        z_seq = np.append(result.z[1:], result.z_final)  # Z(t) for t = 1..horizon
        rel = result.runavg_tr_q - (cfg.p_bar + z_seq / np.arange(1, cfg.horizon + 1, dtype=float))
        what = "max over t of avg power - (p_bar + Z(t)/t)"
        certs = [_upper("running-power-vs-queue", what, float(np.max(rel)))]
        if bounds is None:
            return certs + [_skipped("queue-bound")]
        worst_z = max(np.max(result.z), result.z_final) - bounds.queue_bound
        budget = cfg.p_bar + bounds.queue_bound / cfg.horizon
        certs += [
            _upper("queue-bound", "max Z(t) - queue bound", float(worst_z)),
            _upper("average-power-budget", "final avg power - budgeted bound",
                   float(result.runavg_tr_q[-1] - budget)),
        ]
        r_opt = _reference_utility(result)
        if r_opt is not None:
            floor = r_opt - (bounds.epsilon + bounds.phi_delta)
            what = "final avg utility - (reference - eps - phi)"
            certs.append(_floor("utility-floor", what, float(result.runavg_r[-1] - floor)))
        return certs


@dataclass(frozen=True)
class OgdSpec:
    gamma: Optional[float] = 0.01  # None selects the 1/sqrt(t) schedule
    t_delay: int = 1  # observations arrive t_delay slots late
    cap_verdict = "trace-cap", "p_bar"  # it projects onto tr(Q) <= p_bar

    def __post_init__(self):
        finite = () if self.gamma is None else ("gamma",)
        check_fields(self, finite=finite, counts=("t_delay",), error=ConfigError)
        # the regret bound divides by gamma, so reject it before the run
        if self.gamma is not None and not self.gamma > 0:
            raise ConfigError("gamma must be positive")
        if self.t_delay < 1:
            raise ConfigError("t_delay must be at least one slot")

    def decide(self, cfg, start, h, h_obs, carry):
        """The gradient recursion over one block: the covariances, no queue, and
        the carry, the T chains' last iterates: two deques of the last T (none
        when T >= horizon) covariances and observed Grams before start, oldest
        first, which the block extends with copies of its last rows."""
        b, lag = len(h), self.t_delay
        if carry is None:  # a delay past the horizon reads no row, and maxlen T can overflow
            span = lag if lag < cfg.horizon else 0
            carry = deque(maxlen=span), deque(maxlen=span)
        q = np.zeros((b, cfg.n_t, cfg.n_t), dtype=np.complex128)
        g = _gram(h_obs)  # every observed Gram matrix in one stacked product
        k0 = min(max(lag - start, 0), b)  # no observation arrives before slot T: q[t] stays 0
        step = 1.0 / np.sqrt(np.arange(start + k0, start + b)) if self.gamma is None else self.gamma
        # slot start + k0 reads slot start + k0 - T: the carry's first row, then the block's
        m, n_old = b - k0, min(len(carry[1]), b - k0)
        q_lag = list(islice(chain(carry[0], q), m))  # q_lag[k + T] may be q[k0 + k]
        g_lag = np.concatenate([list(islice(carry[1], n_old)), g[:m - n_old]]) if n_old else g[:m]
        ogd_step(q_lag, g_lag, step, cfg.p_bar, q[k0:])
        for c, new in zip(carry, (q, g)):  # copies, so no carry row keeps this block alive
            c.extend(new[-min(lag, b):].copy())
        return q, None, carry

    def certify(self, result, bounds) -> list[dict]:
        if bounds is None:
            return [_skipped("per-slot-regret-floor")]
        if result.r_ref is None:
            return []
        t_axis = np.arange(1, result.config.horizon + 1, dtype=float)
        avg_ref = np.cumsum(result.r_ref) / t_axis
        regret = bounds.regret_bound(t_axis, self.gamma, self.t_delay)
        what = "min over t of avg utility - (reference avg - bound)"
        gap = float(np.min(result.runavg_r - (avg_ref - regret)))
        return [_floor("per-slot-regret-floor", what, gap)]


@dataclass(frozen=True)
class ReplaySpec:
    policy: Union[CdiPolicy, ConstantCovariance]
    cap_verdict = DppSpec.cap_verdict

    def decide(self, cfg, start, h, h_obs, carry):
        """The replayed policy's covariances for the block's true channels; no carry."""
        q = np.zeros((len(h), cfg.n_t, cfg.n_t), dtype=np.complex128)
        q[:] = self.policy.lookup(h) if isinstance(self.policy, CdiPolicy) else self.policy.q
        return q, None, carry

    def certify(self, result, bounds) -> list[dict]:
        return []


ControllerSpec = Union[DppSpec, OgdSpec, ReplaySpec]


@dataclass(frozen=True)
class OutputPaths:
    csv: Optional[str] = None
    summary: Optional[str] = None
    svg_utility: Optional[str] = None
    svg_power: Optional[str] = None

    def __post_init__(self):
        for key, path in vars(self).items():
            if path is not None and not isinstance(path, str):
                raise ConfigError(f"output {key!r} must be a path string, got {path!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's parameters.  Construction checks them and builds the run's
    ``(ChannelBounds, BoundReport or None)`` pair once, as ``_bounds``, which
    the run's summary and verdicts read."""

    channel: ch.ChannelModel
    csit_error: ch.CsitErrorModel
    controller: ControllerSpec
    p: float
    p_bar: float
    horizon: int
    seed: int
    rate_adapt_n: Optional[float] = field(default=None, metadata={"key": "rate_adapt"})
    reference: Union[CdiPolicy, ConstantCovariance, float, None] = None
    outputs: Optional[OutputPaths] = None

    def __post_init__(self):
        check_fields(self, finite=("p", "p_bar"), counts=("horizon", "seed"), error=ConfigError)
        if not (self.p >= self.p_bar > 0):
            raise ConfigError("need p >= p_bar > 0")
        if not 1 <= self.horizon <= 2**32:  # the per-slot streams key on a 32-bit slot index
            raise ConfigError(f"horizon must be between 1 and 2**32 slots, got {self.horizon}")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.rate_adapt_n is not None:  # the ledger owns the rule for its size
            object.__setattr__(self, "rate_adapt_n", RateLedger(self.rate_adapt_n).n_total)
        if not isinstance(self.reference, (CdiPolicy, ConstantCovariance, type(None))):
            reference = finite_number(self.reference, "r_opt", ConfigError)
            object.__setattr__(self, "reference", reference)
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
        # the bounds are certified after the last slot: one past the float range fails here
        spec, bounds = self.controller, None
        with np.errstate(over="ignore", invalid="ignore"):
            cb = ch.channel_bounds(self.channel, self.csit_error)
            values = {"b": cb.b, "delta": cb.delta}
            if not cb.unbounded_support:
                bounds = theoretical_bounds(
                    cb.b, cb.delta, self.p, self.p_bar, self.n_t, self.n_r,
                    v=spec.v if isinstance(spec, DppSpec) else None,
                )
                values.update((name, getattr(bounds, name)) for name in _BOUND_CONSTANTS)
                if isinstance(spec, OgdSpec):  # largest at t = 1
                    try:
                        values["regret_bound"] = bounds.regret_bound(1, spec.gamma, spec.t_delay)
                    except OverflowError:  # a Python float's power or a huge t_delay
                        values["regret_bound"] = math.inf
        for name, value in values.items():
            if value is not None and not math.isfinite(value):
                raise ConfigError(
                    f"bound constant {name!r} is not finite ({value}): "
                    "the run's parameters or channel are too large to certify"
                )
        object.__setattr__(self, "_bounds", (cb, bounds))

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


def _keys(obj: dict, allowed, section: Optional[str] = None) -> None:
    """Reject any key of obj outside ``allowed`` and any null value (JSON
    leaves a key out for its default), naming the section and the key."""
    where = f" in {section!r}" if section else ""
    unknown = sorted(repr(k) for k in set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown config key(s){where}: {', '.join(unknown)}")
    for key, x in obj.items():
        if x is None:
            raise ConfigError(f"{key!r}{where} must not be null")


def _decode(f, key: str, x):
    """A JSON value as the argument for field f: matrix objects decoded where
    f holds a matrix or a list of them, anything else left to the constructor."""
    form = f.metadata.get("json")
    try:
        if form == "matrix":
            return matrix_from_json(x)
        if form == "matrices" and isinstance(x, list):
            return [matrix_from_json(m) for m in x]
    except ValueError as exc:
        raise ConfigError(f"{key!r}: {exc}") from exc
    return x


def _build(cls, obj: dict, section: Optional[str] = None):
    """cls from the JSON object obj, whose keys are the init fields of cls (a
    field's metadata ``key`` where its JSON name differs).  The keys, nulls
    and absent required fields are checked here, and every value by cls."""
    keys = {f.metadata.get("key", f.name): f for f in fields(cls) if f.init}
    _keys(obj, keys, section)
    for key, f in keys.items():
        if key not in obj and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing {section or 'config'} field: {key!r}")
    return cls(**{keys[k].name: _decode(keys[k], k, v) for k, v in obj.items()})


def _fields_json(obj) -> dict:
    """The JSON object that ``_build`` reads obj back from: each init field,
    in field order, under its metadata ``key`` where its JSON name differs."""
    return {f.metadata.get("key", f.name): getattr(obj, f.name) for f in fields(obj) if f.init}


def _by_kind(obj: dict, section: str, kinds: dict, what: str, presets=None, default=None):
    """The dataclass that obj's "kind" selects from ``kinds``, built from
    obj's other keys, or the object ``presets`` makes of obj's "preset"."""
    if presets is not None and "preset" in obj:
        _keys(obj, {"preset"}, section)
        return presets(obj["preset"])
    kind = obj.get("kind", default)
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    return _build(kinds[kind], {k: v for k, v in obj.items() if k != "kind"}, section)


def _channel_preset(name) -> ch.ChannelModel:
    if name == "paper-two-state":
        return ch.paper_two_state()
    if name == "paper-continuous":
        return ch.paper_continuous()
    raise ConfigError(f"unknown channel preset {name!r}")


_CHANNELS = {"discrete": ch.DiscreteChannel, "continuous-product": ch.ProductChannel}
_CSIT_ERRORS = {
    "exact": ch.ExactCsit,
    "phase-quantize": ch.PhaseQuantizeCsit,
    "mag-phase-quantize": ch.MagPhaseQuantizeCsit,
    "bounded-ball": ch.BoundedBallCsit,
    "per-state": ch.TabulatedCsit,
}
_CONTROLLERS = {"dpp": DppSpec, "ogd": OgdSpec}
_POLICIES = {"with-csit": CdiPolicy, "no-csit": ConstantCovariance}


def _controller(obj: dict, base_dir: Optional[Path]) -> ControllerSpec:
    kind = obj.get("kind")
    if kind == "baseline-replay":
        _keys(obj, {"kind", "policy"}, "controller")
        return ReplaySpec(policy=load_policy(_resolve(obj.get("policy"), base_dir)))
    if kind == "ogd" and "step" in obj:
        if obj["step"] != "inverse-sqrt":
            raise ConfigError(f"controller 'step' must be 'inverse-sqrt', got {obj['step']!r}")
        if "gamma" in obj:
            raise ConfigError("controller takes 'gamma' or 'step': 'inverse-sqrt', not both")
        obj = {k: v for k, v in obj.items() if k != "step"}
        return replace(_by_kind(obj, "controller", _CONTROLLERS, "controller"), gamma=None)
    return _by_kind(obj, "controller", _CONTROLLERS, "controller")


def _reference(obj: dict, base_dir: Optional[Path]):
    """A reference policy loaded from its path, or a reference value."""
    _keys(obj, {"policy", "r_opt"}, "reference")
    if len(obj) != 1:
        raise ConfigError("'reference' needs one of 'policy' (a path) and 'r_opt' (a value)")
    if "policy" in obj:
        return load_policy(_resolve(obj["policy"], base_dir))
    return obj["r_opt"]


def _resolve(path: str, base_dir: Optional[Path]) -> Path:
    if not isinstance(path, str):
        raise ConfigError(f"field 'policy' must be a path string, got {path!r}")
    p = Path(path)
    if not p.is_absolute() and base_dir is not None:
        p = base_dir / p
    return p


@contextmanager
def _bad_input():
    """Report a ValueError raised inside, such as a constructor's own check
    of a loaded value, as a ConfigError; a JSON syntax error stays one."""
    try:
        yield
    except (ConfigError, json.JSONDecodeError):
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _read(source: Union[str, Path, dict], what: str) -> tuple[Optional[Path], dict]:
    """The JSON object at a file path (and the file's directory), or a dict."""
    base_dir, obj = None, source
    if isinstance(source, (str, Path)):
        base_dir = Path(source).resolve().parent
        with open(source, encoding="utf-8") as fh:
            obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object, got {obj!r}")
    return base_dir, obj


def load_config(source: Union[str, Path, dict]) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON file path or an equivalent dict.
    A section that is absent or null takes its field's default, and the
    CSIT error model's is exact."""
    base_dir, obj = _read(source, "config")
    sections = {
        "controller": lambda s: _controller(s, base_dir),
        "channel": lambda s: _by_kind(s, "channel", _CHANNELS, "channel", _channel_preset),
        "csit_error": lambda s: _by_kind(
            s, "csit_error", _CSIT_ERRORS, "CSIT error", ch.paper_error_case, "exact"
        ),
        "reference": lambda s: _reference(s, base_dir),
        "rate_adapt": lambda s: _build(RateLedger, s, "rate_adapt").n_total,
        "outputs": lambda s: _build(OutputPaths, s, "outputs"),
    }
    top = dict(obj)
    with _bad_input():
        for section, build in sections.items():
            if top.get(section) is None:
                top.pop(section, None)
            elif not isinstance(top[section], dict):
                raise ConfigError(f"config section {section!r} must be a JSON object")
            else:
                top[section] = build(top[section])
        top.setdefault("csit_error", ch.ExactCsit())
        return _build(ExperimentConfig, top)


# ------------------------------------------------------------- policy files


def save_policy(policy: Union[CdiPolicy, ConstantCovariance], path) -> None:
    """Write policy to path as its kind and its fields, which ``load_policy`` reads."""
    kind = next((k for k, cls in _POLICIES.items() if isinstance(policy, cls)), None)
    if kind is None:
        raise TypeError(f"cannot save policy of type {type(policy).__name__}")
    replace_file(path, json_text({"kind": kind, **_fields_json(policy)}) + "\n")


def load_policy(path) -> Union[CdiPolicy, ConstantCovariance]:
    obj = _read(path, "policy file")[1]
    with _bad_input():
        return _by_kind(obj, "policy", _POLICIES, "policy")


def compute_baseline(
    cfg: ExperimentConfig, kind: str, n_samples: int = 100
) -> Union[CdiPolicy, ConstantCovariance]:
    """Distribution-aware reference policy for the configured channel.

    Discrete channels are solved on their exact distribution.  Continuous
    channels get the empirical route: n_samples accurate realizations are
    drawn from a dedicated stream of the run seed and the policy is solved
    on the uniform empirical distribution.
    """
    if kind not in _POLICIES:
        raise ConfigError(f"unknown baseline kind {kind!r}")
    n_samples = _count(n_samples, "n_samples", ConfigError)
    if n_samples < 1:
        raise ConfigError(f"n_samples must be at least 1, got {n_samples}")
    if isinstance(cfg.channel, ch.DiscreteChannel):
        if kind == "with-csit":
            return cdi_optimal_policy(cfg.channel, cfg.p_bar, cfg.p)
        return ergodic_constant_covariance(cfg.channel, cfg.p_bar)
    rng = ch.sampling_rng(cfg.seed)
    samples = [ch.sample_channel(cfg.channel, rng) for _ in range(n_samples)]
    return empirical_policy(samples, cfg.p_bar, cfg.p, mode=kind)


# ---------------------------------------------------------------- main loop


def _decide(
    cfg: ExperimentConfig, start: int, h: np.ndarray, h_obs: np.ndarray, carry=None
) -> tuple[np.ndarray, Optional[np.ndarray], object]:
    """The controller spec's ``decide`` on one drawn block of slots start, start + 1, ...
    under one LAPACK failure guard: the committed covariances q, Z(t) for t = start..stop
    for the queue controller (else None), and the carry after the block (None: the start)."""
    with _lapack_guard():  # one failure guard for every LAPACK call of the block
        return cfg.controller.decide(cfg, start, h, h_obs, carry)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Simulate the configured horizon and certify every applicable bound.

    The run is a fold over blocks of ``BLOCK_SLOTS`` slots: each block is
    drawn, decided from the carry the block before left and evaluated into
    the run's float columns, which are all that outlive it."""
    horizon, spec = cfg.horizon, cfg.controller
    path = ch.ChannelPath(cfg.channel, cfg.csit_error, cfg.seed)
    r, tr_q = np.empty(horizon), np.empty(horizon)
    z = np.empty(horizon) if isinstance(spec, DppSpec) else None
    r_ref = None
    if isinstance(spec, OgdSpec) and isinstance(cfg.reference, ConstantCovariance):
        r_ref = np.empty(horizon)
    ledger = None if cfg.rate_adapt_n is None else RateLedger(cfg.rate_adapt_n)
    carry = None
    for start in range(0, horizon, BLOCK_SLOTS):
        block = slice(start, min(start + BLOCK_SLOTS, horizon))

        # draw: the channel path is exogenous, one seeded stream per slot
        h, h_obs = path.draw(block.start, block.stop)

        try:  # decide: only the controller's recursion is sequential
            q, z_block, carry = _decide(cfg, start, h, h_obs, carry)
        except np.linalg.LinAlgError as exc:  # parameters too large for the solves
            raise ConfigError(f"decide of slots {start}..{block.stop - 1}: {exc}") from exc

        # evaluate: true-channel capacities and powers over the block's stack
        r[block] = capacity(h, q)
        tr_q[block] = trace_real(q)
        if z is not None:
            z[block] = z_block[:-1]
        if r_ref is not None:
            r_ref[block] = capacity(h, cfg.reference.q)
        if ledger is not None and not ledger.completed:
            for r_t in r[block].tolist():
                if ledger.completed:
                    break
                ledger.record(r_t)

    t_axis = np.arange(1, horizon + 1, dtype=float)
    runavg_r, runavg_tr_q = np.cumsum(r), np.cumsum(tr_q)
    runavg_r /= t_axis
    runavg_tr_q /= t_axis
    result = RunResult(
        config=cfg,
        r=r,
        runavg_r=runavg_r,
        tr_q=tr_q,
        runavg_tr_q=runavg_tr_q,
        z=z,
        z_final=carry if z is not None else None,
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


def certify_run(result: RunResult) -> list[dict]:
    """Bound verdicts for one run: the cap on tr(Q) that its spec names, then
    the spec's own against the config's bound report.  Each is re-derivable
    from the per-slot trace (plus the final queue value, which follows from
    the last row by the queue recursion)."""
    cfg, spec = result.config, result.config.controller
    name, cap_field = spec.cap_verdict
    excess = float(np.max(result.tr_q) - getattr(cfg, cap_field))
    return [_upper(name, f"max tr(Q) - {cap_field}", excess)] + spec.certify(result, cfg._bounds[1])


def _reference_utility(result: RunResult) -> Optional[float]:
    """The reference policy's utility, or the reference value (a float) itself."""
    return getattr(result.config.reference, "r_opt", result.config.reference)


def _build_summary(result: RunResult) -> dict:
    cfg = result.config
    cb, bounds = cfg._bounds
    certs = certify_run(result)
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


def _csv_chunks(result: RunResult):
    """The trace's CSV text in chunks, the header and then ``BLOCK_SLOTS`` rows
    at a time (repr of Python floats: shortest exact round-trip)."""
    yield CSV_HEADER + "\n"
    for start in range(0, len(result.r), BLOCK_SLOTS):
        block = slice(start, start + BLOCK_SLOTS)
        r = result.r[block].tolist()
        z = [""] * len(r) if result.z is None else map(repr, result.z[block].tolist())
        rows = zip(
            range(start, start + len(r)),
            r,
            result.runavg_r[block].tolist(),
            result.tr_q[block].tolist(),
            result.runavg_tr_q[block].tolist(),
            z,
        )
        yield "".join([
            f"{t},{r_t!r},{avg_r!r},{tr!r},{avg_tr!r},{z_txt}\n"
            for t, r_t, avg_r, tr, avg_tr, z_txt in rows
        ])


def trace_to_csv(result: RunResult) -> str:
    """Render the per-slot trace as CSV text, as ``emit_outputs`` writes it."""
    return "".join(_csv_chunks(result))


def csv_to_columns(text: str) -> dict[str, list]:
    """Parse CSV text produced by trace_to_csv back into columns: the reader
    of the trace that ``certify_run`` calls re-derivable.  Nothing in ``src/``
    calls it; ``perfbench/worker.py`` reads every run's CSV through it, and
    tests use it as their CSV reader.  It reads one line at a time, from its
    first non-space character, and skips blank ones."""
    lines = (m.group() for m in re.finditer(r"\S[^\n]*", text))
    header = next(lines, "")
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header!r}")
    names = CSV_HEADER.split(",")
    cols: dict[str, list] = {n: [] for n in names}
    for ln in lines:
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
        replace_file(outputs.csv, _csv_chunks(result))
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
