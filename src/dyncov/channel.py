"""Fading-channel models, corrupted transmitter-side observations, and
the norm/error constants the certification layer consumes.

When an observation reaches the transmitter is not a channel property:
the controller fixes it (see ``dyncov.harness``).

Randomness is PCG64 via numpy Generators.  Streams are derived from a
run seed with SeedSequence spawn keys, one stream per slot index, so a
full (H(t), observation(t)) trace is a pure function of (model, error
model, seed) and reproduces bit-for-bit across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .linalg import as_matrix, frobenius

# stream domains: (domain, index) spawn keys under the run seed
_STREAM_SLOT = 0
_STREAM_BASELINE = 1
_STREAM_BOUNDS = 2

_BOUNDS_DRAWS = 100_000
_BOUNDS_QUANTILE = 0.99999


def slot_rng(seed: int, t: int) -> np.random.Generator:
    """Generator for slot t of the run with the given seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_STREAM_SLOT, t)))


def sampling_rng(seed: int) -> np.random.Generator:
    """Generator for offline sampling (empirical-policy construction)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_STREAM_BASELINE,)))


@dataclass(frozen=True)
class DiscreteChannel:
    """Finitely many channel matrices drawn i.i.d. with fixed probabilities."""

    states: tuple[np.ndarray, ...]
    probs: np.ndarray

    def __post_init__(self):
        states = tuple(as_matrix(s) for s in self.states)
        probs = np.asarray(self.probs, dtype=float)
        if len(states) == 0:
            raise ValueError("discrete channel needs at least one state")
        if probs.shape != (len(states),):
            raise ValueError("probs length must match number of states")
        if not np.all(probs >= 0):  # also rejects NaN
            raise ValueError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, expected 1")
        shape = states[0].shape
        if any(s.shape != shape for s in states):
            raise ValueError("all channel states must share dimensions")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_cum", np.cumsum(probs))

    def draw_index(self, rng: np.random.Generator) -> int:
        """State index with the configured probabilities (one uniform draw)."""
        k = int(np.searchsorted(self._cum, rng.random(), side="right"))
        return min(k, len(self.states) - 1)

    @property
    def n_r(self) -> int:
        return self.states[0].shape[0]

    @property
    def n_t(self) -> int:
        return self.states[0].shape[1]


@dataclass(frozen=True)
class ProductChannel:
    """Entries are u*v: u complex with independent standard-normal real and
    imaginary parts, v uniform on [0, v_max], all entries independent."""

    n_r: int
    n_t: int
    v_max: float

    def __post_init__(self):
        if self.n_r < 1 or self.n_t < 1:
            raise ValueError("antenna counts must be positive")
        if not self.v_max > 0:
            raise ValueError("v_max must be positive")


ChannelModel = Union[DiscreteChannel, ProductChannel]


@dataclass(frozen=True)
class ExactCsit:
    """Observation equals the channel."""


@dataclass(frozen=True)
class PhaseQuantizeCsit:
    """Each entry keeps its modulus; the phase snaps to the nearest multiple
    of ``step`` radians (exact midpoints go to the larger multiple)."""

    step: float

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("phase step must be positive")


@dataclass(frozen=True)
class MagPhaseQuantizeCsit:
    """Modulus rounds to the nearest multiple of ``mag_step`` (half away
    from zero), then the phase snaps to the nearest ``phase_step`` grid."""

    mag_step: float
    phase_step: float

    def __post_init__(self):
        if not (self.mag_step > 0 and self.phase_step > 0):
            raise ValueError("quantization steps must be positive")


@dataclass(frozen=True)
class BoundedBallCsit:
    """Observation = channel + E with ||E||_F = delta * u, u uniform on [0, 1].

    E starts from i.i.d. complex-normal entries and is rescaled, so the
    error direction is isotropic and the radius never exceeds delta.
    """

    delta: float

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")


@dataclass(frozen=True)
class TabulatedCsit:
    """Fixed observation per reference state, matched by Frobenius distance.

    Carries explicit corrupted-observation tables (the shipped error-case
    presets use this), sidestepping any rounding-convention ambiguity.
    """

    states: tuple[np.ndarray, ...]
    observed: tuple[np.ndarray, ...]

    def __post_init__(self):
        states = tuple(as_matrix(s) for s in self.states)
        observed = tuple(as_matrix(o) for o in self.observed)
        if len(states) == 0 or len(states) != len(observed):
            raise ValueError("tabulated model needs matching state/observation lists")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "observed", observed)


CsitErrorModel = Union[
    ExactCsit, PhaseQuantizeCsit, MagPhaseQuantizeCsit, BoundedBallCsit, TabulatedCsit
]


def sample_channel(model: ChannelModel, rng: np.random.Generator) -> np.ndarray:
    """Draw one channel realization."""
    if isinstance(model, DiscreteChannel):
        return model.states[model.draw_index(rng)].copy()
    if isinstance(model, ProductChannel):
        u = rng.standard_normal((model.n_r, model.n_t)) + 1j * rng.standard_normal(
            (model.n_r, model.n_t)
        )
        v = rng.uniform(0.0, model.v_max, size=(model.n_r, model.n_t))
        return u * v
    raise TypeError(f"unknown channel model {type(model).__name__}")


def _round_half_up(x: np.ndarray) -> np.ndarray:
    # ties toward the larger multiple
    return np.floor(x + 0.5)


def _quantize_phase(h: np.ndarray, step: float) -> np.ndarray:
    mag = np.abs(h)
    phase = np.angle(h)
    snapped = step * _round_half_up(phase / step)
    return mag * np.exp(1j * snapped)


def _quantize_magnitude(h: np.ndarray, step: float) -> np.ndarray:
    # moduli are nonnegative, so half-up equals half-away-from-zero
    mag = step * _round_half_up(np.abs(h) / step)
    phase = np.angle(h)
    return mag * np.exp(1j * phase)


def observe_csit(h, err: CsitErrorModel, rng: np.random.Generator | None = None) -> np.ndarray:
    """Corrupted transmitter-side view of a channel realization.

    Only the bounded-ball model consumes randomness; the other models are
    deterministic functions of the channel.
    """
    hm = as_matrix(h)
    if isinstance(err, ExactCsit):
        return hm.copy()
    if isinstance(err, PhaseQuantizeCsit):
        return _quantize_phase(hm, err.step)
    if isinstance(err, MagPhaseQuantizeCsit):
        return _quantize_phase(_quantize_magnitude(hm, err.mag_step), err.phase_step)
    if isinstance(err, BoundedBallCsit):
        if rng is None:
            raise ValueError("bounded-ball observation needs a generator")
        e = rng.standard_normal(hm.shape) + 1j * rng.standard_normal(hm.shape)
        norm = frobenius(e)
        radius = err.delta * rng.uniform()
        if norm > 0.0:
            e *= radius / norm
        else:
            e = np.zeros_like(hm)
        return hm + e
    if isinstance(err, TabulatedCsit):
        dists = [frobenius(hm - s) for s in err.states]
        return err.observed[int(np.argmin(dists))].copy()
    raise TypeError(f"unknown CSIT error model {type(err).__name__}")


@dataclass(frozen=True)
class ChannelBounds:
    """Norm cap b on the channel and radius delta on the observation error.

    ``unbounded_support`` flags models whose channel norm has no hard cap;
    there b is an empirical high-quantile estimate and bound certification
    should not treat it as a guarantee.
    """

    b: float
    delta: float
    unbounded_support: bool = False


def channel_bounds(model: ChannelModel, err: CsitErrorModel) -> ChannelBounds:
    """Constants consumed by the performance bounds.

    Discrete models: b is the exact max state norm; delta is evaluated
    exactly for deterministic error models and is the configured radius
    for bounded-ball.  Continuous models get an empirical 99.999th
    percentile of the norm from a fixed seeded sample, flagged as
    unbounded support.
    """
    if isinstance(model, DiscreteChannel):
        b = max(frobenius(s) for s in model.states)
        unbounded = False
    elif isinstance(model, ProductChannel):
        rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(_STREAM_BOUNDS,)))
        u = rng.standard_normal((_BOUNDS_DRAWS, model.n_r, model.n_t)) + 1j * rng.standard_normal(
            (_BOUNDS_DRAWS, model.n_r, model.n_t)
        )
        v = rng.uniform(0.0, model.v_max, size=(_BOUNDS_DRAWS, model.n_r, model.n_t))
        norms = np.sqrt((np.abs(u * v) ** 2).sum(axis=(1, 2)))
        b = float(np.quantile(norms, _BOUNDS_QUANTILE))
        unbounded = True
    else:
        raise TypeError(f"unknown channel model {type(model).__name__}")

    if isinstance(err, ExactCsit):
        delta = 0.0
    elif isinstance(err, BoundedBallCsit):
        delta = err.delta
    elif isinstance(err, (PhaseQuantizeCsit, MagPhaseQuantizeCsit, TabulatedCsit)):
        if isinstance(model, DiscreteChannel):
            delta = max(
                frobenius(observe_csit(s, err) - s) for s in model.states
            )
        else:
            # no hard radius for deterministic quantizers on unbounded support;
            # worst case over the sample used for b
            rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(_STREAM_BOUNDS, 1)))
            delta = 0.0
            for _ in range(1000):
                h = sample_channel(model, rng)
                delta = max(delta, frobenius(observe_csit(h, err) - h))
    else:
        raise TypeError(f"unknown CSIT error model {type(err).__name__}")
    return ChannelBounds(b=b, delta=delta, unbounded_support=unbounded)


def _polar(mag: float, phase_over_pi: float) -> complex:
    return mag * np.exp(1j * np.pi * phase_over_pi)


def _mat2(e00, e01, e10, e11) -> np.ndarray:
    return np.array([[e00, e01], [e10, e11]], dtype=np.complex128)


# Shipped two-state 2x2 scenario; entries given as magnitude and phase
# (phases in units of pi).
PAPER_H1 = _mat2(
    _polar(1.3131, 1.9590), _polar(2.3880, 0.7104),
    _polar(2.5567, 1.5259), _polar(2.8380, 0.3845),
)
PAPER_H2 = _mat2(
    _polar(1.4781, 0.9674), _polar(1.5291, 0.1396),
    _polar(0.0601, 0.9849), _polar(0.1842, 1.9126),
)

# Error case 1: magnitudes kept, phases on the pi/4 grid (fixed tables).
PAPER_CASE1_H1 = _mat2(
    _polar(1.3131, 2.0), _polar(2.3880, 0.75),
    _polar(2.5567, 1.5), _polar(2.8380, 0.5),
)
PAPER_CASE1_H2 = _mat2(
    _polar(1.4781, 1.0), _polar(1.5291, 0.25),
    _polar(0.0601, 1.0), _polar(0.1842, 2.0),
)

# Error case 2: magnitudes on the 0.1 grid, phases on the pi/2 grid; the
# small (1,0) entry of the second table is exactly zero.
PAPER_CASE2_H1 = _mat2(
    _polar(1.3, 2.0), _polar(2.4, 0.5),
    _polar(2.6, 1.5), _polar(2.8, 0.5),
)
PAPER_CASE2_H2 = _mat2(
    _polar(1.5, 1.0), _polar(1.5, 0.0),
    0.0, _polar(0.2, 2.0),
)


def paper_two_state() -> DiscreteChannel:
    """The shipped two-state 2x2 preset (equal probabilities)."""
    return DiscreteChannel(states=(PAPER_H1, PAPER_H2), probs=np.array([0.5, 0.5]))


def paper_continuous() -> ProductChannel:
    """The shipped continuous 2x2 preset (v uniform on [0, 0.5])."""
    return ProductChannel(n_r=2, n_t=2, v_max=0.5)


def paper_error_case(name: str) -> CsitErrorModel:
    """Named CSIT error presets for the two-state channel."""
    if name == "exact":
        return ExactCsit()
    if name == "case1":
        return TabulatedCsit(
            states=(PAPER_H1, PAPER_H2), observed=(PAPER_CASE1_H1, PAPER_CASE1_H2)
        )
    if name == "case2":
        return TabulatedCsit(
            states=(PAPER_H1, PAPER_H2), observed=(PAPER_CASE2_H1, PAPER_CASE2_H2)
        )
    raise ValueError(f"unknown error preset {name!r}; expected exact, case1 or case2")
