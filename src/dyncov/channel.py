"""Fading-channel models, corrupted transmitter-side observations, and
the norm/error constants the certification layer consumes.

When an observation reaches the transmitter is not a channel property:
the controller fixes it (see ``dyncov.harness``).

Randomness is PCG64 via numpy Generators.  Streams are derived from a
run seed with SeedSequence spawn keys, one stream per slot index, so a
full (H(t), observation(t)) trace is a pure function of (model, error
model, seed) and reproduces bit-for-bit across platforms.  ``slot_rng``
is the reference definition of slot t's stream.  ``ChannelPath`` draws
any range of slots without building a Generator per slot: it takes the
run's SeedSequence pool from numpy and restates only what depends on t,
the hash of t into that pool and PCG64 seeding, as vectorised integer
arithmetic over t (a counter-based derivation of the same stream layout),
then either reads each slot's single uniform straight from its first PCG64
output or, where numpy's samplers are needed, loads each slot's seeded
state into one reused Generator that only fills buffers; the arithmetic,
of which ``sample_channel`` and ``observe_csit`` are the one-slot case,
runs once per range.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .linalg import MAX_ANTENNAS, as_matrix, check_fields, frobenius, matrix_stack, nearest_index

# stream domains: (domain, index) spawn keys under the run seed
_STREAM_SLOT = 0
_STREAM_BASELINE = 1


def slot_rng(seed: int, t: int) -> np.random.Generator:
    """Generator for slot t of the run with the given seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_STREAM_SLOT, t)))


# numpy's SeedSequence constants (pool of four uint32 words) and the
# 128-bit LCG multiplier of its PCG64
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = (np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645))


def _hash_consts(const: int, mult: int, first: int, count: int) -> np.ndarray:
    """The constants of SeedSequence's word-hash (``hashmix``) calls
    first..first + count - 1, a (2, count, 1) uint32 array for ``_hash_rows``
    to make them at once: call i xors with const * mult**i, then multiplies
    by const * mult**(i + 1), mod 2**32."""
    c = [const * pow(mult, i, 2**32) & _M32 for i in range(first, first + count + 1)]
    return np.array([c[:-1], c[1:]], dtype=np.uint32)[..., None]


def _hash_rows(values, consts: np.ndarray) -> np.ndarray:
    """``hashmix`` of row k of the uint32 values (k, m), or of one row
    broadcast to all, under call k's constants (``_hash_consts``)."""
    values = (values ^ consts[0]) * consts[1]
    return values ^ (values >> np.uint32(16))


def _mix(x, y):
    r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return r ^ (r >> np.uint32(16))


# generate_state(4, np.uint64) hashes eight uint32 words cycled from the
# pool, under fixed constants
_OUT_CONSTS = _hash_consts(_INIT_B, _MULT_B, 0, 2 * _POOL_SIZE)
_OUT_ROWS = np.arange(2 * _POOL_SIZE) % _POOL_SIZE


def _seed_pool(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The SeedSequence pool of ``SeedSequence(seed, spawn_key=(0, t))``, a
    (4, 1) uint32 array, after every entropy word but t, the only one that
    depends on the slot, and the constants that hash t into it.  That pool
    is numpy's own, of ``SeedSequence(seed, spawn_key=(0,))``; numpy has made
    4w hash calls on it, for the w words before t (the seed's, zero-padded
    to the pool size, then 0): 4 to fill the pool, 12 to cross-mix it and 4
    for each word past the pool size.  Built once per run; ``_seed_words``
    finishes it per slot."""
    seed = operator.index(seed)  # numpy integers too; None would draw fresh entropy
    root = np.random.SeedSequence(seed, spawn_key=(_STREAM_SLOT,))
    words = max(_POOL_SIZE, -(-seed.bit_length() // 32)) + 1
    return root.pool[:, None], _hash_consts(_INIT_A, _MULT_A, 4 * words, _POOL_SIZE)


def _seed_words(seed_pool: tuple[np.ndarray, np.ndarray], slots: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(0, t)).generate_state(4, np.uint64)``
    for every t in ``slots`` (each in 0..2**32 - 1), as a (len(slots), 4)
    uint64 array, from the seed's ``_seed_pool``."""
    slots = np.asarray(slots)
    if slots.size and not 0 <= int(slots.min()) <= int(slots.max()) <= _M32:
        raise ValueError("slot indices must be in 0..2**32 - 1")
    pool, consts = seed_pool
    pool = _mix(pool, _hash_rows(slots.astype(np.uint32), consts))
    # eight uint32 words, paired little-endian
    state = _hash_rows(pool[_OUT_ROWS], _OUT_CONSTS).astype(np.uint64)
    return (state[0::2] | (state[1::2] << np.uint64(32))).T


def _mul64(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full 128-bit product of uint64 arrays as (high, low) words."""
    m32, s32 = np.uint64(_M32), np.uint64(32)
    a0, a1, b0, b1 = a & m32, a >> s32, b & m32, b >> s32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> s32) + (p01 & m32) + (p10 & m32)
    return a1 * b1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32), (p00 & m32) | (mid << s32)


def _add128(a, b):
    """a + b mod 2**128 on (high, low) uint64 words."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < b[1]).astype(np.uint64), lo


def _lcg_step(state, inc):
    """One PCG64 step, state * multiplier + inc mod 2**128, on (high, low)
    uint64 words."""
    hi, lo = _mul64(state[1], _PCG_MULT[1])
    hi = hi + state[1] * _PCG_MULT[0] + state[0] * _PCG_MULT[1]
    return _add128((hi, lo), inc)


def _pcg64_seeded(words: np.ndarray):
    """The (state, inc) that ``PCG64`` seeds from its four SeedSequence
    words, each a (high, low) pair of uint64 arrays: inc = seq << 1 | 1, one
    step from zero, add the initial state, one more step."""
    one = np.uint64(1)
    inc = (words[:, 2] << one | words[:, 3] >> np.uint64(63), words[:, 3] << one | one)
    # the first step from a zero state lands on inc
    state = _add128(inc, (words[:, 0], words[:, 1]))
    return _lcg_step(state, inc), inc


def _first_uniforms(words: np.ndarray) -> np.ndarray:
    """Each stream's first ``Generator.random()``: one PCG64 step, the
    XSL-RR output, then its top 53 bits scaled by 2**-53."""
    state, inc = _pcg64_seeded(words)
    hi, lo = _lcg_step(state, inc)
    x, rot = hi ^ lo, hi >> np.uint64(58)
    out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return (out >> np.uint64(11)).astype(np.float64) * 2.0**-53


def sampling_rng(seed: int) -> np.random.Generator:
    """Generator for offline sampling (empirical-policy construction)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_STREAM_BASELINE,)))


@dataclass(frozen=True)
class DiscreteChannel:
    """Finitely many channel matrices drawn i.i.d. with fixed probabilities;
    ``states`` is one (k, n_r, n_t) complex stack, built from any sequence of
    matrices."""

    states: np.ndarray = field(metadata={"json": "matrices"})
    probs: np.ndarray

    def __post_init__(self):
        states = matrix_stack(self.states, "states")
        if max(states.shape[1:]) > MAX_ANTENNAS:
            raise ValueError(f"'states' must be at most {MAX_ANTENNAS} by {MAX_ANTENNAS}")
        check_fields(self, arrays=("probs",))
        if len(self.probs) != len(states):
            raise ValueError("probs length must match number of states")
        if not np.all(self.probs >= 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(self.probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {float(self.probs.sum())!r}, expected 1")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "_cum", np.cumsum(self.probs))

    def index(self, x):
        """State indices with the configured probabilities, from unit uniforms
        x (a scalar or an array)."""
        return np.minimum(np.searchsorted(self._cum, x, side="right"), len(self.states) - 1)

    @property
    def n_r(self) -> int:
        return self.states.shape[1]

    @property
    def n_t(self) -> int:
        return self.states.shape[2]


@dataclass(frozen=True)
class ProductChannel:
    """Entries are u*v: u complex with independent standard-normal real and
    imaginary parts, v uniform on [0, v_max], all entries independent."""

    n_r: int
    n_t: int
    v_max: float

    def __post_init__(self):
        check_fields(self, finite=("v_max",), counts=("n_r", "n_t"))
        if self.n_r < 1 or self.n_t < 1:
            raise ValueError("antenna counts must be positive")
        for key, n in (("n_r", self.n_r), ("n_t", self.n_t)):
            if n > MAX_ANTENNAS:
                raise ValueError(f"{key!r} must be at most {MAX_ANTENNAS} antennas, got {n}")
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
        check_fields(self, finite=("step",))
        if not self.step > 0:
            raise ValueError("phase step must be positive")


@dataclass(frozen=True)
class MagPhaseQuantizeCsit:
    """Modulus rounds to the nearest multiple of ``mag_step`` (half away
    from zero), then the phase snaps to the nearest ``phase_step`` grid."""

    mag_step: float
    phase_step: float

    def __post_init__(self):
        check_fields(self, finite=("mag_step", "phase_step"))
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
        check_fields(self, finite=("delta",))
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")


@dataclass(frozen=True)
class TabulatedCsit:
    """Fixed observation per reference state, matched by Frobenius distance.

    Carries explicit corrupted-observation tables (the shipped error-case
    presets use this), sidestepping any rounding-convention ambiguity.
    ``states`` and ``observed`` are (k, n_r, n_t) complex stacks, built from
    any sequences of matrices.
    """

    states: np.ndarray = field(metadata={"json": "matrices"})
    observed: np.ndarray = field(metadata={"json": "matrices"})

    def __post_init__(self):
        states = matrix_stack(self.states, "states")
        observed = matrix_stack(self.observed, "observed")
        if states.shape != observed.shape:
            raise ValueError(
                f"per-state CSIT table states are {states.shape}, observed {observed.shape}"
            )
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "observed", observed)


CsitErrorModel = Union[
    ExactCsit, PhaseQuantizeCsit, MagPhaseQuantizeCsit, BoundedBallCsit, TabulatedCsit
]


def _complex(g: np.ndarray) -> np.ndarray:
    """Complex entries from normals g (..., 2, n_r, n_t): real parts, then
    imaginary parts."""
    return g[..., 0, :, :] + 1j * g[..., 1, :, :]


def _product(model: ProductChannel, g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Realizations from their normals g (..., 2, n_r, n_t) and unit uniforms
    u (..., n_r, n_t); numpy's ``uniform(0, v_max)`` is 0.0 + v_max * u."""
    return _complex(g) * (model.v_max * u)


def sample_channel(model: ChannelModel, rng: np.random.Generator) -> np.ndarray:
    """Draw one channel realization."""
    if isinstance(model, DiscreteChannel):
        return model.states[int(model.index(rng.random()))].copy()
    if isinstance(model, ProductChannel):
        g = rng.standard_normal((2, model.n_r, model.n_t))
        return _product(model, g, rng.random((model.n_r, model.n_t)))
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


def _observe(h: np.ndarray, err: CsitErrorModel, g=None, r=None) -> np.ndarray:
    """Observations of channels h (..., n_r, n_t); a bounded-ball error takes
    its normals g (..., 2, n_r, n_t) and its radii's unit uniforms r (...)."""
    if isinstance(err, ExactCsit):
        return h.copy()
    if isinstance(err, PhaseQuantizeCsit):
        return _quantize_phase(h, err.step)
    if isinstance(err, MagPhaseQuantizeCsit):
        return _quantize_phase(_quantize_magnitude(h, err.mag_step), err.phase_step)
    if isinstance(err, BoundedBallCsit):
        e = _complex(g)
        norm = np.sqrt((e.real * e.real + e.imag * e.imag).sum(axis=(-2, -1)))
        zero = ~(norm > 0.0)
        e = e * (err.delta * r / np.where(zero, 1.0, norm))[..., None, None]
        e[zero] = 0.0
        return h + e
    if isinstance(err, TabulatedCsit):
        return err.observed[nearest_index(h, err.states)]
    raise TypeError(f"unknown CSIT error model {type(err).__name__}")


def observe_csit(h, err: CsitErrorModel, rng: np.random.Generator | None = None) -> np.ndarray:
    """Corrupted transmitter-side view of a channel realization.

    Only the bounded-ball model consumes randomness; the other models are
    deterministic functions of the channel.
    """
    hm = as_matrix(h)
    if not isinstance(err, BoundedBallCsit):
        return _observe(hm, err)
    if rng is None:
        raise ValueError("bounded-ball observation needs a generator")
    return _observe(hm, err, rng.standard_normal((2,) + hm.shape), rng.random())


class ChannelPath:
    """One run's channel path H(t) and its observations H~(t), drawn by slot
    range: ``draw(start, stop)`` returns two (stop - start, n_r, n_t) stacks
    equal bit for bit to drawing each slot t with ``sample_channel`` then
    ``observe_csit`` from ``slot_rng(seed, t)``, so consecutive ranges
    concatenate to the draw of their union.  Slots are 0..2**32 - 1, as
    spawn-key words are.

    What does not depend on the slot is built once, here: numpy's SeedSequence
    pool of the seed (``_seed_pool``), a discrete channel's state
    observations and the reused Generator.  A discrete channel under a
    deterministic error model draws one uniform per slot, so its state
    indices come from the streams' first outputs.  Every other pair loads
    each slot's seeded PCG64 state into the one Generator, which only fills
    buffers in numpy's call order (the channel's normals and uniforms, then
    the ball's); the arithmetic on the filled stacks runs once per range."""

    def __init__(self, model: ChannelModel, err: CsitErrorModel, seed: int):
        self.model, self.err = model, err
        self._pool = _seed_pool(seed)
        self._ball = isinstance(err, BoundedBallCsit)
        self._states = model.states if isinstance(model, DiscreteChannel) else None
        if self._states is not None and not self._ball:
            self._observed = _observe(self._states, err)
        else:
            self._rng = np.random.Generator(np.random.PCG64(0))

    def draw(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        model, err, states, ball = self.model, self.err, self._states, self._ball
        words = _seed_words(self._pool, np.arange(start, stop))
        if states is not None and not ball:
            idx = model.index(_first_uniforms(words))
            return states[idx], self._observed[idx]

        state, inc = _pcg64_seeded(words)
        n, m = (model.n_r, model.n_t), stop - start
        g, g_err = np.empty((2, m, 2) + n)  # the channel's and the ball's normals
        u = np.empty((m,) + n if states is None else m)  # the channel's uniforms
        r = np.empty(m)  # the ball's radii
        rng = self._rng
        bits, normal, uniform = rng.bit_generator, rng.standard_normal, rng.random
        fixed = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
        limbs = zip(state[0].tolist(), state[1].tolist(), inc[0].tolist(), inc[1].tolist())
        for k, (s_hi, s_lo, i_hi, i_lo) in enumerate(limbs):
            bits.state = {**fixed, "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}}
            if states is None:
                normal(out=g[k])
                uniform(out=u[k])
            else:
                u[k] = uniform()
            if ball:
                normal(out=g_err[k])
                r[k] = uniform()
        h = _product(model, g, u) if states is None else states[model.index(u)]
        return h, _observe(h, err, g_err, r)


@dataclass(frozen=True)
class ChannelBounds:
    """Norm cap b on the channel and radius delta on the observation error.

    Either is None where the model has no hard cap: b for a channel with
    unbounded support, delta for a deterministic quantizer on one.
    """

    b: Optional[float]
    delta: Optional[float]

    @property
    def unbounded_support(self) -> bool:
        return self.b is None


def channel_bounds(model: ChannelModel, err: CsitErrorModel) -> ChannelBounds:
    """Constants consumed by the performance bounds.

    Discrete models: b is the exact max state norm, and delta is evaluated
    exactly for deterministic error models.  Continuous models have no norm
    cap, so b is None, and so is delta for a deterministic error model, whose
    error grows with the channel.  Exact and bounded-ball observations have
    their exact radius (0 and the configured delta) on any model.
    """
    if isinstance(model, DiscreteChannel):
        b = max(frobenius(s) for s in model.states)
    elif isinstance(model, ProductChannel):
        b = None
    else:
        raise TypeError(f"unknown channel model {type(model).__name__}")

    if isinstance(err, ExactCsit):
        delta = 0.0
    elif isinstance(err, BoundedBallCsit):
        delta = err.delta
    elif isinstance(err, (PhaseQuantizeCsit, MagPhaseQuantizeCsit, TabulatedCsit)):
        if b is None:
            delta = None
        else:
            delta = max(frobenius(observe_csit(s, err) - s) for s in model.states)
    else:
        raise TypeError(f"unknown CSIT error model {type(err).__name__}")
    return ChannelBounds(b=b, delta=delta)


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
