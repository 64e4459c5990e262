"""Channel sampling, observation corruption, presets and norm constants."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyncov import (
    BoundedBallCsit,
    ChannelPath,
    DiscreteChannel,
    ExactCsit,
    MagPhaseQuantizeCsit,
    PhaseQuantizeCsit,
    ProductChannel,
    channel_bounds,
    observe_csit,
    paper_continuous,
    paper_error_case,
    paper_two_state,
    sample_channel,
    slot_rng,
)
from dyncov.channel import (
    PAPER_CASE1_H1,
    PAPER_CASE1_H2,
    PAPER_H1,
    PAPER_H2,
    TabulatedCsit,
    _first_uniforms,
    _seed_pool,
    _seed_words,
)
from dyncov.linalg import MAX_ANTENNAS, frobenius

# elementwise oracles, computed from the printed magnitude/phase tables
H1_FROBENIUS = 4.692305883038744
H2_FROBENIUS = 2.135525244524166
DELTA_CASE1 = 1.0994666903842907
DELTA_CASE2 = 1.8774670718099549


class TestSampling:
    def test_discrete_frequencies(self):
        model = paper_two_state()
        rng = np.random.default_rng(42)
        hits = sum(
            1
            for _ in range(10_000)
            if np.array_equal(sample_channel(model, rng), PAPER_H1)
        )
        # binomial 3-sigma band around 0.5
        assert 0.48 <= hits / 10_000 <= 0.52

    def test_same_seed_same_sequence(self):
        model = paper_two_state()
        seq1 = [sample_channel(model, slot_rng(99, t)) for t in range(50)]
        seq2 = [sample_channel(model, slot_rng(99, t)) for t in range(50)]
        for a, b in zip(seq1, seq2):
            assert np.array_equal(a, b)

    def test_continuous_mean_is_small(self):
        model = paper_continuous()
        rng = np.random.default_rng(7)
        total = np.zeros((2, 2), dtype=complex)
        n = 100_000
        for _ in range(n):
            total += sample_channel(model, rng)
        assert np.max(np.abs(total / n)) < 0.01

    def test_continuous_entry_magnitude_cap_factor(self):
        # |entry| = |u| * v with v <= v_max: no hard cap, but v bounded
        model = ProductChannel(n_r=1, n_t=1, v_max=0.5)
        rng = np.random.default_rng(11)
        draws = np.array([sample_channel(model, rng)[0, 0] for _ in range(200)])
        assert np.all(np.isfinite(draws))

    def test_discrete_validation(self):
        with pytest.raises(ValueError, match="sum"):
            DiscreteChannel(states=(PAPER_H1, PAPER_H2), probs=np.array([0.5, 0.4]))
        with pytest.raises(ValueError, match="'probs' must be finite"):
            DiscreteChannel(states=(PAPER_H1, PAPER_H2), probs=np.array([np.nan, 1.0]))
        with pytest.raises(ValueError, match="nonnegative"):
            DiscreteChannel(states=(PAPER_H1, PAPER_H2), probs=np.array([-0.5, 1.5]))
        with pytest.raises(ValueError, match="dimensions"):
            DiscreteChannel(
                states=(PAPER_H1, np.zeros((3, 2))), probs=np.array([0.5, 0.5])
            )


class TestObservation:
    def test_exact_is_identity(self):
        rng = np.random.default_rng(0)
        h = sample_channel(paper_continuous(), rng)
        assert np.array_equal(observe_csit(h, ExactCsit(), rng), h)

    def test_phase_quantize_reproduces_case1(self):
        err = PhaseQuantizeCsit(step=np.pi / 4)
        assert frobenius(observe_csit(PAPER_H1, err) - PAPER_CASE1_H1) <= 1e-12
        assert frobenius(observe_csit(PAPER_H2, err) - PAPER_CASE1_H2) <= 1e-12

    def test_phase_quantize_preserves_moduli(self):
        rng = np.random.default_rng(21)
        err = PhaseQuantizeCsit(step=np.pi / 4)
        for _ in range(200):
            h = sample_channel(paper_continuous(), rng)
            h_obs = observe_csit(h, err, rng)
            assert np.max(np.abs(np.abs(h_obs) - np.abs(h))) <= 1e-12

    def test_mag_phase_quantize_rounds_half_away(self):
        err = MagPhaseQuantizeCsit(mag_step=0.1, phase_step=np.pi / 2)
        h = np.array([[0.25 + 0.0j]])  # modulus midpoint 0.25 -> 0.3
        assert abs(observe_csit(h, err)[0, 0]) == pytest.approx(0.3, abs=1e-12)

    def test_bounded_ball_radius(self):
        rng = np.random.default_rng(5)
        err = BoundedBallCsit(delta=0.3)
        for _ in range(300):
            h = sample_channel(paper_continuous(), rng)
            h_obs = observe_csit(h, err, rng)
            assert frobenius(h_obs - h) <= 0.3 + 1e-12

    def test_tabulated_matches_state(self):
        err = paper_error_case("case2")
        assert np.array_equal(
            observe_csit(PAPER_H1, err), err.observed[0]
        )
        assert np.array_equal(observe_csit(PAPER_H2, err), err.observed[1])

    def test_full_trace_is_pure_function_of_seed(self):
        model = paper_two_state()
        err = BoundedBallCsit(delta=0.2)

        def trace(seed):
            out = []
            for t in range(30):
                rng = slot_rng(seed, t)
                h = sample_channel(model, rng)
                out.append((h, observe_csit(h, err, rng)))
            return out

        for (h1, o1), (h2, o2) in zip(trace(123), trace(123)):
            assert np.array_equal(h1, h2) and np.array_equal(o1, o2)


def loop_path(model, err, seed, horizon):
    """The reference draw: slot t samples, then observes, from slot_rng(seed, t)."""
    h, h_obs = [], []
    for t in range(horizon):
        rng = slot_rng(seed, t)
        h.append(sample_channel(model, rng))
        h_obs.append(observe_csit(h[-1], err, rng))
    return np.stack(h), np.stack(h_obs)


def _matrices(seed, count, n_r, n_t):
    rng = np.random.default_rng(seed)
    return tuple(
        rng.standard_normal((n_r, n_t)) + 1j * rng.standard_normal((n_r, n_t))
        for _ in range(count)
    )


_TWO_BY_THREE = _matrices(1, 3, 2, 3)
_THREE_BY_ONE = _matrices(2, 2, 3, 1)
# (id, channel, states a tabulated observation model is keyed on)
DRAW_CHANNELS = [
    ("two-state", paper_two_state(), (PAPER_H1, PAPER_H2)),
    (
        "three-state-2x3",
        DiscreteChannel(states=_TWO_BY_THREE, probs=np.array([0.2, 0.5, 0.3])),
        _TWO_BY_THREE,
    ),
    (
        "two-state-3x1",
        DiscreteChannel(states=_THREE_BY_ONE, probs=np.array([0.9, 0.1])),
        _THREE_BY_ONE,
    ),
    ("continuous-2x2", paper_continuous(), _matrices(3, 4, 2, 2)),
    ("continuous-4x4", ProductChannel(n_r=4, n_t=4, v_max=1.0), _matrices(4, 3, 4, 4)),
    ("continuous-2x1", ProductChannel(n_r=2, n_t=1, v_max=0.7), _matrices(5, 2, 2, 1)),
    # 9 and 64 entries: the ball norm's sum has a pairwise remainder
    ("continuous-3x3", ProductChannel(n_r=3, n_t=3, v_max=0.4), _matrices(6, 2, 3, 3)),
    ("continuous-8x8", ProductChannel(n_r=8, n_t=8, v_max=0.2), _matrices(7, 2, 8, 8)),
]
DRAW_CSIT = {
    "exact": lambda states: ExactCsit(),
    "phase": lambda states: PhaseQuantizeCsit(step=np.pi / 4),
    "mag-phase": lambda states: MagPhaseQuantizeCsit(mag_step=0.1, phase_step=np.pi / 2),
    "ball": lambda states: BoundedBallCsit(delta=0.3),
    "ball-zero": lambda states: BoundedBallCsit(delta=0.0),
    "tabulated": lambda states: TabulatedCsit(
        states=states, observed=tuple(s + 0.1j for s in states)
    ),
}


class TestDrawPath:
    # past 2**128 the seed has entropy words beyond numpy's four-word pool
    @given(seed=st.integers(0, 2**200), t=st.integers(0, 2**20))
    def test_stream_words_match_numpy(self, seed, t):
        # a numpy whose SeedSequence or PCG64 moved fails here, not in a trace
        words = _seed_words(_seed_pool(seed), np.array([t]))
        expected = np.random.SeedSequence(seed, spawn_key=(0, t)).generate_state(4, np.uint64)
        assert words.dtype == np.uint64
        assert words[0].tobytes() == expected.tobytes()
        assert _first_uniforms(words)[0] == slot_rng(seed, t).random()

    @pytest.mark.parametrize(
        "seed", [7, 2**32 - 1, 2**32, 2**32 + 5, 2**70 + 3, 2**96, 2**128 - 1, 2**128, 2**160 + 3]
    )
    @pytest.mark.parametrize("csit", list(DRAW_CSIT))
    @pytest.mark.parametrize(
        "name, model, states", DRAW_CHANNELS, ids=[c[0] for c in DRAW_CHANNELS]
    )
    def test_equals_slot_rng_loop(self, name, model, states, csit, seed):
        err = DRAW_CSIT[csit](states)
        for horizon in (200, 1):
            h, h_obs = ChannelPath(model, err, seed).draw(0, horizon)
            ref_h, ref_obs = loop_path(model, err, seed, horizon)
            assert h.dtype == h_obs.dtype == np.complex128
            assert h.shape == h_obs.shape == (horizon, model.n_r, model.n_t)
            assert h.tobytes() == ref_h.tobytes()
            assert h_obs.tobytes() == ref_obs.tobytes()

    @pytest.mark.parametrize("n_r, n_t", [(2, 2), (3, 3), (8, 8), (2, 1)])
    def test_one_slot_draw_is_numpy_samplers(self, n_r, n_t):
        # the per-slot draw written out with numpy's samplers is the oracle of
        # the transforms that the one-slot and the stacked draw share
        model, err, shape = ProductChannel(n_r, n_t, v_max=0.7), BoundedBallCsit(0.3), (n_r, n_t)
        for t in range(40):
            rng, ref = slot_rng(3, t), slot_rng(3, t)
            h = sample_channel(model, rng)
            u = ref.standard_normal(shape) + 1j * ref.standard_normal(shape)
            ref_h = u * ref.uniform(0.0, 0.7, size=shape)
            e = ref.standard_normal(shape) + 1j * ref.standard_normal(shape)
            e *= 0.3 * ref.uniform() / frobenius(e)
            assert h.tobytes() == ref_h.tobytes()
            assert observe_csit(h, err, rng).tobytes() == (ref_h + e).tobytes()

    def test_seed_types_follow_slot_rng(self):
        # numpy integer seeds draw as their value; negative and fractional
        # seeds fail as SeedSequence fails on them, and no seed is fresh entropy
        for model in (paper_two_state(), paper_continuous()):
            a = ChannelPath(model, ExactCsit(), np.uint64(2**40 + 1)).draw(0, 50)
            b = loop_path(model, ExactCsit(), 2**40 + 1, 50)
            assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()
        with pytest.raises(ValueError):
            ChannelPath(paper_two_state(), ExactCsit(), -1)
        for seed in (1.5, None, [1, 2]):
            with pytest.raises(TypeError):
                ChannelPath(paper_two_state(), ExactCsit(), seed)

    @pytest.mark.parametrize("start, stop", [(-2, -1), (-1, 3), (2**32 - 1, 2**32 + 1)])
    def test_slots_outside_the_stream_keys_fail(self, start, stop):
        # spawn keys are uint32 words: a negative slot has no stream of its
        # own, as slot_rng(seed, -2) has none, and must not wrap to 2**32 - 2
        for model in (paper_two_state(), paper_continuous()):
            with pytest.raises(ValueError, match="slot indices"):
                ChannelPath(model, ExactCsit(), 5).draw(start, stop)
        h = ChannelPath(paper_continuous(), ExactCsit(), 5).draw(2**32 - 1, 2**32)[0]
        rng = slot_rng(5, 2**32 - 1)  # the last slot that has a stream
        assert h[0].tobytes() == sample_channel(paper_continuous(), rng).tobytes()


class TestChannelBounds:
    def test_preset_exact(self):
        cb = channel_bounds(paper_two_state(), ExactCsit())
        assert cb.delta == 0.0
        assert cb.b == pytest.approx(H1_FROBENIUS, abs=1e-12)
        assert not cb.unbounded_support

    def test_exact_error_gives_zero_delta_anywhere(self):
        assert channel_bounds(paper_continuous(), ExactCsit()).delta == 0.0

    def test_case1_delta(self):
        cb = channel_bounds(paper_two_state(), paper_error_case("case1"))
        assert cb.delta == pytest.approx(DELTA_CASE1, abs=1e-12)

    def test_case2_delta(self):
        cb = channel_bounds(paper_two_state(), paper_error_case("case2"))
        assert cb.delta == pytest.approx(DELTA_CASE2, abs=1e-12)

    def test_bounded_ball_uses_configured_radius(self):
        cb = channel_bounds(paper_two_state(), BoundedBallCsit(delta=0.3))
        assert cb.delta == 0.3

    def test_continuous_flags_unbounded_support(self):
        # no norm cap, and no radius for a quantizer whose error grows with H
        cb = channel_bounds(paper_continuous(), ExactCsit())
        assert cb.unbounded_support
        assert cb.b is None
        assert cb.delta == 0.0
        ball = channel_bounds(paper_continuous(), BoundedBallCsit(delta=0.3))
        assert ball.b is None and ball.delta == 0.3
        for err in (
            PhaseQuantizeCsit(step=np.pi / 4),
            MagPhaseQuantizeCsit(mag_step=0.1, phase_step=np.pi / 2),
        ):
            assert channel_bounds(paper_continuous(), err).delta is None

    def test_observation_within_delta_on_all_deterministic_models(self):
        model = paper_two_state()
        for err in (
            PhaseQuantizeCsit(step=np.pi / 4),
            MagPhaseQuantizeCsit(mag_step=0.1, phase_step=np.pi / 2),
            paper_error_case("case1"),
            paper_error_case("case2"),
        ):
            delta = channel_bounds(model, err).delta
            for s in model.states:
                assert frobenius(observe_csit(s, err) - s) <= delta + 1e-9


class TestAntennaCounts:
    """A count past MAX_ANTENNAS fails at construction, naming its field, not
    in numpy's allocation of the run's first block."""

    @pytest.mark.parametrize("n", [MAX_ANTENNAS + 1, 2**40])
    @pytest.mark.parametrize("key", ["n_r", "n_t"])
    def test_product_channel_bounds_each_count(self, key, n):
        with pytest.raises(ValueError, match=f"^'{key}' must be at most 8 antennas, got {n}$"):
            ProductChannel(**{"n_r": 2, "n_t": 2, key: n}, v_max=1.0)
        assert getattr(ProductChannel(**{"n_r": 2, "n_t": 2, key: 8}, v_max=1.0), key) == 8

    @pytest.mark.parametrize("shape", [(9, 2), (2, 9)])
    def test_discrete_channel_bounds_each_count(self, shape):
        with pytest.raises(ValueError, match="^'states' must be at most 8 by 8$"):
            DiscreteChannel(states=[np.ones(shape)], probs=[1.0])
        assert DiscreteChannel(states=[np.ones((8, 8))], probs=[1.0]).n_t == 8


class TestPresets:
    def test_two_state_preset_shape(self):
        model = paper_two_state()
        assert model.n_r == model.n_t == 2
        assert np.allclose(model.probs, [0.5, 0.5])

    def test_case_presets_are_tabulated(self):
        assert isinstance(paper_error_case("case1"), TabulatedCsit)
        assert isinstance(paper_error_case("exact"), ExactCsit)
        with pytest.raises(ValueError, match="unknown error preset"):
            paper_error_case("case3")

    def test_case2_zeroed_entry(self):
        # the printed small-magnitude entry is stored as exactly zero
        err = paper_error_case("case2")
        assert err.observed[1][1, 0] == 0.0
