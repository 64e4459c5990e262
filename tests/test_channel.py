"""Channel sampling, observation corruption, presets and norm constants."""

import numpy as np
import pytest

from dyncov import (
    BoundedBallCsit,
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
)
from dyncov.linalg import frobenius

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
        with pytest.raises(ValueError, match="nonnegative"):
            DiscreteChannel(states=(PAPER_H1, PAPER_H2), probs=np.array([np.nan, 1.0]))
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
