"""The decide recursions compute in place: the ogd step writes Q(t) into
the row it commits and the one projection kernel overwrites its argument,
so no public caller may lose its input and no output row may alias what a
step reads.  The stacked water-filling thresholds are the 1-D ones row by
row, and the lean queue step is ``waterfill_penalized``'s loading."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyncov import (
    DiscreteChannel,
    ExperimentConfig,
    OgdSpec,
    capacity_gradient,
    dpp_step,
    draw_path,
    ergodic_constant_covariance,
    ogd_step,
    paper_error_case,
    paper_two_state,
    psd_cap_project,
)
from dyncov import harness
from dyncov.linalg import _ct, _gram, _lapack_guard
from dyncov.solvers import (
    _SIGMA_FLOOR,
    _cap_threshold,
    _waterfill_loading,
    _waterfill_thresholds,
)
from dyncov.validate import decide_reference, psd_cap_project_stack, random_complex


def psd_with_spectrum(rng, lam):
    """U diag(lam) U^H for a random unitary U, exactly Hermitian."""
    u = np.linalg.qr(random_complex(rng, (len(lam), len(lam))))[0]
    q = u @ (np.asarray(lam)[:, None] * _ct(u))
    return 0.5 * (q + _ct(q))


def branch(x, cap):
    """Which way ``_cap_project`` goes on x: the diagonal shift where every
    mode keeps a positive loading and tau <= cap, else the compose."""
    theta, tau = _cap_threshold(np.linalg.eigvalsh(x)[::-1].tolist(), 0.0, cap)
    return "shift" if theta[-1] > 0.0 and tau <= cap else "compose"


def step_case(seed, n, n_r, rank, kind, p_bar):
    """(q_lag, g_lag, step) of an ogd step on a Gram of rank at most ``rank``:
    a full-rank q_lag on the cap with a small step ("shift"), or a zero
    q_lag with a step that takes the trace to ten times the cap, so the
    Gram's null modes drop out ("compose")."""
    rng = np.random.default_rng(seed)
    h = random_complex(rng, (n_r, rank)) @ random_complex(rng, (rank, n))
    g = _gram(h)
    if kind == "shift":
        lam = rng.uniform(0.5, 1.5, n)
        q = psd_with_spectrum(rng, p_bar * lam / lam.sum())
        step = 1e-3 / (1.0 + np.linalg.norm(g))
    else:
        q = np.zeros((n, n), dtype=complex)
        step = 10.0 * p_bar / max(np.trace(g).real, 1e-300)
    return q, g, h, step


class TestOgdStepInPlace:
    @given(
        n=st.integers(1, 8),
        n_r=st.integers(1, 8),
        rank=st.integers(0, 8),
        kind=st.sampled_from(["shift", "compose"]),
        p_bar=st.sampled_from([0.5, 2.0, 7.0]),
        seed=st.integers(0, 2**16),
    )
    def test_equals_the_public_projection_of_the_public_gradient(
        self, n, n_r, rank, kind, p_bar, seed
    ):
        rank = min(rank, n, n_r)
        q_lag, g_lag, h, step = step_case(seed, n, n_r, rank, kind, p_bar)
        x = q_lag + step * capacity_gradient(h, q_lag)
        if kind == "shift" or rank < n:  # a full-rank Gram at q = 0 may keep every mode
            assert branch(x, p_bar) == kind
        expect = psd_cap_project(x, p_bar)
        before = q_lag.tobytes(), g_lag.tobytes()
        out = np.full((n, n), np.nan, dtype=complex)  # every entry must be written
        work = tuple(np.full((2, n, n), np.nan, dtype=complex))
        with _lapack_guard():
            got = ogd_step(q_lag, g_lag, step, p_bar, out, work)
            fresh = ogd_step(q_lag, g_lag, step, p_bar)
        assert got is out
        assert out.tobytes() == expect.tobytes() == fresh.tobytes()
        assert (q_lag.tobytes(), g_lag.tobytes()) == before

    @pytest.mark.parametrize("t_delay", [1, 3])
    def test_out_never_aliases_what_the_step_reads(self, monkeypatch, t_delay):
        cfg = ExperimentConfig(
            channel=paper_two_state(), csit_error=paper_error_case("case1"),
            controller=OgdSpec(gamma=0.05, t_delay=t_delay), p=3.0, p_bar=2.0,
            horizon=40, seed=3,
        )
        h, h_obs = draw_path(cfg.channel, cfg.csit_error, cfg.seed, cfg.horizon)
        carry, qs, calls = None, [], []
        real_step = harness.ogd_step

        def checked_step(q_lag, g_lag, step, p_bar, out, work):
            reads = [q_lag, g_lag, *work] + ([] if carry is None else [carry])
            assert not any(np.shares_memory(out, r) for r in reads)
            assert not np.shares_memory(*work)
            calls.append(out)
            return real_step(q_lag, g_lag, step, p_bar, out, work)

        monkeypatch.setattr(harness, "ogd_step", checked_step)
        for start in range(0, cfg.horizon, 7):  # 6 blocks: slots read the carry rows
            block = slice(start, start + 7)
            q, _, carry = harness._decide(cfg, start, h[block], h_obs[block], carry)
            qs.append(q)
        assert len(calls) == cfg.horizon - t_delay
        assert np.concatenate(qs).tobytes() == decide_reference(cfg, h_obs)[0].tobytes()


class TestPublicCallersKeepTheirInput:
    @pytest.mark.parametrize("kind", ["shift", "compose"])
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_psd_cap_project(self, n, kind):
        rng = np.random.default_rng(20 + n)
        if kind == "shift":  # every mode kept: tr X above the cap by a little
            x = psd_with_spectrum(rng, rng.uniform(1.0, 2.0, n))
            cap = 0.99 * np.trace(x).real
        else:  # a rank-one matrix far above the cap drops the other modes
            x = psd_with_spectrum(rng, [5.0] + [0.0] * (n - 1))
            cap = 1.0
        if n > 1 or kind == "shift":
            assert branch(x, cap) == kind
        # an exactly Hermitian input is the array require_hermitian hands on
        strided = np.zeros((n, 2 * n), dtype=complex)
        strided[:, ::2] = x
        for given_x in (x, np.asfortranarray(x), strided[:, ::2], x.real.copy()):
            before = given_x.tobytes()
            q = psd_cap_project(given_x, cap)
            assert given_x.tobytes() == before
            assert not np.shares_memory(q, given_x)
            # every layout projects as its C-contiguous complex copy, near the oracle
            same = np.ascontiguousarray(given_x, dtype=complex)
            assert q.tobytes() == psd_cap_project(same, cap).tobytes()
            assert np.allclose(q, psd_cap_project_stack(same[None], cap)[0], atol=1e-12)

    @pytest.mark.parametrize("zero", [False, True], ids=["channel", "zero-channel"])
    def test_ergodic_constant_covariance(self, zero):
        # a zero channel has no curvature (L = 0): the iteration projects Y
        # itself, which on its first pass is also Q
        states = np.zeros((2, 2, 2), dtype=complex) if zero else paper_two_state().states
        model = DiscreteChannel(states=states, probs=[0.25, 0.75])
        before = model.states.tobytes(), model.probs.tobytes()
        result = ergodic_constant_covariance(model, 2.0)
        assert (model.states.tobytes(), model.probs.tobytes()) == before
        assert result.converged
        if zero:
            assert result.iterations == 1
            assert not result.q.any()


def spectra(rng, n):
    """Descending spectra (m, n): generic, with modes at and below the floor,
    and all zero (the Gram of a zero observation)."""
    generic = np.sort(rng.exponential(1.0, (6, n)), axis=1)[:, ::-1]
    low = generic.copy()
    low[0, n // 2:] = _SIGMA_FLOOR  # at the floor: no power
    low[1, n // 2:] = np.nextafter(_SIGMA_FLOOR, 1.0)  # just above it
    low[2, -1] = -1e-16  # a rounding-negative eigenvalue
    low[3, 1:] = 0.0
    low[4, :] = 0.0
    low[5, :] = [-0.0] * n
    return np.concatenate([generic, low])


class TestStackedThresholds:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_rows_equal_the_one_dimensional_call(self, n):
        rng = np.random.default_rng(70 + n)
        for sigma in (spectra(rng, n), np.linalg.eigvalsh(_gram(np.zeros((4, 3, n))))[..., ::-1]):
            stacked = _waterfill_thresholds(sigma)
            assert len(stacked) == len(sigma)
            for row, one in zip(stacked, sigma):
                expect = _waterfill_thresholds(one)
                assert np.array(row).tobytes() == np.array(expect).tobytes()

    def test_no_warning_outside_the_guard(self):
        sigma = spectra(np.random.default_rng(79), 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="warn"):
                _waterfill_thresholds(sigma)


class TestLeanQueueStep:
    @pytest.mark.parametrize("n", [1, 2, 7, 8])
    def test_loading_is_waterfill_loading_without_its_multiplier(self, n):
        rng = np.random.default_rng(80 + n)
        sigma = spectra(rng, n)
        for a in _waterfill_thresholds(sigma):
            for z in (0.0, 1e-3, 5.0, 1e4):
                theta, _ = dpp_step(z, a, n, 100.0, 3.0, 2.0)
                expect = _waterfill_loading(a, n, z / 100.0, 3.0)[0]
                assert len(theta) == n
                assert np.array(theta).tobytes() == np.array(expect).tobytes()
