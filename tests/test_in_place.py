"""The decide recursions compute in place: the ogd step, one call per
block, writes each Q(t) into the row it commits, with its temporaries and
LAPACK's eigen-pair in one ``Workspace`` per call, and the one projection
kernel overwrites its argument, so no public caller may lose its input, no
output row may alias what its slot reads and no workspace array a committed
row.  What a workspace held never reaches a result.  The stacked water-filling
thresholds are the 1-D ones row by row, and the lean queue step is
``waterfill_penalized``'s loading."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyncov import (
    ChannelPath,
    DiscreteChannel,
    ExactCsit,
    ExperimentConfig,
    OgdSpec,
    ProductChannel,
    capacity_gradient,
    dpp_step,
    ergodic_constant_covariance,
    ogd_step,
    paper_two_state,
    psd_cap_project,
)
from dyncov import controllers, harness
from dyncov.linalg import Workspace, _capacity_gradient, _ct, _gram, _lapack_guard, _real_diagonal
from dyncov.solvers import (
    _SIGMA_FLOOR,
    _cap_project,
    _cap_threshold,
    _waterfill_loading,
    _waterfill_thresholds,
)
from dyncov.validate import decide_blocks, decide_reference, psd_cap_project_stack, random_complex

import decide_oracle as oracle


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


def fill_nan(work):
    """Fill every array of a workspace with NaN, which no result may read."""
    for a in (work.sq, work.sol, *work.eig, work.row):
        a.fill(np.nan)
    return work


def workspace_arrays(work):
    return [work.sq, work.sol, *work.eig, work.row, work.theta]


def record_workspaces(mp, made, nan=False):
    """Append every workspace ``ogd_step`` builds to ``made``, NaN-filled if ``nan``."""

    def build(n):
        made.append(fill_nan(Workspace(n)) if nan else Workspace(n))
        return made[-1]

    mp.setattr(controllers, "Workspace", build)


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
        out = np.full((1, n, n), np.nan, dtype=complex)  # every entry must be written
        out_steps = np.full((1, n, n), np.nan, dtype=complex)
        made = []
        with pytest.MonkeyPatch.context() as mp:
            record_workspaces(mp, made, nan=True)
            got = ogd_step([q_lag], [g_lag], step, p_bar, out)
            # a sequence of one step per slot, and a new output
            ogd_step([q_lag], [g_lag], [step], p_bar, out_steps)
            fresh = ogd_step([q_lag], [g_lag], step, p_bar)
        assert got is out and len(made) == 3
        assert out[0].tobytes() == expect.tobytes() == fresh[0].tobytes() == out_steps[0].tobytes()
        assert (q_lag.tobytes(), g_lag.tobytes()) == before
        # and, within rounding, the step through no dyncov kernel
        assert np.abs(out[0] - oracle.ogd_step(q_lag, h, step, p_bar)).max() <= oracle.q_atol(p_bar)


# (n, step, the branches its 33-37 projections take): a one-row channel's
# rank-one Gram lets modes drop out.  A scalar composes only above twice the
# cap, which these steps never reach.
DECIDE_CASES = [
    (1, 0.05, {"shift"}),
    (1, None, {"shift"}),
    (2, 0.05, {"shift", "compose"}),
    (2, None, {"shift", "compose"}),
    (3, 0.05, {"shift", "compose"}),
    (3, None, {"shift", "compose"}),
    (8, 0.05, {"shift", "compose"}),
    (8, None, {"compose"}),
]


class TestDecideWorkspace:
    @pytest.mark.parametrize("nan_work", [False, True], ids=["workspace", "nan-workspace"])
    @pytest.mark.parametrize("t_delay", [1, 3])
    @pytest.mark.parametrize("n, gamma, branches", DECIDE_CASES)
    def test_folded_decide_equals_reference(
        self, monkeypatch, n, gamma, branches, t_delay, nan_work
    ):
        cfg = ExperimentConfig(
            channel=ProductChannel(n_r=1, n_t=n, v_max=1.0), csit_error=ExactCsit(),
            controller=OgdSpec(gamma=gamma, t_delay=t_delay), p=3.0, p_bar=2.0,
            horizon=40, seed=3,
        )
        h, h_obs = ChannelPath(cfg.channel, cfg.csit_error, cfg.seed).draw(0, cfg.horizon)
        carry, qs, taken, works = None, [], [], []
        real_step = harness.ogd_step

        def checked_block(q_lag, g_lag, step, p_bar, out):
            m = len(out)
            assert len(q_lag) == len(g_lag) == m
            for k in range(m):  # a committed row aliases nothing its slot reads
                reads = [q_lag[k], g_lag[k]] + ([] if carry is None else [*carry[0], *carry[1]])
                assert not any(np.shares_memory(out[k], r) for r in reads)
            steps = [step] * m if np.ndim(step) == 0 else list(step)
            rows = None
            if nan_work:
                # one-row blocks, each from a NaN-filled workspace: what the
                # slot before left must not matter, nor what a new workspace holds
                first = out.copy()
                with pytest.MonkeyPatch.context() as mp:
                    record_workspaces(mp, made := [], nan=True)
                    for k in range(m):
                        real_step(q_lag[k:k + 1], g_lag[k:k + 1], steps[k], p_bar, out[k:k + 1])
                assert len(made) == m
                rows, out[:] = out.copy(), first
            before = len(works)
            result = real_step(q_lag, g_lag, step, p_bar, out)
            assert result is out and len(works) == before + 1  # one workspace per block
            if rows is not None:
                assert out.tobytes() == rows.tobytes()
            for q, g, s in zip(q_lag, g_lag, steps):  # every row read is final once the block is
                taken.append(branch(q + s * _capacity_gradient(g, q), p_bar))
            return result

        monkeypatch.setattr(harness, "ogd_step", checked_block)
        record_workspaces(monkeypatch, works)
        for start in range(0, cfg.horizon, 7):  # 6 blocks: slots read the carry rows
            block = slice(start, start + 7)
            q, _, carry = harness._decide(cfg, start, h[block], h_obs[block], carry)
            qs.append(q)
            for work in works:  # nor does any workspace alias a committed row
                arrays = workspace_arrays(work)
                rows = (q, *carry[0], *carry[1])
                assert not any(np.shares_memory(a, m) for a in arrays for m in rows)
        assert len(works) == len(qs)
        assert len(taken) == cfg.horizon - t_delay
        assert set(taken) == branches
        assert np.concatenate(qs).tobytes() == decide_reference(cfg, h_obs)[0].tobytes()

    @pytest.mark.parametrize("gamma", [0.05, None])
    def test_blocks_before_the_first_observation(self, gamma):
        # a delay past a whole block: that block's call has no slot, q stays zero
        cfg = ExperimentConfig(
            channel=ProductChannel(n_r=2, n_t=3, v_max=1.0), csit_error=ExactCsit(),
            controller=OgdSpec(gamma=gamma, t_delay=9), p=3.0, p_bar=2.0, horizon=30, seed=5,
        )
        h, h_obs = ChannelPath(cfg.channel, cfg.csit_error, cfg.seed).draw(0, cfg.horizon)
        q, _ = decide_blocks(cfg, h, h_obs, 4)
        assert not q[:9].any() and q[9:].any(axis=(1, 2)).all()
        assert q.tobytes() == decide_reference(cfg, h_obs)[0].tobytes()
        assert ogd_step([], [], 0.1, 1.0, np.empty((0, 3, 3), dtype=complex)).shape == (0, 3, 3)

    def test_workspace_arrays_are_apart(self):
        work = Workspace(3)
        assert np.shares_memory(work.theta, work.row)
        apart = workspace_arrays(work)[:-1]
        for i, a in enumerate(apart):
            assert not any(np.shares_memory(a, b) for b in apart[i + 1:])


class TestCapProjectWorkspace:
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_same_bytes_with_and_without_a_workspace(self, n):
        rng = np.random.default_rng(40 + n)
        work = fill_nan(Workspace(n))  # reused across calls, as a block reuses it
        seen = set()
        for trial in range(60):
            lam = rng.uniform(-1.0, 2.0, n) * 10.0 ** rng.uniform(-2, 2)
            if trial % 3 == 0:
                lam[1:] = 0.0  # a rank-one input: modes drop
            x = psd_with_spectrum(rng, lam)
            for cap in (0.1, 1.0, 5.0):
                seen.add(branch(x, cap))
                expect = _cap_project(x.copy(), cap)
                got = x.copy()
                with _lapack_guard():
                    result = _cap_project(got, cap, work)
                assert result is got
                assert got.tobytes() == expect.tobytes()
                assert not any(np.shares_memory(got, a) for a in workspace_arrays(work))
        assert seen == {"shift", "compose"}

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_real_diagonal_is_a_view_of_the_diagonal(self, n):
        rng = np.random.default_rng(50 + n)
        stack = random_complex(rng, (5, n, n))
        diag = _real_diagonal(stack)
        assert diag.shape == (5, n) and np.shares_memory(diag, stack)
        assert np.array_equal(diag, np.diagonal(stack, axis1=1, axis2=2).real)
        assert _real_diagonal(stack[2]).tobytes() == diag[2].tobytes()
        before = stack.copy()
        diag -= 1.0
        changed = stack != before
        assert np.array_equal(changed, np.broadcast_to(np.eye(n, dtype=bool), stack.shape))
        assert np.array_equal(stack.imag, before.imag)


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
