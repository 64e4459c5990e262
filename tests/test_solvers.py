"""Exact solvers against hand-solved cases, grid searches, random feasible
points, and their KKT optimality conditions."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dyncov import (
    DiscreteChannel,
    capacity,
    capacity_gradient,
    cdi_optimal_policy,
    empirical_policy,
    ergodic_constant_covariance,
    frobenius,
    paper_two_state,
    psd_cap_project,
    solvers,
    waterfill_penalized,
)
from dyncov.linalg import trace_real
from dyncov.solvers import _cap_plan, _cap_threshold, _sum
from dyncov.validate import (
    capacity_stack,
    psd_cap_project_stack,
    random_complex,
    random_hermitian,
    random_hermitian_stack,
)

# property-test inputs: dimension 1..8, magnitudes over twelve decades
SIZES = st.integers(1, 8)
SCALES = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
SEEDS = st.integers(0, 2**32 - 1)
CAP_RATIOS = st.floats(0.01, 100.0)


def continuous_model(seed, count=100):
    """Uniform empirical model over samples of the continuous preset, as
    ``dyncov baseline`` draws them for that sampling seed."""
    from dyncov import paper_continuous, sample_channel
    from dyncov.channel import sampling_rng

    rng = sampling_rng(seed)
    samples = tuple(sample_channel(paper_continuous(), rng) for _ in range(count))
    return DiscreteChannel(states=samples, probs=np.full(count, 1.0 / count))


def fixed_point_residual(model, q, p_bar, step=0.05):
    """||P(Q + step grad f(Q)) - Q||_F, zero exactly at the constant optimum."""
    grad = sum(p * capacity_gradient(s, q) for p, s in zip(model.probs, model.states))
    return frobenius(psd_cap_project(q + step * grad, p_bar) - q)


def frank_wolfe_gap(model, q, p_bar):
    """max of <grad f(Q), S - Q> over feasible S, c max(lambda_max, 0) - <grad, Q>:
    an upper bound on the optimum's excess over f(Q), whatever the solver."""
    grad = sum(p * capacity_gradient(s, q) for p, s in zip(model.probs, model.states))
    return p_bar * max(np.linalg.eigvalsh(grad)[-1], 0.0) - np.vdot(grad, q).real


def scalar_channel(sigma):
    # 1x1 channel whose Gram eigenvalue is sigma
    return np.array([[np.sqrt(sigma)]], dtype=complex)


def sum_in_order(x):
    """Sums over the last axis, term by term from 0.0 (``np.add.accumulate``)."""
    x = np.asarray(x)
    return np.add.accumulate(np.insert(x, 0, 0.0, axis=-1), axis=-1)[..., -1]


def cap_threshold_numpy(a, tau0, cap):
    """The numpy-scalar sweep that ``_cap_threshold`` replaced, kept as its
    oracle: the Python-float sweep must return the same bytes.  Every sum
    runs left to right from 0.0, as the sweep's do."""

    def prefix_loading(r):
        act = a[:r]
        theta = np.zeros_like(a)
        theta[:r] = np.maximum(0.0, (cap + sum_in_order(act[:, None] - act[None, :])) / r)
        return theta

    theta = np.maximum(a - tau0, 0.0)
    if sum_in_order(theta) <= cap:
        return theta, tau0
    n = len(a)
    s = 0.0
    for r in range(1, n + 1):
        s += a[r - 1]
        tau = (s - cap) / r
        if tau < tau0 or not a[r - 1] - tau > 0.0:
            continue
        if r < n and a[r] - tau > 0.0:
            continue
        return prefix_loading(r), tau
    # a cap below the rounding resolution of a's sums: the entries tied with a[0]
    theta = prefix_loading(int((a == a[0]).sum()))
    if sum_in_order(theta) > cap:
        theta = prefix_loading(1)
    return theta, a[0] - theta[0]


NAN, INF = float("nan"), float("inf")

# The sweep validates nothing, and an eigensolve can return NaN without
# raising, so what it returns on non-finite entries is pinned as it was when
# its sums still built lists: a (descending), _cap_threshold(a, tau0, 2.0)
# for tau0 = 0.0, -1.0 and -inf, and _cap_plan of the spectrum a at cap 2.0.
NON_FINITE = [
    ([0.5, NAN], 3 * [([2.0, 0.0], -1.5)], (-1.5, [2.0, 0.0])),
    ([NAN, 0.5], 3 * [([NAN, 0.0], NAN)], (NAN, [NAN, 0.0])),
    ([NAN, NAN], 3 * [([NAN, NAN], NAN)], (NAN, [NAN, 0.0])),
    ([1.0, INF], 3 * [([2.0, 0.0], -1.0)], (-1.0, [2.0, 0.0])),
    ([INF, 0.5], 3 * [([NAN, 0.0], NAN)], (NAN, [NAN, 0.0])),
    ([INF, INF], 3 * [([NAN, NAN], NAN)], (NAN, [NAN, NAN])),
    ([INF, -INF], 3 * [([NAN, 0.0], NAN)], (NAN, [NAN, 0.0])),
    ([0.5, -INF], [([0.5, 0.0], 0.0), ([1.5, 0.0], -1.0), ([2.0, 0.0], -1.5)], (0.0, [0.5, 0.0])),
    ([-INF, -INF], [([0.0, 0.0], 0.0), ([0.0, 0.0], -1.0), ([NAN, NAN], NAN)], (0.0, [0.0, 0.0])),
    ([NAN] + 7 * [1.0], 3 * [([NAN] + 7 * [0.0], NAN)], (NAN, [NAN] + 7 * [0.0])),
    (7 * [1.0] + [NAN], 3 * [(7 * [2 / 7] + [0.0], 5 / 7)], (5 / 7, 7 * [2 / 7] + [0.0])),
    (
        3 * [1.0] + [NAN] + 4 * [0.5],
        3 * [(3 * [2 / 3] + 5 * [0.0], 1 / 3)],
        (1 / 3, 3 * [2 / 3] + 5 * [0.0]),
    ),
    ([INF] + 7 * [0.5], 3 * [([NAN] + 7 * [0.0], NAN)], (NAN, [NAN] + 7 * [0.0])),
    (7 * [1.0] + [-INF], 3 * [(7 * [2 / 7] + [0.0], 5 / 7)], (5 / 7, 7 * [2 / 7] + [0.0])),
    (8 * [INF], 3 * [(8 * [NAN], NAN)], (NAN, 8 * [NAN])),
]


class TestCapThreshold:
    @pytest.mark.parametrize(
        "tau0_kind, binding",
        [("-inf", True), ("finite", True), ("finite", False)],
        ids=["floorless", "binding", "slack"],
    )
    @pytest.mark.parametrize("n", range(1, 9))
    @given(data=st.data())
    def test_python_float_sweep_equals_numpy_sweep(self, n, tau0_kind, binding, data):
        magnitude = data.draw(SCALES)
        a = sorted(
            data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)), reverse=True
        )
        a = (np.array(a) * magnitude).tolist()
        tau0 = -np.inf if tau0_kind == "-inf" else data.draw(st.floats(-1.0, 1.0)) * magnitude
        if tau0_kind == "-inf":
            cap = data.draw(st.floats(1e-3, 10.0)) * magnitude
        else:
            total = float(np.maximum(np.array(a) - tau0, 0.0).sum())
            fraction = data.draw(st.floats(0.01, 0.99))
            cap = total * fraction if binding else total * (1.0 + fraction) + magnitude * 1e-3
            assume(cap > 0.0)
        expect = cap_threshold_numpy(np.array(a), tau0, cap)
        theta, tau = _cap_threshold(a, tau0, cap)
        assert np.array(theta).tobytes() == expect[0].tobytes()
        assert np.float64(tau).tobytes() == np.float64(expect[1]).tobytes()
        # a binding cap moves the loading off the clip at tau0, though tau
        # itself can round back to tau0 when the cap is within an ulp of a[0]
        clip = np.maximum(np.array(a) - tau0, 0.0)
        assert tau >= tau0 and (np.array(theta).tobytes() != clip.tobytes()) == binding

    @pytest.mark.parametrize("cap", [1e-17, 1e-300, 5e-324])
    @pytest.mark.parametrize(
        "spectrum",
        [[1.0, 1.0], [1.0, 1.0 - 2.0**-53], [3.0, 3.0, 3.0], [2.0, 2.0, 2.0 - 2.0**-51]],
        ids=["equal", "nearly-equal", "equal-3", "nearly-equal-3"],
    )
    def test_cap_below_rounding_resolution(self, spectrum, cap):
        # every prefix threshold (sum(a[:r]) - cap) / r rounds out of its
        # interval here, so the sweep accepts no prefix
        theta, _ = _cap_threshold(spectrum, 0.0, cap)
        assert min(theta) >= 0.0 and sum(theta) <= cap
        ties = spectrum.count(spectrum[0])
        assert theta[ties:] == [0.0] * (len(spectrum) - ties)
        x = np.diag(spectrum).astype(complex)
        for q in (psd_cap_project(x, cap), waterfill_penalized(np.sqrt(x), 0.0, cap).q):
            assert np.linalg.eigvalsh(q).min() >= 0.0
            assert trace_real(q) <= cap

    @pytest.mark.parametrize(
        "a, thresholds, plan", NON_FINITE, ids=[repr(case[0]) for case in NON_FINITE]
    )
    def test_non_finite_entries_keep_their_results(self, a, thresholds, plan):
        # repr shows NaN and the sign of zero; the sums must carry NaN as _sum does
        for tau0, expect in zip((0.0, -1.0, -np.inf), thresholds):
            assert repr(_cap_threshold(list(a), tau0, 2.0)) == repr(expect)
        assert repr(_cap_plan(np.array(a[::-1]), 2.0)) == repr(plan)

    @pytest.mark.parametrize("ones, expect", [(5, 5.0), (6, 6.0)], ids=["8-terms", "9-terms"])
    def test_sum_runs_left_to_right_at_every_length(self, ones, expect):
        # 1.0 + 1e16 rounds to 1e16, so the leading 1.0 is lost; numpy's pairwise
        # sum, from eight terms on, would also lose the 1.0 after -1e16 (4.0, 5.0)
        assert _sum([1.0, 1e16, -1e16] + ones * [1.0]) == expect

    def test_cap_below_rounding_resolution_equal_split(self):
        theta, tau = _cap_threshold([1.0, 1.0], 0.0, 1e-17)
        assert theta == [5e-18, 5e-18] and tau == 1.0
        # 1.5 * 2**-1074 rounds up to 2**-1073, so the halves would sum above the cap
        cap = 3 * 5e-324
        theta, _ = _cap_threshold([1.0, 1.0], 0.0, cap)
        assert theta == [cap, 0.0]


class TestWaterfill:
    def test_zero_penalty_full_power(self):
        # sigma = 4: the cap binds, mu = 1/(1/4 + 3) = 4/13, theta = cap
        wf = waterfill_penalized(scalar_channel(4.0), 0.0, 3.0)
        assert wf.mu == pytest.approx(4.0 / 13.0, abs=1e-12)
        assert wf.theta.sum() == pytest.approx(3.0, abs=1e-12)

    def test_interior_solution(self):
        # sigma = 4, z/v = 1: water level 1, theta = 1 - 1/4 = 0.75 < cap
        wf = waterfill_penalized(scalar_channel(4.0), 1.0, 3.0)
        assert wf.mu == 0.0
        assert wf.theta.sum() == pytest.approx(0.75, abs=1e-12)

    def test_large_penalty_shuts_off(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        sigma_max = float(np.linalg.eigvalsh(h.conj().T @ h).max())
        wf = waterfill_penalized(h, sigma_max * 1.0001, 3.0)
        assert frobenius(wf.q) == 0.0

    def test_zero_channel(self):
        for z_over_v in (0.0, 0.5):
            wf = waterfill_penalized(np.zeros((2, 2)), z_over_v, 1.0)
            assert frobenius(wf.q) == 0.0
            assert wf.mu == 0.0

    def test_kkt_invariants_random(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n_t = int(rng.integers(1, 5))
            h = rng.standard_normal((3, n_t)) + 1j * rng.standard_normal((3, n_t))
            sigma_max = float(np.linalg.eigvalsh(h.conj().T @ h).max())
            z = rng.uniform(0.0, 2.0 * sigma_max)
            cap = rng.uniform(0.5, 5.0)
            wf = waterfill_penalized(h, z, cap)
            assert trace_real(wf.q) <= cap + 1e-9
            assert np.linalg.eigvalsh(wf.q).min() >= -1e-10
            assert wf.mu >= 0.0
            # complementary slackness
            assert wf.mu * (wf.theta.sum() - cap) == pytest.approx(0.0, abs=1e-8)
            # loading formula on the positive modes
            level = 1.0 / (wf.mu + z) if wf.mu + z > 0 else np.inf
            for sig, th in zip(wf.sigma, wf.theta):
                if sig > 1e-12 and np.isfinite(level):
                    assert th == pytest.approx(max(0.0, level - 1.0 / sig), abs=1e-9)

    def test_beats_random_feasible(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            z = rng.uniform(0.0, 3.0)
            cap = rng.uniform(0.5, 4.0)
            wf = waterfill_penalized(h, z, cap)
            best = capacity(h, wf.q) - z * trace_real(wf.q)
            qs = psd_cap_project_stack(random_hermitian_stack(rng, 200, 3, 2.0), cap)
            objs = capacity_stack(h, qs) - z * trace_real(qs)
            assert objs.max() <= best + 1e-9

    def test_repeated_eigenvalues_regression(self):
        # equal Gram eigenvalues: any accepted sweep index gives the same loading
        h = np.diag([2.0, 2.0]).astype(complex)  # sigma = (4, 4)
        wf = waterfill_penalized(h, 0.0, 2.0)
        assert np.allclose(wf.theta, [1.0, 1.0], atol=1e-12)
        wf2 = waterfill_penalized(h, 0.5, 10.0)
        assert np.allclose(wf2.theta, wf2.theta[::-1], atol=1e-12)

    def test_input_validation(self):
        for cap in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="cap"):
                waterfill_penalized(scalar_channel(1.0), 0.0, cap)
            with pytest.raises(ValueError, match="cap"):
                psd_cap_project(np.eye(2), cap)
        with pytest.raises(ValueError, match="z_over_v"):
            waterfill_penalized(scalar_channel(1.0), -0.1, 1.0)
        with pytest.raises(ValueError, match="z_over_v"):
            waterfill_penalized(scalar_channel(1.0), float("nan"), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_channel(self, bad):
        h = np.array([[1.0, bad], [0.5, 2.0]], dtype=complex)
        with pytest.raises(ValueError, match="non-finite"):
            waterfill_penalized(h, 0.5, 3.0)

    @given(n_t=SIZES, n_r=SIZES, scale=SCALES, seed=SEEDS,
           z_ratio=st.just(0.0) | st.floats(0.0, 1.2), cap_ratio=CAP_RATIOS)
    def test_kkt_certificate_property(self, n_t, n_r, scale, seed, z_ratio, cap_ratio):
        # Gram eigenvalues ~ scale, penalty up to past the top eigenvalue,
        # cap ~ 1/scale so that both the free and the capped branch occur
        h = random_complex(np.random.default_rng(seed), (n_r, n_t)) * np.sqrt(scale)
        ref = np.maximum(np.linalg.eigvalsh(h.conj().T @ h)[::-1], 0.0)
        sigma_max = ref[0]
        z = z_ratio * sigma_max
        cap = cap_ratio / scale
        wf = waterfill_penalized(h, z, cap)
        sig, theta, mu = wf.sigma, wf.theta, wf.mu

        assert np.allclose(sig, ref, rtol=0.0, atol=1e-12 * sigma_max)
        assert np.linalg.eigvalsh(wf.q).min() >= -1e-12 * cap
        assert trace_real(wf.q) <= cap * (1.0 + 1e-12)
        assert np.allclose(
            np.linalg.eigvalsh(wf.q), np.sort(theta), rtol=0.0, atol=1e-12 * cap
        )
        assert capacity(h, wf.q) == pytest.approx(
            np.log1p(sig * theta).sum(), rel=1e-9, abs=1e-12
        )
        # dual feasibility and complementary slackness
        assert mu >= 0.0
        assert mu == 0.0 or theta.sum() == pytest.approx(cap, rel=1e-12)
        # stationarity: marginal utility equals the price on the active
        # modes and does not exceed it on the idle ones
        price = z + mu
        active = theta > 0.0
        marginal = sig[active] / (1.0 + sig[active] * theta[active])
        assert np.allclose(marginal, price, rtol=1e-9, atol=0.0)
        assert np.all(sig[~active] <= price * (1.0 + 1e-9) + 1e-12 * sigma_max)


class TestProjection:
    def test_feasible_fixed_point(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q = g @ g.conj().T
        q *= 0.9 / trace_real(q)
        assert frobenius(psd_cap_project(q, 1.0) - q) <= 1e-10

    def test_hand_solved_diagonal(self):
        out = psd_cap_project(np.diag([2.0, 1.0]).astype(complex), 1.0)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_negative_semidefinite_maps_to_zero(self):
        out = psd_cap_project(np.diag([-1.0, -2.0]).astype(complex), 1.0)
        assert frobenius(out) == 0.0

    def test_output_feasible(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            cap = rng.uniform(0.5, 5.0)
            q = psd_cap_project(random_hermitian(rng, n, 2.0), cap)
            assert trace_real(q) <= cap + 1e-9
            assert np.linalg.eigvalsh(q).min() >= -1e-10

    def test_matches_reference_projection(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            cap = rng.uniform(0.5, 5.0)
            x = random_hermitian(rng, n, 2.0)
            mine = psd_cap_project(x, cap)
            ref = psd_cap_project_stack(x[None], cap)[0]
            assert frobenius(mine - ref) <= 1e-8

    def test_repeated_eigenvalues_regression(self):
        x = np.diag([2.0, 2.0, -1.0]).astype(complex)
        out = psd_cap_project(x, 2.0)
        assert np.allclose(out, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            psd_cap_project(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    @given(n=SIZES, scale=SCALES, seed=SEEDS, cap_ratio=CAP_RATIOS)
    def test_variational_inequality_property(self, n, scale, seed, cap_ratio):
        # P = proj(X) iff P is feasible and <X - P, Y - P> <= 0 for every
        # feasible Y; probed at the origin, rank-one vertices and interior points
        rng = np.random.default_rng(seed)
        x = random_hermitian(rng, n, scale)  # exactly Hermitian
        cap = cap_ratio * scale
        p = psd_cap_project(x, cap)
        size = frobenius(x) + cap

        assert np.linalg.eigvalsh(p).min() >= -1e-12 * size
        assert trace_real(p) <= cap * (1.0 + 1e-12)
        g = random_complex(rng, (16, n, n))
        g[:8, :, 1:] = 0.0  # rank one
        ys = g @ np.conj(np.swapaxes(g, 1, 2))
        weights = np.concatenate([[0.0], np.ones(7), rng.uniform(0.0, 1.0, 8)])
        ys *= (weights * cap / trace_real(ys))[:, None, None]
        inner = np.einsum("ij,bji->b", x - p, ys - p).real
        assert inner.max() <= 1e-10 * size**2

        ref = psd_cap_project_stack(x[None], cap)[0]
        assert frobenius(p - ref) <= 1e-10 * size


class TestCdiPolicy:
    def test_single_state_budget_binds(self, monkeypatch):
        monkeypatch.setattr(solvers, "_BISECTION_BAND", 1e-8)
        rng = np.random.default_rng(19)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h *= 3.0 / frobenius(h)  # strong channel: full-power level above p_bar
        model = DiscreteChannel(states=(h,), probs=np.array([1.0]))
        pol = cdi_optimal_policy(model, p_bar=1.0, p=4.0)
        assert trace_real(pol.covariances[0]) == pytest.approx(1.0, abs=1e-6)

    def test_zero_channel_state(self):
        model = DiscreteChannel(
            states=(np.zeros((2, 2)),), probs=np.array([1.0])
        )
        pol = cdi_optimal_policy(model, p_bar=1.0, p=2.0)
        assert pol.r_opt == 0.0
        assert frobenius(pol.covariances[0]) == 0.0

    def test_preset_opportunistic_and_kkt(self, preset_model, cdi_reference):
        pol = cdi_reference
        tr1 = trace_real(pol.covariances[0])
        tr2 = trace_real(pol.covariances[1])
        # the strong state gets more power
        assert tr1 > tr2
        # long-term budget met within tolerance, never exceeded
        power = sum(pol.probs * trace_real(pol.covariances))
        assert power <= 2.0 + 1e-9
        assert power >= 2.0 - 1e-5
        # per-state short-term caps
        assert max(tr1, tr2) <= 3.0 + 1e-9
        # bit-for-bit waterfill reproduction at the converged multiplier
        for s, q in zip(pol.states, pol.covariances):
            again = waterfill_penalized(s, pol.lam, 3.0).q
            assert np.array_equal(again, q)

    def test_preset_policy_is_lagrangian_optimal(self, preset_model, cdi_reference):
        # each state's covariance maximizes capacity - lam * power over the cap set
        rng = np.random.default_rng(23)
        pol = cdi_reference
        for s, q in zip(pol.states, pol.covariances):
            mine = capacity(s, q) - pol.lam * trace_real(q)
            qs = psd_cap_project_stack(random_hermitian_stack(rng, 500, 2, 2.0), 3.0)
            objs = capacity_stack(s, qs) - pol.lam * trace_real(qs)
            assert objs.max() <= mine + 1e-9

    def test_empirical_certificate(self):
        # every covariance is the per-state water-filling at the returned
        # multiplier, and the average power sits in [p_bar - tol, p_bar]
        pol = cdi_optimal_policy(continuous_model(9), p_bar=2.0, p=3.0)
        assert pol.lam > 0.0
        for s, q in zip(pol.states, pol.covariances):
            assert np.array_equal(q, waterfill_penalized(s, pol.lam, 3.0).q)
        assert 2.0 - 1e-6 <= sum(pol.probs * trace_real(pol.covariances)) <= 2.0

    def test_large_budget_ends_in_band(self, preset_model):
        # a float step of the average power here is wider than 1e-6, so the
        # band must scale with p_bar
        p_bar = 594897762246.195
        pol = cdi_optimal_policy(preset_model, p_bar, 918773237262.0908)
        assert p_bar - 5e-7 * p_bar <= sum(pol.probs * trace_real(pol.covariances)) <= p_bar

    def test_small_budget_gets_a_positive_policy(self, preset_model):
        # p_bar is below 1e-6, so a band of that absolute width would hold the
        # zero policy; per-state adaptation beats the best constant covariance
        pol = cdi_optimal_policy(preset_model, 1e-7, 1.5e-7)
        assert pol.r_opt == pytest.approx(1.737e-6, rel=1e-3)
        assert pol.r_opt > ergodic_constant_covariance(preset_model, 1e-7).r_opt

    @given(exponent=st.floats(-8.0, 14.0), headroom=st.floats(-3.0, 1.0),
           seed=st.one_of(st.none(), st.integers(0, 99)))
    def test_every_budget_gets_a_policy_property(self, exponent, headroom, seed):
        # p_bar over 22 decades, on the two-state preset (seed None) or on a
        # 20-sample continuous model
        p_bar = 10.0**exponent
        p = p_bar * (1.0 + 10.0**headroom)
        model = paper_two_state() if seed is None else continuous_model(seed, 20)
        pol = cdi_optimal_policy(model, p_bar, p)
        power = float(sum(pol.probs * trace_real(pol.covariances)))
        assert power <= p_bar
        if pol.lam > 0.0:
            assert p_bar - 5e-7 * p_bar <= power
        for s, q in zip(pol.states, pol.covariances):
            assert np.array_equal(q, waterfill_penalized(s, pol.lam, p).q)
        # the policy maximizes utility - lam * power, so a feasible constant Q
        # can beat it by at most lam (p_bar - power), within lam 5e-7 p_bar
        qs = [np.eye(model.n_t) * (p_bar / model.n_t)]
        if p_bar <= 1e6:
            qs.append(ergodic_constant_covariance(model, p_bar).q)
        for q in qs:
            r = float(sum(model.probs * capacity(model.states, q)))
            assert pol.r_opt >= r - pol.lam * 5e-7 * p_bar

    def test_lookup_returns_nearest(self, cdi_reference):
        assert np.array_equal(
            cdi_reference.lookup(cdi_reference.states[1]),
            cdi_reference.covariances[1],
        )

    def test_requires_discrete_model(self):
        from dyncov import paper_continuous

        with pytest.raises(TypeError):
            cdi_optimal_policy(paper_continuous(), 1.0, 2.0)


class TestConstantCovariance:
    def test_identity_channel_symmetry(self):
        model = DiscreteChannel(states=(np.eye(2, dtype=complex),), probs=np.array([1.0]))
        out = ergodic_constant_covariance(model, p_bar=2.0)
        assert out.converged
        assert frobenius(out.q - np.eye(2)) <= 1e-6

    def test_fixed_point_property(self, preset_model, constant_reference):
        assert fixed_point_residual(preset_model, constant_reference.q, 2.0) <= 1e-9

    def test_fixed_point_certificate_on_empirical_model(self):
        # as test_fixed_point_property, on the 100-sample continuous model:
        # the returned Q is a fixed point of the projected-gradient map to
        # within tol, whatever the iteration that found it
        model = continuous_model(9)
        out = ergodic_constant_covariance(model, p_bar=2.0)
        assert out.converged
        assert fixed_point_residual(model, out.q, 2.0) <= 1e-9

    def test_two_state_iteration_count(self, constant_reference):
        # accelerated: plain projected gradient takes 1178 iterations here
        assert constant_reference.converged
        assert constant_reference.iterations <= 300

    @pytest.mark.parametrize(
        "model, iterations, r_opt",
        [
            (paper_two_state, 25, 2.9819465629546764),
            (lambda: continuous_model(9), 35, 0.48830102626949545),
        ],
        ids=["two-state", "continuous-seed-9"],
    )
    def test_iterations_and_value_pinned(self, model, iterations, r_opt):
        # r_opt pinned from the resolvent form H^H (I + H Q H^H)^{-1} H of the
        # gradient at the fixed step 0.05; the curvature step 1/L reaches the
        # same optimum on its own path
        out = ergodic_constant_covariance(model(), 2.0)
        assert out.converged
        assert out.iterations == iterations
        assert out.r_opt == pytest.approx(r_opt, rel=1e-12, abs=0.0)

    def test_beats_random_feasible(self, preset_model, constant_reference):
        rng = np.random.default_rng(29)
        out = constant_reference
        qs = psd_cap_project_stack(random_hermitian_stack(rng, 1000, 2, 2.0), 2.0)
        objs = sum(
            p * capacity_stack(s, qs)
            for p, s in zip(preset_model.probs, preset_model.states)
        )
        assert objs.max() <= out.r_opt + 1e-6

    def test_strong_channel_at_small_power_converges(self):
        # the fixed step 0.05 oscillated here until the 100 000-iteration
        # cap and returned r_opt 2.668, 29% below the optimum
        model = DiscreteChannel(states=(np.array([[5, 3j], [1, -7]]),), probs=np.array([1.0]))
        out = ergodic_constant_covariance(model, 0.3)
        assert out.converged
        assert out.r_opt == pytest.approx(3.732764693757692, rel=0.0, abs=1e-9)
        assert frank_wolfe_gap(model, out.q, 0.3) <= 1e-8

    @settings(max_examples=60)
    @given(n_t=st.integers(1, 4), n_r=st.integers(1, 4), k=st.integers(1, 30),
           scale=st.floats(-2.0, np.log10(30.0)).map(lambda e: 10.0**e),
           p_bar=st.floats(0.1, 10.0), rank=st.integers(0, 4), seed=SEEDS)
    def test_optimality_certificates_property(self, n_t, n_r, k, scale, p_bar, rank, seed):
        # states of rank min(rank, n_r, n_t): rank 0 is the all-zero channel
        rng = np.random.default_rng(seed)
        r = min(rank, n_r, n_t)
        states = random_complex(rng, (k, n_r, r)) @ random_complex(rng, (k, r, n_t)) * scale
        model = DiscreteChannel(states=states, probs=rng.dirichlet(np.ones(k)))
        out = ergodic_constant_covariance(model, p_bar)
        assert out.converged
        assert trace_real(out.q) <= p_bar + 1e-12
        assert frank_wolfe_gap(model, out.q, p_bar) <= 1e-6 * max(1.0, out.r_opt)
        qs = psd_cap_project_stack(random_hermitian_stack(rng, 200, n_t, p_bar), p_bar)
        objs = sum(p * capacity_stack(s, qs) for p, s in zip(model.probs, model.states))
        assert out.r_opt >= objs.max() - 1e-9

    def test_iter_cap_flags_non_convergence(self, preset_model, monkeypatch):
        monkeypatch.setattr(solvers, "_FISTA_ITER_CAP", 3)
        out = ergodic_constant_covariance(preset_model, 2.0)
        assert not out.converged
        assert out.iterations == 3


class TestEmpiricalPolicy:
    def test_equals_exact_policy_on_true_states(self, preset_model, cdi_reference):
        pol = empirical_policy(
            list(preset_model.states), p_bar=2.0, p=3.0, mode="with-csit"
        )
        assert pol.lam == cdi_reference.lam
        for a, b in zip(pol.covariances, cdi_reference.covariances):
            assert np.array_equal(a, b)
        assert pol.r_opt == cdi_reference.r_opt

    def test_lookup_stored_sample(self, preset_model):
        pol = empirical_policy(
            list(preset_model.states), p_bar=2.0, p=3.0, mode="with-csit"
        )
        assert np.array_equal(pol.lookup(preset_model.states[0]), pol.covariances[0])

    def test_hundred_samples_hundred_covariances(self):
        from dyncov import paper_continuous, sample_channel
        from dyncov.channel import sampling_rng

        rng = sampling_rng(1)
        samples = [sample_channel(paper_continuous(), rng) for _ in range(100)]
        pol = empirical_policy(samples, p_bar=2.0, p=3.0, mode="with-csit")
        assert len(pol.covariances) == 100

    def test_stacked_lookup_equals_per_slot_lookup(self):
        from dyncov import ChannelPath, ExactCsit, paper_continuous, sample_channel
        from dyncov.channel import sampling_rng

        model = paper_continuous()
        rng = sampling_rng(2)
        pol = empirical_policy(
            [sample_channel(model, rng) for _ in range(30)], p_bar=2.0, p=3.0, mode="with-csit"
        )
        h, _ = ChannelPath(model, ExactCsit(), 3).draw(0, 600)  # more than one 256-slot block
        stacked = pol.lookup(h)
        assert stacked.shape == (600, 2, 2)
        assert np.array_equal(stacked, np.stack([pol.lookup(x) for x in h]))

    def test_no_csit_mode(self, preset_model, constant_reference):
        pol = empirical_policy(
            list(preset_model.states), p_bar=2.0, p=3.0, mode="no-csit"
        )
        assert frobenius(pol.q - constant_reference.q) <= 1e-7

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            empirical_policy([], 1.0, 2.0, "with-csit")

    def test_unknown_mode_rejected(self, preset_model):
        with pytest.raises(ValueError, match="mode"):
            empirical_policy(list(preset_model.states), 1.0, 2.0, "sideways")
