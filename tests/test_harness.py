"""Simulation loop, trace emission, certification plumbing, config parsing,
policy files and the CLI."""

import copy
import dataclasses
import json
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dyncov import (
    BoundedBallCsit,
    CdiPolicy,
    ChannelPath,
    ConstantCovariance,
    DiscreteChannel,
    DppSpec,
    ExactCsit,
    ExperimentConfig,
    MagPhaseQuantizeCsit,
    OgdSpec,
    OutputPaths,
    PhaseQuantizeCsit,
    ProductChannel,
    RateLedger,
    ReplaySpec,
    TabulatedCsit,
    cdi_optimal_policy,
    compute_baseline,
    dpp_step,
    emit_outputs,
    ergodic_constant_covariance,
    load_config,
    load_policy,
    observe_csit,
    paper_continuous,
    paper_error_case,
    paper_two_state,
    psd_cap_project,
    run_experiment,
    sample_channel,
    save_policy,
    slot_rng,
    solvers,
    validate,
    waterfill_penalized,
)
from dyncov.cli import main as cli_main
from dyncov.harness import ConfigError, _decide, csv_to_columns, trace_to_csv
from dyncov.linalg import _compose, _eigh_desc, _gram, capacity, capacity_gradient, trace_real
from dyncov.matrixio import json_text, matrix_from_json, matrix_to_json
from dyncov.solvers import _sum, _waterfill_thresholds
from dyncov.validate import (
    CheckResult, check_decide_recursion, decide_blocks, decide_reference,
)

REPO = Path(__file__).resolve().parents[1]


def canon(x):
    """Hashable, exactly comparable form of a config or policy object."""
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(
            (f.name, canon(getattr(x, f.name))) for f in dataclasses.fields(x)
        )
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, (tuple, list)):
        return tuple(canon(v) for v in x)
    return (type(x).__name__, x)


FLOATS = st.floats(-1e3, 1e3, allow_subnormal=False)
POSITIVE = st.floats(1e-3, 1e3)


@st.composite
def complex_matrices(draw, n_r, n_t, floats=FLOATS):
    parts = draw(st.lists(floats, min_size=2 * n_r * n_t, max_size=2 * n_r * n_t))
    return np.array(parts[0::2], dtype=float).reshape(n_r, n_t) + 1j * np.array(
        parts[1::2], dtype=float
    ).reshape(n_r, n_t)


@st.composite
def psd_matrices(draw, n, floats=FLOATS):
    """G G^H for a random n x n G: a covariance, Hermitian PSD."""
    g = draw(complex_matrices(n, n, floats))
    with np.errstate(all="ignore"):  # huge entries overflow: drawn again
        q = g @ g.conj().T
    assume(np.isfinite(q).all())
    return q


def draw_policy(data, kind, floats=FLOATS):
    """A random with-csit or no-csit policy of up to 4 states, 4x4."""
    n_r = data.draw(st.integers(1, 4))
    n_t = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, 4))
    covariances = partial(psd_matrices, floats=floats)
    if kind == "with-csit":
        return CdiPolicy(
            states=tuple(data.draw(complex_matrices(n_r, n_t, floats)) for _ in range(k)),
            probs=np.array(data.draw(st.lists(floats, min_size=k, max_size=k))),
            covariances=tuple(data.draw(covariances(n_t)) for _ in range(k)),
            lam=data.draw(floats),
            r_opt=data.draw(floats),
        )
    return ConstantCovariance(
        q=data.draw(covariances(n_t)),
        per_state_utility=np.array(data.draw(st.lists(floats, min_size=k, max_size=k))),
        r_opt=data.draw(floats),
        converged=data.draw(st.booleans()),
        iterations=data.draw(st.integers(0, 10**6)),
    )


def dpp_config(horizon=100, seed=5, **kw):
    kw.setdefault("csit_error", ExactCsit())
    kw.setdefault("p", 3.0)
    kw.setdefault("p_bar", 2.0)
    return ExperimentConfig(
        channel=paper_two_state(),
        controller=DppSpec(v=100.0),
        horizon=horizon,
        seed=seed,
        **kw,
    )


def ogd_config(horizon=100, seed=5, **kw):
    return ExperimentConfig(
        channel=paper_two_state(),
        csit_error=kw.pop("csit_error", ExactCsit()),
        controller=OgdSpec(gamma=0.01),
        p=3.0,
        p_bar=2.0,
        horizon=horizon,
        seed=seed,
        **kw,
    )


class TestRunExperiment:
    def test_record_count(self):
        result = run_experiment(dpp_config(horizon=100))
        for col in (result.r, result.runavg_r, result.tr_q, result.runavg_tr_q, result.z):
            assert col.shape == (100,)
        assert csv_to_columns(trace_to_csv(result))["t"] == list(range(100))

    def test_rerun_is_byte_identical(self):
        a = trace_to_csv(run_experiment(dpp_config(horizon=100)))
        b = trace_to_csv(run_experiment(dpp_config(horizon=100)))
        assert a.encode() == b.encode()

    def test_running_averages_are_prefix_means(self):
        # exactly the sequential prefix sums, divided by the slot count
        result = run_experiment(dpp_config(horizon=200))
        cols = csv_to_columns(trace_to_csv(result))
        for name in ("r", "tr_q"):
            total = 0.0
            expected = []
            for t, x in enumerate(cols[name], start=1):
                total += x
                expected.append(total / t)
            assert cols[f"runavg_{name}"] == expected

    def test_final_queue_recomputable_from_csv(self):
        result = run_experiment(dpp_config(horizon=150))
        cols = csv_to_columns(trace_to_csv(result))
        z_last = cols["z"][-1]
        tr_last = cols["tr_q"][-1]
        assert result.z_final == pytest.approx(
            max(0.0, z_last + tr_last - 2.0), abs=1e-12
        )

    def test_seeds_change_values_not_schema(self):
        a = csv_to_columns(trace_to_csv(run_experiment(dpp_config(seed=1))))
        b = csv_to_columns(trace_to_csv(run_experiment(dpp_config(seed=2))))
        assert a.keys() == b.keys()
        assert a["r"] != b["r"]

    def test_dpp_certifications_pass(self):
        result = run_experiment(dpp_config(horizon=500, csit_error=paper_error_case("case1")))
        assert result.summary["all_passed"]
        names = {c["name"] for c in result.summary["certifications"]}
        assert {"short-term-power-cap", "running-power-vs-queue", "queue-bound"} <= names

    def test_ogd_certifications_pass(self, constant_reference):
        result = run_experiment(
            ogd_config(horizon=500, reference=constant_reference)
        )
        assert result.summary["all_passed"]
        names = {c["name"] for c in result.summary["certifications"]}
        assert {"trace-cap", "per-slot-regret-floor"} <= names

    @pytest.mark.parametrize("gamma", [0.002, None], ids=["constant", "inverse-sqrt"])
    @pytest.mark.parametrize("t_delay", [1, 500, 2000])
    def test_delayed_runs_hold_the_regret_floor(self, constant_reference, gamma, t_delay):
        # the run is t_delay interleaved gradient chains, each starting at Q = 0
        result = run_experiment(ExperimentConfig(
            channel=paper_two_state(), csit_error=ExactCsit(),
            controller=OgdSpec(gamma=gamma, t_delay=t_delay),
            p=3.0, p_bar=2.0, horizon=4000, seed=1, reference=constant_reference,
        ))
        (floor,) = [c for c in result.summary["certifications"]
                    if c["name"] == "per-slot-regret-floor"]
        assert floor["passed"], floor["detail"]

    def test_delay_reproducer_exits_zero(self, tmp_path, capsys):
        # no observation arrives before slot 2000, so Q = 0 there; a regret
        # bound without the delay reported this run as a FAIL at -8.916e-01
        cfg_path, ref_path = tmp_path / "cfg.json", tmp_path / "ref.json"
        cfg_path.write_text(config_text())
        assert cli_main(["baseline", str(cfg_path), "--kind", "no-csit", "--out", str(ref_path)]) == 0
        cfg_path.write_text(config_text(
            controller={"kind": "ogd", "gamma": 0.002, "t_delay": 2000},
            reference={"policy": "ref.json"}, horizon=4000,
        ))
        capsys.readouterr()
        assert cli_main(["run", str(cfg_path)]) == 0
        assert "  [PASS] per-slot-regret-floor" in capsys.readouterr().out

    def test_decide_equals_public_recursion(self):
        # the lean per-slot steps on precomputed stacks must give the bytes
        # of the slot-by-slot recursion through the validated public functions;
        # the queue starts at Z(0) = 0, and some drawn runs must reach a positive one
        penalized = []

        @given(data=st.data())
        def check(data):
            n_r, n_t = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
            entries = partial(complex_matrices, floats=st.floats(-10, 10, allow_subnormal=False))
            if data.draw(st.booleans()):
                k = data.draw(st.integers(1, 3))
                weights = st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)
                weights = np.array(data.draw(weights))
                states = tuple(data.draw(entries(n_r, n_t)) for _ in range(k))
                channel = DiscreteChannel(states=states, probs=weights / weights.sum())
                table = TabulatedCsit(
                    states=states, observed=[data.draw(entries(n_r, n_t)) for _ in states]
                )
            else:
                v_max = data.draw(st.floats(0.1, 2.0))
                channel = ProductChannel(n_r=n_r, n_t=n_t, v_max=v_max)
                table = ExactCsit()
            err = data.draw(st.sampled_from(
                [ExactCsit(), table, BoundedBallCsit(delta=data.draw(st.floats(0.01, 1.0)))]
            ))
            spec = data.draw(st.sampled_from([
                DppSpec(v=data.draw(st.floats(0.5, 200.0))),
                OgdSpec(
                    gamma=data.draw(st.none() | st.floats(1e-3, 1.0)),
                    # past the drawn block size and horizon too: the carry is a delay line
                    t_delay=data.draw(st.integers(1, 3) | st.integers(4, 70)),
                ),
            ]))
            p_bar = data.draw(st.floats(0.1, 5.0))
            cfg = ExperimentConfig(
                channel=channel, csit_error=err, controller=spec,
                p=p_bar * data.draw(st.floats(1.0, 3.0)), p_bar=p_bar,
                horizon=data.draw(st.integers(1, 30)), seed=data.draw(st.integers(0, 2**70)),
            )
            h, h_obs = ChannelPath(channel, err, cfg.seed).draw(0, cfg.horizon)
            q_ref, z_ref = decide_reference(cfg, h_obs)
            # the run's decide folded over blocks, the state carried across them
            q, z = decide_blocks(cfg, h, h_obs, data.draw(st.integers(1, 31)))
            result = run_experiment(cfg)
            assert q.tobytes() == q_ref.tobytes()
            assert result.tr_q.tobytes() == trace_real(q_ref).tobytes()
            if z_ref is not None:
                assert z.tobytes() == z_ref.tobytes()
                assert np.append(result.z, result.z_final).tobytes() == z_ref.tobytes()
                penalized.append(bool(np.any(z_ref[:-1] > 0)))

        check()
        assert any(penalized)  # the penalty is active

    @pytest.mark.parametrize("n_r, n_t", [(1, 4), (4, 1), (3, 8), (2, 3)])
    @pytest.mark.parametrize("gamma", [0.1, None], ids=["constant", "inverse-sqrt"])
    def test_ogd_decide_equals_public_recursion_non_square(self, n_r, n_t, gamma):
        # the decide forms the observed Gram matrices H~^H H~ (n_t x n_t) in
        # one stacked product; each must be the per-slot one of the public
        # capacity_gradient, byte for byte, whatever n_r
        cfg = ExperimentConfig(
            channel=ProductChannel(n_r=n_r, n_t=n_t, v_max=1.0),
            csit_error=BoundedBallCsit(delta=0.1), controller=OgdSpec(gamma=gamma, t_delay=2),
            p=3.0, p_bar=2.0, horizon=200, seed=5,
        )
        h, h_obs = ChannelPath(cfg.channel, cfg.csit_error, cfg.seed).draw(0, cfg.horizon)
        q_ref, _ = decide_reference(cfg, h_obs)
        q, z = decide_blocks(cfg, h, h_obs, 7)
        assert z is None
        assert q.tobytes() == q_ref.tobytes()
        assert np.count_nonzero(trace_real(q)) == cfg.horizon - 2

    def test_decide_recursion_check_passes(self):
        check = check_decide_recursion()
        assert check.passed, check.detail

    @pytest.mark.parametrize("gamma", [0.1, None], ids=["constant", "inverse-sqrt"])
    def test_delayed_gradient_recursion(self, gamma):
        # Q(t) = P[Q(t-T) + step D~(t-T)] recomputed from the slot streams,
        # with Q(t) = 0 before the first observation arrives at slot T
        lag, horizon, seed, p_bar = 3, 40, 8, 2.0
        model, err = paper_continuous(), BoundedBallCsit(delta=0.1)
        result = run_experiment(
            ExperimentConfig(
                channel=model,
                csit_error=err,
                controller=OgdSpec(gamma=gamma, t_delay=lag),
                p=3.0,
                p_bar=p_bar,
                horizon=horizon,
                seed=seed,
            )
        )
        qs, obs = [], []
        for t in range(horizon):
            rng = slot_rng(seed, t)
            h = sample_channel(model, rng)
            obs.append(observe_csit(h, err, rng))
            if t < lag:
                q = np.zeros((2, 2), dtype=complex)
            else:
                step = gamma if gamma is not None else 1.0 / np.sqrt(t)
                q_lag = qs[t - lag]
                q = psd_cap_project(
                    q_lag + step * capacity_gradient(obs[t - lag], q_lag), p_bar
                )
            qs.append(q)
            assert result.r[t] == capacity(h, q)
            assert result.tr_q[t] == trace_real(q)
        assert result.r[:lag].tolist() == result.tr_q[:lag].tolist() == [0.0] * lag
        assert result.tr_q[lag] > 0.0

    @pytest.mark.parametrize(
        "model, err",
        [
            (paper_two_state(), paper_error_case("case1")),
            (paper_continuous(), BoundedBallCsit(delta=0.1)),
        ],
        ids=["two-state-case1", "continuous-ball"],
    )
    def test_queue_controller_recursion(self, model, err):
        # Q(t) = W(H~(t), Z(t)/v, p) and Z(t+1) = max(Z(t) + sum(theta(t)) - p_bar, 0)
        # recomputed slot by slot through the public water-filling, from Z(0) = 0
        v, p, p_bar, horizon, seed = 10.0, 3.0, 2.0, 200, 4
        result = run_experiment(
            ExperimentConfig(
                channel=model,
                csit_error=err,
                controller=DppSpec(v=v),
                p=p,
                p_bar=p_bar,
                horizon=horizon,
                seed=seed,
            )
        )
        z = 0.0
        for t in range(horizon):
            rng = slot_rng(seed, t)
            h = sample_channel(model, rng)
            wf = waterfill_penalized(observe_csit(h, err, rng), z / v, p)
            q = wf.q
            assert result.z[t] == z
            assert result.r[t] == capacity(h, q)
            assert result.tr_q[t] == trace_real(q)
            z = max(0.0, z + _sum(wf.theta.tolist()) - p_bar)
        assert result.z_final == z
        assert np.count_nonzero(result.z) > horizon // 2  # the penalty is active

    @pytest.mark.parametrize("n_r, n_t", [(2, 2), (4, 4), (3, 8)])
    def test_stacked_dpp_compose_equals_per_slot_compose(self, n_r, n_t):
        # the decide composes every Q(t) = V diag(theta(t)) V^H after the
        # loop, in one stacked product; each equals the single-matrix compose
        cfg = ExperimentConfig(
            channel=ProductChannel(n_r=n_r, n_t=n_t, v_max=1.0),
            csit_error=BoundedBallCsit(delta=0.1), controller=DppSpec(v=10.0),
            p=3.0, p_bar=2.0, horizon=200, seed=3,
        )
        h, h_obs = ChannelPath(cfg.channel, cfg.csit_error, cfg.seed).draw(0, cfg.horizon)
        q, z, _ = _decide(cfg, 0, h, h_obs)  # the whole path as one block
        sigma, v = _eigh_desc(_gram(h_obs))
        a = _waterfill_thresholds(sigma)
        for t in range(cfg.horizon):
            theta, z_next = dpp_step(z[t], a[t], n_t, 10.0, 3.0, 2.0)
            assert z_next == z[t + 1]
            expect = _compose(v[t], theta)
            assert q[t].tobytes() == expect.tobytes()
        assert np.count_nonzero(z) > cfg.horizon // 2  # the penalty is active

    def test_tradeoff_constants_null_without_tradeoff_parameter(self, cdi_reference):
        # epsilon and the queue bound are functions of the queue controller's
        # v; every other run, a constant-step one included, reports null for both
        for spec, has_tradeoff in (
            (ReplaySpec(policy=cdi_reference), False),
            (OgdSpec(gamma=None), False),
            (OgdSpec(gamma=0.01), False),
            (DppSpec(v=100.0), True),
        ):
            constants = run_experiment(ExperimentConfig(
                channel=paper_two_state(), csit_error=paper_error_case("case1"),
                controller=spec, p=3.0, p_bar=2.0, horizon=50, seed=1,
            )).summary["constants"]
            assert list(constants) == [
                "b", "delta", "unbounded_support", "epsilon", "phi_delta", "psi_delta",
                "queue_bound", "grad_norm_bound",
            ]
            nulled = [k for k, x in constants.items() if x is None]
            assert nulled == ([] if has_tradeoff else ["epsilon", "queue_bound"])

    def test_ogd_trace_cap_enforced(self):
        result = run_experiment(ogd_config(horizon=300))
        assert np.max(result.tr_q) <= 2.0 + 1e-9

    def test_continuous_channel_skips_norm_certs(self):
        cfg = ExperimentConfig(
            channel=paper_continuous(),
            csit_error=ExactCsit(),
            controller=DppSpec(v=100.0),
            p=3.0,
            p_bar=2.0,
            horizon=50,
            seed=3,
        )
        result = run_experiment(cfg)
        assert result.summary["constants"]["unbounded_support"]
        skipped = [c for c in result.summary["certifications"] if c["passed"] is None]
        assert any(c["name"] == "queue-bound" for c in skipped)
        # queue arithmetic still certified
        assert any(
            c["name"] == "running-power-vs-queue" and c["passed"]
            for c in result.summary["certifications"]
        )

    def test_rate_adaptation_summary(self):
        result = run_experiment(dpp_config(horizon=50, rate_adapt_n=40.0))
        ra = result.summary["rate_adaptation"]
        assert ra["completed"]
        assert ra["slots_used"] >= 1
        assert ra["overhead"] >= 0.0
        assert ra["decode_feasible"]

    def test_rate_adaptation_incomplete(self):
        result = run_experiment(dpp_config(horizon=3, rate_adapt_n=1e9))
        ra = result.summary["rate_adaptation"]
        assert not ra["completed"]
        assert ra["slots_used"] is None

    def test_replay_shares_sample_path(self, cdi_reference):
        replay = ExperimentConfig(
            channel=paper_two_state(),
            csit_error=ExactCsit(),
            controller=ReplaySpec(policy=cdi_reference),
            p=3.0,
            p_bar=2.0,
            horizon=200,
            seed=5,
        )
        res_replay = run_experiment(replay)
        res_dpp = run_experiment(dpp_config(horizon=200, seed=5))
        # same channel draws: per-slot utility differs only through the policy
        assert res_replay.summary["all_passed"]
        assert len(res_replay.r) == len(res_dpp.r)
        # the replayed per-state policy attains its average on long runs
        long_run = run_experiment(
            ExperimentConfig(
                channel=paper_two_state(),
                csit_error=ExactCsit(),
                controller=ReplaySpec(policy=cdi_reference),
                p=3.0,
                p_bar=2.0,
                horizon=4000,
                seed=11,
            )
        )
        assert long_run.runavg_r[-1] == pytest.approx(
            cdi_reference.r_opt, abs=0.1
        )

    def test_no_csit_replay_holds_the_constant_covariance(self, constant_reference):
        cfg = experiment(controller=ReplaySpec(policy=constant_reference), horizon=50)
        h, h_obs = ChannelPath(cfg.channel, cfg.csit_error, cfg.seed).draw(0, cfg.horizon)
        q, z, _ = _decide(cfg, 0, h, h_obs)
        assert z is None
        assert all(np.array_equal(q_t, constant_reference.q) for q_t in q)
        assert np.array_equal(run_experiment(cfg).r, capacity(h, constant_reference.q))

    def test_power_order_validation(self):
        with pytest.raises(ConfigError, match="p_bar"):
            dpp_config(p=1.0, p_bar=2.0)

    @pytest.mark.parametrize(
        "controller", [DppSpec(v=10.0), OgdSpec(gamma=0.01)], ids=["dpp", "ogd"]
    )
    def test_all_zero_channel_certifies(self, controller):
        zero = DiscreteChannel(states=(np.zeros((2, 2)),) * 2, probs=np.array([0.5, 0.5]))
        result = run_experiment(
            ExperimentConfig(
                channel=zero, csit_error=ExactCsit(), controller=controller,
                p=3.0, p_bar=2.0, horizon=2000, seed=1,
            )
        )
        assert result.summary["constants"]["b"] == 0.0
        assert result.summary["all_passed"]
        assert not result.r.any() and not result.tr_q.any()

    @pytest.mark.parametrize(
        "role, kind",
        [
            ("ogd-reference", "no-csit"),
            ("replay", "no-csit"),
            ("replay", "with-csit"),
            ("dpp-reference", "no-csit"),
            ("dpp-reference", "with-csit"),
        ],
    )
    def test_policy_dimensions_must_fit_channel(self, role, kind):
        if kind == "no-csit":
            policy = ConstantCovariance(
                q=np.eye(4, dtype=complex), per_state_utility=np.zeros(2),
                r_opt=1.0, converged=True, iterations=1,
            )
        else:
            # right covariances, states of the wrong shape
            policy = CdiPolicy(
                states=(np.ones((2, 3)),) * 2, probs=np.array([0.5, 0.5]),
                covariances=(np.eye(2, dtype=complex),) * 2, lam=0.0, r_opt=1.0,
            )
        kwargs = {
            "ogd-reference": dict(controller=OgdSpec(gamma=0.01), reference=policy),
            "replay": dict(controller=ReplaySpec(policy=policy)),
            "dpp-reference": dict(controller=DppSpec(v=10.0), reference=policy),
        }[role]
        with pytest.raises(ConfigError, match="policy dimensions do not fit the 2x2 channel"):
            ExperimentConfig(
                channel=paper_two_state(), csit_error=ExactCsit(),
                p=3.0, p_bar=2.0, horizon=10, seed=1, **kwargs,
            )


class TestOutputs:
    def test_emit_files(self, tmp_path):
        cfg = dpp_config(horizon=40)
        result = run_experiment(cfg)
        paths = OutputPaths(
            csv=str(tmp_path / "trace.csv"),
            summary=str(tmp_path / "summary.json"),
            svg_utility=str(tmp_path / "utility.svg"),
            svg_power=str(tmp_path / "power.svg"),
        )
        written = emit_outputs(result, paths)
        assert len(written) == 4
        text = (tmp_path / "trace.csv").read_text()
        assert text.startswith("t,r,runavg_r,tr_q,runavg_tr_q,z\n")
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["all_passed"] is True
        svg = (tmp_path / "utility.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_emit_replaces_existing_files(self, tmp_path):
        # a short run emitted over a long run's files leaves no trailing bytes
        def paths(d):
            d.mkdir()
            names = ("trace.csv", "summary.json", "utility.svg", "power.svg")
            return OutputPaths(*(str(d / name) for name in names))

        over, fresh = paths(tmp_path / "over"), paths(tmp_path / "fresh")
        emit_outputs(run_experiment(dpp_config(horizon=400)), over)
        short = run_experiment(dpp_config(horizon=20))
        emit_outputs(short, over)
        emit_outputs(short, fresh)
        for a, b in zip(dataclasses.astuple(over), dataclasses.astuple(fresh)):
            assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_missing_directories_are_created(self, cdi_reference, tmp_path):
        # the charts alone, and a policy file, each into a directory not yet there
        paths = OutputPaths(
            svg_utility=str(tmp_path / "u" / "utility.svg"),
            svg_power=str(tmp_path / "p" / "power.svg"),
        )
        assert emit_outputs(run_experiment(dpp_config(horizon=20)), paths) == [
            paths.svg_utility, paths.svg_power,
        ]
        save_policy(cdi_reference, tmp_path / "new" / "policy.json")
        assert load_policy(tmp_path / "new" / "policy.json").r_opt == cdi_reference.r_opt
        assert Path(paths.svg_utility).exists() and Path(paths.svg_power).exists()

    def test_csv_round_trip(self):
        result = run_experiment(ogd_config(horizon=30))
        cols = csv_to_columns(trace_to_csv(result))
        assert cols["t"] == list(range(30))
        assert cols["z"] == [None] * 30  # empty for non-queue controllers
        assert np.allclose(cols["r"], result.r)


class TestTableLayout:
    """Every matrix table is one (k, m, n) complex stack, whichever sequence
    of matrices built it."""

    @pytest.mark.parametrize("form", [tuple, list, np.stack], ids=["tuple", "list", "array"])
    def test_tables_store_the_stack(self, form, cdi_reference, tmp_path):
        states = list(cdi_reference.states)
        observed = list(paper_error_case("case1").observed)
        covs = list(cdi_reference.covariances)
        channel = DiscreteChannel(states=form(states), probs=cdi_reference.probs)
        table = TabulatedCsit(states=form(states), observed=form(observed))
        policy = CdiPolicy(
            states=form(states), probs=cdi_reference.probs, covariances=form(covs),
            lam=cdi_reference.lam, r_opt=cdi_reference.r_opt,
        )
        for stored, mats in (
            (channel.states, states), (table.states, states), (table.observed, observed),
            (policy.states, states), (policy.covariances, covs),
        ):
            assert stored.dtype == np.complex128 and stored.shape == (2, 2, 2)
            assert stored.tobytes() == np.stack(mats).tobytes()
        save_policy(cdi_reference, tmp_path / "reference.json")
        save_policy(policy, tmp_path / "rebuilt.json")
        assert (tmp_path / "rebuilt.json").read_bytes() == (
            tmp_path / "reference.json"
        ).read_bytes()


class TestPolicyFiles:
    def test_with_csit_round_trip(self, cdi_reference, tmp_path):
        path = tmp_path / "policy.json"
        save_policy(cdi_reference, path)
        loaded = load_policy(path)
        assert loaded.lam == cdi_reference.lam
        assert loaded.r_opt == cdi_reference.r_opt
        for a, b in zip(loaded.covariances, cdi_reference.covariances):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "kind, bad, message",
        [
            ("no-csit", -5 * np.eye(2), "'q' must be positive semidefinite"),
            ("no-csit", np.array([[1.0, 3.0], [0.0, 1.0]]), "'q' must be Hermitian"),
            ("with-csit", -np.eye(2), "'covariances' must be positive semidefinite"),
            ("with-csit", np.diag([1.0, -2e-12]), "'covariances' must be positive semidefinite"),
            ("with-csit", 1j * np.eye(2), "'covariances' must be Hermitian"),
            ("no-csit", np.ones((2, 3)), "'q' must hold square matrices,"),
        ],
        ids=["negative-q", "non-hermitian-q", "negative-covariance", "below-tolerance",
             "imaginary-diagonal", "non-square-q"],
    )
    def test_covariances_must_be_hermitian_psd(
        self, cdi_reference, constant_reference, tmp_path, kind, bad, message
    ):
        # such a policy used to load, then crash the run in the capacity's Cholesky
        if kind == "no-csit":
            policy, field, value = constant_reference, "q", bad
        else:
            policy, field = cdi_reference, "covariances"
            value = np.stack([bad, cdi_reference.covariances[1]])
        with pytest.raises(ValueError, match=f"^{message} "):
            dataclasses.replace(policy, **{field: value})
        path = tmp_path / "policy.json"
        save_policy(policy, path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj[field] = matrix_to_json(value) if field == "q" else [matrix_to_json(q) for q in value]
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{message} "):
            load_policy(path)

    def test_covariance_tolerances_scale_with_the_entries(self, constant_reference):
        # round-off on a large matrix is neither asymmetry nor negativity
        for scale in (1.0, 1e6):
            q = scale * np.array([[1.0, 0.5e-12], [0.0, -0.5e-12]])
            assert np.array_equal(dataclasses.replace(constant_reference, q=q).q, q)
            with pytest.raises(ValueError, match="'q' must be Hermitian"):
                dataclasses.replace(constant_reference, q=q + scale * np.diag([0, 2e-12j]))

    def test_save_replaces_existing_file(self, cdi_reference, constant_reference, tmp_path):
        # a shorter policy over a longer file leaves no trailing bytes behind
        path, fresh = tmp_path / "policy.json", tmp_path / "fresh.json"
        save_policy(cdi_reference, path)
        save_policy(constant_reference, path)
        save_policy(constant_reference, fresh)
        assert path.read_bytes() == fresh.read_bytes()

    def test_no_csit_round_trip(self, constant_reference, tmp_path):
        path = tmp_path / "policy.json"
        save_policy(constant_reference, path)
        loaded = load_policy(path)
        assert np.array_equal(loaded.q, constant_reference.q)
        assert loaded.converged == constant_reference.converged

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "kind, field",
        [
            ("with-csit", "lambda"),
            ("with-csit", "r_opt"),
            ("with-csit", "probs"),
            ("no-csit", "r_opt"),
            ("no-csit", "per_state_utility"),
        ],
    )
    def test_non_finite_field_raises(
        self, cdi_reference, constant_reference, tmp_path, kind, field, bad
    ):
        policy = cdi_reference if kind == "with-csit" else constant_reference
        path = tmp_path / "policy.json"
        save_policy(policy, path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(obj[field], list):
            obj[field][-1] = bad
        else:
            obj[field] = bad
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"'{field}' must be finite"):
            load_policy(path)

    @pytest.mark.parametrize(
        "field, bad, message",
        [
            ("iterations", 2.5, "must be an integer"),
            ("iterations", True, "must be an integer"),
            ("converged", "false", "must be true or false"),
            ("converged", 1, "must be true or false"),
        ],
        ids=["iterations-fraction", "iterations-bool", "converged-string", "converged-int"],
    )
    def test_no_csit_solver_fields_are_strict(
        self, constant_reference, tmp_path, field, bad, message
    ):
        path = tmp_path / "policy.json"
        save_policy(constant_reference, path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj[field] = bad
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"'{field}' {message}"):
            load_policy(path)

    @pytest.mark.parametrize(
        "kind, field",
        [
            ("with-csit", "states"),
            ("with-csit", "probs"),
            ("with-csit", "covariances"),
            ("with-csit", "lambda"),
            ("with-csit", "r_opt"),
            ("no-csit", "q"),
            ("no-csit", "per_state_utility"),
            ("no-csit", "r_opt"),
            ("no-csit", "converged"),
            ("no-csit", "iterations"),
        ],
    )
    def test_null_field_raises(self, cdi_reference, constant_reference, tmp_path, kind, field):
        # null is no value in a policy file, not even for a field with a default
        policy = cdi_reference if kind == "with-csit" else constant_reference
        path = tmp_path / "policy.json"
        save_policy(policy, path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj[field] = None
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^'{field}' in 'policy' must not be null$"):
            load_policy(path)

    def test_no_csit_iterations_default_to_zero(self, constant_reference, tmp_path):
        path = tmp_path / "policy.json"
        save_policy(constant_reference, path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        del obj["iterations"]
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert load_policy(path).iterations == 0

    def test_number_list_fields_reject_numeric_strings(self, cdi_reference, tmp_path):
        # each entry of a number list meets the rule of a number field
        path = tmp_path / "policy.json"
        save_policy(cdi_reference, path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj["probs"] = [str(x) for x in obj["probs"]]
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ConfigError, match="^'probs' must be a number, got '0.5'$"):
            load_policy(path)

    def test_save_rejects_other_types_and_writes_nothing(self, tmp_path):
        path = tmp_path / "policy.json"
        with pytest.raises(TypeError, match="cannot save policy of type DppSpec"):
            save_policy(DppSpec(v=1.0), path)
        assert not path.exists()

    def test_save_takes_subclasses(self, constant_reference, tmp_path):
        class Tagged(ConstantCovariance):
            pass

        path, plain = tmp_path / "policy.json", tmp_path / "plain.json"
        save_policy(Tagged(**vars(constant_reference)), path)
        save_policy(constant_reference, plain)
        assert path.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize(
        "kind, field",
        [
            ("with-csit", "states"),
            ("with-csit", "probs"),
            ("with-csit", "covariances"),
            ("with-csit", "lambda"),
            ("with-csit", "r_opt"),
            ("no-csit", "q"),
            ("no-csit", "per_state_utility"),
            ("no-csit", "r_opt"),
            ("no-csit", "converged"),
        ],
    )
    def test_missing_field_raises(
        self, cdi_reference, constant_reference, tmp_path, kind, field
    ):
        policy = cdi_reference if kind == "with-csit" else constant_reference
        path = tmp_path / "policy.json"
        save_policy(policy, path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        del obj[field]
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"missing policy field: '{field}'"):
            load_policy(path)

    @pytest.mark.parametrize("field", ["probs", "covariances", "states"])
    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_with_csit_lengths_must_match(self, cdi_reference, tmp_path, field, count):
        path = tmp_path / "policy.json"
        save_policy(cdi_reference, path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj[field] = (obj[field] * 2)[:count]  # the preset policy has two states
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ConfigError, match="one probability and one covariance per state"):
            load_policy(path)

    @given(data=st.data(), kind=st.sampled_from(["with-csit", "no-csit"]))
    def test_round_trip_property(self, data, kind):
        policy = draw_policy(data, kind)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "policy.json"
            save_policy(policy, path)
            assert canon(load_policy(path)) == canon(policy)

    @given(data=st.data(), kind=st.sampled_from(["with-csit", "no-csit"]))
    def test_file_is_indented_json_dumps(self, data, kind):
        # save_policy formats the matrices itself; its bytes must stay those
        # of json.dumps(indent=2) over the matrix_to_json dicts
        finite = st.floats(allow_nan=False, allow_infinity=False)
        policy = draw_policy(data, kind, finite)
        if kind == "with-csit":
            obj = {
                "kind": kind,
                "lambda": policy.lam,
                "r_opt": policy.r_opt,
                "probs": policy.probs.tolist(),
                "states": [matrix_to_json(s) for s in policy.states],
                "covariances": [matrix_to_json(q) for q in policy.covariances],
            }
        else:
            obj = {
                "kind": kind,
                "q": matrix_to_json(policy.q),
                "r_opt": policy.r_opt,
                "per_state_utility": policy.per_state_utility.tolist(),
                "converged": policy.converged,
                "iterations": policy.iterations,
            }
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "policy.json"
            save_policy(policy, path)
            assert path.read_text(encoding="utf-8") == json.dumps(obj, indent=2) + "\n"

    @given(
        x=st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
            | st.lists(st.floats(), max_size=6)
            | st.floats().map(np.float64),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=3), inner, max_size=3),
            max_leaves=16,
        )
    )
    def test_json_text_is_indented_json_dumps(self, x):
        # lists of finite floats and finite float scalars take the %r path;
        # ints, bools, NaN, infinities and numpy scalars must not
        assert json_text(x) == json.dumps(x, indent=2)

    @given(xs=st.lists(st.floats(), max_size=6))
    def test_json_text_writes_a_vector_as_its_floats(self, xs):
        assert json_text(np.array(xs, dtype=float)) == json.dumps(xs, indent=2)
        assert json_text({"v": np.array(xs, dtype=float)}) == json.dumps({"v": xs}, indent=2)

    def test_compute_baseline_continuous_uses_samples(self):
        cfg = ExperimentConfig(
            channel=paper_continuous(),
            csit_error=ExactCsit(),
            controller=DppSpec(v=100.0),
            p=3.0,
            p_bar=2.0,
            horizon=10,
            seed=7,
        )
        pol = compute_baseline(cfg, kind="with-csit", n_samples=20)
        assert len(pol.covariances) == 20

    @pytest.mark.parametrize("channel", [paper_two_state, paper_continuous])
    def test_compute_baseline_rejects_unknown_kind_first(self, channel, monkeypatch):
        # no channel draw and no solve before the kind is known
        def no_work(*args, **kwargs):
            raise AssertionError("compute_baseline worked on an unknown kind")

        for name in ("sampling_rng", "sample_channel"):
            monkeypatch.setattr(f"dyncov.channel.{name}", no_work)
        for name in ("cdi_optimal_policy", "ergodic_constant_covariance", "empirical_policy"):
            monkeypatch.setattr(f"dyncov.harness.{name}", no_work)
        with pytest.raises(ConfigError, match="^unknown baseline kind 'bogus'$"):
            compute_baseline(experiment(channel=channel()), kind="bogus")

    @pytest.mark.parametrize("n_samples", [2.5, True])
    def test_compute_baseline_takes_an_integer_sample_count(self, n_samples, monkeypatch):
        # checked before any draw: 2.5 used to end in a TypeError from range,
        # and True to solve on one sample
        def no_draw(*args, **kwargs):
            raise AssertionError("compute_baseline drew samples for a bad count")

        monkeypatch.setattr("dyncov.channel.sampling_rng", no_draw)
        cfg = experiment(channel=paper_continuous())
        with pytest.raises(ConfigError, match=f"^'n_samples' must be an integer, got {n_samples}$"):
            compute_baseline(cfg, kind="no-csit", n_samples=n_samples)

    def test_compute_baseline_solves_the_discrete_channel_exactly(self):
        cfg = experiment()
        solved = {
            "with-csit": cdi_optimal_policy(cfg.channel, cfg.p_bar, cfg.p),
            "no-csit": ergodic_constant_covariance(cfg.channel, cfg.p_bar),
        }
        for kind, policy in solved.items():
            assert canon(compute_baseline(cfg, kind=kind)) == canon(policy)


_DPP_OBJ = {
    "channel": {"kind": "continuous-product", "n_r": 2, "n_t": 2, "v_max": 1.0},
    "csit_error": {"kind": "bounded-ball", "delta": 0.1},
    "controller": {"kind": "dpp", "v": 100.0},
    "p": 3.0,
    "p_bar": 2.0,
    "horizon": 5,
    "seed": 1,
    "rate_adapt": {"n_total": 30.0},
    "reference": {"r_opt": 1.0},
}
_OGD_OBJ = {
    "channel": {"preset": "paper-two-state"},
    "csit_error": {"kind": "phase-quantize", "step": 0.1},
    "controller": {"kind": "ogd", "gamma": 0.01},
    "p": 3.0,
    "p_bar": 2.0,
    "horizon": 5,
    "seed": 1,
}
_OGD_OBJ_DELAYED = {**_OGD_OBJ, "controller": {"kind": "ogd", "gamma": 0.01, "t_delay": 2}}
_MAG_PHASE_OBJ = {
    **_OGD_OBJ,
    "csit_error": {"kind": "mag-phase-quantize", "mag_step": 0.1, "phase_step": 0.1},
}
# (valid config, section holding the field or None for top level, field)
NUMERIC_FIELDS = [
    (_DPP_OBJ, None, "p"),
    (_DPP_OBJ, None, "p_bar"),
    (_DPP_OBJ, "controller", "v"),
    (_DPP_OBJ, "csit_error", "delta"),
    (_DPP_OBJ, "channel", "v_max"),
    (_DPP_OBJ, "reference", "r_opt"),
    (_DPP_OBJ, "rate_adapt", "n_total"),
    (_OGD_OBJ, "controller", "gamma"),
    (_OGD_OBJ, "csit_error", "step"),
    (_MAG_PHASE_OBJ, "csit_error", "mag_step"),
    (_MAG_PHASE_OBJ, "csit_error", "phase_step"),
]
INTEGER_FIELDS = [
    (_DPP_OBJ, None, "horizon"),
    (_DPP_OBJ, None, "seed"),
    (_DPP_OBJ, "channel", "n_r"),
    (_DPP_OBJ, "channel", "n_t"),
    (_OGD_OBJ_DELAYED, "controller", "t_delay"),
]
_EYE = matrix_to_json(np.eye(2))
NUMBER_LIST_FIELDS = [
    ({**_OGD_OBJ, "channel": {"kind": "discrete", "states": [_EYE], "probs": [1.0]}},
     "channel", "probs"),
]
# a number list's entries meet the number rule
NUMBER_LIST_BADS = [[True], ["1.0"], [0.5, "0.5"], [float("nan")], [[1.0]], 1.0, "1.0"]


@st.composite
def config_dicts(draw, policies):
    """Valid config dicts over every channel, CSIT and controller kind."""
    if draw(st.booleans()):
        n_r, n_t = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        k = draw(st.integers(1, 4))
        states = [draw(complex_matrices(n_r, n_t)) for _ in range(k)]
        channel = draw(st.sampled_from([
            {"preset": "paper-two-state"},
            {
                "kind": "discrete",
                "states": [matrix_to_json(s) for s in states],
                "probs": [1.0 / k] * k,
            },
        ]))
        if "preset" in channel:
            n_r, n_t = 2, 2
            states = list(paper_two_state().states)
    else:
        n_r, n_t = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        states = [draw(complex_matrices(n_r, n_t))]
        channel = draw(st.sampled_from([
            {"preset": "paper-continuous"},
            {"kind": "continuous-product", "n_r": n_r, "n_t": n_t, "v_max": draw(POSITIVE)},
        ]))
        if "preset" in channel:
            n_r, n_t = 2, 2
            states = [np.eye(2)]
    # the case1 preset tables are 2x2, and a table must fit the channel
    case1 = [{"preset": "case1"}] if (n_r, n_t) == (2, 2) else []
    csit = draw(st.sampled_from([None] + case1 + [
        {"kind": "exact"},
        {"kind": "phase-quantize", "step": draw(POSITIVE)},
        {"kind": "mag-phase-quantize", "mag_step": draw(POSITIVE), "phase_step": draw(POSITIVE)},
        {"kind": "bounded-ball", "delta": draw(POSITIVE)},
        {
            "kind": "per-state",
            "states": [matrix_to_json(s) for s in states],
            "observed": [matrix_to_json(draw(complex_matrices(n_r, n_t))) for _ in states],
        },
    ]))
    # the policy files are the two-state preset's, so only a 2x2 channel fits them
    fits_policies = (n_r, n_t) == (2, 2)
    controllers = [
        {"kind": "dpp", "v": draw(POSITIVE)},
        {"kind": "ogd", "gamma": draw(POSITIVE), "t_delay": draw(st.integers(1, 5))},
        {"kind": "ogd", "step": "inverse-sqrt"},
    ]
    if fits_policies:
        controllers += [
            {"kind": "baseline-replay", "policy": policies["with-csit"]},
            {"kind": "baseline-replay", "policy": policies["no-csit"]},
        ]
    controller = draw(st.sampled_from(controllers))
    p_bar = draw(POSITIVE)
    obj = {
        "channel": channel,
        "controller": controller,
        "p": p_bar * draw(st.floats(1.0, 10.0)),
        "p_bar": p_bar,
        "horizon": draw(st.integers(1, 10**6)),
        "seed": draw(st.integers(0, 2**63 - 1)),
    }
    if csit is not None:
        obj["csit_error"] = csit
    if draw(st.booleans()):
        obj["rate_adapt"] = {"n_total": draw(POSITIVE)}
    # the gradient controller only takes a constant-covariance reference
    references = [None, {"policy": policies["no-csit"]}] if fits_policies else [None]
    if controller["kind"] != "ogd":
        references.append({"r_opt": draw(FLOATS)})
    obj["reference"] = draw(st.sampled_from(references))
    if obj["reference"] is None:
        del obj["reference"]
    if draw(st.booleans()):
        obj["outputs"] = {"csv": "out/t.csv", "summary": "out/t.json"}
    return obj


@pytest.fixture(scope="module")
def policy_paths(cdi_reference, constant_reference, tmp_path_factory):
    base = tmp_path_factory.mktemp("policies")
    paths = {}
    for kind, policy in (("with-csit", cdi_reference), ("no-csit", constant_reference)):
        paths[kind] = str(base / f"{kind}.json")
        save_policy(policy, paths[kind])
    return paths


class TestConfigLoading:
    @given(data=st.data())
    def test_dict_and_file_load_the_same(self, policy_paths, data):
        obj = data.draw(config_dicts(policy_paths))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            assert canon(load_config(path)) == canon(load_config(obj))

    def test_zero_t_delay_raises(self):
        with pytest.raises(ConfigError, match="t_delay"):
            load_config({**_OGD_OBJ, "controller": {"kind": "ogd", "t_delay": 0}})

    @pytest.mark.parametrize(
        "controller, p, p_bar, name",
        [
            ({"kind": "dpp", "v": 100.0}, 1e308, 1e307, "epsilon"),
            ({"kind": "ogd", "gamma": 0.01}, 1e160, 1e155, "regret_bound"),
            ({"kind": "ogd", "step": "inverse-sqrt"}, 1e160, 1e155, "regret_bound"),
            ({"kind": "ogd", "gamma": 0.01, "t_delay": 10**400}, 3.0, 2.0, "regret_bound"),
        ],
        ids=["dpp", "ogd", "ogd-sqrt", "ogd-delay"],
    )
    def test_overflowing_bound_constant_raises(self, controller, p, p_bar, name):
        # the constants are certified after the last slot; past the float range
        # they fail when the config is built, naming the constant, with no warning
        obj = {**_OGD_OBJ, "controller": controller, "p": p, "p_bar": p_bar}
        with pytest.raises(ConfigError, match=f"bound constant '{name}' is not finite"):
            load_config(obj)

    def test_overflowing_channel_norm_raises(self):
        huge = DiscreteChannel(states=[1e200 * np.eye(2)], probs=np.array([1.0]))
        with pytest.raises(ConfigError, match="bound constant 'b' is not finite"):
            experiment(channel=huge)

    def test_exact_csit_at_the_largest_power_certifies_phi_zero(self, tmp_path):
        # phi is 2 p sqrt(n_t) (2b + delta) delta: at delta = 0 it is 0 for any p,
        # where the product used to be inf * 0 = NaN and the config failed to load
        summary = tmp_path / "summary.json"
        cfg = load_config({
            **_OGD_OBJ, "csit_error": {"kind": "exact"}, "p": 1e308, "p_bar": 1.0,
            "outputs": {"summary": str(summary)},
        })
        result = run_experiment(cfg)
        assert result.summary["all_passed"]
        emit_outputs(result)
        assert '"phi_delta": 0.0' in summary.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "obj, reports",
        [
            ({**_DPP_OBJ, "channel": {"preset": "paper-two-state"}}, 1),
            (_OGD_OBJ_DELAYED, 1),
            (_DPP_OBJ, 0),  # a continuous channel has no norm cap to certify
        ],
        ids=["dpp", "ogd", "uncapped"],
    )
    def test_one_run_builds_its_bounds_once(self, obj, reports, monkeypatch):
        # the config builds the constants it checks, and the summary reads them
        calls = []

        def counted(original):
            def call(*args, **kwargs):
                calls.append(original.__name__)
                return original(*args, **kwargs)
            return call

        for target in ("dyncov.channel.channel_bounds", "dyncov.harness.theoretical_bounds"):
            module, name = target.rsplit(".", 1)
            monkeypatch.setattr(target, counted(getattr(sys.modules[module], name)))
        result = run_experiment(load_config(obj))
        assert calls == ["channel_bounds"] + ["theoretical_bounds"] * reports
        assert result.summary["all_passed"]

    def test_delay_key_raises(self):
        obj = {**_OGD_OBJ, "delay": {"kind": "delayed", "t_slots": 1}}
        with pytest.raises(ConfigError, match="unknown config key.*'delay'"):
            load_config(obj)

    @pytest.mark.parametrize(
        "value",
        [5.0, 0.0, -1.0, float("inf"), float("nan"), True, False, "1.5", None],
        ids=["positive", "zero", "negative", "inf", "nan", "true", "false", "string", "null"],
    )
    def test_start_queue_is_not_a_parameter(self, value):
        # the certified bounds hold from an empty queue, Z(0) = 0, alone: any
        # start value, valid or not, fails as an unknown key before a value rule
        obj = {**_DPP_OBJ, "controller": {"kind": "dpp", "v": 100.0, "z0": value}}
        with pytest.raises(ConfigError, match="^unknown config key\\(s\\) in 'controller': 'z0'$"):
            load_config(obj)
        with pytest.raises(TypeError, match="unexpected keyword argument 'z0'"):
            DppSpec(v=100.0, z0=value)

    def test_horizon_past_the_slot_index_range_raises(self):
        # the per-slot streams key on slot indices below 2**32; a longer run used
        # to load and then fail in the draw.  Only configs are built here
        assert experiment(horizon=2**32).horizon == 2**32
        with pytest.raises(ConfigError, match="horizon"):
            experiment(horizon=2**32 + 1)
        with pytest.raises(ConfigError, match="horizon"):
            load_config({**_DPP_OBJ, "horizon": 2**32 + 1})

    def test_nan_reference_policy_raises(self, constant_reference, tmp_path):
        path = tmp_path / "ref.json"
        save_policy(constant_reference, path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj["r_opt"] = float("nan")
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ConfigError, match="'r_opt' must be finite"):
            load_config({**_OGD_OBJ, "reference": {"policy": str(path)}})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "base, section, field", NUMERIC_FIELDS, ids=[f for *_, f in NUMERIC_FIELDS]
    )
    def test_non_finite_number_raises(self, base, section, field, bad):
        obj = copy.deepcopy(base)
        load_config(obj)
        (obj if section is None else obj[section])[field] = bad
        with pytest.raises(ConfigError, match=f"'{field}' must be finite"):
            load_config(obj)

    @pytest.mark.parametrize(
        "bad", [True, False, "1.5"], ids=["true", "false", "string"]
    )
    @pytest.mark.parametrize(
        "base, section, field", NUMERIC_FIELDS, ids=[f for *_, f in NUMERIC_FIELDS]
    )
    def test_non_number_raises(self, base, section, field, bad):
        # a JSON boolean is not read as 1.0 or 0.0, nor a string as its value
        obj = copy.deepcopy(base)
        (obj if section is None else obj[section])[field] = bad
        with pytest.raises(ConfigError, match=f"'{field}' must be a number"):
            load_config(obj)

    @pytest.mark.parametrize(
        "bad", [True, 20.7, float("inf"), float("nan"), "5"],
        ids=["bool", "fraction", "inf", "nan", "string"],
    )
    @pytest.mark.parametrize(
        "base, section, field", INTEGER_FIELDS, ids=[f for *_, f in INTEGER_FIELDS]
    )
    def test_non_integer_raises(self, base, section, field, bad):
        obj = copy.deepcopy(base)
        load_config(obj)
        (obj if section is None else obj[section])[field] = bad
        with pytest.raises(ConfigError, match=f"'{field}' must be an integer"):
            load_config(obj)

    @pytest.mark.parametrize(
        "base, section, field", INTEGER_FIELDS, ids=[f for *_, f in INTEGER_FIELDS]
    )
    def test_integral_float_accepted(self, base, section, field):
        obj = copy.deepcopy(base)
        target = obj if section is None else obj[section]
        target[field] = float(target[field])
        assert canon(load_config(obj)) == canon(load_config(base))

    def test_negative_seed_raises(self):
        with pytest.raises(ConfigError, match="seed must be nonnegative"):
            load_config({**_DPP_OBJ, "seed": -1})

    @pytest.mark.parametrize("n_total", [0, -5])
    def test_nonpositive_ledger_size_raises(self, n_total):
        with pytest.raises(ConfigError, match="n_total must be positive"):
            load_config({**_DPP_OBJ, "rate_adapt": {"n_total": n_total}})

    def test_full_config_round_trip(self, tmp_path):
        cfg_obj = {
            "channel": {"preset": "paper-two-state"},
            "csit_error": {"preset": "case1"},
            "controller": {"kind": "dpp", "v": 100.0},
            "p": 3.0,
            "p_bar": 2.0,
            "horizon": 25,
            "seed": 9,
            "rate_adapt": {"n_total": 30.0},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg_obj))
        cfg = load_config(path)
        assert cfg.horizon == 25
        assert cfg.rate_adapt_n == 30.0
        result = run_experiment(cfg)
        assert result.summary["all_passed"]

    def test_explicit_matrices_config(self):
        h = np.array([[1.0 + 0j, 0.5j], [0.0, 2.0]])
        cfg = load_config(
            {
                "channel": {
                    "kind": "discrete",
                    "states": [matrix_to_json(h)],
                    "probs": [1.0],
                },
                "csit_error": {"kind": "bounded-ball", "delta": 0.1},
                "controller": {"kind": "ogd", "gamma": 0.02, "t_delay": 2},
                "p": 3.0,
                "p_bar": 2.0,
                "horizon": 10,
                "seed": 1,
            }
        )
        assert cfg.controller.t_delay == 2
        run_experiment(cfg)

    def test_inverse_sqrt_spec(self):
        cfg = load_config(
            {
                "channel": {"preset": "paper-two-state"},
                "controller": {"kind": "ogd", "step": "inverse-sqrt"},
                "p": 3.0,
                "p_bar": 2.0,
                "horizon": 10,
                "seed": 1,
            }
        )
        assert cfg.controller.gamma is None

    def test_missing_field_raises(self):
        with pytest.raises(ConfigError, match="missing config field"):
            load_config({"channel": {"preset": "paper-two-state"}})

    def test_unknown_key_raises(self):
        cfg_obj = {
            "channel": {"preset": "paper-two-state"},
            "csit_eror": {"preset": "case1"},
            "controller": {"kind": "dpp", "v": 1.0},
            "p": 3.0,
            "p_bar": 2.0,
            "horizon": 10,
            "seed": 1,
        }
        with pytest.raises(ConfigError, match="'csit_eror'"):
            load_config(cfg_obj)

    @pytest.mark.parametrize(
        "base, section, value, match",
        [
            (_OGD_OBJ, "controller", {"kind": "ogd", "step": "inverse_sqrt"},
             "'step' must be 'inverse-sqrt'"),
            (_OGD_OBJ, "controller", {"kind": "ogd", "gama": 0.02}, "in 'controller': 'gama'"),
            (_OGD_OBJ, "controller", {"kind": "ogd", "step": "inverse-sqrt", "gamma": 0.02},
             "'gamma' or 'step'"),
            (_DPP_OBJ, "controller", {"kind": "dpp", "v": 1.0, "z_0": 1.0},
             "in 'controller': 'z_0'"),
            (_DPP_OBJ, "csit_error", {"kind": "bounded-ball", "detla": 0.1},
             "in 'csit_error': 'detla'"),
            (_OGD_OBJ, "csit_error", {"preset": "case1", "kind": "exact"},
             "in 'csit_error': 'kind'"),
            (_DPP_OBJ, "channel", {"preset": "paper-two-state", "n_t": 2},
             "in 'channel': 'n_t'"),
            (_DPP_OBJ, "outputs", {"cvs": "out/t.csv"}, "in 'outputs': 'cvs'"),
            (_DPP_OBJ, "rate_adapt", {"n_total": 30.0, "n": 1}, "in 'rate_adapt': 'n'"),
            (_DPP_OBJ, "reference", {"policy": "ref.json", "r_opt": 1.0},
             "'reference' needs one of 'policy'"),
            (_DPP_OBJ, "controller", "dpp", "section 'controller' must be a JSON object"),
        ],
        ids=[
            "step-typo", "gama", "step-and-gamma", "z_0", "detla", "preset-and-kind",
            "preset-and-dims", "cvs", "rate-extra", "policy-and-r_opt", "not-an-object",
        ],
    )
    def test_unknown_section_key_raises(self, base, section, value, match):
        # each of these used to load, silently dropping or ignoring the key
        with pytest.raises(ConfigError, match=match):
            load_config({**base, section: value})

    @pytest.mark.parametrize(
        "states, observed",
        [((3, 3), (3, 3)), ((2, 2), (3, 3)), ((3, 3), (2, 2))],
        ids=["table-3x3", "observed-3x3", "states-3x3"],
    )
    def test_per_state_table_must_fit_channel(self, states, observed):
        # used to load and then fail in the draw with a numpy broadcast error
        table = {
            "kind": "per-state",
            "states": [matrix_to_json(np.eye(*states))],
            "observed": [matrix_to_json(np.eye(*observed))],
        }
        with pytest.raises(ConfigError, match="per-state CSIT table"):
            load_config({**_OGD_OBJ, "csit_error": table})

    @pytest.mark.parametrize(
        "path", sorted((REPO / "configs").glob("*.json")), ids=lambda p: p.name
    )
    def test_shipped_configs_load(self, path):
        assert load_config(path).horizon >= 1

    def test_readme_example_loads(self, cdi_reference, tmp_path):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        blocks = [b.split("```")[0] for b in readme.split("```json\n")[1:]]
        example = next(b for b in blocks if '"channel"' in b)
        save_policy(cdi_reference, tmp_path / "ref.json")
        path = tmp_path / "cfg.json"
        path.write_text(example, encoding="utf-8")
        cfg = load_config(path)
        assert cfg.reference.r_opt == cdi_reference.r_opt

    @pytest.mark.parametrize("gamma", [0.0, -0.01])
    def test_nonpositive_gamma_raises(self, gamma):
        with pytest.raises(ConfigError, match="gamma"):
            load_config(
                {
                    "channel": {"preset": "paper-two-state"},
                    "controller": {"kind": "ogd", "gamma": gamma},
                    "p": 3.0,
                    "p_bar": 2.0,
                    "horizon": 10,
                    "seed": 1,
                }
            )

    def test_unknown_preset_raises(self):
        with pytest.raises(ConfigError, match="preset"):
            load_config(
                {
                    "channel": {"preset": "nope"},
                    "controller": {"kind": "dpp", "v": 1.0},
                    "p": 3.0,
                    "p_bar": 2.0,
                    "horizon": 10,
                    "seed": 1,
                }
            )


def experiment(**fields):
    """A valid two-state dpp ExperimentConfig with the given fields replaced."""
    return ExperimentConfig(**{
        "channel": paper_two_state(), "csit_error": ExactCsit(), "controller": DppSpec(v=1.0),
        "p": 3.0, "p_bar": 2.0, "horizon": 10, "seed": 1, "rate_adapt_n": 5.0, **fields,
    })


# (constructor, valid fields, the field replaced, whether it is a count)
CONSTRUCTOR_FIELDS = [
    (DppSpec, {"v": 100.0}, "v", False),
    (OgdSpec, {"gamma": 0.01, "t_delay": 2}, "gamma", False),
    (OgdSpec, {"gamma": 0.01, "t_delay": 2}, "t_delay", True),
    (experiment, {}, "p", False),
    (experiment, {}, "p_bar", False),
    (experiment, {}, "horizon", True),
    (experiment, {}, "seed", True),
    (experiment, {}, "rate_adapt_n", False),
    (ProductChannel, {"n_r": 2, "n_t": 2, "v_max": 0.5}, "n_r", True),
    (ProductChannel, {"n_r": 2, "n_t": 2, "v_max": 0.5}, "n_t", True),
    (ProductChannel, {"n_r": 2, "n_t": 2, "v_max": 0.5}, "v_max", False),
    (PhaseQuantizeCsit, {"step": 0.5}, "step", False),
    (MagPhaseQuantizeCsit, {"mag_step": 0.1, "phase_step": 0.5}, "mag_step", False),
    (MagPhaseQuantizeCsit, {"mag_step": 0.1, "phase_step": 0.5}, "phase_step", False),
    (BoundedBallCsit, {"delta": 0.1}, "delta", False),
    (RateLedger, {"n_total": 10.0}, "n_total", False),
]


class TestConstructorChecks:
    """Objects built in code, not from JSON, reject what ``load_config``
    rejects: a non-finite number or a non-integral count fails at once,
    naming the field, not mid-run or in the summary file."""

    @pytest.mark.parametrize(
        "make, fields, field, bad",
        [
            pytest.param(make, fields, field, bad, id=f"{make.__name__}-{field}-{bad}")
            for make, fields, field, count in CONSTRUCTOR_FIELDS
            for bad in [float("nan"), float("inf")] + [1.5] * count
        ],
    )
    def test_rejects_non_finite_and_non_integral(self, make, fields, field, bad):
        make(**fields)
        key = "n_total" if field == "rate_adapt_n" else field  # the ledger's own check
        with pytest.raises(ValueError, match=f"^'{key}' must be "):
            make(**{**fields, field: bad})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["channel", "states", "observed"])
    def test_tables_reject_non_finite_entries(self, field, bad):
        a, b = np.eye(2, dtype=complex), np.ones((2, 2), dtype=complex)
        broken = b.copy()
        broken[1, 0] = bad
        if field == "channel":
            with pytest.raises(ValueError, match="'states' must be finite"):
                DiscreteChannel(states=(a, broken), probs=np.array([0.5, 0.5]))
        else:
            tables = {"states": (a, b), "observed": (a, b), field: (a, broken)}
            with pytest.raises(ValueError, match=f"'{field}' must be finite"):
                TabulatedCsit(**tables)


# the code route to each field of NUMERIC_FIELDS and INTEGER_FIELDS
CODE_ROUTES = {
    "p": lambda bad: experiment(p=bad),
    "p_bar": lambda bad: experiment(p_bar=bad),
    "horizon": lambda bad: experiment(horizon=bad),
    "seed": lambda bad: experiment(seed=bad),
    "v": lambda bad: DppSpec(v=bad),
    "gamma": lambda bad: OgdSpec(gamma=bad),
    "t_delay": lambda bad: OgdSpec(t_delay=bad),
    "delta": lambda bad: BoundedBallCsit(delta=bad),
    "v_max": lambda bad: ProductChannel(n_r=2, n_t=2, v_max=bad),
    "n_r": lambda bad: ProductChannel(n_r=bad, n_t=2, v_max=1.0),
    "n_t": lambda bad: ProductChannel(n_r=2, n_t=bad, v_max=1.0),
    "step": lambda bad: PhaseQuantizeCsit(step=bad),
    "mag_step": lambda bad: MagPhaseQuantizeCsit(mag_step=bad, phase_step=0.1),
    "phase_step": lambda bad: MagPhaseQuantizeCsit(mag_step=0.1, phase_step=bad),
    "r_opt": lambda bad: experiment(reference=bad),
    "n_total": lambda bad: experiment(rate_adapt_n=bad),
    "probs": lambda bad: DiscreteChannel(states=[np.eye(2)], probs=bad),
}
# each policy's number list: (a valid policy file holding it, its code route)
POLICY_LISTS = {
    "probs": (
        {"kind": "with-csit", "lambda": 0.0, "r_opt": 1.0, "probs": [1.0],
         "states": [_EYE], "covariances": [_EYE]},
        lambda bad: CdiPolicy(
            lam=0.0, r_opt=1.0, probs=bad, states=[np.eye(2)], covariances=[np.eye(2)]
        ),
    ),
    "per_state_utility": (
        {"kind": "no-csit", "q": _EYE, "r_opt": 1.0, "per_state_utility": [1.0],
         "converged": True},
        lambda bad: ConstantCovariance(
            q=np.eye(2), r_opt=1.0, per_state_utility=bad, converged=True
        ),
    ),
}


class TestOneRulePerValue:
    """Each value is checked by the constructor of the object that holds it,
    so a config file and an object built in code meet one rule and one
    message."""

    @pytest.mark.parametrize(
        "base, section, field, bad",
        [
            pytest.param(base, section, field, bad, id=f"{field}-{bad!r}")
            for fields, bads in (
                (NUMERIC_FIELDS, [True, "1.5", float("nan"), float("inf")]),
                (INTEGER_FIELDS, [True, "1.5", float("nan"), float("inf"), 1.5]),
                (NUMBER_LIST_FIELDS, NUMBER_LIST_BADS),
            )
            for base, section, field in fields
            for bad in bads
        ],
    )
    def test_json_and_code_routes_give_one_message(self, base, section, field, bad):
        obj = copy.deepcopy(base)
        (obj if section is None else obj[section])[field] = bad
        with pytest.raises(ConfigError) as json_route:
            load_config(obj)
        with pytest.raises(ValueError) as code_route:
            CODE_ROUTES[field](bad)
        assert str(json_route.value) == str(code_route.value)
        assert f"'{field}' must be " in str(code_route.value)

    @pytest.mark.parametrize("bad", NUMBER_LIST_BADS, ids=repr)
    @pytest.mark.parametrize("field", list(POLICY_LISTS))
    def test_policy_number_lists_give_one_message(self, field, bad):
        policy, make = POLICY_LISTS[field]
        with pytest.raises(ConfigError) as json_route:
            load_policy({**policy, field: bad})
        with pytest.raises(ValueError) as code_route:
            make(bad)
        assert str(json_route.value) == str(code_route.value)
        assert f"'{field}' must be " in str(code_route.value)

    @pytest.mark.parametrize(
        "bad",
        [np.array([True]), np.array(["1.0"]), np.array([1.0 + 0j]), np.array([[1.0]])],
        ids=["bool", "string", "complex", "2-d"],
    )
    @pytest.mark.parametrize(
        "field, make",
        [("probs", CODE_ROUTES["probs"])]
        + [(field, make) for field, (_, make) in POLICY_LISTS.items()],
        ids=["channel-probs", "policy-probs", "per_state_utility"],
    )
    def test_number_arrays_need_a_real_numeric_dtype(self, field, make, bad):
        with pytest.raises(ValueError, match=f"^'{field}' must be a list of numbers, got array"):
            make(bad)

    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda: CdiPolicy(states=[np.eye(2), 2 * np.eye(2)], probs=[0.5, 0.5],
                               covariances=[np.eye(2)], lam=0.0, r_opt=1.0),
             "one probability and one covariance per state: 2 states, 2 probs, 1 covariances"),
            (lambda: CdiPolicy(states=[np.eye(2)], probs=[1.0], covariances=[np.eye(2)],
                               lam=float("nan"), r_opt=1.0),
             "'lambda' must be finite"),
            (lambda: experiment(reference=float("nan")), "'r_opt' must be finite"),
            (lambda: experiment(reference=True), "'r_opt' must be a number, got True"),
            (lambda: ConstantCovariance(q=np.full((2, 2), np.nan), per_state_utility=[1.0],
                                        r_opt=1.0, converged=True, iterations=2),
             "'q' must be finite"),
            (lambda: ConstantCovariance(q=np.eye(2), per_state_utility=[1.0], r_opt=1.0,
                                        converged="false", iterations=2),
             "'converged' must be true or false, got 'false'"),
            (lambda: ConstantCovariance(q=np.eye(2), per_state_utility=[1.0], r_opt=1.0,
                                        converged=True, iterations=2.5),
             "'iterations' must be an integer, got 2.5"),
        ],
        ids=["cdi-lengths", "cdi-nan-lam", "nan-reference", "bool-reference", "nan-q",
             "string-converged", "fraction-iterations"],
    )
    def test_code_route_rejects_at_construction(self, make, match):
        # each of these used to build, and failed later or not at all
        with pytest.raises(ValueError, match=match):
            make()

    @pytest.mark.parametrize(
        "base, section, field",
        NUMERIC_FIELDS + INTEGER_FIELDS,
        ids=[f for *_, f in NUMERIC_FIELDS + INTEGER_FIELDS],
    )
    def test_json_null_is_rejected_by_key(self, base, section, field):
        # JSON leaves a key out to take its default; null is not a value
        obj = copy.deepcopy(base)
        (obj if section is None else obj[section])[field] = None
        where = "" if section is None else f" in '{section}'"
        with pytest.raises(ConfigError, match=f"^'{field}'{where} must not be null$"):
            load_config(obj)

    @pytest.mark.parametrize(
        "field",
        # in code None is a value for these three: the 1/sqrt(t) schedule, no
        # reference and no rate-adaptation ledger
        [f for *_, f in NUMERIC_FIELDS + INTEGER_FIELDS
         if f not in ("gamma", "r_opt", "n_total")],
    )
    def test_code_none_is_rejected_by_key(self, field):
        with pytest.raises(ValueError, match=f"^'{field}' must be an? (number|integer), got None$"):
            CODE_ROUTES[field](None)

    def test_values_are_stored_as_their_type(self):
        # an integral float count is an int, and an int number a float, on both routes
        model = ProductChannel(n_r=2.0, n_t=np.int64(3), v_max=1)
        assert (type(model.n_r), type(model.n_t), type(model.v_max)) == (int, int, float)
        assert type(experiment(reference=1).reference) is float


class TestMatrixJson:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        assert np.array_equal(matrix_from_json(matrix_to_json(a)), a)

    def test_entry_count_validation(self):
        with pytest.raises(ValueError, match="entries"):
            matrix_from_json({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})

    @pytest.mark.parametrize("entry", [1.0, [1.0], [1.0, 0.0, 0.0], [None, 0.0], "ab", ["x", 0],
                                       ["1", "0"], [1.0, "0"], [True, False], [0.0, False]])
    def test_malformed_entry_rejected(self, entry):
        with pytest.raises(ValueError, match=r"matrix entry 1 is not an \[re, im\] pair"):
            matrix_from_json({"rows": 1, "cols": 2, "entries": [[1.0, 0.0], entry]})

    @pytest.mark.parametrize("entry", [[float("nan"), 0.0], [0.0, float("-inf")]])
    def test_non_finite_entries_rejected(self, entry):
        with pytest.raises(ValueError, match="non-finite"):
            matrix_from_json({"rows": 1, "cols": 2, "entries": [[1.0, 0.0], entry]})

    @pytest.mark.parametrize("key, bad", [("rows", 2.9), ("rows", True), ("rows", "2"),
                                          ("cols", 1.5), ("cols", False), ("cols", [2])])
    def test_dimensions_are_counts(self, key, bad):
        obj = {"rows": 2, "cols": 2, "entries": [[1.0, 0.0]] * 4, key: bad}
        with pytest.raises(ValueError, match=f"^'{key}' must be an integer, got "):
            matrix_from_json(obj)

    def test_integral_float_dimensions_and_int_entries_are_read(self):
        m = matrix_from_json({"rows": 1.0, "cols": 2.0, "entries": [[1, 0], [0.5, -2]]})
        assert m.dtype == np.complex128 and m.tolist() == [[1 + 0j, 0.5 - 2j]]

    def test_unknown_key_rejected_by_name(self):
        obj = {"rows": 1, "cols": 1, "entries": [[1.0, 0.0]], "junk": 1, "Rows": 1}
        with pytest.raises(ValueError, match=r"^unknown matrix key\(s\): 'Rows', 'junk'$"):
            matrix_from_json(obj)


def square(k):
    """A 2x2 matrix in the JSON schema with k entries of [1, 0]."""
    return {"rows": 2, "cols": 2, "entries": [[1.0, 0.0]] * k}


def config_text(**sections):
    """A short two-state dpp config as JSON text, with sections replaced."""
    return json.dumps({
        "channel": {"preset": "paper-two-state"},
        "controller": {"kind": "dpp", "v": 100.0},
        "p": 3.0, "p_bar": 2.0, "horizon": 10, "seed": 1, **sections,
    })


# (id, config text or None for a missing file, the error it gives)
BAD_CONFIGS = [
    ("missing-file", None, "No such file or directory"),
    ("malformed-json", '{"channel": ', "malformed JSON: Expecting value"),
    ("config-error", config_text(controller={"kind": "dpp", "v": -1}), "v must be positive"),
    ("negative-delta", config_text(csit_error={"kind": "bounded-ball", "delta": -0.1}),
     "delta must be nonnegative"),
    ("probs-sum", config_text(channel={
        "kind": "discrete", "probs": [0.5],
        "states": [{"rows": 1, "cols": 1, "entries": [[1.0, 0.0]]}],
    }), "probabilities sum to 0.5, expected 1"),
    ("no-antennas", config_text(channel={"kind": "continuous-product", "n_r": 0, "n_t": 2,
                                         "v_max": 1.0}), "antenna counts must be positive"),
    # numpy's MemoryError ("Unable to allocate 256. TiB") in the first draw
    ("too-many-antennas", config_text(channel={"kind": "continuous-product", "n_r": 2,
                                               "n_t": 2**40, "v_max": 1.0}),
     "'n_t' must be at most 8 antennas, got 1099511627776"),
    # a summary with "relative_overhead": Infinity, which is not JSON
    ("subnormal-ledger", config_text(rate_adapt={"n_total": 5e-324}),
     "n_total must be positive and at least "),
    ("unknown-csit-preset", config_text(csit_error={"preset": "case9"}),
     "unknown error preset 'case9'"),
    ("malformed-entry", config_text(channel={
        "kind": "discrete", "probs": [1.0],
        "states": [{"rows": 1, "cols": 1, "entries": [1.0]}],
    }), "matrix entry 0 is not an [re, im] pair of numbers: 1.0"),
    ("fractional-rows", config_text(channel={
        "kind": "discrete", "probs": [1.0],
        "states": [{"rows": 1.5, "cols": 1, "entries": [[1.0, 0.0]]}],
    }), "'states': 'rows' must be an integer, got 1.5"),
    ("unknown-matrix-key", config_text(channel={
        "kind": "discrete", "probs": [1.0],
        "states": [{"rows": 1, "cols": 1, "entries": [[1.0, 0.0]], "junk": 0}],
    }), "'states': unknown matrix key(s): 'junk'"),
    ("config-not-object", "5", "config must be a JSON object, got 5"),
    ("states-not-list", config_text(channel={"kind": "discrete", "probs": [1.0], "states": 5}),
     "'states' must be a list of matrices, got 5"),
    ("table-not-list", config_text(csit_error={"kind": "per-state", "states": 3, "observed": 3}),
     "'states' must be a list of matrices, got 3"),
    ("reference-policy-not-path", config_text(reference={"policy": 7}),
     "field 'policy' must be a path string, got 7"),
    ("replay-policy-not-path", config_text(controller={"kind": "baseline-replay", "policy": 7}),
     "field 'policy' must be a path string, got 7"),
    ("output-not-path", config_text(outputs={"csv": 5}),
     "output 'csv' must be a path string, got 5"),
    ("output-matrix", config_text(outputs={"csv": {"rows": 1}}),
     "output 'csv' must be a path string, got {'rows': 1}"),
    # JSON leaves a key out to take its default; null is no value
    ("null-number", config_text(p=None), "'p' must not be null"),
    ("null-reference-value", config_text(reference={"r_opt": None}),
     "'r_opt' in 'reference' must not be null"),
    ("null-output", config_text(outputs={"csv": None}), "'csv' in 'outputs' must not be null"),
    ("null-preset", config_text(channel={"preset": None}), "'preset' in 'channel' must not be null"),
    ("null-replay-policy", config_text(controller={"kind": "baseline-replay", "policy": None}),
     "'policy' in 'controller' must not be null"),
]


class TestCli:
    def run_cli(self, *args, stdin=None):
        return subprocess.run(
            [sys.executable, "-m", "dyncov.cli", *args],
            capture_output=True,
            text=True,
            input=stdin,
        )

    def test_run_and_baseline_end_to_end(self, tmp_path):
        base_cfg = {
            "channel": {"preset": "paper-two-state"},
            "csit_error": {"kind": "exact"},
            "controller": {"kind": "dpp", "v": 100.0},
            "p": 3.0,
            "p_bar": 2.0,
            "horizon": 300,
            "seed": 4,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_cfg))
        pol_path = tmp_path / "ref.json"
        out = self.run_cli(
            "baseline", str(cfg_path), "--kind", "with-csit", "--out", str(pol_path)
        )
        assert out.returncode == 0, out.stderr
        assert pol_path.exists()

        base_cfg["reference"] = {"policy": "ref.json"}
        base_cfg["outputs"] = {"csv": str(tmp_path / "trace.csv")}
        cfg_path.write_text(json.dumps(base_cfg))
        out = self.run_cli("run", str(cfg_path))
        assert out.returncode == 0, out.stderr + out.stdout
        assert "PASS" in out.stdout
        assert (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize(
        "cap, status, line",
        [(100_000, 0, "solver: 25 iterations, converged: true"),
         (3, 1, "solver: 3 iterations, converged: false")],
        ids=["converged", "iteration-cap"],
    )
    def test_no_csit_baseline_reports_its_solve(
        self, tmp_path, monkeypatch, capsys, cap, status, line
    ):
        # a solve stopped by the iteration cap writes its flagged policy and exits 1
        monkeypatch.setattr(solvers, "_FISTA_ITER_CAP", cap)
        cfg_path, pol_path = tmp_path / "cfg.json", tmp_path / "ref.json"
        cfg_path.write_text(config_text())
        args = ["baseline", str(cfg_path), "--kind", "no-csit", "--out", str(pol_path)]
        assert cli_main(args) == status
        assert line in capsys.readouterr().out.splitlines()
        assert load_policy(pol_path).converged is (status == 0)

    @pytest.mark.parametrize(
        "command, text, samples, message",
        [
            pytest.param(command, text, "100", message, id=f"{name}-{command}")
            for name, text, message in BAD_CONFIGS
            for command in ("run", "baseline")
        ] + [
            pytest.param(
                "baseline", config_text(channel={"preset": "paper-continuous"}), samples,
                f"n_samples must be at least 1, got {samples}", id=f"{name}-baseline",
            )
            for name, samples in (("no-samples", "0"), ("negative-samples", "-1"))
        ],
    )
    def test_bad_input_exits_2_without_traceback(self, tmp_path, command, text, samples, message):
        # exit 1 stays the certification-failure status
        cfg_path = tmp_path / "cfg.json"
        if text is not None:
            cfg_path.write_text(text)
        extra = ["--kind", "with-csit", "--samples", samples, "--out", str(tmp_path / "ref.json")]
        out = self.run_cli(command, str(cfg_path), *(extra if command == "baseline" else []))
        assert out.returncode == 2
        assert out.stderr.startswith("dyncov: error: ") and message in out.stderr
        assert "Traceback" not in out.stderr and out.stdout == ""

    @pytest.mark.parametrize(
        "controller",
        [{"kind": "ogd", "gamma": 0.01}, {"kind": "baseline-replay", "policy": "ref.json"}],
        ids=["ogd-reference", "replay"],
    )
    def test_non_psd_policy_exits_2(self, constant_reference, tmp_path, capsys, controller):
        save_policy(constant_reference, tmp_path / "ref.json")
        obj = json.loads((tmp_path / "ref.json").read_text(encoding="utf-8"))
        obj["q"] = matrix_to_json(-5 * np.eye(2))
        (tmp_path / "ref.json").write_text(json.dumps(obj), encoding="utf-8")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(controller=controller, reference={"policy": "ref.json"}))
        with pytest.raises(SystemExit) as exit_:
            cli_main(["run", str(cfg_path)])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.startswith(
            "dyncov: error: 'q' must be positive semidefinite (relative least eigenvalue "
        )

    def test_failed_lapack_solve_mid_run_exits_2(self, tmp_path, capsys):
        # observations of norm about 1e300 overflow their Gram matrices in the
        # decide; a LinAlgError traceback would exit 1, a failed certification
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(
            channel={"preset": "paper-continuous"},
            csit_error={"kind": "bounded-ball", "delta": 1e300},
            controller={"kind": "ogd", "step": "inverse-sqrt", "t_delay": 6},
            p=602.9, p_bar=67.5, horizon=23,
        ))
        with pytest.raises(SystemExit) as exit_:
            cli_main(["run", str(cfg_path)])
        assert exit_.value.code == 2
        assert capsys.readouterr().err == (
            "dyncov: error: decide of slots 0..22: LAPACK kernel failed: "
            "singular matrix or eigenvalues did not converge\n"
        )

    @pytest.mark.parametrize("command", ["run", "baseline"])
    def test_policy_file_not_object_exits_2(self, tmp_path, command):
        (tmp_path / "ref.json").write_text("[1, 2]")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(reference={"policy": "ref.json"}))
        extra = ["--kind", "with-csit", "--out", str(tmp_path / "out.json")]
        out = self.run_cli(command, str(cfg_path), *(extra if command == "baseline" else []))
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr == "dyncov: error: policy file must be a JSON object, got [1, 2]\n"

    @pytest.mark.parametrize(
        "args, mat, message",
        [
            (["project", "--cap", "1"], square(1), "expected 4 entries for a 2x2 matrix, got 1"),
            (["solve-waterfill", "--cap", "1"], square(1),
             "expected 4 entries for a 2x2 matrix, got 1"),
            (["project", "--cap", "-1"], square(4), "cap must be positive"),
            (["solve-waterfill", "--cap", "-1"], square(4), "cap must be positive"),
            (["project", "--cap", "inf"], square(4), "cap must be finite"),
            (["solve-waterfill", "--cap", "inf"], square(4), "cap must be finite"),
            (["solve-waterfill", "--cap", "nan"], square(4), "cap must be finite"),
            (["solve-waterfill", "--cap", "1", "--z-over-v", "-1"], square(4),
             "z_over_v must be nonnegative"),
            (["project", "--cap", "1"], {"rows": 1, "cols": 1, "entries": [1.0]},
             "matrix entry 0 is not an [re, im] pair of numbers: 1.0"),
            (["solve-waterfill", "--cap", "1"], {"rows": 1, "cols": 1, "entries": [1.0]},
             "matrix entry 0 is not an [re, im] pair of numbers: 1.0"),
            (["project", "--cap", "1"], {"rows": 1, "cols": 1, "entries": 5},
             "matrix 'entries' must be a list of [re, im] pairs, got 5"),
        ],
        ids=[
            "project-short", "waterfill-short", "project-cap", "waterfill-cap",
            "project-inf-cap", "waterfill-inf-cap", "waterfill-nan-cap", "z-over-v",
            "project-malformed-entry", "waterfill-malformed-entry", "entries-not-a-list",
        ],
    )
    def test_bad_matrix_input_exits_2_without_traceback(self, args, mat, message):
        out = self.run_cli(*args, "--matrix", "-", stdin=json.dumps(mat))
        assert out.returncode == 2
        assert out.stderr == f"dyncov: error: {message}\n" and out.stdout == ""

    @pytest.mark.parametrize(
        "passed, status, tally", [((True, False), 1, "1/2"), ((True, True), 0, "2/2")],
        ids=["one-fails", "all-pass"],
    )
    def test_validate_exits_1_on_a_failed_check(self, monkeypatch, capsys, passed, status, tally):
        checks = tuple(
            partial(CheckResult, f"stub-{i}", ok, "stub detail") for i, ok in enumerate(passed)
        )
        monkeypatch.setattr(validate, "ALL_CHECKS", checks)
        assert cli_main(["validate"]) == status
        assert capsys.readouterr().out.splitlines()[-1] == f"{tally} checks passed"

    def test_solve_waterfill_stdin(self):
        mat = {"rows": 1, "cols": 1, "entries": [[2.0, 0.0]]}
        out = self.run_cli(
            "solve-waterfill", "--matrix", "-", "--cap", "3.0", stdin=json.dumps(mat)
        )
        assert out.returncode == 0, out.stderr
        res = json.loads(out.stdout)
        assert res["mu"] == pytest.approx(4.0 / 13.0)
        assert res["theta"][0] == pytest.approx(3.0)

    def test_matrix_commands_print_indented_json(self):
        # the json.dumps(indent=2) text of the matrix_to_json dicts
        h = paper_two_state().states[0]
        x = h @ h.conj().T - np.eye(2)  # Hermitian, to project
        wf, q = waterfill_penalized(h, 0.5, 2.0), psd_cap_project(x, 1.5)
        cases = [
            (["solve-waterfill", "--z-over-v", "0.5", "--cap", "2.0"], h, {
                "q": matrix_to_json(wf.q), "mu": wf.mu,
                "theta": wf.theta.tolist(), "sigma": wf.sigma.tolist(),
            }),
            (["project", "--cap", "1.5"], x, matrix_to_json(q)),
        ]
        for args, mat, obj in cases:
            out = self.run_cli(*args, "--matrix", "-", stdin=json.dumps(matrix_to_json(mat)))
            assert out.returncode == 0, out.stderr
            assert out.stdout == json.dumps(obj, indent=2) + "\n"

    def test_run_flags_override_configured_outputs_by_name(self, tmp_path, capsys):
        configured = {name: str(tmp_path / f"config-{name}") for name in ("csv", "summary")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(outputs=configured))
        flagged = {"csv": str(tmp_path / "flag-csv"), "svg_power": str(tmp_path / "flag-svg")}
        assert cli_main([
            "run", str(cfg_path), "--csv", flagged["csv"], "--svg-power", flagged["svg_power"],
        ]) == 0
        written = [line[len("wrote "):] for line in capsys.readouterr().out.splitlines()
                   if line.startswith("wrote ")]
        assert written == [flagged["csv"], configured["summary"], flagged["svg_power"]]
        assert not Path(configured["csv"]).exists()

    def test_project_cli(self, tmp_path):
        mat_path = tmp_path / "m.json"
        mat_path.write_text(
            json.dumps(
                {
                    "rows": 2,
                    "cols": 2,
                    "entries": [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                }
            )
        )
        out = self.run_cli("project", "--matrix", str(mat_path), "--cap", "1.0")
        assert out.returncode == 0, out.stderr
        q = matrix_from_json(json.loads(out.stdout))
        assert np.allclose(q, np.diag([1.0, 0.0]), atol=1e-12)
