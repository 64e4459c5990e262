"""Simulation loop, trace emission, certification plumbing, config parsing,
policy files and the CLI."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dyncov import (
    DelayedBy,
    DppSpec,
    ExactCsit,
    ExperimentConfig,
    Instantaneous,
    OgdSpec,
    OutputPaths,
    ReplaySpec,
    compute_baseline,
    emit_outputs,
    load_config,
    load_policy,
    paper_continuous,
    paper_error_case,
    paper_two_state,
    run_experiment,
    save_policy,
)
from dyncov.harness import ConfigError, csv_to_columns, trace_to_csv
from dyncov.matrixio import matrix_from_json, matrix_to_json

REPO = Path(__file__).resolve().parents[1]


def dpp_config(horizon=100, seed=5, **kw):
    kw.setdefault("csit_error", ExactCsit())
    kw.setdefault("p", 3.0)
    kw.setdefault("p_bar", 2.0)
    return ExperimentConfig(
        channel=paper_two_state(),
        delay=Instantaneous(),
        controller=DppSpec(v=100.0),
        horizon=horizon,
        seed=seed,
        **kw,
    )


def ogd_config(horizon=100, seed=5, **kw):
    return ExperimentConfig(
        channel=paper_two_state(),
        csit_error=kw.pop("csit_error", ExactCsit()),
        delay=DelayedBy(1),
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

    def test_ogd_trace_cap_enforced(self):
        result = run_experiment(ogd_config(horizon=300))
        assert np.max(result.tr_q) <= 2.0 + 1e-9

    def test_continuous_channel_skips_norm_certs(self):
        cfg = ExperimentConfig(
            channel=paper_continuous(),
            csit_error=ExactCsit(),
            delay=Instantaneous(),
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
            delay=Instantaneous(),
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
                delay=Instantaneous(),
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

    def test_dpp_requires_instantaneous(self):
        with pytest.raises(ConfigError, match="instantaneous"):
            ExperimentConfig(
                channel=paper_two_state(),
                csit_error=ExactCsit(),
                delay=DelayedBy(1),
                controller=DppSpec(v=100.0),
                p=3.0,
                p_bar=2.0,
                horizon=10,
                seed=1,
            )

    def test_ogd_requires_matching_lag(self):
        with pytest.raises(ConfigError, match="lag"):
            ExperimentConfig(
                channel=paper_two_state(),
                csit_error=ExactCsit(),
                delay=DelayedBy(2),
                controller=OgdSpec(gamma=0.01, t_delay=1),
                p=3.0,
                p_bar=2.0,
                horizon=10,
                seed=1,
            )

    def test_power_order_validation(self):
        with pytest.raises(ConfigError, match="p_bar"):
            dpp_config(p=1.0, p_bar=2.0)


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

    def test_csv_round_trip(self):
        result = run_experiment(ogd_config(horizon=30))
        cols = csv_to_columns(trace_to_csv(result))
        assert cols["t"] == list(range(30))
        assert cols["z"] == [None] * 30  # empty for non-queue controllers
        assert np.allclose(cols["r"], result.r)


class TestPolicyFiles:
    def test_with_csit_round_trip(self, cdi_reference, tmp_path):
        path = tmp_path / "policy.json"
        save_policy(cdi_reference, path)
        loaded = load_policy(path)
        assert loaded.lam == cdi_reference.lam
        assert loaded.r_opt == cdi_reference.r_opt
        for a, b in zip(loaded.covariances, cdi_reference.covariances):
            assert np.array_equal(a, b)

    def test_no_csit_round_trip(self, constant_reference, tmp_path):
        path = tmp_path / "policy.json"
        save_policy(constant_reference, path)
        loaded = load_policy(path)
        assert np.array_equal(loaded.q, constant_reference.q)
        assert loaded.converged == constant_reference.converged

    def test_compute_baseline_continuous_uses_samples(self):
        cfg = ExperimentConfig(
            channel=paper_continuous(),
            csit_error=ExactCsit(),
            delay=Instantaneous(),
            controller=DppSpec(v=100.0),
            p=3.0,
            p_bar=2.0,
            horizon=10,
            seed=7,
        )
        pol = compute_baseline(cfg, kind="with-csit", n_samples=20)
        assert len(pol.covariances) == 20


_DPP_OBJ = {
    "channel": {"kind": "continuous-product", "n_r": 2, "n_t": 2, "v_max": 1.0},
    "csit_error": {"kind": "bounded-ball", "delta": 0.1},
    "controller": {"kind": "dpp", "v": 100.0, "z0": 0.0},
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
_MAG_PHASE_OBJ = {
    **_OGD_OBJ,
    "csit_error": {"kind": "mag-phase-quantize", "mag_step": 0.1, "phase_step": 0.1},
}
# (valid config, section holding the field or None for top level, field)
NUMERIC_FIELDS = [
    (_DPP_OBJ, None, "p"),
    (_DPP_OBJ, None, "p_bar"),
    (_DPP_OBJ, "controller", "v"),
    (_DPP_OBJ, "controller", "z0"),
    (_DPP_OBJ, "csit_error", "delta"),
    (_DPP_OBJ, "channel", "v_max"),
    (_DPP_OBJ, "reference", "r_opt"),
    (_DPP_OBJ, "rate_adapt", "n_total"),
    (_OGD_OBJ, "controller", "gamma"),
    (_OGD_OBJ, "csit_error", "step"),
    (_MAG_PHASE_OBJ, "csit_error", "mag_step"),
    (_MAG_PHASE_OBJ, "csit_error", "phase_step"),
]


class TestConfigLoading:
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
        assert isinstance(cfg.delay, DelayedBy) and cfg.delay.t_slots == 2
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


class TestMatrixJson:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        assert np.array_equal(matrix_from_json(matrix_to_json(a)), a)

    def test_entry_count_validation(self):
        with pytest.raises(ValueError, match="entries"):
            matrix_from_json({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})

    @pytest.mark.parametrize("entry", [[float("nan"), 0.0], [0.0, float("-inf")]])
    def test_non_finite_entries_rejected(self, entry):
        with pytest.raises(ValueError, match="non-finite"):
            matrix_from_json({"rows": 1, "cols": 2, "entries": [[1.0, 0.0], entry]})


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

    def test_solve_waterfill_stdin(self):
        mat = {"rows": 1, "cols": 1, "entries": [[2.0, 0.0]]}
        out = self.run_cli(
            "solve-waterfill", "--matrix", "-", "--cap", "3.0", stdin=json.dumps(mat)
        )
        assert out.returncode == 0, out.stderr
        res = json.loads(out.stdout)
        assert res["mu"] == pytest.approx(4.0 / 13.0)
        assert res["theta"][0] == pytest.approx(3.0)

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
