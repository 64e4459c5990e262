"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line.  Tolerances are pinned here; the heavy controller run batteries come
from session fixtures (see conftest) and are shared across criteria."""

import time

import numpy as np
import pytest

from dyncov import (
    ExactCsit,
    RateLedger,
    channel_bounds,
    decode_check,
    paper_continuous,
    paper_error_case,
    paper_two_state,
    run_experiment,
    theoretical_bounds,
)
from dyncov.harness import trace_to_csv
from dyncov.validate import (
    check_capacity_concavity,
    check_controller_certifications,
    check_draw_stream,
    check_gradient_error_bounds,
    check_gram_perturbation,
    check_ledger_properties,
    check_norm_identities,
    check_observation_radius,
    check_projection_grid,
    check_projection_nonexpansive,
    check_projection_variational,
    check_psd_norm_vs_trace,
    check_resolvent_lipschitz,
    check_resolvent_norm_cap,
    check_trace_determinism,
    check_waterfill_beats_random,
    check_waterfill_grid,
)

from conftest import ERROR_CASES, GAMMA, HORIZON, P, P_BAR, V

SLACK = 1e-9


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _bounds_for(case: str, v: float | None = None):
    model = paper_two_state()
    cb = channel_bounds(model, paper_error_case(case))
    return cb, theoretical_bounds(
        b=cb.b, delta=cb.delta, p=P, p_bar=P_BAR, n_t=model.n_t, n_r=model.n_r,
        v=v,
    )


def test_criterion_01_waterfill_oracle_equivalence():
    t0 = time.perf_counter()
    rand = check_waterfill_beats_random()
    grid = check_waterfill_grid()
    elapsed = time.perf_counter() - t0
    ok = rand.passed and grid.passed and elapsed < 30.0
    _report(
        1,
        "water-filling beats 10^3 random feasible points per instance and the "
        "two-mode grid search",
        ok,
        f"{rand.detail}; {grid.detail}; {elapsed:.1f}s",
    )


def test_criterion_02_projection_oracle_equivalence():
    t0 = time.perf_counter()
    nonexp = check_projection_nonexpansive()
    vari = check_projection_variational()
    grid = check_projection_grid()
    elapsed = time.perf_counter() - t0
    ok = nonexp.passed and vari.passed and grid.passed and elapsed < 10.0
    _report(
        2,
        "projection non-expansiveness, variational inequality and grid match",
        ok,
        f"{nonexp.detail}; {vari.detail}; {grid.detail}; {elapsed:.1f}s",
    )


def test_criterion_03_queue_bound_every_slot(dpp_runs):
    worst = -np.inf
    for case in ERROR_CASES:
        _, rep = _bounds_for(case, V)
        for result in dpp_runs[case]:
            top = max(float(np.max(result.z)), result.z_final)
            worst = max(worst, top - rep.queue_bound)
    _report(
        3,
        "queue stays below v(b+delta)^2 + (p - p_bar) at every slot of every run",
        worst <= SLACK,
        f"worst excess {worst:.3e} over 30 runs x {HORIZON} slots",
    )


def test_criterion_04_power_queue_relation_every_slot(dpp_runs):
    worst = -np.inf
    t_axis = np.arange(1, HORIZON + 1, dtype=float)
    for case in ERROR_CASES:
        for result in dpp_runs[case]:
            avg_tr = np.cumsum(result.tr_q) / t_axis
            z_seq = np.append(result.z[1:], result.z_final)
            worst = max(worst, float(np.max(avg_tr - (P_BAR + z_seq / t_axis))))
    _report(
        4,
        "running-average power <= p_bar + Z(t)/t at every slot of every run",
        worst <= SLACK,
        f"worst excess {worst:.3e}",
    )


def test_criterion_05_instantaneous_desk_check(dpp_runs, cdi_reference):
    _, rep = _bounds_for("exact", V)
    assert rep.epsilon == pytest.approx(0.02, abs=1e-15)
    r_opt = cdi_reference.r_opt
    floor = r_opt - rep.epsilon - 0.05  # 0.05 stochastic allowance
    finals = [run.runavg_r[-1] for run in dpp_runs["exact"]]
    hits = sum(1 for f in finals if f >= floor)
    power_ok = all(
        run.runavg_tr_q[-1] <= P_BAR + rep.queue_bound / HORIZON + SLACK
        for run in dpp_runs["exact"]
    )
    elapsed = dpp_runs["_elapsed"]
    ok = hits >= 9 and power_ok and elapsed < 60.0
    _report(
        5,
        "accurate-observation runs reach the adaptive reference within "
        "epsilon + allowance, power within the queue budget",
        ok,
        f"{hits}/10 seeds above {floor:.4f} (reference {r_opt:.4f}), "
        f"min final utility {min(finals):.4f}, battery {elapsed:.1f}s",
    )


def test_criterion_06_inaccurate_observation_bound(dpp_runs, cdi_reference):
    r_opt = cdi_reference.r_opt
    ok = True
    details = []
    for case in ("case1", "case2"):
        _, rep = _bounds_for(case, V)
        floor = r_opt - rep.epsilon - rep.phi_delta
        finals = [run.runavg_r[-1] for run in dpp_runs[case]]
        ok = ok and all(f >= floor - SLACK for f in finals)
        details.append(f"{case}: min {min(finals):.4f} vs floor {floor:.4f}")
    # sample-path ordering is informational only, never asserted
    exact_final = np.mean([run.runavg_r[-1] for run in dpp_runs["exact"]])
    for case in ("case1", "case2"):
        mean_final = np.mean([run.runavg_r[-1] for run in dpp_runs[case]])
        details.append(
            f"mean final exact {exact_final:.4f} vs {case} {mean_final:.4f}"
        )
    _report(
        6,
        "corrupted-observation runs stay above the reference minus "
        "epsilon + phi(delta)",
        ok,
        "; ".join(details),
    )


def test_criterion_07_gradient_controller_regret(ogd_runs):
    t_axis = np.arange(1, HORIZON + 1, dtype=float)
    ok = True
    details = []
    for case in ERROR_CASES:
        result = ogd_runs[case]
        _, rep = _bounds_for(case)
        avg_r = np.cumsum(result.r) / t_axis
        avg_ref = np.cumsum(result.r_ref) / t_axis
        slack_seq = np.array([rep.regret_bound(int(t), GAMMA, 1) for t in t_axis])
        worst = float(np.min(avg_r - (avg_ref - slack_seq)))
        trace_excess = float(np.max(result.tr_q) - P_BAR)
        ok = ok and worst >= -SLACK and trace_excess <= SLACK
        details.append(f"{case}: worst floor margin {worst:.3e}, trace excess {trace_excess:.1e}")
    _report(
        7,
        "constant-step runs beat the fixed-covariance reference minus "
        "2 p_bar^2/(gamma t) + gamma (psi + sqrt(n_r) b^2)^2 / 2 + 2 psi p_bar "
        "at every slot, trace capped",
        ok,
        "; ".join(details),
    )


def test_criterion_08_sqrt_step_schedule(ogd_sqrt_runs):
    t_axis = np.arange(1, HORIZON + 1, dtype=float)
    ok = True
    details = []
    for case in ERROR_CASES:
        result = ogd_sqrt_runs[case]
        _, rep = _bounds_for(case)
        avg_r = np.cumsum(result.r) / t_axis
        avg_ref = np.cumsum(result.r_ref) / t_axis
        slack_seq = np.array([rep.regret_bound(int(t), None, 1) for t in t_axis])
        worst = float(np.min(avg_r - (avg_ref - slack_seq)))
        ok = ok and worst >= -SLACK
        details.append(f"{case}: worst floor margin {worst:.3e}")
    _report(
        8,
        "1/sqrt(t)-step runs hold the schedule's per-slot utility floor",
        ok,
        "; ".join(details),
    )


def test_criterion_09_gradient_error_bound_suite():
    t0 = time.perf_counter()
    res = check_gradient_error_bounds()
    elapsed = time.perf_counter() - t0
    ok = res.passed and elapsed < 10.0
    _report(
        9,
        "gradient norm caps and observation-error bounds on 10^4 random triples",
        ok,
        f"{res.detail}; {elapsed:.1f}s",
    )


def test_criterion_10_matrix_property_suite():
    checks = [
        check_norm_identities(),
        check_psd_norm_vs_trace(),
        check_resolvent_norm_cap(),
        check_gram_perturbation(),
        check_resolvent_lipschitz(),
    ]
    ok = all(c.passed for c in checks)
    _report(
        10,
        "norm identities, trace dominance, resolvent caps and Lipschitz bound",
        ok,
        "; ".join(f"{c.name}: {c.detail}" for c in checks if not c.passed) or "all hold",
    )


def test_criterion_11_rate_ledger():
    led = RateLedger(10.0)
    for r in (4.0, 3.0, 5.0):
        led.record(r)
    worked = led.completed_at == 3 and led.overhead == pytest.approx(2.0)
    worked = worked and [row["assigned"] for row in decode_check(led)] == pytest.approx(
        [4.0, 3.0, 3.0]
    )
    rand = check_ledger_properties()
    ok = worked and rand.passed
    _report(
        11,
        "worked ledger example and 10^3 random completed ledgers decode feasibly",
        ok,
        f"worked example slots=3 overhead=2: {worked}; {rand.detail}",
    )


def test_criterion_12_determinism():
    from dyncov import (
        BoundedBallCsit,
        DppSpec,
        ExperimentConfig,
        OgdSpec,
    )

    configs = [
        ExperimentConfig(
            channel=paper_two_state(),
            csit_error=paper_error_case("case1"),
            controller=DppSpec(v=V),
            p=P,
            p_bar=P_BAR,
            horizon=400,
            seed=77,
        ),
        ExperimentConfig(
            channel=paper_two_state(),
            csit_error=BoundedBallCsit(delta=0.2),
            controller=OgdSpec(gamma=GAMMA),
            p=P,
            p_bar=P_BAR,
            horizon=300,
            seed=78,
        ),
        ExperimentConfig(
            channel=paper_continuous(),
            csit_error=ExactCsit(),
            controller=DppSpec(v=V),
            p=P,
            p_bar=P_BAR,
            horizon=150,
            seed=79,
        ),
    ]
    ok = True
    for cfg in configs:
        first = trace_to_csv(run_experiment(cfg)).encode()
        second = trace_to_csv(run_experiment(cfg)).encode()
        ok = ok and first == second
    _report(
        12,
        "repeated runs of identical configs emit byte-identical CSV traces",
        ok,
        f"{len(configs)} configs x 2 runs each",
    )


@pytest.mark.parametrize(
    "check",
    [
        check_capacity_concavity,
        check_observation_radius,
        check_draw_stream,
        check_controller_certifications,
        check_trace_determinism,
    ],
    ids=lambda check: check.__name__,
)
def test_validate_checks_outside_the_criteria(check):
    # the dyncov validate checks that no criterion above calls
    result = check()
    assert result.passed, f"{result.name}: {result.detail}"
