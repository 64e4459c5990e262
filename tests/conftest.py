"""Shared fixtures: the two-state preset, its reference policies, and the
batteries of seeded controller runs reused across bound-certification tests.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import settings

from dyncov import (
    DppSpec,
    ExperimentConfig,
    OgdSpec,
    cdi_optimal_policy,
    ergodic_constant_covariance,
    paper_error_case,
    paper_two_state,
    run_experiment,
)

P_BAR = 2.0
P = 3.0
V = 100.0
GAMMA = 0.01
HORIZON = 5000
DPP_SEEDS = tuple(range(1000, 1010))
OGD_SEED = 2000
ERROR_CASES = ("exact", "case1", "case2")

# property tests draw the same examples on every run; no per-example deadline
settings.register_profile("dyncov", derandomize=True, deadline=None)
# 1000 examples for the decide's, the fold's, the sweep's, the draw's, the with-csit
# budget's and the config fuzzer's property tests in CI:
# pytest --hypothesis-profile=dyncov-deep tests/test_in_place.py tests/test_decide_oracle.py \
#     tests/test_harness.py::TestRunExperiment::test_decide_equals_public_recursion \
#     tests/test_solvers.py::TestCapThreshold tests/test_channel.py::TestDrawPath \
#     tests/test_solvers.py::TestCdiPolicy::test_every_budget_gets_a_policy_property \
#     tests/test_config_fuzz.py
settings.register_profile("dyncov-deep", settings.get_profile("dyncov"), max_examples=1000)
settings.load_profile("dyncov")


@pytest.fixture(scope="session")
def preset_model():
    return paper_two_state()


@pytest.fixture(scope="session")
def cdi_reference(preset_model):
    return cdi_optimal_policy(preset_model, P_BAR, P)


@pytest.fixture(scope="session")
def constant_reference(preset_model):
    return ergodic_constant_covariance(preset_model, P_BAR)


@pytest.fixture(scope="session")
def dpp_runs(preset_model, cdi_reference):
    """10 seeded queue-controller runs per error case, horizon 5000."""
    t0 = time.perf_counter()
    runs = {}
    for case in ERROR_CASES:
        err = paper_error_case(case)
        runs[case] = [
            run_experiment(
                ExperimentConfig(
                    channel=preset_model,
                    csit_error=err,
                    controller=DppSpec(v=V),
                    p=P,
                    p_bar=P_BAR,
                    horizon=HORIZON,
                    seed=seed,
                    reference=cdi_reference.r_opt,
                )
            )
            for seed in DPP_SEEDS
        ]
    runs["_elapsed"] = time.perf_counter() - t0
    return runs


def _ogd_config(preset_model, constant_reference, case, gamma, seed=OGD_SEED):
    return ExperimentConfig(
        channel=preset_model,
        csit_error=paper_error_case(case),
        controller=OgdSpec(gamma=gamma, t_delay=1),
        p=P,
        p_bar=P_BAR,
        horizon=HORIZON,
        seed=seed,
        reference=constant_reference,
    )


@pytest.fixture(scope="session")
def ogd_runs(preset_model, constant_reference):
    """Constant-step gradient-controller runs, one per error case."""
    t0 = time.perf_counter()
    runs = {
        case: run_experiment(_ogd_config(preset_model, constant_reference, case, GAMMA))
        for case in ERROR_CASES
    }
    runs["_elapsed"] = time.perf_counter() - t0
    return runs


@pytest.fixture(scope="session")
def ogd_sqrt_runs(preset_model, constant_reference):
    """Gradient-controller runs with the 1/sqrt(t) step schedule."""
    return {
        case: run_experiment(_ogd_config(preset_model, constant_reference, case, None))
        for case in ERROR_CASES
    }
