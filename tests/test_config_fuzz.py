"""Configs fuzzed from the real grammar: every one fails at the boundary with
a ConfigError, or runs to finite finals and a strict-JSON summary.

The strategy builds config objects as ``load_config`` reads them: the two
channel presets and ``continuous-product`` channels up to 4x4, every CSIT
kind and preset, the queue controller and the gradient controller under
both step rules and delays of 1 to 8 slots, ``rate_adapt``, and a no-csit
reference policy file.  Its numbers mix ordinary values with extremes at
both ends of the float range."""

import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncov import load_config, run_experiment
from dyncov.harness import ConfigError
from dyncov.matrixio import matrix_to_json

# the smallest subnormal, a tiny normal, the root of the largest float, a huge
# value and the largest float, each a boundary of some product or quotient
EXTREMES = (5e-324, 1e-300, 1e154, 1e300, 1.7976931348623157e308)
VALUES = st.one_of(st.floats(0.01, 100.0), st.sampled_from(EXTREMES))


@st.composite
def matrices(draw, n_r, n_t):
    """A complex n_r x n_t matrix whose entries take signed VALUES or 0."""
    entry = st.one_of(st.just(0.0), VALUES, VALUES.map(lambda x: -x))
    return matrix_to_json(np.array(
        [[complex(draw(entry), draw(entry)) for _ in range(n_t)] for _ in range(n_r)]
    ))


@st.composite
def csit_errors(draw, n_r, n_t, two_state):
    kinds = ["exact", "phase-quantize", "mag-phase-quantize", "bounded-ball", "per-state"]
    kind = draw(st.sampled_from(kinds + (["case1", "case2"] if two_state else [])))
    if kind in ("case1", "case2"):
        return {"preset": kind}
    if kind == "phase-quantize":
        return {"kind": kind, "step": draw(VALUES)}
    if kind == "mag-phase-quantize":
        return {"kind": kind, "mag_step": draw(VALUES), "phase_step": draw(VALUES)}
    if kind == "bounded-ball":
        return {"kind": kind, "delta": draw(VALUES)}
    if kind == "per-state":
        k = draw(st.integers(1, 2))
        tables = {t: [draw(matrices(n_r, n_t)) for _ in range(k)] for t in ("states", "observed")}
        return {"kind": kind, **tables}
    return {"kind": kind}


@st.composite
def controllers(draw):
    kind = draw(st.sampled_from(["dpp", "ogd-constant", "ogd-inverse-sqrt"]))
    if kind == "dpp":
        return {"kind": "dpp", "v": draw(VALUES)}
    delay = {"t_delay": draw(st.integers(1, 8))}
    if kind == "ogd-constant":
        return {"kind": "ogd", "gamma": draw(VALUES), **delay}
    return {"kind": "ogd", "step": "inverse-sqrt", **delay}


@st.composite
def fuzzed_configs(draw):
    """A config object and a no-csit reference policy object for it, or None."""
    channel = draw(st.sampled_from(["paper-two-state", "paper-continuous", "product"]))
    if channel == "product":
        n_r, n_t = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        channel_obj = {"kind": "continuous-product", "n_r": n_r, "n_t": n_t, "v_max": draw(VALUES)}
    else:
        n_r = n_t = 2
        channel_obj = {"preset": channel}
    p_bar = draw(VALUES)
    obj = {
        "channel": channel_obj,
        "csit_error": draw(csit_errors(n_r, n_t, channel == "paper-two-state")),
        "controller": draw(controllers()),
        "p": draw(st.one_of(VALUES, st.sampled_from([1.0, 1.5, 3.0]).map(lambda f: f * p_bar))),
        "p_bar": p_bar,
        "horizon": draw(st.integers(1, 40)),
        "seed": draw(st.integers(0, 5)),
    }
    if draw(st.booleans()):
        obj["rate_adapt"] = {"n_total": draw(VALUES)}
    policy = None
    if draw(st.booleans()):
        q = np.diag([draw(st.one_of(st.just(0.0), VALUES)) for _ in range(n_t)])
        policy = {"kind": "no-csit", "q": matrix_to_json(q), "r_opt": 1.0,
                  "per_state_utility": [1.0], "converged": True}
    return obj, policy


# 200 examples in tier-1, or the profile's count where larger: 1000 under dyncov-deep in CI
@settings(max_examples=max(200, settings.default.max_examples))
@given(case=fuzzed_configs())
def test_a_config_fails_at_the_boundary_or_runs_to_finite_finals(case):
    obj, policy = case
    # a warning is recorded, not raised: the property is about the outcome
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        if policy is not None:
            path = Path(tmp) / "policy.json"
            path.write_text(json.dumps(policy), encoding="utf-8")
            obj = {**obj, "reference": {"policy": str(path)}}
        try:
            result = run_experiment(load_config(obj))
        except ConfigError:
            return
    finals = result.summary["final"]
    assert all(math.isfinite(x) for x in finals.values() if x is not None), finals
    json.dumps(result.summary, allow_nan=False)
