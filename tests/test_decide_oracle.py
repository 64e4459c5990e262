"""The run's decide against ``decide_oracle``, which shares no kernel with
it.  The byte-equality tests against ``validate.decide_reference`` pin the
bits; these pin the mathematics, so a fault in a kernel that the decide and
its reference share still fails here.

Measured drift over the six 5000-slot runs below: max |dq| 2.3e-16 to
1.6e-14 (the ogd runs the largest), and Z within 6.5e-16 of max(1, |Z|),
against the tolerances ``q_atol(p_bar)`` = 2e-10 and ``Z_RTOL`` = 1e-12."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyncov import (
    BoundedBallCsit,
    ChannelPath,
    DppSpec,
    ExperimentConfig,
    OgdSpec,
    dpp_step,
    paper_continuous,
    paper_error_case,
    paper_two_state,
)
from dyncov.harness import BLOCK_SLOTS
from dyncov.linalg import _compose, _eigh_desc, _gram, _lapack_guard
from dyncov.solvers import _waterfill_thresholds
from dyncov.validate import decide_blocks, random_complex

import decide_oracle as oracle

RUNS = {
    "two-state-dpp-exact": ("two-state", "exact", DppSpec(v=100.0)),
    "two-state-dpp-case1": ("two-state", "case1", DppSpec(v=100.0)),
    "continuous-dpp-ball": ("continuous", "ball", DppSpec(v=100.0)),
    "two-state-ogd-exact": ("two-state", "exact", OgdSpec(gamma=0.01)),
    "two-state-ogd-case1-sqrt-delay3": ("two-state", "case1", OgdSpec(gamma=None, t_delay=3)),
    "continuous-ogd-ball": ("continuous", "ball", OgdSpec(gamma=0.01)),
}


@pytest.mark.parametrize("name", RUNS)
def test_decide_equals_the_oracle(name):
    channel, error, spec = RUNS[name]
    cfg = ExperimentConfig(
        channel=paper_two_state() if channel == "two-state" else paper_continuous(),
        csit_error=BoundedBallCsit(delta=0.1) if error == "ball" else paper_error_case(error),
        controller=spec, p=3.0, p_bar=2.0, horizon=5000, seed=11,
    )
    h, h_obs = ChannelPath(cfg.channel, cfg.csit_error, cfg.seed).draw(0, cfg.horizon)
    q, z = decide_blocks(cfg, h, h_obs, BLOCK_SLOTS)
    q_ref, z_ref = oracle.decide(cfg, h_obs)
    assert np.abs(q - q_ref).max() <= oracle.q_atol(cfg.p_bar)
    if z is not None:
        assert (np.abs(z - z_ref) <= oracle.Z_RTOL * np.maximum(1.0, np.abs(z_ref))).all()


@given(
    n=st.integers(1, 8),
    n_r=st.integers(1, 8),
    rank=st.integers(0, 8),
    z=st.sampled_from([0.0, 1e-3, 1.0, 50.0, 1e4]),
    p=st.sampled_from([0.5, 3.0, 20.0]),
    seed=st.integers(0, 2**16),
)
def test_queue_step_equals_the_oracle(n, n_r, rank, z, p, seed):
    # the queue step's loading, composed as the decide composes it, and Z(t+1)
    rng = np.random.default_rng(seed)
    rank = min(rank, n, n_r)
    h = random_complex(rng, (n_r, rank)) @ random_complex(rng, (rank, n))
    v, p_bar = 100.0, 0.6 * p
    with _lapack_guard():
        sigma, vecs = _eigh_desc(_gram(h))
    theta, z_next = dpp_step(z, _waterfill_thresholds(sigma), n, v, p, p_bar)
    q_ref, theta_ref = oracle.waterfill(h, z / v, p)
    z_ref = max(0.0, z + theta_ref.sum() - p_bar)
    assert np.abs(_compose(vecs, theta) - q_ref).max() <= oracle.q_atol(p)
    assert abs(z_next - z_ref) <= oracle.Z_RTOL * max(1.0, z_ref)
