"""A run is a fold over blocks of slots: its outputs do not depend on the
block size, the slot-range draw concatenates to the whole draw, and the
heap a run holds grows by its float columns per slot, not by its stacks."""

import tracemalloc

import numpy as np
import pytest

from dyncov import (
    BoundedBallCsit,
    ChannelPath,
    DppSpec,
    ExactCsit,
    ExperimentConfig,
    OgdSpec,
    OutputPaths,
    PhaseQuantizeCsit,
    ProductChannel,
    ReplaySpec,
    emit_outputs,
    paper_continuous,
    paper_error_case,
    paper_two_state,
    run_experiment,
)
from dyncov import harness

HORIZON = 1100  # past two default blocks
DEFAULT_BLOCK = harness.BLOCK_SLOTS
BLOCKS = [1, 7, DEFAULT_BLOCK, HORIZON + 5]

# each case's config fields over the two-state defaults, given the reference policies
CASES = {
    "dpp-case1": lambda refs: dict(
        controller=DppSpec(v=100.0), csit_error=paper_error_case("case1"),
        reference=refs["cdi"],
    ),
    "ogd-t1": lambda refs: dict(
        controller=OgdSpec(gamma=0.01), csit_error=paper_error_case("case2"),
        reference=refs["constant"],
    ),
    "ogd-t3": lambda refs: dict(
        controller=OgdSpec(gamma=0.05, t_delay=3), csit_error=paper_error_case("case1"),
        reference=refs["constant"],
    ),
    "ogd-inverse-sqrt": lambda refs: dict(
        controller=OgdSpec(gamma=None, t_delay=2), csit_error=ExactCsit(),
        reference=refs["constant"],
    ),
    "replay-with-csit": lambda refs: dict(
        controller=ReplaySpec(policy=refs["cdi"]), csit_error=ExactCsit(),
    ),
    "replay-no-csit": lambda refs: dict(
        controller=ReplaySpec(policy=refs["constant"]), csit_error=ExactCsit(),
    ),
    # about 3 nats a slot: the ledger completes near slot 900, in a later block
    "dpp-rate-ledger": lambda refs: dict(
        controller=DppSpec(v=50.0), csit_error=BoundedBallCsit(delta=0.2),
        rate_adapt_n=2700.0,
    ),
    "continuous-dpp-ball": lambda refs: dict(
        channel=paper_continuous(), controller=DppSpec(v=100.0),
        csit_error=BoundedBallCsit(delta=0.1),
    ),
    "continuous-ogd-ball": lambda refs: dict(
        channel=ProductChannel(n_r=3, n_t=2, v_max=0.5), controller=OgdSpec(gamma=0.02),
        csit_error=BoundedBallCsit(delta=0.1),
    ),
}


def outputs_at(block, monkeypatch, tmp_path, cfg):
    """Every output file of one run at the given block size, as bytes."""
    monkeypatch.setattr(harness, "BLOCK_SLOTS", block)
    names = ("csv", "summary", "svg_utility", "svg_power")
    paths = OutputPaths(**{n: str(tmp_path / f"{block}.{n}") for n in names})
    result = run_experiment(cfg)
    emit_outputs(result, paths)
    return result, {n: (tmp_path / f"{block}.{n}").read_bytes() for n in names}


@pytest.mark.parametrize("case", list(CASES))
def test_outputs_do_not_depend_on_the_block_size(
    case, monkeypatch, tmp_path, cdi_reference, constant_reference
):
    fields = dict(channel=paper_two_state(), p=3.0, p_bar=2.0, horizon=HORIZON, seed=4)
    fields.update(CASES[case]({"cdi": cdi_reference, "constant": constant_reference}))
    cfg = ExperimentConfig(**fields)
    runs = {b: outputs_at(b, monkeypatch, tmp_path, cfg) for b in BLOCKS}
    result, expected = runs[DEFAULT_BLOCK]
    for block, (_, files) in runs.items():
        for name, data in files.items():
            assert data == expected[name], (block, name)
    if result.ledger is not None:
        assert result.ledger.completed and result.ledger.completed_at > DEFAULT_BLOCK
    assert result.summary["all_passed"]


@pytest.mark.parametrize(
    "model, err",
    [
        (paper_two_state(), ExactCsit()),
        (paper_two_state(), paper_error_case("case1")),
        (paper_two_state(), BoundedBallCsit(delta=0.3)),
        (paper_continuous(), PhaseQuantizeCsit(step=np.pi / 4)),
        (ProductChannel(n_r=3, n_t=2, v_max=0.5), BoundedBallCsit(delta=0.3)),
    ],
    ids=["two-state-exact", "two-state-table", "two-state-ball", "continuous-phase", "3x2-ball"],
)
def test_slot_ranges_concatenate_to_the_whole_draw(model, err):
    seed, cuts = 2**40 + 9, [0, 1, 8, 8, 75, 200]
    whole = ChannelPath(model, err, seed).draw(0, 200)
    path = ChannelPath(model, err, seed)
    ranges = list(zip(cuts[:-1], cuts[1:]))
    for parts in (
        [path.draw(a, b) for a, b in ranges],
        [ChannelPath(model, err, seed).draw(a, b) for a, b in ranges],
    ):
        for i in range(2):
            assert np.concatenate([p[i] for p in parts]).tobytes() == whole[i].tobytes()
    # a range drawn after later ones is the same range
    assert path.draw(8, 75)[1].tobytes() == whole[1][8:75].tobytes()


def test_a_delay_past_the_horizon_carries_no_more_than_the_horizon(constant_reference):
    # no observation arrives within the run, so every slot commits Q = 0 and
    # no row is ever read; a carry of t_delay slots would not fit in memory
    cfg = ExperimentConfig(
        channel=paper_two_state(), csit_error=ExactCsit(),
        controller=OgdSpec(gamma=0.01, t_delay=10**12), reference=constant_reference,
        p=3.0, p_bar=2.0, horizon=50, seed=1,
    )
    h, h_obs = ChannelPath(cfg.channel, cfg.csit_error, cfg.seed).draw(0, cfg.horizon)
    q, _, carry = cfg.controller.decide(cfg, 0, h, h_obs, None)
    assert not q.any() and len(carry[0]) == len(carry[1]) == 0
    assert not run_experiment(cfg).tr_q.any()


def delayed_ogd(t_delay, horizon):
    return ExperimentConfig(
        channel=paper_two_state(), csit_error=paper_error_case("case1"),
        controller=OgdSpec(gamma=0.05, t_delay=t_delay), p=3.0, p_bar=2.0,
        horizon=horizon, seed=2,
    )


def first_block_peak(cfg):
    h, h_obs = ChannelPath(cfg.channel, cfg.csit_error, cfg.seed).draw(0, DEFAULT_BLOCK)
    tracemalloc.start()
    try:
        cfg.controller.decide(cfg, 0, h, h_obs, None)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_block_allocates_the_same_whatever_the_delay_and_horizon():
    # the carry is a delay line of at most T rows: a block adds copies of its
    # last rows, and pads or copies nothing in proportion to T or the horizon
    first_block_peak(delayed_ogd(10**6, 600))  # caches of the first decide
    near, far = (first_block_peak(delayed_ogd(t, 2**20)) for t in (2 * DEFAULT_BLOCK, 10**6))
    assert abs(far - near) <= 16 * 1024, (near, far)
    # a delay past the horizon keeps no row
    assert first_block_peak(delayed_ogd(10**6, DEFAULT_BLOCK)) <= far


@pytest.mark.parametrize("t_delay", [1, 3, DEFAULT_BLOCK, 700])
def test_no_carry_row_aliases_a_block(t_delay):
    # the carry holds copies of each block's last rows, so it keeps no block alive
    cfg = delayed_ogd(t_delay, 2 * DEFAULT_BLOCK)
    h, h_obs = ChannelPath(cfg.channel, cfg.csit_error, cfg.seed).draw(0, cfg.horizon)
    carry, qs = None, []
    for start in (0, DEFAULT_BLOCK):
        block = slice(start, start + DEFAULT_BLOCK)
        q, _, carry = cfg.controller.decide(cfg, start, h[block], h_obs[block], carry)
        qs.append(q)
    assert not any(np.shares_memory(row, q) for row in (*carry[0], *carry[1]) for q in qs)
    assert np.array(carry[0]).tobytes() == np.concatenate(qs)[-t_delay:].tobytes()


def heap_peak(horizon, tmp_path):
    cfg = ExperimentConfig(
        channel=paper_continuous(), csit_error=BoundedBallCsit(delta=0.1),
        controller=DppSpec(v=100.0), p=3.0, p_bar=2.0, horizon=horizon, seed=1,
        outputs=OutputPaths(
            csv=str(tmp_path / "run.csv"), summary=str(tmp_path / "run.json"),
            svg_utility=str(tmp_path / "u.svg"), svg_power=str(tmp_path / "p.svg"),
        ),
    )
    tracemalloc.start()
    try:
        emit_outputs(run_experiment(cfg))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_heap_grows_by_the_float_columns_per_slot(tmp_path):
    # the run keeps its float columns (40 B a slot for a queue run) and the
    # certification's temporaries; every per-slot stack lives one block long
    heap_peak(600, tmp_path)  # caches of the first run
    small, large = heap_peak(2_000, tmp_path), heap_peak(20_000, tmp_path)
    per_slot = (large - small) / 18_000
    assert per_slot <= 128, per_slot
