"""Dynamic transmit covariance policies for MIMO block-fading links.

An online queue-penalized water-filling policy for instantaneous (possibly
inaccurate) transmitter-side channel observations, a projected-gradient
policy for delayed observations, the exact convex subproblem solvers both
rely on, distribution-aware baselines (the best fixed covariance by
accelerated projected gradient), a rateless-transmission accounting ledger,
and a seeded simulation harness that certifies the closed-form performance
bounds on every run.
"""

from .channel import (
    BoundedBallCsit,
    ChannelBounds,
    ChannelPath,
    DiscreteChannel,
    ExactCsit,
    MagPhaseQuantizeCsit,
    PhaseQuantizeCsit,
    ProductChannel,
    TabulatedCsit,
    channel_bounds,
    observe_csit,
    paper_continuous,
    paper_error_case,
    paper_two_state,
    sample_channel,
    slot_rng,
)
from .controllers import BoundReport, dpp_step, ogd_step, theoretical_bounds
from .harness import (
    DppSpec,
    ExperimentConfig,
    OgdSpec,
    OutputPaths,
    ReplaySpec,
    RunResult,
    compute_baseline,
    emit_outputs,
    load_config,
    load_policy,
    run_experiment,
    save_policy,
)
from .linalg import (
    capacity,
    capacity_gradient,
    frobenius,
    herm_eig,
)
from .rate_adapt import LedgerError, RateLedger, decode_check
from .solvers import (
    CdiPolicy,
    ConstantCovariance,
    WaterfillResult,
    cdi_optimal_policy,
    empirical_policy,
    ergodic_constant_covariance,
    psd_cap_project,
    waterfill_penalized,
)

__all__ = [
    "BoundReport",
    "BoundedBallCsit",
    "CdiPolicy",
    "ChannelBounds",
    "ChannelPath",
    "ConstantCovariance",
    "DiscreteChannel",
    "DppSpec",
    "ExactCsit",
    "ExperimentConfig",
    "LedgerError",
    "MagPhaseQuantizeCsit",
    "OgdSpec",
    "OutputPaths",
    "PhaseQuantizeCsit",
    "ProductChannel",
    "RateLedger",
    "ReplaySpec",
    "RunResult",
    "TabulatedCsit",
    "WaterfillResult",
    "capacity",
    "capacity_gradient",
    "cdi_optimal_policy",
    "channel_bounds",
    "compute_baseline",
    "decode_check",
    "dpp_step",
    "emit_outputs",
    "empirical_policy",
    "ergodic_constant_covariance",
    "frobenius",
    "herm_eig",
    "load_config",
    "load_policy",
    "observe_csit",
    "ogd_step",
    "paper_continuous",
    "paper_error_case",
    "paper_two_state",
    "psd_cap_project",
    "run_experiment",
    "sample_channel",
    "save_policy",
    "slot_rng",
    "theoretical_bounds",
    "waterfill_penalized",
]

__version__ = "0.1.0"
