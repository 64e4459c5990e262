"""Residual-bit accounting for rateless transmission.

A fixed batch of source data (``n_total``, in the same units as the
per-slot capacities, nats here) is streamed until the accumulated
capacity covers it.  ``decode_check`` replays the reverse-order
feasibility argument: the final slot carries only the remainder, every
earlier slot exactly its own capacity.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .linalg import MAX_ANTENNAS, check_fields

N_TOTAL_MIN = 2 * MAX_ANTENNAS * math.log(sys.float_info.max) / sys.float_info.max


class LedgerError(RuntimeError):
    """Misuse of a ledger (e.g. stepping after completion)."""


@dataclass
class RateLedger:
    """Append-only per-slot capacity record with completion detection.

    ``completed_at`` is the number of slots consumed when the cumulative
    capacity first reaches ``n_total`` (None while still transmitting).
    ``delivered`` is that cumulative capacity, summed in slot order.

    ``relative_overhead`` is finite: the overhead is below the last slot's capacity,
    a sum of min(n_r, n_t) <= ``MAX_ANTENNAS`` logs of finite floats, and ``n_total``
    is at least ``N_TOTAL_MIN``, twice ``MAX_ANTENNAS`` ln(max float) over max float.
    """

    n_total: float
    capacities: list[float] = field(default_factory=list, init=False)
    completed_at: int | None = field(default=None, init=False)
    delivered: float = field(default=0.0, init=False)

    def __post_init__(self):
        check_fields(self, finite=("n_total",))
        if not self.n_total >= N_TOTAL_MIN:
            raise ValueError(f"n_total must be positive and at least {N_TOTAL_MIN!r}")

    @property
    def completed(self) -> bool:
        return self.completed_at is not None

    @property
    def overhead(self) -> float | None:
        """Excess capacity spent beyond n_total; defined once completed."""
        if not self.completed:
            return None
        return self.delivered - self.n_total

    @property
    def relative_overhead(self) -> float | None:
        if not self.completed:
            return None
        return (self.delivered - self.n_total) / self.n_total

    def record(self, r_t: float) -> None:
        """Append one slot's capacity; marks completion at the first slot
        whose cumulative capacity reaches n_total."""
        if self.completed:
            raise LedgerError("ledger already completed; no further slots accepted")
        if not 0 <= r_t < math.inf:  # a NaN would hold the batch open for good
            raise ValueError(f"per-slot capacity must be finite and nonnegative, got {r_t!r}")
        self.capacities.append(float(r_t))
        self.delivered += self.capacities[-1]
        if self.delivered >= self.n_total:
            self.completed_at = len(self.capacities)


def decode_check(ledger: RateLedger) -> list[dict]:
    """Reverse-order decode feasibility table for a completed ledger.

    The last slot is assigned the remainder n_total - sum of the earlier
    capacities; each earlier slot is assigned exactly its capacity.  Every
    assignment must fit within its slot's capacity; the assignments sum to
    n_total.  The last slot must be the first to cover n_total: the earlier
    capacities, summed in slot order as ``record`` sums them, stay below
    n_total and reach it with the last one.  A violation indicates a
    corrupted ledger and raises.
    """
    if not ledger.completed:
        raise LedgerError("decode check requires a completed ledger")
    caps = ledger.capacities
    if not 1 <= ledger.completed_at <= len(caps):
        raise LedgerError(f"completed_at {ledger.completed_at} is not a slot count 1..{len(caps)}")
    last = ledger.completed_at - 1
    head = 0.0
    for c in caps[:last]:
        head += c
    remainder = ledger.n_total - head
    if not head < ledger.n_total:
        raise LedgerError(
            f"slot {last} assignment {remainder!r} is not positive: "
            f"the earlier slots already cover n_total {ledger.n_total!r}"
        )
    if not head + caps[last] >= ledger.n_total:
        raise LedgerError(f"slot {last} assignment {remainder!r} exceeds capacity {caps[last]!r}")
    table = [{"slot": t, "assigned": float(c), "capacity": c} for t, c in enumerate(caps[:last])]
    return table + [{"slot": last, "assigned": float(remainder), "capacity": caps[last]}]
