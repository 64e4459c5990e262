"""Span tracing of dyncov's public functions, installed from outside.

``Tracer.install`` replaces each target function, wherever a dyncov module
binds it, with a wrapper that opens a span around the call; ``uninstall``
puts every original back.  Nothing under ``src/`` is edited.  Spans are
aggregated as they close: a function's self time is its span's duration
minus the durations of the spans opened directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, qualified name, phase).  The phase is a property of the function,
# not of its caller: trace_real counts as evaluate even when dpp_step calls it.
TARGETS = (
    ("channel", "slot_rng", "draw"),
    ("channel", "sample_channel", "draw"),
    ("channel", "observe_csit", "draw"),
    ("channel", "channel_bounds", "certify"),
    ("controllers", "dpp_step", "decide"),
    ("controllers", "ogd_step", "decide"),
    ("controllers", "theoretical_bounds", "certify"),
    ("solvers", "waterfill_penalized", "decide"),
    ("solvers", "psd_cap_project", "decide"),
    ("solvers", "cdi_optimal_policy", "decide"),
    ("solvers", "ergodic_constant_covariance", "decide"),
    ("solvers", "empirical_policy", "decide"),
    ("linalg", "herm_eig", "decide"),
    ("linalg", "capacity", "evaluate"),
    ("linalg", "capacity_gradient", "decide"),
    ("linalg", "trace_real", "evaluate"),
    ("rate_adapt", "RateLedger.record", "evaluate"),
    ("rate_adapt", "decode_check", "certify"),
    ("harness", "load_config", "draw"),
    # its self time is the per-slot orchestration: the loop, the slot
    # records and the running sums
    ("harness", "run_experiment", "evaluate"),
    ("harness", "certify_run", "certify"),
    ("harness", "emit_outputs", "emit"),
    ("harness", "compute_baseline", "decide"),
    ("svgplot", "line_chart", "emit"),
)

PHASES = ("draw", "decide", "evaluate", "certify", "emit")

# per-slot hot functions whose per-call durations are kept for percentiles
HOT = (
    "channel.slot_rng",
    "channel.observe_csit",
    "controllers.dpp_step",
    "controllers.ogd_step",
    "solvers.waterfill_penalized",
    "solvers.psd_cap_project",
    "linalg.herm_eig",
    "linalg.capacity",
)

ITERATIONS = "solvers.ergodic_constant_covariance"


class SelfTimer:
    """Aggregates nested spans into per-name calls, self time and, for the
    names in ``keep``, every inclusive duration (all times in ns)."""

    def __init__(self, names, keep=()):
        self.calls = dict.fromkeys(names, 0)
        self.self_ns = dict.fromkeys(names, 0)
        self.durations = {name: [] for name in keep}
        self._stack: list[list] = []  # [name, start, time spent in children]

    def enter(self, name: str, now: int) -> None:
        self._stack.append([name, now, 0])

    def exit(self, now: int) -> None:
        name, start, children = self._stack.pop()
        span = now - start
        self.calls[name] += 1
        self.self_ns[name] += span - children
        if name in self.durations:
            self.durations[name].append(span)
        if self._stack:
            self._stack[-1][2] += span

    @property
    def open_spans(self) -> int:
        return len(self._stack)


def _dyncov_modules():
    return [m for n, m in list(sys.modules.items()) if n == "dyncov" or n.startswith("dyncov.")]


class Tracer:
    """Wraps every target for the lifetime of one traced pass."""

    def __init__(self):
        names = [f"{mod}.{qual}" for mod, qual, _ in TARGETS]
        self.timer = SelfTimer(names, keep=HOT)
        self.iterations = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        timer = self.timer
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            timer.enter(name, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                timer.exit(clock())
            if name == ITERATIONS:
                self.iterations += result.iterations
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _dyncov_modules()
        for mod, qual, _ in TARGETS:
            module = importlib.import_module(f"dyncov.{mod}")
            name = f"{mod}.{qual}"
            if "." in qual:  # a method: patch the class attribute
                cls_name, attr = qual.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(name, original))
                continue
            original = getattr(module, qual)
            wrapper = self._wrap(name, original)
            for owner in modules:  # every module that bound the function by name
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def bindings() -> dict[str, int]:
    """Identity of every name bound in a dyncov module or in a class it
    defines; equal before install and after uninstall when every original
    is back in place."""
    found = {}
    for owner in _dyncov_modules():
        for attr, value in vars(owner).items():
            found[f"{owner.__name__}.{attr}"] = id(value)
            if isinstance(value, type) and value.__module__ == owner.__name__:
                for cattr, cvalue in vars(value).items():
                    found[f"{owner.__name__}.{attr}.{cattr}"] = id(cvalue)
    return found


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100]) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-function calls and self time, hot-path percentiles, phase
    rollups and the exact ergodic iteration count."""
    timer = tracer.timer
    out: dict[str, tuple[float, str]] = {}
    phase_ns = dict.fromkeys(PHASES, 0)
    for mod, qual, phase in TARGETS:
        name = f"{mod}.{qual}"
        out[f"{name}.calls"] = (timer.calls[name], "count")
        out[f"{name}.self_ms"] = (timer.self_ns[name] / 1e6, "ms")
        phase_ns[phase] += timer.self_ns[name]
    for name in HOT:
        durs = timer.durations[name]
        out[f"{name}.call_us_p50"] = (percentile(durs, 50) / 1e3 if durs else 0.0, "us")
        out[f"{name}.call_us_p99"] = (percentile(durs, 99) / 1e3 if durs else 0.0, "us")
    for phase in PHASES:
        out[f"{phase}.self_ms"] = (phase_ns[phase] / 1e6, "ms")
    out[f"{ITERATIONS}.iterations"] = (tracer.iterations, "count")
    return out


def metric_names() -> list[str]:
    """Every per-layer metric name, in the order ``layer_metrics`` gives."""
    return list(layer_metrics(Tracer()))
