"""One workload in one fresh process: set-up, timed cycles, gate and, with
``--trace 1``, an untraced and a traced pass over the same cycles.

Started by ``perfbench/run.py`` as ``python3 -m perfbench.worker`` from the
repository root with ``src`` on ``PYTHONPATH``; prints one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import time
import traceback
from pathlib import Path

from perfbench import gate, speed, tracer, workloads

# Share of the traced items' wall time that the summed self times must
# cover; the rest is wrapper bookkeeping outside any span.
COVERAGE_MIN = 0.98

# Speed probes right after set-up; set-up time is scaled by their mean.
SETUP_PROBES = 5


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """The generated items placed in a work directory, and everything seen
    while running them: times, output digests and gate problems."""

    def __init__(self, name: str, seed: int, workdir: Path, sample_inside: bool):
        import dyncov

        self.dyncov = dyncov
        self.spec = workloads.generate(name, seed)
        self.workdir = workdir
        self.golden = gate.load_golden()
        self.times: dict[str, list[float]] = {i["id"]: [] for i in self.spec["items"]}
        self.digests: dict[str, dict[str, str]] = {}
        self.attempted = 0
        self.problems: list[str] = []
        self.mismatches = 0  # executions whose outputs differ from an earlier one
        # speed samples inside calls would land in the spans of a traced run
        self.sample_inside = sample_inside
        self.speeds: list[float] = []  # reference seconds per wall second, per call
        self.config_paths = {}
        for item in self.spec["items"]:
            cfg = dict(item["config"])
            if "outputs" in cfg:
                cfg["outputs"] = {k: str(workdir / v) for k, v in cfg["outputs"].items()}
            path = workdir / f"{item['id']}.config.json"
            path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
            self.config_paths[item["id"]] = path

    @property
    def items(self):
        return self.spec["items"]

    def item(self, item_id):
        return next(i for i in self.items if i["id"] == item_id)

    def _observe(self, item, files: dict[str, str]) -> list[str]:
        seen = self.digests.setdefault(item["id"], files)
        if seen == files:
            return []
        self.mismatches += 1
        differing = sorted(k for k in files if files[k] != seen.get(k))
        return [f"outputs differ from an earlier execution: {differing}"]

    def _timed(self, fn):
        value, wall, ref = speed.timed(fn, inside=self.sample_inside)
        if wall > 0:
            self.speeds.append(ref / wall)
        return value, wall, ref

    def _run(self, item) -> tuple[list[float], float, float, list[str]]:
        api = self.dyncov

        def call():
            cfg = api.load_config(self.config_paths[item["id"]])
            result = api.run_experiment(cfg)
            api.emit_outputs(result)
            return cfg, result

        (cfg, result), wall, ref = self._timed(call)
        outputs = {k: Path(v) for k, v in vars(cfg.outputs).items() if v}
        columns = api.harness.csv_to_columns(outputs["csv"].read_text(encoding="utf-8"))
        problems = gate.check_run(
            item["id"], cfg.seed, result.summary, columns, self.golden
        )
        problems += self._observe(item, {k: _sha(p) for k, p in outputs.items()})
        return [ref], wall, ref, problems

    def _baseline(self, item) -> tuple[list[float], float, float, list[str]]:
        api = self.dyncov
        out = self.workdir / item["policy"]

        def call():
            cfg = api.load_config(self.config_paths[item["id"]])
            policy = api.compute_baseline(cfg, kind=item["baseline"], n_samples=item["samples"])
            api.harness.save_policy(policy, out)
            return cfg

        walls, refs, problems = [], [], []
        for _ in range(item["reps"]):
            cfg, wall, ref = self._timed(call)
            walls.append(wall)
            refs.append(ref)
            problems += self._observe(item, {"policy": _sha(out)})
        saved = json.loads(out.read_text(encoding="utf-8"))
        problems += gate.check_baseline(item["id"], cfg.seed, saved, self.golden)
        return refs, sum(walls), sum(refs), problems

    def execute(self, item, timed: bool = True) -> tuple[float, float]:
        """Run one item through the gate and record the time of each of its
        repeats in reference seconds.  Returns the time spent in dyncov
        calls, in wall seconds and in reference seconds."""
        self.attempted += 1
        try:
            run = self._run if item["kind"] == "run" else self._baseline
            samples, wall, ref, problems = run(item)
        except Exception:  # an item that raises is a failed item, not a crash
            samples, wall, ref = [], 0.0, 0.0
            problems = [traceback.format_exc(limit=3).strip()]
        if problems:
            self.problems.append(f"{item['id']}: " + "; ".join(problems))
        elif timed:
            self.times[item["id"]].extend(samples)
        return wall, ref

    def measure(self, budget_s: float) -> int:
        """Every item once, then further items in cycle order while each is
        expected, from its previous wall time, to end within ``budget_s``.
        Returns the number of item executions."""
        start = time.perf_counter()
        last = [self.execute(item)[0] for item in self.items]
        done = len(last)
        while True:
            k = done % len(last)
            if time.perf_counter() - start + last[k] > budget_s:
                return done
            last[k] = self.execute(self.items[k])[0]
            done += 1

    def cycles(self, budget_s: float, count: int | None = None) -> tuple[int, float, float]:
        """Whole cycles: ``count`` of them, or as many as fit in ``budget_s``
        (at least one).  Returns the count and the summed item time, in
        wall seconds and in reference seconds."""
        done, item_s, ref_s = 0, 0.0, 0.0
        start = time.perf_counter()
        while True:
            c0 = time.perf_counter()
            for item in self.items:
                wall, ref = self.execute(item)
                item_s += wall
                ref_s += ref
            done += 1
            now = time.perf_counter()
            if count is not None:
                if done >= count:
                    break
            elif now - start + (now - c0) > budget_s:
                break
        return done, item_s, ref_s

    @property
    def failed(self) -> int:
        return len(self.problems)


def setup(args) -> tuple[Workload, float]:
    """Import, config generation and the reference policies the run items
    read; timed from the moment the parent started this process, in
    reference seconds by probes taken right after it."""
    wl = Workload(args.workload, args.seed, Path(args.workdir), sample_inside=args.trace == 0)
    for item_id in wl.spec["setup_baselines"]:
        wl.execute(wl.item(item_id), timed=False)
    setup_s = (time.monotonic_ns() - args.t0) / 1e9
    return wl, setup_s * statistics.mean(speed.probe() for _ in range(SETUP_PROBES))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=int, required=True, help="monotonic ns at spawn")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl, setup_s = setup(args)
    import numpy

    out = {
        "setup_s": setup_s,
        "versions": {"dyncov": wl.dyncov.__version__, "numpy": numpy.__version__},
        "dyncov_file": wl.dyncov.__file__,
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if args.trace == 0:
        n = wl.measure(args.seconds) / len(wl.items)
    else:
        n, _, plain_ref_s = wl.cycles(args.seconds / 2)
        before, mismatches = tracer.bindings(), wl.mismatches
        tr = tracer.Tracer()
        tr.install()
        try:
            _, traced_s, traced_ref_s = wl.cycles(0.0, count=n)
        finally:
            tr.uninstall()
        self_s = sum(tr.timer.self_ns.values()) / 1e9
        out["trace"] = {
            "overhead_ratio": traced_ref_s / plain_ref_s if plain_ref_s > 0 else 0.0,
            "coverage": self_s / traced_s if traced_s > 0 else 0.0,
            "restored": tracer.bindings() == before,
            "outputs_identical": wl.mismatches == mismatches,
            "open_spans": tr.timer.open_spans,
        }
        out["layers"] = tracer.layer_metrics(tr)
        if not out["trace"]["restored"]:
            wl.problems.append("tracer: original functions not restored")
        if out["trace"]["coverage"] < COVERAGE_MIN:
            wl.problems.append(
                f"tracer: self times cover {out['trace']['coverage']:.3f} of traced wall time"
            )
    # a repeat of a run item outside the timed cycles, so that every
    # workload compares a repeated CSV byte for byte at least once
    runs = [i for i in wl.items if i["kind"] == "run"]
    wl.execute(runs[-1], timed=False)

    out.update(
        cycles=n,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        items={
            i["id"]: {
                "kind": i["kind"],
                "baseline": i.get("baseline"),
                "horizon": i["config"]["horizon"] if i["kind"] == "run" else 0,
                "times": wl.times[i["id"]],
            }
            for i in wl.items
        },
        speed_factor=statistics.median(wl.speeds),
        attempted=wl.attempted,
        failed=wl.failed,
        problems=wl.problems,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
