"""dyncov benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload paper-2x2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Each workload runs in fresh worker processes started from the repository
root, with ``src`` on ``PYTHONPATH`` and BLAS pinned to one thread.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable table and the run's manifest.  The exit code is 0 when every item
passed the correctness gate, 1 when one failed, and 2 when the benchmark
could not run at all (then no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import tracer, workloads  # noqa: E402

BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Set-up is timed in this many fresh processes (the measuring worker is one
# of them) and reported as their median.
SETUP_SAMPLES = 5

# A run must end within this many seconds, set-up processes included.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "slots_per_s": "1/s",
    "with_csit_s": "s",
    "no_csit_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

# Functions that some workload never calls.  They are traced and printed in
# the table, but left out of the result line, whose per-layer metrics must
# be measured on every workload.
NOT_ON_EVERY_WORKLOAD = ("controllers.theoretical_bounds", "solvers.empirical_policy")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def per_layer_names() -> list[str]:
    """Names of the per-layer metrics in the result line, in order."""
    names = [
        n for n in tracer.metric_names()
        if not any(n.startswith(f"{fn}.") for fn in NOT_ON_EVERY_WORKLOAD)
    ]
    return names + ["trace_overhead_ratio"]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def _spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and parse its JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, "-m", "perfbench.worker", *args, "--t0", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    src = ROOT / "src"
    if Path(out["dyncov_file"]).resolve().parent.parent != src:
        raise BenchError(f"imported dyncov from {out['dyncov_file']}, not from {src}")
    return out


def _git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip()


def manifest(seed: int, versions: dict) -> dict:
    return {
        "git_rev": _git_rev(),
        "dyncov_version": versions["dyncov"],
        "numpy_version": versions["numpy"],
        "python_version": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: "1" for var in BLAS_VARS},
        "workload_seed": seed,
        "config_digests": {
            name: workloads.digest(workloads.generate(name, seed))
            for name in workloads.WORKLOADS
        },
    }


def end_to_end(out: dict, setup_samples: list[float]) -> dict[str, tuple[float, str, str]]:
    """Metric -> (value, unit, how many samples it rests on)."""
    items = out["items"]
    # an item that never passed the gate has no time; the run is then
    # incorrect, and its metrics count the item as taking no time
    med = {i: statistics.median(v["times"]) if v["times"] else 0.0 for i, v in items.items()}
    runs = [i for i, v in items.items() if v["kind"] == "run"]
    with_csit = [i for i, v in items.items() if v["baseline"] == "with-csit"]
    no_csit = [i for i, v in items.items() if v["baseline"] == "no-csit"]

    def samples(ids):
        n = sorted(len(items[i]["times"]) for i in ids)
        return f"sum over {len(ids)} items of the median of {n[0]}..{n[-1]} samples"

    values = {
        "setup_s": (statistics.median(setup_samples), f"median of {len(setup_samples)} processes"),
        "slots_per_s": (
            sum(items[i]["horizon"] for i in runs) / (sum(med[i] for i in runs) or float("inf")),
            f"slots over {samples(runs)}",
        ),
        "with_csit_s": (sum(med[i] for i in with_csit), samples(with_csit)),
        "no_csit_s": (sum(med[i] for i in no_csit), samples(no_csit)),
        "peak_rss_mb": (out["peak_rss_mb"], "1 process"),
        "pass_ratio": (
            (out["attempted"] - out["failed"]) / out["attempted"],
            f"{out['attempted'] - out['failed']} of {out['attempted']} items",
        ),
    }
    return {k: (v, END_TO_END[k], n) for k, (v, n) in values.items()}


def per_layer(out: dict) -> dict[str, tuple[float, str, str]]:
    trace = out["trace"]
    layers = {k: (v, unit, "traced pass") for k, (v, unit) in out["layers"].items()}
    layers["trace_overhead_ratio"] = (
        trace["overhead_ratio"], "ratio", f"{out['cycles']} cycles traced and untraced"
    )
    return layers


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One workload: its metrics (with units and sample counts) and the
    worker's raw output."""
    if not (ROOT / "src" / "dyncov" / "__init__.py").is_file():
        raise BenchError(f"no dyncov sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    try:
        setup_samples = []
        if trace == 0:
            for k in range(SETUP_SAMPLES - 1):
                probe_dir = workdir / f"setup-{k}"
                probe_dir.mkdir()
                probe = _spawn([*common, "--workdir", str(probe_dir), "--setup-only"], deadline)
                setup_samples.append(probe["setup_s"])
        out = _spawn([*common, "--trace", str(trace), "--workdir", str(workdir)], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it
    if trace == 0:
        metrics = end_to_end(out, setup_samples + [out["setup_s"]])
    else:
        metrics = per_layer(out)
    return metrics, out


def _print_table(name: str, seed: int, trace: int, metrics: dict, out: dict) -> None:
    mode = "traced" if trace else "untraced"
    print(f"== {name} seed {seed} ({mode}): {out['cycles']:.2f} cycles, "
          f"{out['attempted']} items attempted, {out['failed']} failed; "
          f"one wall second was {out['speed_factor']:.3f} reference seconds (median)")
    for problem in out["problems"]:
        print(f"   FAILED {problem}")
    if trace:
        t = out["trace"]
        print(f"   tracer: self times cover {t['coverage']:.4f} of traced wall time, "
              f"originals restored: {t['restored']}, "
              f"traced outputs byte-identical to untraced: {t['outputs_identical']}")
    width = max(len(k) for k in metrics)
    for key, (value, unit, samples) in metrics.items():
        print(f"   {key:<{width}}  {value:>14.6g} {unit:<6} ({samples})")


def _result(outs: list[dict], metrics: dict[str, float]) -> dict:
    attempted = sum(o["attempted"] for o in outs)
    failed = sum(o["failed"] for o in outs)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="one workload; omit to run them all, untraced then traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    jobs = (
        [(args.workload, args.trace)] if args.workload
        else [(w, t) for w in workloads.WORKLOADS for t in (0, 1)]
    )
    outs, result_metrics = [], {}
    try:
        for name, trace in jobs:
            metrics, out = run_workload(name, args.seed, args.seconds, trace)
            _print_table(name, args.seed, trace, metrics, out)
            outs.append(out)
            keep = per_layer_names() if trace else list(END_TO_END)
            prefix = "" if args.workload else f"{name}."
            for key in keep:
                value, unit, _ = metrics[key]
                result_metrics[prefix + key] = {"value": value, "unit": unit}
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"manifest": manifest(args.seed, outs[0]["versions"])}))
    result = _result(outs, result_metrics)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
