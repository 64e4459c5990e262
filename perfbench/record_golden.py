"""Record the correctness gate's reference values, and scan sample seeds.

    PYTHONPATH=.:src python3 -m perfbench.record_golden scan continuous 1 40
    PYTHONPATH=.:src python3 -m perfbench.record_golden record [workload ...]

``scan`` prints, per candidate sample seed of a sampled baseline, the work
its solves do: no-csit projected-gradient iterations, water-filling calls
of the with-csit bisection and Jacobi sweeps.  The pools in
``workloads.py`` keep the seeds nearest the median work.

``record`` runs every (item, seed) pair the named workloads (default: all)
can generate and writes their values into ``golden.json``.  Run it only on
the commit whose behaviour the gate should hold later commits to.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from perfbench import gate, workloads


def _count_calls(module, name, counter):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counter[name] = counter.get(name, 0) + 1
        return original(*args, **kwargs)

    setattr(module, name, counted)
    return lambda: setattr(module, name, original)


def scan(channel: str, first: int, last: int) -> None:
    import dyncov
    from dyncov import linalg, solvers

    spec = {"continuous": (workloads.CONTINUOUS, workloads.CONTINUOUS_SAMPLES),
            "wide": (workloads.WIDE, workloads.WIDE_SAMPLES)}[channel]
    for seed in range(first, last + 1):
        cfg = dyncov.load_config(workloads._config(spec[0], workloads.DPP, 1, seed))
        row = {"seed": seed}
        for kind in ("with-csit", "no-csit"):
            counter: dict[str, int] = {}
            undo = [_count_calls(solvers, "waterfill_penalized", counter),
                    _count_calls(linalg, "_offdiag_mass", counter)]
            try:
                policy = dyncov.compute_baseline(cfg, kind, spec[1])
            finally:
                for u in undo:
                    u()
            row[kind] = {"r_opt": policy.r_opt, **counter}
            if kind == "no-csit":
                row[kind]["iterations"] = policy.iterations
        print(json.dumps(row), flush=True)


def _items(names):
    """Every (item, config seed) pair the workloads can generate."""
    seen = {}
    for name in names:
        for seed in range(1, 4000):
            for item in workloads.generate(name, seed)["items"]:
                seen[gate.key(item["id"], item["config"]["seed"])] = item
    return seen


def record(names) -> None:
    import dyncov

    if gate.GOLDEN_PATH.exists():
        golden = gate.load_golden()
    else:
        golden = {"runs": {}, "baselines": {}}
    items = _items(names)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        # baselines first: run items read the policies they write
        for key in sorted(items, key=lambda k: items[k]["kind"]):
            item = items[key]
            if item["kind"] == "baseline":
                cfg = dyncov.load_config(item["config"])
                policy = dyncov.compute_baseline(cfg, item["baseline"], item["samples"])
                path = workdir / f"{key}.policy.json"
                dyncov.harness.save_policy(policy, path)
                saved = json.loads(path.read_text(encoding="utf-8"))
                if saved["kind"] == "no-csit" and not saved["converged"]:
                    raise SystemExit(f"{key}: no-csit policy did not converge")
                golden["baselines"][key] = gate.record_baseline(saved)
            else:
                raw = dict(item["config"])
                raw.pop("outputs")
                if "reference" in raw:
                    ref_id = raw["reference"]["policy"].removesuffix(".policy.json")
                    ref_key = gate.key(ref_id, _reference_seed(ref_id, raw))
                    raw["reference"] = {"policy": str(workdir / f"{ref_key}.policy.json")}
                result = dyncov.run_experiment(dyncov.load_config(raw))
                golden["runs"][key] = gate.record_run(result.summary)
            print(key, file=sys.stderr, flush=True)
    rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    golden["recorded_at"] = rev.stdout.strip() or "unknown"
    golden["tolerance"] = {"rel": gate.REL_TOL, "abs": gate.ABS_TOL}
    text = json.dumps(golden, indent=1, sort_keys=True) + "\n"
    gate.GOLDEN_PATH.write_text(text, encoding="utf-8")


def _reference_seed(ref_id: str, run_cfg: dict) -> int:
    # two-state references are seed-free (seed 1); sampled ones share the
    # run's seed, which is the sample seed of the baseline they compare to
    return 1 if ref_id.endswith("two-state") else run_cfg["seed"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["scan"]:
        scan(argv[1], int(argv[2]), int(argv[3]))
    elif argv[:1] == ["record"]:
        record(argv[1:] or workloads.WORKLOADS)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
