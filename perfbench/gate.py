"""Correctness gate: every timed item is checked against values recorded
from the reference commit in ``golden.json``.

An item fails if it raises, if any verdict is FAIL or differs from the
recorded one, if a final average, the final queue or a baseline's r_opt
leaves its recorded value by more than the tolerance, if a no-csit policy
did not converge, if the emitted CSV does not re-parse to the summary's
final averages, or if a repeat of the item is not byte-identical (the last
check lives in the worker, which sees the repeats).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Admits last-bit drift (a reordered sum or a LAPACK eigensolver moves the
# finals by ~1e-13 relative) and catches a wrong solver, which moves them
# by 1e-4 or more.
REL_TOL = 1e-6
ABS_TOL = 1e-9

VERDICT = {True: "PASS", False: "FAIL", None: "SKIP"}

FINALS = ("runavg_r", "runavg_tr_q", "z_final")


def load_golden(path=GOLDEN_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def key(item_id: str, seed: int) -> str:
    return f"{item_id}@{seed}"


def verdicts(summary: dict) -> dict[str, str]:
    return {c["name"]: VERDICT[c["passed"]] for c in summary["certifications"]}


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def record_run(summary: dict) -> dict:
    """The values of a run that the gate compares."""
    entry = {name: summary["final"][name] for name in FINALS}
    entry["verdicts"] = verdicts(summary)
    return entry


def check_run(item_id: str, seed: int, summary: dict, csv_columns: dict, golden: dict) -> list[str]:
    """Problems with one run; empty when the run passes the gate."""
    want = golden["runs"].get(key(item_id, seed))
    if want is None:
        return [f"no recorded values for {key(item_id, seed)}"]
    problems = []
    got = record_run(summary)
    for name, verdict in got["verdicts"].items():
        if verdict == "FAIL":
            problems.append(f"certification {name} FAILED")
    if got["verdicts"] != want["verdicts"]:
        problems.append(f"verdicts {got['verdicts']} differ from recorded {want['verdicts']}")
    for name in FINALS:
        if not _close(got[name], want[name]):
            problems.append(f"{name} = {got[name]!r}, recorded {want[name]!r}")
    final = summary["final"]
    if not csv_columns["runavg_r"] or (
        csv_columns["runavg_r"][-1] != final["runavg_r"]
        or csv_columns["runavg_tr_q"][-1] != final["runavg_tr_q"]
    ):
        problems.append("CSV does not re-parse to the summary's final averages")
    return problems


def record_baseline(policy: dict) -> dict:
    return {"r_opt": policy["r_opt"]}


def check_baseline(item_id: str, seed: int, policy: dict, golden: dict) -> list[str]:
    """Problems with one saved policy; empty when it passes the gate."""
    want = golden["baselines"].get(key(item_id, seed))
    if want is None:
        return [f"no recorded values for {key(item_id, seed)}"]
    problems = []
    if policy["kind"] == "no-csit" and not policy["converged"]:
        problems.append("no-csit policy did not converge")
    if not _close(policy["r_opt"], want["r_opt"]):
        problems.append(f"r_opt = {policy['r_opt']!r}, recorded {want['r_opt']!r}")
    return problems
