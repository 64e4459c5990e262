"""Command-line interface.

Subcommands:
  run             simulate a config, emit trace/summary/plots, certify bounds
  baseline        precompute a distribution-aware reference policy
  solve-waterfill exact penalized water-filling on one matrix
  project         exact PSD trace-cap projection of one matrix
  validate        run the invariant/property suite and print a table

Matrices on stdin/stdout use {"rows": m, "cols": n, "entries": [[re, im], ...]}
in row-major order.  Exit status is 1 on a failed certification or check, or
on a no-csit baseline solve that did not converge, and 2 on bad input, such
as a missing file or an invalid config (``dyncov: error: ...``).
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    ConfigError,
    OutputPaths,
    _bad_input,
    compute_baseline,
    emit_outputs,
    load_config,
    run_experiment,
    save_policy,
)
from .matrixio import json_text, matrix_from_json
from .solvers import psd_cap_project, waterfill_penalized
from .validate import run_all


def _read_matrix(spec: str):
    if spec == "-":
        return matrix_from_json(json.load(sys.stdin))
    with open(spec, encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh))


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    result = run_experiment(cfg)
    # each flag overrides the configured output path of the same name
    paths = vars(cfg.outputs or OutputPaths())
    outputs = OutputPaths(**{k: getattr(args, k) or path for k, path in paths.items()})
    written = emit_outputs(result, outputs)
    summary = result.summary
    print(f"slots: {summary['horizon']}  seed: {summary['seed']}")
    print(
        "final averages: utility {0:.6f} nats, power {1:.6f}".format(
            summary["final"]["runavg_r"], summary["final"]["runavg_tr_q"]
        )
    )
    for cert in summary["certifications"]:
        status = {True: "PASS", False: "FAIL", None: "SKIP"}[cert["passed"]]
        print(f"  [{status}] {cert['name']}: {cert['detail']}")
    if "rate_adaptation" in summary:
        ra = summary["rate_adaptation"]
        if ra["completed"]:
            print(
                "rate adaptation: completed in {0} slots, overhead {1:.6f} "
                "({2:.4%} relative)".format(
                    ra["slots_used"], ra["overhead"], ra["relative_overhead"]
                )
            )
        else:
            print("rate adaptation: not completed within the horizon")
    for path in written:
        print(f"wrote {path}")
    return 0 if summary["all_passed"] else 1


def _cmd_baseline(args) -> int:
    cfg = load_config(args.config)
    policy = compute_baseline(cfg, kind=args.kind, n_samples=args.samples)
    save_policy(policy, args.out)
    print(f"baseline kind: {args.kind}")
    print(f"reference average utility: {policy.r_opt:.6f} nats")
    if args.kind == "no-csit":
        converged = str(policy.converged).lower()
        print(f"solver: {policy.iterations} iterations, converged: {converged}")
    print(f"wrote {args.out}")
    # the with-csit bisection raises ConvergenceError where FISTA flags its result
    return 0 if args.kind == "with-csit" or policy.converged else 1


def _cmd_solve_waterfill(args) -> int:
    with _bad_input():
        res = waterfill_penalized(_read_matrix(args.matrix), args.z_over_v, args.cap)
    print(json_text(vars(res)))
    return 0


def _cmd_project(args) -> int:
    with _bad_input():
        q = psd_cap_project(_read_matrix(args.matrix), args.cap)
    print(json_text(q))
    return 0


def _cmd_validate(args) -> int:
    results = run_all()
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
        failures += 0 if r.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyncov",
        description="Dynamic transmit covariance policies: simulator and exact solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--csv", help="override the CSV trace path")
    p_run.add_argument("--summary", help="override the summary JSON path")
    p_run.add_argument("--svg-utility", help="override the utility chart path")
    p_run.add_argument("--svg-power", help="override the power chart path")
    p_run.set_defaults(func=_cmd_run)

    p_base = sub.add_parser("baseline", help="precompute a reference policy")
    p_base.add_argument("config", help="path to a JSON experiment config")
    p_base.add_argument(
        "--kind", choices=("with-csit", "no-csit"), required=True,
        help="per-state adaptive policy or best constant covariance",
    )
    p_base.add_argument("--out", required=True, help="where to write the policy JSON")
    p_base.add_argument(
        "--samples", type=int, default=100,
        help="sample count for empirical policies on continuous channels",
    )
    p_base.set_defaults(func=_cmd_baseline)

    p_wf = sub.add_parser(
        "solve-waterfill", help="maximize log det(I + H Q H^H) - z_over_v tr(Q), tr(Q) <= cap"
    )
    p_wf.add_argument("--matrix", required=True, help="matrix JSON path, or - for stdin")
    p_wf.add_argument("--z-over-v", type=float, default=0.0, dest="z_over_v")
    p_wf.add_argument("--cap", type=float, required=True)
    p_wf.set_defaults(func=_cmd_solve_waterfill)

    p_pr = sub.add_parser(
        "project", help="nearest PSD matrix with tr(Q) <= cap (Frobenius distance)"
    )
    p_pr.add_argument("--matrix", required=True, help="matrix JSON path, or - for stdin")
    p_pr.add_argument("--cap", type=float, required=True)
    p_pr.set_defaults(func=_cmd_project)

    p_val = sub.add_parser("validate", help="run the invariant/property suite")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        what = "malformed JSON: " if isinstance(exc, json.JSONDecodeError) else ""
        parser.exit(2, f"dyncov: error: {what}{exc}\n")


if __name__ == "__main__":
    sys.exit(main())
