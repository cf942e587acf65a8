"""Command-line surface: fit | detect | kpca | flaws | verify.

Every subcommand prints a short human-readable summary to stdout and can
write a schema-versioned JSON report with --out.  Exit codes: 0 success,
1 flagged anomaly (detect only), 2 on any error or failed verify suite.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from .adde import classical_fit, run_adde
from .adkpca import classical_moments, run_adkpca
from .arith import FixedPointFormat
from .config import QadsimError
from .dataio import POLICIES, load_csv, load_query_csv
from .flawlab import run_flaw_suite
from .pipelines import PipelineConfig
from .verify import SUITES, run_suite

SCHEMA_VERSION = 1


def _write_report(command: str, body: dict, out: str | None) -> None:
    """Write the schema-versioned report of a command to `out`, if given."""
    if out:
        report = {
            "schema_version": SCHEMA_VERSION,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "command": command,
            **body,
        }
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")


def _add_data_flags(p: argparse.ArgumentParser, query: bool = True) -> None:
    p.add_argument("--data", required=True, help="training matrix CSV, one point per row")
    if query:
        p.add_argument("--query", required=True, help="query point CSV, exactly one row")
    p.add_argument("--header", action="store_true", help="skip the first CSV row")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=float, help="total error target in (0, 1)")
    p.add_argument("--t-bits", type=int, help="phase-register width (bypasses budgets)")
    p.add_argument("--mode", choices=("ideal", "circuit"), default="ideal")
    p.add_argument("--seed", type=int, help="RNG seed (required in circuit mode)")
    p.add_argument("--fp-int-bits", type=int, default=8)
    p.add_argument("--fp-frac-bits", type=int, default=16)
    p.add_argument("--policy", choices=POLICIES, default="error")


def _require_finite(args: argparse.Namespace, *flags: str) -> None:
    """Reject nan/inf in the named float flags (ValueError, exit 2)."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{flag} must be a finite number, got {value}")


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(
        t_bits=args.t_bits,
        epsilon=args.epsilon,
        mode=args.mode,
        seed=args.seed,
        fp_format=FixedPointFormat(args.fp_int_bits, args.fp_frac_bits),
        policy=args.policy,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qadsim",
        description="Quantum anomaly-detection simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="classical Gaussian fit of the training data")
    _add_data_flags(p_fit, query=False)
    p_fit.add_argument("--policy", choices=POLICIES, default="error")

    p_detect = sub.add_parser("detect", help="density-estimation anomaly detection")
    _add_data_flags(p_detect)
    _add_run_flags(p_detect)
    p_detect.add_argument("--delta", type=float, default=0.01, help="density threshold")

    p_kpca = sub.add_parser("kpca", help="proximity-measure anomaly scoring")
    _add_data_flags(p_kpca)
    _add_run_flags(p_kpca)

    p_flaws = sub.add_parser("flaws", help="defect exhibits of the prior analog scheme")
    _add_data_flags(p_flaws)

    p_verify = sub.add_parser("verify", help="aggregate verification suites")
    p_verify.add_argument("--suite", required=True, choices=SUITES)
    p_verify.add_argument("--seeds", type=int, default=100)
    p_verify.add_argument("--base-seed", type=int, default=0)

    for p in sub.choices.values():
        p.add_argument("--out", help="JSON report path")
    return parser


def _cmd_fit(args) -> int:
    data = load_csv(args.data, has_header=args.header)
    model = classical_fit(data, policy=args.policy)
    body = {
        "M": data.n_rows,
        "d": data.n_cols,
        "mu": model.mu.tolist(),
        "sigma2": model.sigma2.tolist(),
    }
    if data.n_rows >= 2:
        body["covariance"] = classical_moments(data).covariance.tolist()
    _write_report("fit", body, args.out)
    print(f"fit: M={data.n_rows} d={data.n_cols}")
    print(f"  mu      = {np.array2string(model.mu, precision=6)}")
    print(f"  sigma^2 = {np.array2string(model.sigma2, precision=6)}")
    return 0


def _cmd_detect(args) -> int:
    config = _pipeline_config(args)
    if args.delta <= 0.0:
        raise ValueError("--delta must be positive")
    data = load_csv(args.data, has_header=args.header)
    query = load_query_csv(args.query, has_header=args.header)
    rep = run_adde(data, query, config, delta=args.delta)
    _write_report("detect", rep.as_dict(), args.out)
    verdict = "ANOMALY" if rep.flag else "normal"
    print(f"detect: ln P_hat = {rep.ln_p_hat:.6f} (classical {rep.ln_p_classical:.6f})")
    print(f"  delta = {rep.delta}  ->  {verdict}")
    print(f"  ledger: {rep.ledger}")
    return 1 if rep.flag else 0


def _cmd_kpca(args) -> int:
    config = _pipeline_config(args)
    data = load_csv(args.data, has_header=args.header)
    query = load_query_csv(args.query, has_header=args.header)
    rep = run_adkpca(data, query, config)
    _write_report("kpca", rep.as_dict(), args.out)
    print(f"kpca: f_hat = {rep.f_hat:.6f} (classical {rep.f_classical:.6f})")
    print(f"  a_hat = {rep.a_hat:.6f}  b_hat = {rep.b_hat:.6f}")
    print(f"  ledger: {rep.ledger}")
    return 0


def _cmd_flaws(args) -> int:
    data = load_csv(args.data, has_header=args.header)
    query = load_query_csv(args.query, has_header=args.header)
    rep = run_flaw_suite(data, query)
    _write_report("flaws", rep.as_dict(), args.out)
    print("flaws:")
    print(f"  analog call sites: {[r['site'] for r in rep.encoding if r['encoding'] == 'analog']}")
    print(f"  normalization discrepancy = {rep.normalization['discrepancy']:.6f} (N_mu = {rep.normalization['N_mu']:.6f})")
    if "m2" in rep.expectation:
        m2 = rep.expectation["m2"]
        print(f"  <M2> actual = {m2['actual']:.6f}, claimed = {m2['claimed']:.6f}")
    else:
        print(f"  expectation audit: {rep.expectation.get('domain_note', 'n/a')}")
    return 0


def _cmd_verify(args) -> int:
    result = run_suite(args.suite, seeds=args.seeds, base_seed=args.base_seed)
    _write_report("verify", result, args.out)
    status = "PASS" if result["passed"] else "FAIL"
    print(f"verify[{args.suite}]: {status} ({len(result['failures'])} failures)")
    return 0 if result["passed"] else 2


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"fit": _cmd_fit, "detect": _cmd_detect, "kpca": _cmd_kpca,
                "flaws": _cmd_flaws, "verify": _cmd_verify}
    try:
        _require_finite(args, "--epsilon", "--delta")
        return commands[args.command](args)
    except (QadsimError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
