"""Command-line experiment runner.

Thin shell over the library: every subcommand is a library call plus I/O.
Exit codes: 0 success, 1 failed verdict/audit, 2 configuration error,
3 inconclusive audit.  Set PRUW_LOG=frames to dump the frame trace next to
the result (or to stderr when no output path is given).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import audit
from .config import ExperimentConfig, load_config
from .errors import ConfigError, InconclusiveError, PruwError
from .harness import CSV_HEADER, run_session, verify_costs

INSECURE_BANNER = "INSECURE: noise disabled; this run leaks everything (debug only)"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _maybe_trace(result, out_path: str | None) -> None:
    if os.environ.get("PRUW_LOG") != "frames":
        return
    trace = result.trace()
    if out_path:
        with open(out_path + ".frames", "w", encoding="utf-8") as fh:
            fh.write(trace)
    else:
        sys.stderr.write(trace)


def cmd_run(args) -> int:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.disable_noise:
        cfg.disable_noise = True
    if cfg.disable_noise:
        print(INSECURE_BANNER, file=sys.stderr)
    result = run_session(cfg)
    _emit(result.result_json(), args.out)
    _maybe_trace(result, args.out)
    return 0 if result.verdict else 1


def cmd_cost_table(args) -> int:
    specs = []
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            for raw in fh:
                tokens = raw.split("#", 1)[0].split()
                for token in tokens:
                    if "=" not in token:
                        raise ConfigError(f"sweep line {' '.join(tokens)!r}: bad token {token!r}")
                if tokens:
                    specs.append(dict(token.split("=", 1) for token in tokens))
    rows = verify_costs(specs)
    lines = [CSV_HEADER] + [row.csv_line() for row in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_audit(args) -> int:
    if args.disable_noise:
        print(INSECURE_BANNER, file=sys.stderr)
    results = audit.default_audit_suite(args.scheme, samples=args.samples, q=args.q,
                                        disable_noise=args.disable_noise)
    payload = json.dumps([r.as_dict() for r in results], sort_keys=True, indent=2) + "\n"
    _emit(payload, args.out)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pruw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a config file")
    run_p.add_argument("--config", help="key=value config file")
    run_p.add_argument("--out", help="result JSON path (stdout when omitted)")
    run_p.add_argument("--disable-noise", action="store_true", dest="disable_noise")
    run_p.set_defaults(func=cmd_run)

    cost_p = sub.add_parser("cost-table", help="measured vs analytic cost sweep")
    cost_p.add_argument("--spec", help="sweep file: one run config per line, key=value tokens")
    cost_p.add_argument("--out", help="CSV path (stdout when omitted)")
    cost_p.set_defaults(func=cmd_cost_table)

    audit_p = sub.add_parser("audit", help="run the privacy audit battery")
    audit_p.add_argument("--scheme", choices=("basic", "topr", "random"), default="basic")
    audit_p.add_argument("--samples", type=int, default=100_000,
                         help="enumeration budget: outcomes per hypothesis an audit may "
                              "enumerate (exit 3 when one needs more)")
    audit_p.add_argument("--q", type=int, default=5)
    audit_p.add_argument("--out", help="audits JSON path (stdout when omitted)")
    audit_p.add_argument("--disable-noise", action="store_true", dest="disable_noise")
    audit_p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except PruwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
