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

from . import harness, snapshot
from .config import ExperimentConfig, load_config
from .errors import ConfigError, InconclusiveError, PruwError
from .harness import CSV_HEADER, Session, run_session, verify_costs

INSECURE_BANNER = "INSECURE: noise disabled; this run leaks everything (debug only)"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_cfg(args) -> ExperimentConfig:
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = ExperimentConfig()
    if getattr(args, "scheme", None):
        cfg.scheme = args.scheme
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "disable_noise", False):
        cfg.disable_noise = True
    cfg.validate()
    return cfg


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
    cfg = _load_cfg(args)
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
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                entry = {}
                for token in line.split():
                    if "=" not in token:
                        raise ConfigError(f"bad sweep token {token!r}")
                    key, value = token.split("=", 1)
                    entry[key] = value
                specs.append(entry)
    rows = verify_costs(specs)
    lines = [CSV_HEADER] + [row.csv_line() for row in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_audit(args) -> int:
    # imported here, not at module level: audit pulls in scipy.stats, which
    # every other command would otherwise pay for at start-up
    from . import audit

    if args.disable_noise:
        print(INSECURE_BANNER, file=sys.stderr)
    threshold = audit.TVD_THRESHOLD if args.tvd_threshold is None else args.tvd_threshold
    try:
        results = audit.default_audit_suite(
            args.scheme,
            samples=args.samples,
            q=args.q,
            seed=args.seed if args.seed is not None else 0,
            disable_noise=args.disable_noise,
            tvd_threshold=threshold,
        )
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    payload = json.dumps([r.as_dict() for r in results], sort_keys=True, indent=2) + "\n"
    _emit(payload, args.out)
    return 0 if all(r.passed for r in results) else 1


def cmd_save_snapshot(args) -> int:
    cfg = _load_cfg(args)
    session = Session(cfg)
    if cfg.scheme == "random":
        regions = session.region_states
        setup = None
    else:
        regions = [session.states]
        setup = session.setup if cfg.scheme == "topr" else None
    bundle = snapshot.SnapshotBundle(
        scheme=cfg.scheme, fp=session.fp, seed=cfg.seed, regions=regions,
        perm_setup=setup,
    )
    snapshot.save_snapshot(args.out, bundle)
    print(f"saved {cfg.scheme} snapshot to {args.out}")
    return 0


def cmd_load_snapshot(args) -> int:
    bundle = snapshot.load_snapshot(args.snapshot)
    from .storage import reconstruct_plain

    summary = {
        "scheme": bundle.scheme,
        "q": bundle.fp.q,
        "n": bundle.fp.n_databases,
        "regions": [
            {
                "subpackets": states[0].subpackets,
                "width": states[0].layout.width,
                "m_count": states[0].m_count,
                "length": states[0].length,
            }
            for states in bundle.regions
        ],
    }
    if bundle.perm_setup is not None:
        summary["permutation"] = list(bundle.perm_setup.perm)
    if args.verify:
        for states in bundle.regions:
            reconstruct_plain(states)
        summary["integrity"] = "ok"
    _emit(json.dumps(summary, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pruw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a config file")
    run_p.add_argument("--config", help="key=value config file")
    run_p.add_argument("--out", help="result JSON path (stdout when omitted)")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--scheme", choices=("basic", "topr", "random"))
    run_p.add_argument("--disable-noise", action="store_true", dest="disable_noise")
    run_p.set_defaults(func=cmd_run)

    cost_p = sub.add_parser("cost-table", help="measured vs analytic cost sweep")
    cost_p.add_argument("--spec", help="sweep file: one run per line, key=value tokens")
    cost_p.add_argument("--out", help="CSV path (stdout when omitted)")
    cost_p.set_defaults(func=cmd_cost_table)

    audit_p = sub.add_parser("audit", help="run the privacy audit battery")
    audit_p.add_argument("--scheme", choices=("basic", "topr", "random"), default="basic")
    audit_p.add_argument("--samples", type=int, default=100_000)
    audit_p.add_argument("--q", type=int, default=5)
    audit_p.add_argument("--seed", type=int, default=0)
    audit_p.add_argument("--tvd-threshold", type=float, dest="tvd_threshold",
                         help="loosen when running fewer samples than the default "
                              "(default: pruw.audit.TVD_THRESHOLD)")
    audit_p.add_argument("--out", help="audits JSON path (stdout when omitted)")
    audit_p.add_argument("--disable-noise", action="store_true", dest="disable_noise")
    audit_p.set_defaults(func=cmd_audit)

    save_p = sub.add_parser("save-snapshot", help="initialize storage and dump it")
    save_p.add_argument("--config", help="key=value config file")
    save_p.add_argument("--out", required=True, help="snapshot path")
    save_p.add_argument("--seed", type=int)
    save_p.add_argument("--scheme", choices=("basic", "topr", "random"))
    save_p.add_argument("--disable-noise", action="store_true", dest="disable_noise")
    save_p.set_defaults(func=cmd_save_snapshot)

    load_p = sub.add_parser("load-snapshot", help="load a snapshot and summarize it")
    load_p.add_argument("snapshot", help="snapshot path")
    load_p.add_argument("--out", help="summary JSON path (stdout when omitted)")
    load_p.add_argument("--verify", action="store_true", help="run the integrity check")
    load_p.set_defaults(func=cmd_load_snapshot)
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
