#!/usr/bin/env python3
"""Reproduce the closed-form cost tables against the wire meter.

Writes one CSV per scheme into ./results (created if missing): the basic
sweep over database counts, the sparse-position fixture at an integral
position alphabet, and the distortion sweep of the random scheme.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from pruw.harness import CSV_HEADER, verify_costs  # noqa: E402


def write_csv(path: pathlib.Path, rows) -> None:
    lines = [CSV_HEADER] + [row.csv_line() for row in rows]
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path} ({len(rows)} rows, all match: {all(r.match for r in rows)})")


def main() -> int:
    out_dir = pathlib.Path(__file__).resolve().parent.parent / "results"
    out_dir.mkdir(exist_ok=True)

    write_csv(out_dir / "costs_basic.csv",
              verify_costs([{"scheme": "basic", "n": n} for n in range(4, 13)]))

    topr_specs = [
        {"scheme": "topr", "n": 10, "p": 25, "position_base": 5, "r": "1/5", "r_prime": "1/5",
         "case": case}
        for case in (1, 2)
    ]
    write_csv(out_dir / "costs_topr.csv", verify_costs(topr_specs))

    random_specs = [
        {"scheme": "random", "n": 10, "d_read": d, "d_write": d}
        for d in ("0", "1/10", "1/5", "3/10", "2/5")
    ] + [
        {"scheme": "random", "n": 11, "d_read": "0", "d_write": "1/4"},
    ]
    write_csv(out_dir / "costs_random.csv", verify_costs(random_specs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
