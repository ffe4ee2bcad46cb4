#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

Runs each session kind at a tiny shape and requires every check to pass.
Then it alters storage in-process just before the oracle check, once in a
single replica and once consistently in every replica, and requires the
benchmark to count the failure and name the iteration.  It also requires
that tracing leaves the result digests unchanged, that a raising audit is
counted, and that differing digests fail the determinism check.  Nothing in
pruw is changed.  Exits 1 on the first unmet expectation.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
from pruw import harness  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = {
    "basic": "scheme=basic\nn=6\nm=2\nl=12\nseed=5\n",
    "topr": "scheme=topr\nn=6\nm=2\np=8\ncase=2\nr=1/4\nr_prime=1/4\nseed=5\n",
    "random": "scheme=random\nn=6\nm=2\nl=30\nd_read=1/3\nd_write=1/5\nseed=5\n",
}
ITERATIONS = 2


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"selftest FAILED: {what}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {what}")


def corrupt_before_oracle(every_replica: bool):
    """Wrap the oracle so its first call sees cell (0, 0, 0) altered."""
    original = harness.reconstruct_plain
    calls = []

    def oracle(states):
        if not calls:
            for st in states if every_replica else states[:1]:
                fp = st.fp
                # shift the plain symbol by one whatever the masking form
                step = 1 if st.layout.affine_mask else fp.field.inv(fp.fs[0] - fp.alpha(st.db_index))
                st.cells[0][0][0] = (st.cells[0][0][0] + step) % fp.q
        calls.append(1)
        return original(states)

    harness.reconstruct_plain = oracle
    return lambda: setattr(harness, "reconstruct_plain", original)


def main() -> int:
    for scheme, text in TINY.items():
        clean = child.run_session(text, ITERATIONS)
        expect(clean["attempted"] == ITERATIONS and clean["verdict_failed"] == 0,
               f"{scheme}: tiny session passes every check ({clean['first_failure']})")

        tracer = Tracer(f"selftest/{scheme}")
        tracer.install()
        try:
            traced = child.run_session(text, ITERATIONS)
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics()
        expect(traced["digests"] == clean["digests"], f"{scheme}: tracing keeps results identical")
        expect(layers["storage.oracle_calls"] >= ITERATIONS and layers["wire.frames"] > 0
               and layers["field.noise_calls"] > 0 and layers["storage.cells"] > 0,
               f"{scheme}: traced layers report work")

        for every_replica, named in ((False, "IntegrityError"), (True, "write_ok false")):
            restore = corrupt_before_oracle(every_replica)
            try:
                bad = child.run_session(text, ITERATIONS)
            finally:
                restore()
            first = bad["first_failure"] or ""
            expect(bad["failed"] >= 1 and first.startswith("iteration 1:") and named in first,
                   f"{scheme}: an altered cell is counted and named ({first})")

    audit = child.run_audit(seed=0, samples=1000, q=5)
    expect(audit["failed"] == audit["attempted"] > 0
           and "InconclusiveError" in (audit["first_failure"] or ""),
           "a raising audit is counted and named")

    record = {"run_s": 1.0, "setup_s": 0.1, "import_s": 0.1, "iteration_s": [0.5, 0.4],
              "peak_rss_mb": 1.0, "attempted": 2, "failed": 0, "verdict_failed": 0,
              "first_failure": None, "digests": [["a", "b"], ["c", "d"]], "probe_s": [0.2, 0.2]}
    other = {**record, "digests": [["a", "b"], ["c", "x"]]}
    _, book = run.summarize("basic-l2000", [record, other])
    expect(book["failed"] == 1 and "determinism" in book["first_failure"],
           "differing digests fail the determinism check")
    _, book = run.summarize("basic-l2000", [record, {**record, "digests": [["a", "b"]]}])
    expect(book["failed"] == 0, "a shorter repeat is compared on its common prefix")
    return 0


if __name__ == "__main__":
    sys.exit(main())
