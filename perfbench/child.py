"""One fresh interpreter running one workload for perfbench/run.py.

    python3 perfbench/child.py --workload NAME --seed N [--iterations K]
                               [--spans PATH] [--import-only]

Times the import of ``pruw.cli``, then runs one session of K iterations or
the audit battery, checks every output, and prints one JSON record as its
last stdout line.  With ``--spans`` the pruw modules are traced from outside
(see tracer.py) and the spans are written to PATH.  pruw is found through
PYTHONPATH, which run.py points at the checkout's ``src/``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

from workloads import AUDIT, AUDIT_SCHEMES, WORKLOADS  # noqa: E402

# the only audit whose live verdict may fail by chance: a chi-square test at
# significance 0.01; every TVD audit sits five sigma above its sampling floor
CHANCE_AUDIT = "positions-chi2"


class Probes:
    """Machine-speed probes, taken after the import and after every timed unit.

    A probe times a fixed loop of modular arithmetic that calls nothing in
    pruw.  run.py scales a child's times by its mean probe, so a machine that
    is slower for a while does not read as a slower program.
    """

    def __init__(self):
        self.times: list[float] = []

    def take(self) -> None:
        acc, q = 0, 2**31 - 1
        start = time.perf_counter()
        for i in range(1_200_000):
            acc = (acc + i * 48271) % q
        self.times.append(time.perf_counter() - start)


def _no_probe() -> None:
    pass


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Checks:
    """Attempted items, failures and the first failing item.

    ``failed`` counts items whose outputs are wrong (decode or storage off the
    oracle, a raised exception, a noise-off control that passes, a live TVD
    audit that fails).  ``verdict_failed`` also counts items that compute
    correctly but miss the paper's contract (a distortion budget, a closed
    form cost, a chance audit failure); it is the numerator of fail_ratio.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.verdict_failed = 0
        self.first_failure = None

    def item(self, label: str, wrong: list[str], missed: list[str]) -> None:
        self.attempted += 1
        if wrong:
            self.failed += 1
        if wrong or missed:
            self.verdict_failed += 1
            if self.first_failure is None:
                self.first_failure = f"{label}: {'; '.join(wrong + missed)}"

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "verdict_failed": self.verdict_failed, "first_failure": self.first_failure}


def closed_form_costs(cfg):
    """(C_R, C_W) the meter must report, from the package's closed forms."""
    from pruw import basic, random_sparse, topr

    if cfg.scheme == "basic":
        c_read, c_write, _ = basic.costs_basic(cfg.n)
        return c_read, c_write
    if cfg.scheme == "topr":
        costs = topr.costs_topr_metered(cfg.n, cfg.p, cfg.position_base or cfg.q,
                                        cfg.r, cfg.r_prime, cfg.case)
        return costs.read, costs.write
    plan = random_sparse.optimize_plan(cfg.n, cfg.d_read, cfg.d_write)
    return random_sparse.costs_random(cfg.n, plan)


def run_session(config_text: str, iterations: int, between=_no_probe) -> dict:
    """Set up one session, run its iterations and check each one; `between`
    runs after each timed unit."""
    from pruw import harness
    from pruw.config import parse_config_text

    cfg = parse_config_text(config_text)
    c_read, c_write = closed_form_costs(cfg)
    checks = Checks()
    clock = time.perf_counter
    start = clock()
    session = harness.Session(cfg)
    out = {"setup_s": clock() - start, "iteration_s": [], "digests": [], "distortion": None}
    between()
    done = []
    for i in range(1, iterations + 1):
        start = clock()
        try:
            it = session.run_iteration()
        except Exception as exc:  # a raising iteration is counted, never aborts the run
            checks.item(f"iteration {i}", [f"{type(exc).__name__}: {exc}"], [])
            break
        out["iteration_s"].append(clock() - start)
        done.append(it)
        wrong = [f"{key} false" for key in ("read_ok", "write_ok") if not it.detail[key]]
        missed = []
        if it.ledger.c_read != c_read:
            missed.append(f"C_R {it.ledger.c_read} != closed form {c_read}")
        if it.ledger.c_write != c_write:
            missed.append(f"C_W {it.ledger.c_write} != closed form {c_write}")
        overrun = []
        dist = it.distortion
        if dist is not None:
            out["distortion"] = {"read": str(dist.read_measured),
                                 "write": str(dist.write_measured),
                                 "pad_bits": dist.pad_bits}
            if dist.read_measured > dist.read_budget:
                overrun.append(f"read distortion {dist.read_measured} > budget {dist.read_budget}")
            if dist.write_measured > dist.write_budget:
                overrun.append(f"write distortion {dist.write_measured} > budget {dist.write_budget}")
        if it.verdict != (not wrong and not overrun):
            wrong.append(f"verdict {'pass' if it.verdict else 'fail'} disagrees with the checks")
        checks.item(f"iteration {i}", wrong, overrun + missed)
        result = harness.SessionResult(config=cfg, iterations=done, log=session.log)
        out["digests"].append([_sha(result.result_json()), _sha(result.trace())])
        between()
    out.update(checks.as_dict())
    return out


def run_audit(seed: int, samples: int, q: int, between=_no_probe) -> dict:
    """The audit battery; one timed unit per scheme, its live suite and its
    noise-off control.  `between` runs after each unit."""
    from pruw import audit

    checks = Checks()
    out = {"iteration_s": []}
    payload = []
    for scheme in AUDIT_SCHEMES:
        start = time.perf_counter()
        for control in (False, True):
            label = f"{scheme} {'noise-off control' if control else 'live'}"
            try:
                results = audit.default_audit_suite(scheme, samples=samples, q=q, seed=seed,
                                                    disable_noise=control)
            except Exception as exc:  # counted, never aborts the run
                checks.item(label, [f"{type(exc).__name__}: {exc}"], [])
                continue
            for r in results:
                name = f"{label} {r.statistic}"
                if control:
                    checks.item(name, ["control passed"] if r.passed else [], [])
                elif r.passed:
                    checks.item(name, [], [])
                elif r.statistic == CHANCE_AUDIT:
                    checks.item(name, [], [f"live audit failed ({r.value} >= {r.threshold})"])
                else:
                    checks.item(name, [f"live audit failed ({r.value} >= {r.threshold})"], [])
            payload.append([label, [r.as_dict() for r in results]])
        out["iteration_s"].append(time.perf_counter() - start)
        between()
    out["digests"] = [[_sha(json.dumps(payload, sort_keys=True))]]
    out.update(checks.as_dict())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--iterations", type=int, default=1)
    parser.add_argument("--spans", help="trace the run and write its spans here")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    probes = Probes()
    start = time.perf_counter()
    import pruw.cli  # noqa: F401  (the import a command-line run pays)
    record = {"import_s": time.perf_counter() - start}
    probes.take()
    import numpy
    import scipy

    record["context"] = {"python": platform.python_version(), "numpy": numpy.__version__,
                         "scipy": scipy.__version__}
    if args.import_only:
        probes.take()
        record["probe_s"] = probes.times
        print(json.dumps(record))
        return 0

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer(f"{args.workload}/seed{args.seed}")
        tracer.install()

    def work() -> dict:
        if workload.kind == AUDIT:
            return run_audit(args.seed, workload.samples, workload.q, probes.take)
        return run_session(workload.config_text(args.seed), args.iterations, probes.take)

    if tracer is None:
        record.update(work())
    else:
        with tracer.span(workload.kind):
            record.update(work())
    # the probes ran inside the run and are not the program's time
    record["run_s"] = time.perf_counter() - start - sum(probes.times)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["probe_s"] = probes.times
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.layer_metrics()
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"run": tracer.run_id, "context": record["context"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
