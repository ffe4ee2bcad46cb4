#!/usr/bin/env python3
"""The pruw benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload runs in fresh interpreters (perfbench/child.py), one at a time,
importing pruw from the checkout's ``src/``.  Untraced runs print the
end-to-end metrics named in BENCHMARK.json; ``--trace 1`` runs the workload
once untraced and once traced from outside and prints the per-layer metrics,
including the tracing overhead.  The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it gives
context, sample counts, fail_ratio, the first failing item and the
determinism digests.  Metric definitions are in perfbench/README.md.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import AUDIT, SESSION, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = HERE / "out"
RUN_LIMIT_S = 170  # a run must end within 180 s
# at least this many fresh children per run: repeats are compared for determinism
MIN_CHILDREN = 2
# end-to-end times are reported at the machine speed where one child.Probes
# probe takes this long; the shared machine's speed drifts by tens of percent
PROBE_REF_S = 0.2
TIMES = ("import_s", "setup_s", "run_s")


class BenchError(Exception):
    pass


def context(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], hard_deadline: float) -> dict:
    timeout = hard_deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a required child could start")
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *args], stdout=subprocess.PIPE,
                              text=True, env=child_env(), cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args} did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args} exited {proc.returncode} without a record")
    return json.loads(lines[-1])


def run_children(name: str, seed: int, seconds: int, trace: bool) -> list[dict]:
    """Fresh children, one at a time, until the next would overrun `seconds`."""
    workload = WORKLOADS[name]
    start = time.monotonic()
    deadline, hard = start + seconds, start + RUN_LIMIT_S
    base = ["--workload", name, "--seed", str(seed)]
    first = base + ["--iterations", str(workload.first_iterations)]
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"{name}-seed{seed}-spans.json"
        return [run_child(first, hard), run_child(first + ["--spans", str(spans)], hard)]
    if workload.kind == SESSION:
        later = base + ["--iterations", str(workload.later_iterations)]
    else:
        later = base + ["--import-only"]  # more samples of the audit's set-up
    children = []
    args = first
    while True:
        began = time.monotonic()
        children.append(run_child(args, hard))
        took = time.monotonic() - began
        args = later
        if len(children) >= MIN_CHILDREN + (workload.kind == AUDIT) \
                and time.monotonic() + took > deadline:
            return children


def median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def at_reference_speed(child: dict) -> dict:
    """The child's times scaled by its probe to the reference machine speed."""
    k = PROBE_REF_S / statistics.fmean(child["probe_s"])
    scaled = {key: child[key] * k for key in TIMES if key in child}
    if "iteration_s" in child:
        scaled["iteration_s"] = [t * k for t in child["iteration_s"]]
    return {**child, **scaled}


def summarize(name: str, children: list[dict]) -> tuple[dict, dict]:
    """End-to-end values and the bookkeeping shared by both run modes."""
    children = [at_reference_speed(c) for c in children]
    full = [c for c in children if "run_s" in c]
    first = [c["iteration_s"][0] for c in full if c["iteration_s"]]
    if WORKLOADS[name].kind == AUDIT:
        # the audit's set-up is the import; its later schemes differ in kind, so
        # their mean is steadier than a median that jumps between them
        setup = [c["import_s"] for c in children]
        later = [statistics.fmean(c["iteration_s"][1:]) for c in full
                 if len(c["iteration_s"]) > 1]
    else:
        setup = [c["setup_s"] for c in full]
        later = [t for c in full for t in c["iteration_s"][1:]]
    values = {
        "run_s": median([c["run_s"] for c in full]),
        "setup_s": median(setup),
        "first_iteration_s": median(first),
        "iteration_s": median(later),
        "peak_rss_mb": median([c["peak_rss_mb"] for c in full]),
    }
    attempted = sum(c["attempted"] for c in full)
    failed = sum(c["failed"] for c in full)
    first_failure = next((c["first_failure"] for c in full if c["first_failure"]), None)
    digests = [c["digests"] for c in full]
    common = min(len(d) for d in digests)
    for i in range(common):
        if len({tuple(d[i]) for d in digests}) > 1:
            failed += 1
            first_failure = first_failure or f"determinism: digests differ after unit {i + 1}"
            break
    verdict_failed = sum(c["verdict_failed"] for c in full)
    book = {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": Fraction(verdict_failed, attempted) if attempted else Fraction(1),
        "first_failure": first_failure,
        "digests": digests[0],
        "distortion": full[-1].get("distortion"),
        "samples": {"run_s": len(full), "setup_s": len(setup), "first_iteration_s": len(first),
                    "iteration_s": len(later), "peak_rss_mb": len(full)},
    }
    return values, book


def layer_values(children: list[dict], book: dict) -> dict:
    untraced, traced = children
    values = dict(traced["layers"])
    dist = book["distortion"] or {"read": "0", "write": "0", "pad_bits": 0}
    values.update({
        "cli.import_s": traced["import_s"],
        "bench.probe_s": statistics.fmean(traced["probe_s"]),
        "random_sparse.read_distortion": float(Fraction(dist["read"])),
        "random_sparse.write_distortion": float(Fraction(dist["write"])),
        "random_sparse.pad_bits": dist["pad_bits"],
        "fail_ratio": float(book["fail_ratio"]),
        "trace.overhead_s": traced["run_s"] - untraced["run_s"],
    })
    return values


def measure(name: str, seed: int, seconds: int, trace: bool, spec: dict) -> tuple[dict, dict]:
    children = run_children(name, seed, seconds, trace)
    values, book = summarize(name, children)
    if trace:
        values = layer_values(children, book)
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if values.get(m["name"]) is not None}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and book["failed"] == 0:
        raise BenchError(f"{name}: no value for {missing}")
    detail = {
        "workload": name, "trace": int(trace), "seconds": seconds,
        "context": {**context(seed), **children[0]["context"]},
        "samples": book["samples"], "fail_ratio": str(book["fail_ratio"]),
        "first_failure": book["first_failure"], "distortion": book["distortion"],
        "digests": book["digests"],
        "children": [{k: c[k] for k in ("import_s", "setup_s", "run_s", "iteration_s",
                                         "peak_rss_mb", "probe_s") if k in c} for c in children],
    }
    result = {"correct": book["failed"] == 0, "attempted": book["attempted"],
              "failed": book["failed"], "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pruw" / "__init__.py").is_file():
        print(f"perfbench: no pruw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        try:
            detail, result = measure(name, args.seed, args.seconds, bool(args.trace), spec)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        for metric, v in result["metrics"].items():
            print(f"{name} {metric} = {v['value']} {v['unit']}", file=sys.stderr)
        print(json.dumps(detail))
        print(json.dumps(result))
        all_correct &= result["correct"]
    return 0 if all_correct or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
