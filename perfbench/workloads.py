"""Workload table: what each workload feeds the program.

Session workloads hand pruw a key=value config in its own file format; the
seed is the only thing the benchmark's caller varies.  Why each workload
exists is recorded beside its name in BENCHMARK.json.  This module imports
nothing from pruw, so the orchestrating process stays light.
"""

from __future__ import annotations

from dataclasses import dataclass

SESSION = "session"
AUDIT = "audit"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    # session workloads: the first child runs `first_iterations`, every later
    # child `later_iterations`; audit workloads ignore both
    config: str = ""
    first_iterations: int = 0
    later_iterations: int = 0
    samples: int = 0
    q: int = 0

    def config_text(self, seed: int) -> str:
        return f"{self.config}seed={seed}\n"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="basic-l2000",
            kind=SESSION,
            config="scheme=basic\nn=10\nm=8\nl=2000\ntheta=1\n",
            first_iterations=2,
            later_iterations=1,
        ),
        Workload(
            name="topr-case2-p64",
            kind=SESSION,
            config="scheme=topr\nn=10\nm=8\np=64\ncase=2\nr=1/4\nr_prime=1/4\n",
            first_iterations=4,
            later_iterations=4,
        ),
        Workload(
            name="random-l2000",
            kind=SESSION,
            config="scheme=random\nn=10\nm=8\nl=2000\nd_read=1/3\nd_write=1/5\n",
            first_iterations=2,
            later_iterations=1,
        ),
        Workload(
            name="audit-100k",
            kind=AUDIT,
            samples=100_000,
            q=5,
        ),
    )
}

# top-r first: its unit is the largest and the only one that calls scipy's chi2
AUDIT_SCHEMES = ("topr", "basic", "random")
