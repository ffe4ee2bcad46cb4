"""Empirical privacy audits on single-database observables.

Privacy here means: everything one database sees is identically distributed
no matter which submodel is touched or what the update values are.  The
audits restate that as distribution-equality tests on fixed low-dimensional
projections (each single coordinate, up to ten coordinate pairs, and the
permuted-position set for the sparse-position scheme), sampled at a small
field size where total variation distance is measurable.

All observables come from the real message builders, observed through a
single database's view (one evaluation constant): that is exactly the scope
of the per-database privacy condition, and it keeps tiny audit fields
viable where a full deployment could not even allocate its constants.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from scipy.stats import chi2 as _chi2

from . import basic, random_sparse as rs, topr
from .errors import ConfigError, InconclusiveError
from .field import allocate_eval_points, derive_seed
from .poly import combine_update

TVD_THRESHOLD = 0.02
CHI2_SIGNIFICANCE = 0.01


@dataclass
class AuditResult:
    statistic: str
    samples: int
    value: float
    threshold: float
    passed: bool
    hypotheses: tuple[str, str]
    detail: dict = dc_field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "samples": self.samples,
            "value": self.value,
            "threshold": self.threshold,
            "passed": self.passed,
            "hypotheses": list(self.hypotheses),
            "detail": self.detail,
        }


def _tvd(counts_a, counts_b, n: int) -> float:
    return 0.5 * sum(abs(a - b) for a, b in zip(counts_a, counts_b)) / n


def _tvd_power_floor(support: int, samples: int) -> float:
    """Expected null TVD plus five standard deviations.

    Per-cell count differences are asymptotically normal; under the null the
    TVD concentrates tightly, so a threshold above this floor essentially
    never fails by chance.
    """
    p = 1.0 / support
    sigma = math.sqrt(2.0 * p * (1.0 - p) / samples)
    mean = 0.5 * support * sigma * math.sqrt(2.0 / math.pi)
    std = 0.5 * sigma * math.sqrt(support * (1.0 - 2.0 / math.pi))
    return mean + 5.0 * std


def _require_tvd_power(support: int, samples: int, threshold: float) -> None:
    floor = _tvd_power_floor(support, samples)
    if threshold < floor:
        raise InconclusiveError(
            f"threshold {threshold} below the sampling floor {floor:.4f} "
            f"for support {support} at {samples} samples"
        )


def _observer_fp(q: int):
    """One database's worth of evaluation constants (f=1, alpha=2)."""
    if q > 11:
        raise ConfigError("audits are restricted to small fields (q <= 11)")
    return allocate_eval_points(1, 1, q)


def make_query_sampler(scheme: str, q: int, m_count: int, case: int = 1):
    """Sampler over one database's view of the real read-query builders;
    returns the M coordinates of the first query block."""
    fp = _observer_fp(q)
    if scheme == "basic":
        params = basic.BasicParams(n=4, t_storage=2, t_query=1, t_update=1)

        def sample(theta, rng, disable_noise):
            query = basic.build_read_query(theta, params, fp, m_count, rng, disable_noise)
            return query.block(1)[0]

    elif scheme == "topr":
        builder = topr.build_query_case1 if case == 1 else topr.build_query_case2

        def sample(theta, rng, disable_noise):
            return builder(theta, fp, 1, m_count, rng, disable_noise)[0][0]

    elif scheme == "random":
        spec = rs.RegionSpec(lam=Fraction(1), ell_r=1, ell_w=1, case=2)
        j_read = ((1,),)

        def sample(theta, rng, disable_noise):
            return rs.build_read_queries(theta, fp, spec, j_read, m_count, rng,
                                         disable_noise)[0][0][0]

    else:
        raise ConfigError(f"unknown scheme {scheme!r}")
    return sample


def audit_query(
    scheme: str,
    theta_a: int,
    theta_b: int,
    samples: int,
    q: int = 5,
    m_count: int = 5,
    seed: int = 0,
    disable_noise: bool = False,
    threshold: float = TVD_THRESHOLD,
    pairs: int = 10,
    case: int = 1,
) -> AuditResult:
    """TVD between the per-coordinate (and coordinate-pair) query marginals
    under two submodel-index hypotheses; the reported value is the maximum
    over the projection set."""
    sampler = make_query_sampler(scheme, q, m_count, case)
    pair_list = list(itertools.combinations(range(m_count), 2))
    if len(pair_list) > pairs:
        pair_rng = random.Random(seed ^ 0x9E3779B9)
        pair_list = sorted(pair_rng.sample(pair_list, pairs))
    support = q * q if pair_list else q
    _require_tvd_power(support, samples, threshold)
    singles = {h: [[0] * q for _ in range(m_count)] for h in ("a", "b")}
    pair_counts = {h: [[0] * (q * q) for _ in pair_list] for h in ("a", "b")}
    for label, theta in (("a", theta_a), ("b", theta_b)):
        rng = random.Random(derive_seed(seed, f"hypothesis-{label}"))
        s_counts = singles[label]
        p_counts = pair_counts[label]
        for _ in range(samples):
            coords = sampler(theta, rng, disable_noise)
            for m in range(m_count):
                s_counts[m][coords[m]] += 1
            for pi, (m1, m2) in enumerate(pair_list):
                p_counts[pi][coords[m1] * q + coords[m2]] += 1
    per_projection = {}
    for m in range(m_count):
        per_projection[f"coord[{m + 1}]"] = _tvd(singles["a"][m], singles["b"][m], samples)
    for pi, (m1, m2) in enumerate(pair_list):
        per_projection[f"pair[{m1 + 1},{m2 + 1}]"] = _tvd(
            pair_counts["a"][pi], pair_counts["b"][pi], samples
        )
    value = max(per_projection.values())
    return AuditResult(
        statistic=f"query-tvd[{scheme}]",
        samples=samples,
        value=value,
        threshold=threshold,
        passed=value < threshold,
        hypotheses=(f"theta={theta_a}", f"theta={theta_b}"),
        detail={"projections": per_projection, "support": support},
    )


def audit_update(
    delta_a: int,
    delta_b: int,
    samples: int,
    q: int = 5,
    seed: int = 0,
    disable_noise: bool = False,
    threshold: float = TVD_THRESHOLD,
) -> AuditResult:
    """TVD of the combined-update symbol under two update-value hypotheses."""
    fp = _observer_fp(q)
    _require_tvd_power(q, samples, threshold)
    alphas = fp.alphas  # the one observing database
    counts = {}
    for label, delta in (("a", delta_a % q), ("b", delta_b % q)):
        rng = random.Random(derive_seed(seed, f"hypothesis-{label}"))
        c = [0] * q
        for _ in range(samples):
            noise = [0] if disable_noise else [rng.randrange(q)]
            c[combine_update(fp.field, [delta], [1], alphas, noise)[0]] += 1
        counts[label] = c
    value = _tvd(counts["a"], counts["b"], samples)
    return AuditResult(
        statistic="update-tvd",
        samples=samples,
        value=value,
        threshold=threshold,
        passed=value < threshold,
        hypotheses=(f"delta={delta_a}", f"delta={delta_b}"),
        detail={"support": q},
    )


def audit_positions(
    sparse_a,
    sparse_b,
    p_subpackets: int,
    samples: int,
    seed: int = 0,
    disable_noise: bool = False,
    significance: float = CHI2_SIGNIFICANCE,
) -> AuditResult:
    """Chi-square uniformity of the permuted position set over all subsets,
    under two true-sparse-set hypotheses; both must look uniform."""
    if len(sparse_a) != len(sparse_b):
        raise ConfigError("hypotheses must share the sparse-set size")
    subset_size = len(sparse_a)
    subsets = list(itertools.combinations(range(1, p_subpackets + 1), subset_size))
    index = {s: i for i, s in enumerate(subsets)}
    if samples < 5 * len(subsets):
        raise InconclusiveError(
            f"{samples} samples give expected cell counts below 5 over "
            f"{len(subsets)} subsets"
        )
    fp = _observer_fp(5)
    identity = tuple(range(1, p_subpackets + 1))
    critical = float(_chi2.ppf(1.0 - significance, df=len(subsets) - 1))
    stats = {}
    for label, true_set in (("a", tuple(sorted(sparse_a))), ("b", tuple(sorted(sparse_b)))):
        rng = random.Random(derive_seed(seed, f"hypothesis-{label}"))
        counts = [0] * len(subsets)
        for _ in range(samples):
            setup = topr.coordinator_setup(
                p_subpackets, 1, 1, fp, rng.randrange(1 << 62),
                perm=identity if disable_noise else None,
            )
            positions = tuple(setup.permuted_set(true_set))
            counts[index[positions]] += 1
        expected = samples / len(subsets)
        stats[label] = sum((c - expected) ** 2 / expected for c in counts)
    value = max(stats.values())
    return AuditResult(
        statistic="positions-chi2",
        samples=samples,
        value=value,
        threshold=critical,
        passed=value < critical,
        hypotheses=(f"sparse={sorted(sparse_a)}", f"sparse={sorted(sparse_b)}"),
        detail={"chi2_a": stats["a"], "chi2_b": stats["b"],
                "subsets": len(subsets), "significance": significance},
    )


def default_audit_suite(
    scheme: str,
    samples: int = 100_000,
    q: int = 5,
    seed: int = 0,
    disable_noise: bool = False,
    p_subpackets: int = 5,
    sparse_size: int = 2,
    tvd_threshold: float = TVD_THRESHOLD,
    case: int = 1,
) -> list[AuditResult]:
    """The fixed per-scheme audit battery used by the command line."""
    results = [
        audit_query(scheme, 1, 2, samples, q=q, seed=seed, disable_noise=disable_noise,
                    threshold=tvd_threshold, case=case),
        audit_update(1, 3, samples, q=q, seed=seed, disable_noise=disable_noise,
                     threshold=tvd_threshold),
    ]
    if scheme == "topr":
        results.append(
            audit_positions(
                sparse_a=list(range(1, sparse_size + 1)),
                sparse_b=list(range(2, sparse_size + 2)),
                p_subpackets=p_subpackets,
                samples=samples,
                seed=seed,
                disable_noise=disable_noise,
            )
        )
    return results
