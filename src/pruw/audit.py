"""Exact privacy audits on single-database observables.

Privacy here means: everything one database sees is identically distributed
no matter which submodel is touched or what the update values are.  Each
audit enumerates every outcome of the randomness the real builders draw
(the query's noise symbols, the update's noise symbol, or the secret
permutation of subpacket positions) under two hypotheses, and reports the
exact total variation distance between the two distributions of the view.
The query audit compares the joint distribution of all M coordinates, so a
leak that no marginal or pair shows still counts.  Nothing is sampled: the
value is 0 exactly when the view is independent of the hypothesis, and the
noise-off controls read 1.

All observables come from the real message builders, observed through a
single database's view (one evaluation constant): that is exactly the scope
of the per-database privacy condition, and it keeps tiny audit fields
viable where a full deployment could not even allocate its constants.
``samples`` is the enumeration budget: an audit whose draw space is larger
raises :class:`InconclusiveError` rather than allocate without bound.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import basic, random_sparse as rs, topr
from .errors import ConfigError, InconclusiveError
from .field import CounterNoise, allocate_eval_points
from .poly import combine_update

TVD_THRESHOLD = 0.02


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


class _Playback:
    """Stand-in for :class:`~pruw.field.CounterNoise` whose ``symbol``
    returns the next ``count`` of the given draws as a plain list, whatever
    the tag (zeros once they run out), and counts the draws taken."""

    def __init__(self, draws=()):
        self.draws = draws
        self.taken = 0

    def symbol(self, q, count, *tag):
        out = list(self.draws[self.taken : self.taken + count])
        self.taken += count
        if len(out) < count:
            out += [0] * (count - len(out))
        return out


def _require_budget(size: int, samples: int, what: str) -> None:
    if size > samples:
        raise InconclusiveError(
            f"{what} has {size} outcomes, above the enumeration budget of {samples}"
        )


def _exact_tvd(observe, hypotheses, space) -> float:
    """Total variation distance between the laws of ``observe(h, draw)``
    for the two hypotheses, with ``draw`` uniform over the list ``space``."""
    a, b = (Counter(observe(h, draw) for draw in space) for h in hypotheses)
    return float(Fraction(sum(abs(a[v] - b[v]) for v in a.keys() | b.keys()), 2 * len(space)))


def _result(statistic, space, value, hypotheses, detail) -> AuditResult:
    return AuditResult(statistic=statistic, samples=len(space), value=value,
                       threshold=TVD_THRESHOLD, passed=value < TVD_THRESHOLD,
                       hypotheses=hypotheses, detail=detail)


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

        def sample(theta, noise):
            return basic.build_read_query(theta, params, fp, m_count, noise)[0][0]

    elif scheme == "topr":
        builder = topr.build_query_case1 if case == 1 else topr.build_query_case2

        def sample(theta, noise):
            return builder(theta, fp, 1, m_count, noise)[0][0]

    elif scheme == "random":
        spec = rs.RegionSpec(lam=Fraction(1), ell_r=1, ell_w=1, case=2)
        region = rs.Region(spec, start=0, real_bits=1, j_read=((1,),), j_write=((1,),))

        def sample(theta, noise):
            return rs.build_read_queries(theta, fp, region, m_count, noise)[0][0][0]

    else:
        raise ConfigError(f"unknown scheme {scheme!r}")
    return sample


def audit_query(
    scheme: str,
    theta_a: int,
    theta_b: int,
    samples: int,
    q: int = 5,
    disable_noise: bool = False,
    case: int = 1,
) -> AuditResult:
    """Exact TVD between the joint laws of the M = 5 query coordinates under
    two submodel-index hypotheses, over every value of the builder's noise;
    the noise-off control plays back the one all-zero draw."""
    sampler = make_query_sampler(scheme, q, 5, case)
    counter = _Playback()
    sampler(theta_a, counter)
    _require_budget(q ** counter.taken, samples, f"the {scheme} query's noise")
    space = ([(0,) * counter.taken] if disable_noise
             else list(itertools.product(range(q), repeat=counter.taken)))

    def observe(theta, draws):
        noise = _Playback(draws)
        coords = tuple(sampler(theta, noise))
        assert noise.taken == len(draws), "the builder's draw count changed"
        return coords

    return _result(f"query-tvd[{scheme}]", space, _exact_tvd(observe, (theta_a, theta_b), space),
                   (f"theta={theta_a}", f"theta={theta_b}"),
                   {"support": q ** 5})


def audit_update(
    delta_a: int,
    delta_b: int,
    samples: int,
    q: int = 5,
    disable_noise: bool = False,
) -> AuditResult:
    """Exact TVD of the combined-update symbol under two update-value
    hypotheses, over every value of its noise symbol."""
    fp = _observer_fp(q)
    _require_budget(q, samples, "the update's noise")
    space = [0] if disable_noise else list(range(q))

    def observe(delta, noise):
        return combine_update(fp.field, [delta % q], [1], fp.alphas, [noise])[0]

    return _result("update-tvd", space, _exact_tvd(observe, (delta_a, delta_b), space),
                   (f"delta={delta_a}", f"delta={delta_b}"), {"support": q})


def audit_positions(
    sparse_a,
    sparse_b,
    p_subpackets: int,
    samples: int,
    disable_noise: bool = False,
) -> AuditResult:
    """Exact TVD of the permuted position set under two true-sparse-set
    hypotheses, over every secret permutation of the subpackets."""
    if len(sparse_a) != len(sparse_b):
        raise ConfigError("hypotheses must share the sparse-set size")
    _require_budget(math.factorial(p_subpackets), samples, "the secret permutation")
    fp = _observer_fp(5)
    identity = tuple(range(1, p_subpackets + 1))
    space = [identity] if disable_noise else list(itertools.permutations(identity))
    source = CounterNoise(0)  # never read: the override replaces the only draw

    def observe(true_set, perm):
        setup = topr.coordinator_setup(p_subpackets, 1, 1, fp, source, perm=perm)
        return tuple(setup.permuted_set(true_set))

    hypotheses = (tuple(sorted(sparse_a)), tuple(sorted(sparse_b)))
    return _result("positions-tvd", space, _exact_tvd(observe, hypotheses, space),
                   (f"sparse={sorted(sparse_a)}", f"sparse={sorted(sparse_b)}"),
                   {"subsets": math.comb(p_subpackets, len(sparse_a))})


def default_audit_suite(
    scheme: str,
    samples: int = 100_000,
    q: int = 5,
    seed: int = 0,
    disable_noise: bool = False,
    case: int = 1,
) -> list[AuditResult]:
    """The fixed per-scheme audit battery used by the command line; top-r's
    adds the position audit of sparse sets {1, 2} and {2, 3} of 5 subpackets.

    ``seed`` is accepted and unused: the audits enumerate every draw, so the
    results are the same for every seed."""
    results = [
        audit_query(scheme, 1, 2, samples, q=q, disable_noise=disable_noise, case=case),
        audit_update(1, 3, samples, q=q, disable_noise=disable_noise),
    ]
    if scheme == "topr":
        results.append(audit_positions([1, 2], [2, 3], 5, samples, disable_noise=disable_noise))
    return results
