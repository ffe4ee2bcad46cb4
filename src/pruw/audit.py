"""Exact privacy audits on single-database observables.

Privacy here means: everything one database sees is identically distributed
no matter which submodel is touched or what the update values are.  Each
audit counts the view under two hypotheses over every outcome of the
randomness the real builders draw, and reports the exact total variation
distance between the two laws.  The query and update builders run once per
hypothesis over every draw at once: each noise symbol is played back as a
:class:`_Lane` that holds its value under every draw vector, the builder's
arithmetic applies lane by lane, and the law is counted from the lanes.  The
position audit runs once per secret permutation, since a permutation draw is
not arithmetic.  The query audit compares the joint distribution of all M
coordinates, so a leak that no marginal or pair shows still counts.  Nothing
is sampled: the value is 0 exactly when the view is independent of the
hypothesis, and the noise-off controls read 1.

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
import operator
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


def _lanewise(op, reflected=False):
    """A :class:`_Lane` method applying ``op`` lane by lane with an int or a
    lane: ``self op other``, or ``other op self`` when ``reflected``."""

    def method(self, other):
        if isinstance(other, _Lane):
            other = other.values
        elif isinstance(other, int):
            other = itertools.repeat(other)
        else:
            return NotImplemented
        args = (other, self.values) if reflected else (self.values, other)
        return _Lane(list(map(op, *args)))

    return method


class _Lane:
    """One draw symbol, or an expression in draw symbols, across every draw
    vector of an enumerated space: ``values[i]`` is its value under vector i.

    ``+``, ``-``, ``*`` and ``%`` (with ints or lanes) and unary ``-`` apply
    lane by lane.  A builder that branched on a draw would need one call per
    draw, so truth values and comparisons raise ``TypeError``, and a lane is
    unhashable."""

    __slots__ = ("values",)
    __hash__ = None

    def __init__(self, values: list[int]):
        self.values = values

    __add__, __radd__ = _lanewise(operator.add), _lanewise(operator.add, True)
    __sub__, __rsub__ = _lanewise(operator.sub), _lanewise(operator.sub, True)
    __mul__, __rmul__ = _lanewise(operator.mul), _lanewise(operator.mul, True)
    __mod__ = _lanewise(operator.mod)

    def __neg__(self):
        return _Lane(list(map(operator.neg, self.values)))

    def _refuse(self, *_):
        raise TypeError("a draw lane has no truth value and no order")

    __bool__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse


def _lanes(q: int, k: int, size: int) -> list[_Lane]:
    """The k draw symbols over the first ``size`` draw vectors in base-q
    order: lane i holds digit i (most significant first) of each vector's
    index, so ``size = q**k`` is every draw and ``size = 1`` the all-zero
    one."""
    lanes = []
    for i in range(k):
        step = q ** (k - 1 - i)
        # digit i runs 0 .. q-1, each held for step vectors, then repeats
        cycle = []
        for digit in range(min(q, -(-size // step))):
            cycle += [digit] * step
        lanes.append(_Lane((cycle * -(-size // len(cycle)))[:size]))
    return lanes


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


def _joint_law(coords, size: int) -> Counter:
    """How often each tuple of ``coords`` (lanes over ``size`` draw vectors,
    or ints that no draw moves) occurs."""
    return Counter(zip(*(c.values if isinstance(c, _Lane) else itertools.repeat(c, size)
                         for c in coords)))


def _query_law(sampler, theta: int, lanes: list[_Lane], size: int) -> Counter:
    """The joint law of ``sampler``'s coordinates under ``theta``, from one
    call that plays back ``lanes``; the builder must take exactly them."""
    noise = _Playback(lanes)
    coords = sampler(theta, noise)
    if noise.taken != len(lanes):
        raise InconclusiveError(f"the builder drew {noise.taken} noise symbols under "
                                f"theta={theta}, but {len(lanes)} in the probe")
    return _joint_law(coords, size)


def _exact_tvd(a: Counter, b: Counter) -> float:
    """Total variation distance between two laws counted over the same
    number of equally likely draws: the mass ``a`` puts above ``b``."""
    return float(Fraction(sum((a - b).values()), sum(a.values())))


def _result(statistic, samples, value, hypotheses, detail) -> AuditResult:
    return AuditResult(statistic=statistic, samples=samples, value=value,
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
    probe = _Playback()
    sampler(theta_a, probe)
    _require_budget(q ** probe.taken, samples, f"the {scheme} query's noise")
    size = 1 if disable_noise else q ** probe.taken
    lanes = _lanes(q, probe.taken, size)
    laws = [_query_law(sampler, theta, lanes, size) for theta in (theta_a, theta_b)]
    return _result(f"query-tvd[{scheme}]", size, _exact_tvd(*laws),
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
    size = 1 if disable_noise else q
    noise = _lanes(q, 1, size)
    laws = [_joint_law(combine_update(fp.field, [delta % q], [1], fp.alphas, noise), size)
            for delta in (delta_a, delta_b)]
    return _result("update-tvd", size, _exact_tvd(*laws),
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
    laws = [Counter(tuple(topr.coordinator_setup(p_subpackets, 1, 1, fp, source, perm=perm)
                          .permuted_set(true_set)) for perm in space)
            for true_set in (sparse_a, sparse_b)]
    return _result("positions-tvd", len(space), _exact_tvd(*laws),
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
