"""Property sweep over random valid configs for all three schemes.

Every config that passes ``validate()`` either is rejected at set-up with a
``PruwError``, or runs every iteration with the decode and the written
storage equal to the plain oracle.  Small N and q, unaligned L, 1-3 iterations, noise on.
The random scheme's distortion budget and costs are not asserted: on
unaligned L, ``realize_regions`` can overrun the budget (a known defect).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pruw import basic, topr
from pruw.config import ExperimentConfig
from pruw.errors import PruwError
from pruw.harness import Session

PRIMES = (13, 31, 127, 8191)


def _run(cfg):
    """Every iteration's result, or None when set-up rejects the config;
    an exception from an iteration fails the test."""
    cfg.validate()
    try:
        session = Session(cfg)
    except PruwError:
        return None
    iterations = [session.run_iteration() for _ in range(cfg.iterations)]
    for it in iterations:
        assert it.detail["read_ok"], it.detail
        assert it.detail["write_ok"], it.detail
    return iterations


@st.composite
def basic_configs(draw):
    n = draw(st.integers(4, 8))
    budget = draw(st.none() | st.tuples(st.integers(1, n), st.integers(1, 2), st.integers(1, 2)))
    cfg = ExperimentConfig(
        scheme="basic", n=n, m=draw(st.integers(1, 3)), l=draw(st.integers(1, 13)),
        q=draw(st.sampled_from(PRIMES)), seed=draw(st.integers(0, 2**32)),
        iterations=draw(st.integers(1, 3)),
    )
    if budget is not None:
        cfg.t1, cfg.t2, cfg.t3 = budget
    cfg.theta = draw(st.integers(1, cfg.m))
    return cfg


@st.composite
def topr_configs(draw):
    case = draw(st.sampled_from((1, 2)))
    n = draw(st.sampled_from((6, 10) if case == 1 else (6, 8, 10)))
    p = draw(st.integers(1, 8))
    rate = st.builds(Fraction, st.integers(0, 8), st.just(8))
    return ExperimentConfig(
        scheme="topr", n=n, m=draw(st.integers(1, 3)), p=p, case=case,
        q=draw(st.sampled_from(PRIMES)), r=draw(rate), r_prime=draw(rate),
        seed=draw(st.integers(0, 2**32)), iterations=draw(st.integers(1, 3)),
    )


@st.composite
def random_configs(draw):
    budget = st.integers(2, 6).flatmap(
        lambda den: st.builds(Fraction, st.integers(0, den - 1), st.just(den)))
    return ExperimentConfig(
        scheme="random", n=draw(st.integers(4, 9)), m=draw(st.integers(1, 3)),
        l=draw(st.integers(1, 40)), q=draw(st.sampled_from(PRIMES)),
        d_read=draw(budget), d_write=draw(budget),
        seed=draw(st.integers(0, 2**32)), iterations=draw(st.integers(1, 3)),
    )


@given(basic_configs())
@settings(max_examples=150, deadline=None)
def test_basic_round_trips_and_costs(cfg):
    iterations = _run(cfg)
    if iterations is None:
        return
    params = (basic.optimal_params(cfg.n) if cfg.t1 is None
              else basic.BasicParams(cfg.n, cfg.t1, cfg.t2, cfg.t3))
    subpackets = math.ceil(cfg.l / params.ell)
    for it in iterations:
        assert it.ledger.c_read == Fraction(cfg.n * subpackets, cfg.l)
        assert it.ledger.c_write == Fraction((cfg.n - params.skip_count) * subpackets, cfg.l)


@pytest.mark.filterwarnings("ignore:sparsification rate rounds to zero")
@given(topr_configs())
@settings(max_examples=150, deadline=None)
def test_topr_round_trips_and_costs(cfg):
    iterations = _run(cfg)
    if iterations is None:
        return
    for i, it in enumerate(iterations):
        # later iterations read back the previous write's positions, so
        # their download rate is r rather than r'
        r_prime = cfg.r_prime if i == 0 else cfg.r
        want = topr.costs_topr_metered(cfg.n, cfg.p, cfg.q, cfg.r, r_prime, cfg.case)
        assert (it.ledger.c_read, it.ledger.c_write) == (want.read, want.write)


@given(random_configs())
@settings(max_examples=150, deadline=None)
def test_random_round_trips(cfg):
    _run(cfg)
