"""Property sweep over random valid configs for all three schemes.

Every config that passes ``validate()`` either is rejected at set-up with a
``PruwError``, or runs every iteration with the decode and the written
storage equal to the plain oracle.  Small q, N up to 24 (basic), unaligned
L, 1-3 iterations, noise on.  Random runs also stay within their distortion
budget and meter exactly their scheme's ``costs()`` on every iteration.
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
    an exception from an iteration fails the test.  The storage blocks
    must tile the model by their real lengths, and a distortion report
    must count exactly the padding storage holds, and a random run's meter
    must equal its ``costs()``, which is exact at every L."""
    cfg.validate()
    try:
        session = Session(cfg)
    except PruwError:
        return None
    pos, pad = 0, 0
    for start, states in session.scheme.storage:
        assert start == pos
        pos += states[0].length
        pad += states[0].padded_length - states[0].length
    assert pos == session.scheme.length
    iterations = [session.run_iteration() for _ in range(cfg.iterations)]
    for it in iterations:
        assert it.detail["read_ok"], it.detail
        assert it.detail["write_ok"], it.detail
        if it.distortion is not None:
            assert it.distortion.pad_bits == pad
            assert (it.ledger.c_read, it.ledger.c_write) == session.scheme.costs()
    return iterations


@st.composite
def basic_configs(draw):
    n = draw(st.integers(4, 24))
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
    n = draw(st.sampled_from((6, 10, 14) if case == 1 else (6, 8, 10, 12, 14)))
    p = draw(st.integers(1, 8))
    rate = st.builds(Fraction, st.integers(0, 8), st.just(8))
    # the int64 limb path at its largest prime, and the object path
    q = draw(st.sampled_from(PRIMES + (3_037_000_493, 2**61 - 1)))
    return ExperimentConfig(
        scheme="topr", n=n, m=draw(st.integers(1, 3)), p=p, case=case,
        q=q, r=draw(rate), r_prime=draw(rate),
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
    for it in _run(cfg) or ():
        assert it.distortion.within_budget, it.distortion


def test_random_grid_passes():
    # the fixed grid: aligned and unaligned L, one-phase and two-phase
    # splits, even and odd N
    budgets_read = (Fraction(0), Fraction(1, 5), Fraction(1, 3), Fraction(1, 2))
    budgets_write = (Fraction(0), Fraction(1, 5), Fraction(1, 3))
    configs = [ExperimentConfig(scheme="random", n=n, l=length, d_read=d_read,
                                d_write=d_write, seed=3)
               for n in range(4, 11) for d_read in budgets_read for d_write in budgets_write
               for length in (60, 61, 97, 120)]
    assert len(configs) == 336
    for cfg in configs:
        [it] = _run(cfg)
        assert it.verdict, (cfg, it.distortion)


@pytest.mark.parametrize("n", [30, 40])
def test_basic_large_n_round_trip(n):
    # the fixed maps at large N: the decoder inverse and the oracle basis
    cfg = ExperimentConfig(scheme="basic", n=n, m=2, l=50, seed=7)
    [it] = _run(cfg)
    assert it.verdict
