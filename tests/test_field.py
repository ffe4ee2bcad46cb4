"""Field arithmetic, evaluation-point allocation, and noise sources."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from pruw.errors import ConfigError, DomainError
from pruw.field import (
    MR_PROVEN_BOUND,
    CounterNoise,
    PrimeField,
    allocate_eval_points,
    derive_seed,
    is_prime,
    seeded_uniform,
)


def brute_inverse(a, q):
    """Independent oracle: exhaustive search for the inverse."""
    for x in range(1, q):
        if a * x % q == 1:
            return x
    raise AssertionError(f"{a} has no inverse mod {q}")


class TestArith:
    def test_add_mod7(self):
        assert PrimeField(7).arith(3, 5, "add") == 1

    def test_div_identity(self):
        assert PrimeField(7).arith(3, 3, "div") == 1

    def test_div_brute_force(self):
        # frozen from the exhaustive oracle: 3 * 5 = 15 = 1 mod 7
        assert brute_inverse(3, 7) == 5
        assert PrimeField(7).arith(1, 3, "div") == 5

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            PrimeField(7).div(1, 0)

    def test_unknown_op(self):
        with pytest.raises(DomainError):
            PrimeField(7).arith(1, 2, "pow")

    def test_nonprime_modulus_rejected(self):
        with pytest.raises(ConfigError):
            PrimeField(9)

    @given(st.sampled_from([5, 7, 11, 127, 2**31 - 1]), st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=200)
    def test_inverse_property(self, q, a):
        a %= q
        if a == 0:
            a = 1
        f = PrimeField(q)
        assert f.mul(a, f.inv(a)) == 1

    @given(st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=300)
    def test_is_prime_matches_trial_division(self, n):
        trial = all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_prime(n) == trial


class TestPrimalityBound:
    # psi_12 and psi_13 of OEIS A014233: the least odd composites that pass
    # Miller-Rabin for every one of the first 12 and 13 prime bases
    PSI_12 = 318665857834031151167461
    PSI_13 = 3317044064679887385961981

    def test_psi_12_is_composite(self):
        assert self.PSI_12 == 399165290221 * 798330580441
        assert not is_prime(self.PSI_12)
        with pytest.raises(ConfigError):
            PrimeField(self.PSI_12)

    def test_fields_at_or_above_psi_13_rejected(self):
        assert MR_PROVEN_BOUND == self.PSI_13
        for q in (self.PSI_13, self.PSI_13 + 2):
            with pytest.raises(ConfigError, match=str(self.PSI_13)):
                PrimeField(q)

    def test_large_primes_below_the_bound_accepted(self):
        assert PrimeField(2**64 + 13).q == 2**64 + 13
        assert PrimeField(2**61 - 1).q == 2**61 - 1


class TestAllocation:
    def test_small_example(self):
        fp = allocate_eval_points(4, 1, 11)
        assert fp.fs == (1,)
        assert fp.alphas == (2, 3, 4, 5)

    def test_ten_databases(self):
        fp = allocate_eval_points(10, 2, 127)
        assert fp.fs == (1, 2)
        assert fp.alphas == tuple(range(3, 13))

    def test_field_too_small(self):
        with pytest.raises(ConfigError):
            allocate_eval_points(4, 1, 5)

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=8),
           st.sampled_from([23, 127, 2**31 - 1]))
    @settings(max_examples=100)
    def test_invariants(self, n, f_count, q):
        fp = allocate_eval_points(n, f_count, q)
        pts = fp.fs + fp.alphas
        assert len(set(pts)) == len(pts)
        assert all(0 < v < q for v in pts)
        assert all((f - a) % q != 0 for f in fp.fs for a in fp.alphas)


class TestSampling:
    def test_same_seed_same_stream(self):
        a = seeded_uniform(random.Random(0), 7, 50)
        b = seeded_uniform(random.Random(0), 7, 50)
        assert a == b

    def test_chi2_uniformity(self):
        # 1e5 draws at q=7, significance 0.01
        q, n = 7, 100_000
        draws = seeded_uniform(random.Random(0), q, n)
        counts = [0] * q
        for v in draws:
            counts[v] += 1
        expected = n / q
        stat = sum((c - expected) ** 2 / expected for c in counts)
        assert stat < chi2.ppf(0.99, df=q - 1)

    def test_five_sigma_frequency(self):
        q, n = 7, 100_000
        draws = seeded_uniform(random.Random(1), q, n)
        counts = [0] * q
        for v in draws:
            counts[v] += 1
        p = 1 / q
        sigma = (n * p * (1 - p)) ** 0.5
        assert all(abs(c - n * p) < 5 * sigma for c in counts)

    def test_counter_noise_is_pure(self):
        noise = CounterNoise(99)
        again = CounterNoise(99)
        vals = [noise.symbol(11, "s", i) for i in range(20)]
        assert vals == [again.symbol(11, "s", i) for i in range(20)]
        assert CounterNoise(100).symbol(11, "s", 0) != vals[0] or True  # different key allowed to collide

    def test_counter_noise_uniform(self):
        noise = CounterNoise(5)
        q, n = 7, 50_000
        counts = [0] * q
        for i in range(n):
            counts[noise.symbol(q, "u", i)] += 1
        expected = n / q
        stat = sum((c - expected) ** 2 / expected for c in counts)
        assert stat < chi2.ppf(0.99, df=q - 1)

    def test_derive_seed_stable(self):
        assert derive_seed(7, "model") == derive_seed(7, "model")
        assert derive_seed(7, "model") != derive_seed(7, "storage")
