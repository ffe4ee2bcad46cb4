"""Field arithmetic, evaluation-point allocation, and noise sources."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from pruw import field
from pruw.errors import ConfigError, DomainError
from pruw.field import (
    MR_PROVEN_BOUND,
    CounterNoise,
    PrimeField,
    allocate_eval_points,
    derive_seed,
    is_prime,
    kernel_dtype,
)


def brute_inverse(a, q):
    """Independent oracle: exhaustive search for the inverse."""
    for x in range(1, q):
        if a * x % q == 1:
            return x
    raise AssertionError(f"{a} has no inverse mod {q}")


class TestArith:
    def test_div_identity(self):
        assert 3 * PrimeField(7).inv(3) % 7 == 1

    def test_div_brute_force(self):
        # frozen from the exhaustive oracle: 3 * 5 = 15 = 1 mod 7
        assert brute_inverse(3, 7) == 5
        assert PrimeField(7).inv(3) == 5

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            PrimeField(7).inv(0)

    def test_nonprime_modulus_rejected(self):
        with pytest.raises(ConfigError):
            PrimeField(9)

    @given(st.sampled_from([5, 7, 11, 127, 2**31 - 1]), st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=200)
    def test_inverse_property(self, q, a):
        a %= q
        if a == 0:
            a = 1
        assert a * PrimeField(q).inv(a) % q == 1

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
        a = CounterNoise(0).symbol(7, 50, "mask").tolist()
        b = CounterNoise(0).symbol(7, 50, "mask").tolist()
        assert a == b

    def test_chi2_uniformity(self):
        # 1e5 draws at q=5, which rejects 3 of every 8 words; significance 0.01
        q, n = 5, 100_000
        draws = CounterNoise(0).symbol(q, n, "mask").tolist()
        counts = [0] * q
        for v in draws:
            counts[v] += 1
        expected = n / q
        stat = sum((c - expected) ** 2 / expected for c in counts)
        assert stat < chi2.ppf(0.99, df=q - 1)

    def test_five_sigma_frequency(self):
        # q=11 rejects 5 of every 16 words
        q, n = 11, 100_000
        draws = CounterNoise(1).symbol(q, n, "delta").tolist()
        counts = [0] * q
        for v in draws:
            counts[v] += 1
        p = 1 / q
        sigma = (n * p * (1 - p)) ** 0.5
        assert all(abs(c - n * p) < 5 * sigma for c in counts)

    def test_counter_noise_is_pure(self):
        noise = CounterNoise(99)
        again = CounterNoise(99)
        vals = noise.symbol(11, 20, "s", 0).tolist()
        assert vals == again.symbol(11, 20, "s", 0).tolist()
        assert vals != noise.symbol(11, 20, "s", 1).tolist()
        assert vals != CounterNoise(100).symbol(11, 20, "s", 0).tolist()

    def test_counter_noise_uniform(self):
        q, n = 7, 50_000
        counts = [0] * q
        for v in CounterNoise(5).symbol(q, n, "u").tolist():
            counts[v] += 1
        expected = n / q
        stat = sum((c - expected) ** 2 / expected for c in counts)
        assert stat < chi2.ppf(0.99, df=q - 1)

    def test_derive_seed_stable(self):
        assert derive_seed(7, "model") == derive_seed(7, "model")
        assert derive_seed(7, "model") != derive_seed(7, "storage")


# 4-byte words on both sides of the int64 kernel bound and into object
# arrays (the largest prime below 2^32), 8-byte words from the smallest prime
# above 2^32 to the largest below 2^64, and 16-byte words above
STREAM_MODULI = (2, 127, 2**31 - 1, 3_037_000_493, 3_037_000_507, 4_294_967_291,
                 4_294_967_311, 2**61 - 1, 2**64 - 59, 2**64 + 13)


def reference_stream(seed, q, count, *tag):
    """The stream's definition in plain Python: SHAKE-256 over the seed and
    repr(tag), words of 4 bytes for b = q.bit_length() <= 32 and of
    8 * ceil(b / 64) bytes above, masked to b bits, words >= q rejected."""
    bits = q.bit_length()
    size = 4 if bits <= 32 else 8 * -(-bits // 64)
    data = hashlib.shake_256((seed & (2**64 - 1)).to_bytes(8, "little")
                             + repr(tag).encode("ascii")).digest(size * (4 * count + 64))
    words = (int.from_bytes(data[k:k + size], "little") & ((1 << bits) - 1)
             for k in range(0, len(data), size))
    out = [w for w in words if w < q][:count]
    assert len(out) == count
    return out


class TestCounterStream:
    @pytest.mark.parametrize("q", [2, 7, 127])
    def test_exact_uniformity_by_enumeration(self, q, monkeypatch):
        # a stand-in stream of every masked 4-byte word value, each under four
        # high parts, then zero words: every residue must be accepted exactly
        # four times before the padding is reached
        bits = q.bit_length()
        highs = (0, 1, 1 << 20, (1 << (32 - bits)) - 1)
        enumeration = b"".join(((h << bits) | v).to_bytes(4, "little")
                               for h in highs for v in range(1 << bits))

        class Enumeration:
            def __init__(self, data):
                pass

            def digest(self, n):
                return (enumeration + bytes(n))[:n]

        monkeypatch.setattr(field.hashlib, "shake_256", Enumeration)
        got = CounterNoise(0).symbol(q, len(highs) * q, "t").tolist()
        assert Counter(got) == Counter({r: len(highs) for r in range(q)})

    def test_short_first_read_reads_further(self, monkeypatch):
        # 100 rejected words, then alternating residues: the first read (36
        # words for 10 symbols at q = 2) keeps none, so the stream is read on
        data = (3).to_bytes(4, "little") * 100 + b"".join(
            v.to_bytes(4, "little") for v in [0, 1] * 10)
        reads = []

        class Stream:
            def __init__(self, key):
                pass

            def digest(self, n):
                reads.append(n)
                return (data + bytes(n))[:n]

        monkeypatch.setattr(field.hashlib, "shake_256", Stream)
        assert CounterNoise(0).symbol(2, 10, "t").tolist() == [0, 1] * 5
        assert reads == [4 * 36, 4 * 72, 4 * 144]

    @pytest.mark.parametrize("q", STREAM_MODULI)
    def test_matches_definition(self, q):
        got = CounterNoise(2**64 + 7).symbol(q, 300, "basic", 4)
        assert got.dtype == kernel_dtype(q)
        assert got.tolist() == reference_stream(2**64 + 7, q, 300, "basic", 4)
        assert all(type(v) is int and 0 <= v < q for v in got.tolist())

    @pytest.mark.parametrize("q", STREAM_MODULI)
    @pytest.mark.parametrize("k", [0, 1, 40, 1000])
    def test_prefix_stable(self, q, k):
        noise = CounterNoise(11)
        longer = noise.symbol(q, k + 7, "rev2", 3).tolist()
        assert noise.symbol(q, k, "rev2", 3).tolist() == longer[:k]

    def test_cross_process_determinism(self):
        # the streams and the orders ranked from them
        draw = ("from pruw.field import CounterNoise; noise = CounterNoise(3); "
                f"print(json.dumps([[noise.symbol(q, 500, 'random', 9).tolist() "
                f"for q in {STREAM_MODULI!r}], noise.orders(40, 5, 'perm')]))")
        noise = CounterNoise(3)
        here = [[noise.symbol(q, 500, "random", 9).tolist() for q in STREAM_MODULI],
                noise.orders(40, 5, "perm")]
        for hash_seed in ("0", "12345"):
            proc = subprocess.run(
                [sys.executable, "-c", "import json; " + draw],
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": "src", "PYTHONHASHSEED": hash_seed},
            )
            assert json.loads(proc.stdout) == here

    def test_kernel_dtype_bound(self):
        # the largest prime whose residue products fit int64, and the next one
        assert kernel_dtype(3_037_000_493) is np.int64
        assert (3_037_000_493 - 1) ** 2 < 2**63 <= (3_037_000_507 - 1) ** 2
        assert kernel_dtype(3_037_000_507) is object


class TestOrders:
    """Uniform orders: each row ranks its keys, drawn mod 2^31 from one
    stream under (*tag, attempt), redrawn under the next attempt on a tie."""

    def test_ranks_the_first_attempts_keys(self):
        noise = CounterNoise(8)
        keys = noise.symbol(1 << 31, 4 * 6, "j", 0).reshape(4, 6)
        assert noise.orders(6, 4, "j") == np.argsort(keys, axis=1).tolist()

    def test_every_order_of_three_appears_across_tags(self):
        noise = CounterNoise(0)
        seen = Counter(tuple(noise.orders(3, 1, "perm", t)[0]) for t in range(600))
        assert set(seen) == set(itertools.permutations(range(3)))
        sigma = (600 * (1 / 6) * (5 / 6)) ** 0.5
        assert all(abs(c - 100) < 5 * sigma for c in seen.values())

    def test_tie_redraws_under_the_next_attempt(self, monkeypatch):
        calls = []
        real = CounterNoise.symbol

        def tied(self, q, count, *tag):
            calls.append((q, count, tag))
            if tag[-1] == 0:  # row 1 holds the key 5 twice
                return np.array([7, 3, 9, 1, 5, 5], dtype=np.int64)
            return real(self, q, count, *tag)

        monkeypatch.setattr(CounterNoise, "symbol", tied)
        got = CounterNoise(2).orders(3, 2, "t")
        assert calls == [(1 << 31, 6, ("t", 0)), (1 << 31, 6, ("t", 1))]
        keys = real(CounterNoise(2), 1 << 31, 6, "t", 1).reshape(2, 3)
        assert got == np.argsort(keys, axis=1).tolist()

    def test_rows_are_independent(self):
        # the orders of adjacent rows: all 36 pairs, chi-squared at 0.01
        rows = [tuple(row) for row in CounterNoise(4).orders(3, 2000, "rows")]
        pairs = Counter(zip(rows[::2], rows[1::2]))
        assert len(pairs) == 36
        expected = 1000 / 36
        stat = sum((c - expected) ** 2 / expected for c in pairs.values())
        assert stat < chi2.ppf(0.99, df=35)

    def test_single_element(self):
        assert CounterNoise(0).orders(1, 3, "t") == [[0], [0], [0]]


class TestInverse:
    """``inv`` against Fermat's a^(q - 2), the inverse it replaced."""

    NEAR_BOUND = 3317044064679887385961813  # the largest prime below MR_PROVEN_BOUND

    def test_every_residue_at_127(self):
        f = PrimeField(127)
        assert [f.inv(a) for a in range(1, 127)] == [pow(a, 125, 127) for a in range(1, 127)]

    @pytest.mark.parametrize("q", [2**31 - 1, 3_037_000_507, NEAR_BOUND])
    def test_seeded_samples(self, q):
        f, rng = PrimeField(q), random.Random(q)
        for a in [1, 2, q - 1] + [rng.randrange(1, q) for _ in range(200)]:
            assert f.inv(a) == pow(a, q - 2, q)
            assert a * f.inv(a) % q == 1

    def test_negative_and_unreduced_arguments(self):
        f, rng = PrimeField(2**31 - 1), random.Random(5)
        q = f.q
        samples = [rng.randrange(-5 * q, 0) for _ in range(50)]
        for a in [-1, -2, -(q - 1), q + 3, -3 * q - 7] + samples:
            if a % q:
                assert f.inv(a) == pow(a % q, q - 2, q)

    @pytest.mark.parametrize("a", [0, 127, -127, 5 * 127])
    def test_zero_raises(self, a):
        with pytest.raises(DomainError):
            PrimeField(127).inv(a)
