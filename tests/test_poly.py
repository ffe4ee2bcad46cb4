"""Polynomial kernels: combining, residual checks, interpolation, decoding."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pruw.errors import DomainError
from pruw.field import CounterNoise, PrimeField, ZeroNoise, allocate_eval_points
from pruw.poly import (
    build_query,
    combine_update,
    combined_update_residual,
    decode_row,
    delta_tilde,
    lagrange_interpolate,
    null_shaper_residual,
    poly_degree,
    solve_decode,
)

F11 = PrimeField(11)


def combine_oracle(field, deltas, fs, alpha, noise):
    """Term-by-term reference evaluation, no shared code with the kernel."""
    q = field.q
    total = 0
    for i, d in enumerate(deltas):
        denom = 1
        for j, fj in enumerate(fs):
            if j != i:
                denom = denom * (fs[j] - fs[i]) % q
        term = d * pow(denom, q - 2, q) % q
        for j, fj in enumerate(fs):
            if j != i:
                term = term * (fj - alpha) % q
        total = (total + term) % q
    prod = 1
    for fj in fs:
        prod = prod * (fj - alpha) % q
    z = 0
    for k, c in enumerate(noise):
        z = (z + c * pow(alpha, k, q)) % q
    return (total + prod * z) % q


class TestDeltaTilde:
    def test_worked_values(self):
        # 4/(2-1) = 4 and 5/(1-2) = -5 = 6 mod 11
        assert delta_tilde(F11, [4, 5], [1, 2]) == [4, 6]

    def test_single_bit_empty_product(self):
        assert delta_tilde(F11, [9], [3]) == [9]

    def test_zero_updates(self):
        assert delta_tilde(F11, [0, 0, 0], [1, 2, 3]) == [0, 0, 0]

    def test_repeated_constants_rejected(self):
        with pytest.raises(DomainError):
            delta_tilde(F11, [1, 2], [4, 4])


class TestCombineUpdate:
    def test_worked_value(self):
        # frozen from the term-by-term oracle
        assert combine_oracle(F11, [4, 5], [1, 2], 3, [2]) == 10
        assert combine_update(F11, [4, 5], [1, 2], [3], [2]) == [10]

    def test_all_zero(self):
        assert combine_update(F11, [0, 0], [1, 2], [3], [0]) == [0]

    def test_single_bit_closed_form(self):
        d, f1, alpha, z = 7, 1, 4, 9
        assert combine_update(F11, [d], [f1], [alpha], [z]) == [(d + (f1 - alpha) * z) % 11]

    def test_alpha_collision_rejected(self):
        with pytest.raises(DomainError):
            combine_update(F11, [1, 2], [1, 2], [3, 2], [0])

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100)
    def test_matches_oracle(self, seed):
        rng = random.Random(seed)
        q = rng.choice([11, 127, 2**31 - 1])
        field = PrimeField(q)
        ell = rng.randint(1, 5)
        fs = list(range(1, ell + 1))
        alphas = rng.sample(range(ell + 1, ell + 7), rng.randint(1, 4))
        deltas = [rng.randrange(q) for _ in range(ell)]
        noise = [rng.randrange(q) for _ in range(rng.randint(1, 3))]
        assert combine_update(field, deltas, fs, alphas, noise) == [
            combine_oracle(field, deltas, fs, alpha, noise) for alpha in alphas
        ]

    def test_noise_free_interpolates_updates_at_bit_constants(self):
        # the plain component of the combined symbol passes through each
        # (f_k, delta_k) point
        rng = random.Random(4)
        q = 127
        field = PrimeField(q)
        ell = 4
        fs = list(range(1, ell + 1))
        deltas = [rng.randrange(q) for _ in range(ell)]
        alphas = list(range(ell + 1, ell + 1 + ell + 1))
        values = combine_update(field, deltas, fs, alphas, [0])
        coeffs = lagrange_interpolate(field, alphas, values)
        for k in range(ell):
            assert field.poly_eval(coeffs, fs[k]) == deltas[k]


class TestBuildQuery:
    @given(st.integers(0, 2**32), st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_entry_formula(self, seed, m_count, ell, terms, subset):
        fp = allocate_eval_points(4, 4, 31)
        fs = fp.fs[4 - ell:]
        theta = seed % m_count + 1
        selected = tuple(k for k in range(1, ell + 1) if k % 2) if subset else None
        blocks = build_query(theta, fp, fs, m_count, CounterNoise(seed), terms=terms,
                             selected=selected)
        # all masks are one "mask" draw; bit k's are its k-th run of
        # m_count * terms symbols, term-major
        size = m_count * terms
        draws = CounterNoise(seed).symbol(31, len(fs) * size, "mask").tolist()
        masks = [draws[k * size : (k + 1) * size] for k in range(len(fs))]
        for n, alpha in enumerate(fp.alphas):
            for k, f in enumerate(fs):
                for m in range(m_count):
                    mask = sum(masks[k][i * m_count + m] * alpha**i for i in range(terms))
                    hit = m + 1 == theta and (selected is None or k + 1 in selected)
                    want = (hit * fp.field.inv(f - alpha) + mask) % 31
                    assert blocks[n][k][m] == want

    def test_zero_noise_gives_bare_query(self):
        # the noise-off source zeroes every mask: only the theta entries,
        # 1/(f_k - alpha_n)
        fp = allocate_eval_points(3, 2, 31)
        blocks = build_query(2, fp, fp.fs, 3, ZeroNoise(), terms=2)
        assert blocks == [[[0, fp.field.inv(f - alpha), 0] for f in fp.fs]
                          for alpha in fp.alphas]

    def test_theta_out_of_range(self):
        fp = allocate_eval_points(3, 2, 31)
        for theta in (0, 3):
            with pytest.raises(DomainError):
                build_query(theta, fp, fp.fs, 2, CounterNoise(0))


class TestInterpolation:
    def test_roundtrip(self):
        field = PrimeField(127)
        coeffs = [3, 0, 5, 9]
        xs = [1, 2, 3, 4]
        ys = [field.poly_eval(coeffs, x) for x in xs]
        assert lagrange_interpolate(field, xs, ys) == coeffs

    def test_degree(self):
        assert poly_degree([0, 0, 0]) == -1
        assert poly_degree([4]) == 0
        assert poly_degree([1, 2, 0]) == 1


def build_update_symbols(field, fs, alphas, deltas, noise):
    return combine_update(field, deltas, fs, alphas, noise)


class TestUpdateResidual:
    def test_worked_fixture(self):
        fp = allocate_eval_points(4, 2, 11)
        deltas = [4, 5]
        noise = [2]
        us = build_update_symbols(fp.field, list(fp.fs), list(fp.alphas), deltas, noise)
        res = combined_update_residual(fp.field, us, fp.alphas, fp.fs, 1, deltas, 1)
        assert res.ok and res.degree <= 1

    def test_degree_zero_case(self):
        fp = allocate_eval_points(3, 1, 11)
        us = build_update_symbols(fp.field, [1], list(fp.alphas), [6], [3])
        res = combined_update_residual(fp.field, us, fp.alphas, fp.fs, 1, [6], 1)
        assert res.ok and res.degree <= 0

    def test_tamper_detection(self):
        fp = allocate_eval_points(4, 2, 11)
        deltas = [4, 5]
        us = build_update_symbols(fp.field, list(fp.fs), list(fp.alphas), deltas, [2])
        us[2] = (us[2] + 1) % 11
        res = combined_update_residual(fp.field, us, fp.alphas, fp.fs, 1, deltas, 1)
        assert not res.ok

    def test_insufficient_points(self):
        fp = allocate_eval_points(2, 2, 11)
        us = build_update_symbols(fp.field, list(fp.fs), list(fp.alphas), [4, 5], [2])
        with pytest.raises(DomainError):
            combined_update_residual(fp.field, us, fp.alphas, fp.fs, 1, [4, 5], 1)

    def test_randomized_instances(self):
        rng = random.Random(7)
        for _ in range(300):
            q = rng.choice([11, 127, 2**31 - 1])
            ell = rng.randint(1, 6)
            t_update = rng.randint(1, 3)
            n = ell + t_update + rng.randint(0, 2)
            fp = allocate_eval_points(n, ell, q if q > n + ell else 127)
            field = fp.field
            deltas = [rng.randrange(field.q) for _ in range(ell)]
            noise = [rng.randrange(field.q) for _ in range(t_update)]
            us = build_update_symbols(field, list(fp.fs), list(fp.alphas), deltas, noise)
            k = rng.randint(1, ell)
            res = combined_update_residual(field, us, fp.alphas, fp.fs, k, deltas, t_update)
            assert res.ok


class TestNullShaperResidual:
    def test_single_skip(self):
        fp = allocate_eval_points(8, 1, 127)
        res = null_shaper_residual(fp.field, [fp.alphas[2]], fp.fs[0], fp.alphas[3:])
        assert res.ok and res.degree == 0

    def test_small_field_fixture(self):
        # q=11, f=1, skipped constant 3, checked over points 4..8
        field = PrimeField(11)
        res = null_shaper_residual(field, [3], 1, [4, 5, 6, 7, 8])
        assert res.ok and res.degree == 0

    def test_empty_skip_set(self):
        fp = allocate_eval_points(5, 1, 127)
        res = null_shaper_residual(fp.field, [], fp.fs[0], fp.alphas)
        assert res.ok and res.degree == -1

    def test_degree_is_tight(self):
        rng = random.Random(3)
        for _ in range(100):
            q = rng.choice([127, 2**31 - 1])
            size = rng.randint(1, 4)
            fp = allocate_eval_points(size + rng.randint(size + 1, size + 4), 1, q)
            skip = list(fp.alphas[:size])
            res = null_shaper_residual(fp.field, skip, fp.fs[0], fp.alphas[size:])
            assert res.ok
            assert res.degree == size - 1

    def test_constant_collision_rejected(self):
        fp = allocate_eval_points(5, 1, 127)
        with pytest.raises(DomainError):
            null_shaper_residual(fp.field, [fp.alphas[0]], fp.alphas[0], fp.alphas[1:])


class TestDecode:
    def test_plant_and_recover(self):
        # round trip: encode ell bits plus masked powers, then solve
        rng = random.Random(5)
        fp = allocate_eval_points(4, 1, 11)
        field = fp.field
        ell, power_count = 1, 3
        bits = [rng.randrange(11) for _ in range(ell)]
        phis = [rng.randrange(11) for _ in range(power_count)]
        rows, rhs = [], []
        for n in range(1, 5):
            row = decode_row(field, fp.alpha(n), fp.fs[:ell], power_count)
            rows.append(row)
            rhs.append(sum(c * v for c, v in zip(row, bits + phis)) % 11)
        sol = solve_decode(field, rows, rhs)
        assert sol[:ell] == bits

    def test_zero_answers(self):
        fp = allocate_eval_points(4, 1, 11)
        rows = [decode_row(fp.field, fp.alpha(n), fp.fs[:1], 3) for n in range(1, 5)]
        sol = solve_decode(fp.field, rows, [0, 0, 0, 0])
        assert sol == [0, 0, 0, 0]

    def test_duplicate_rows_singular(self):
        fp = allocate_eval_points(4, 1, 11)
        row = decode_row(fp.field, fp.alpha(1), fp.fs[:1], 3)
        with pytest.raises(DomainError):
            solve_decode(fp.field, [row] * 4, [1, 2, 3, 4])

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60)
    def test_encode_decode_identity(self, seed):
        rng = random.Random(seed)
        q = rng.choice([127, 2**31 - 1])
        ell = rng.randint(1, 4)
        power_count = rng.randint(1, 4)
        n = ell + power_count
        fp = allocate_eval_points(n, ell, q)
        unknowns = [rng.randrange(q) for _ in range(n)]
        rows, rhs = [], []
        for i in range(1, n + 1):
            row = decode_row(fp.field, fp.alpha(i), fp.fs[:ell], power_count)
            rows.append(row)
            rhs.append(sum(c * v for c, v in zip(row, unknowns)) % q)
        assert solve_decode(fp.field, rows, rhs) == unknowns
