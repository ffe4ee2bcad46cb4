"""The oracle and the decoders as fixed linear maps, against per-cell and
per-subpacket references: interpolating every cell on its own, and solving
every subpacket's own decode system; and the maps' one-pass builders
against their definitions."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pruw import basic, topr
from pruw import random_sparse as rs
from pruw.errors import DomainError, IntegrityError
from pruw.field import CounterNoise, PrimeField, allocate_eval_points, kernel_dtype
from pruw.poly import (
    apply_rows,
    decode_inverse,
    decode_row,
    lagrange_basis,
    lagrange_interpolate,
    poly_degree,
    solve_decode,
)
from pruw.storage import draw_model, init_basic, init_random_sparse, init_topr, reconstruct_plain

from plans import fixture_plan

SMALL_PRIMES = (17, 31, 127, 2**31 - 1)


def reference_reconstruct(states):
    """Per-cell Lagrange interpolation, read off at the bit constant."""
    fp, layout, first = states[0].fp, states[0].layout, states[0]
    q, width = fp.q, layout.width
    out = np.zeros((first.m_count, first.length), dtype=kernel_dtype(q))
    for s in range(first.subpackets):
        for j in range(width):
            f_j, pos = fp.fs[j], s * width + j
            for m in range(first.m_count):
                ys = []
                for st_ in states:
                    v = st_.cells[s][j][m]
                    if not layout.affine_mask:
                        v = v * (f_j - fp.alpha(st_.db_index)) % q
                    ys.append(v % q)
                coeffs = lagrange_interpolate(fp.field, list(fp.alphas), ys)
                if poly_degree(coeffs) > layout.noise_terms:
                    raise IntegrityError(f"cell (s={s}, j={j}, m={m}) inconsistent across databases")
                w = fp.field.poly_eval(coeffs, f_j)
                if pos < first.length:
                    out[m][pos] = w
                elif w != 0:
                    raise IntegrityError("padding decoded to a nonzero symbol")
    return out


def outcome(fn, states):
    """The reconstructed model, or the IntegrityError message."""
    try:
        return fn(states)
    except IntegrityError as exc:
        return f"IntegrityError: {exc}"


@st.composite
def storage_shapes(draw):
    """Small valid storage for every layout, with an unaligned length."""
    scheme = draw(st.sampled_from(["basic", "topr1", "topr2", "random"]))
    if scheme == "basic":
        n = draw(st.integers(4, 8))
        t_storage = draw(st.integers((n + 1) // 2, n - 2))
        width = n - t_storage - 1
    elif scheme == "topr1":
        width = draw(st.integers(1, 2))
        n = 4 * width + 2
    elif scheme == "topr2":
        width = draw(st.integers(1, 3))
        n = 2 * width + 4
    else:
        n = draw(st.integers(4, 9))
        ell_r, ell_w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        case = 1 if ell_w > ell_r else 2
        width = max(ell_r, ell_w)
    q = draw(st.sampled_from([p for p in SMALL_PRIMES if p > n + width]))
    m_count = draw(st.integers(1, 3))
    # at least one padding symbol whenever the width allows it
    length = draw(st.integers(1, 3)) * width - (draw(st.integers(1, width - 1)) if width > 1 else 0)
    seed = draw(st.integers(0, 2**32))
    fp = allocate_eval_points(n, width, q)
    model = draw_model(m_count, length, q, seed)
    if scheme == "basic":
        states = init_basic(model, fp, t_storage, 1, CounterNoise(seed))
    elif scheme == "random":
        states = init_random_sparse(model, fp, case, ell_r, ell_w, CounterNoise(seed))
    else:
        states = init_topr(model, fp, int(scheme[-1]), CounterNoise(seed))
    return states, random.Random(seed)


class TestOracleMap:
    @given(storage_shapes())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_cell_interpolation(self, drawn):
        states, rng = drawn
        assert np.array_equal(reconstruct_plain(states), reference_reconstruct(states))

        # one corrupted replica of one random cell: both name the same cell
        fp = states[0].fp
        s = rng.randrange(states[0].subpackets)
        j = rng.randrange(states[0].layout.width)
        m = rng.randrange(states[0].m_count)
        cells = states[rng.randrange(fp.n_databases)].cells[s][j]
        cells[m] = (cells[m] + rng.randrange(1, fp.q)) % fp.q
        got = outcome(reconstruct_plain, states)
        assert got == outcome(reference_reconstruct, states)
        assert got == f"IntegrityError: cell (s={s}, j={j}, m={m}) inconsistent across databases"

    @given(storage_shapes())
    @settings(max_examples=30, deadline=None)
    def test_nonzero_padding_raises(self, drawn):
        states, rng = drawn
        first = states[0]
        width = first.layout.width
        if first.padded_length == first.length:
            return
        pos = rng.randrange(first.length, first.padded_length)
        s, j = divmod(pos, width)
        m = rng.randrange(first.m_count)
        for st_ in states:  # consistently, so only the padding check can fire
            fp = st_.fp
            step = 1 if st_.layout.affine_mask else fp.field.inv(fp.fs[j] - fp.alpha(st_.db_index))
            st_.cells[s][j][m] = (st_.cells[s][j][m] + step) % fp.q
        for fn in (reconstruct_plain, reference_reconstruct):
            with pytest.raises(IntegrityError, match="padding"):
                fn(states)


def solve_own_system(fp, alphas, f_subset, power_count, answers):
    rows = [decode_row(fp.field, a, f_subset, power_count) for a in alphas]
    return solve_decode(fp.field, rows, list(answers))[: len(f_subset)]


class TestDecoderMaps:
    @given(st.integers(4, 10), st.sampled_from(SMALL_PRIMES[1:]), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_decoders_match_their_own_systems(self, n, q, seed):
        rng = random.Random(seed)
        params = basic.optimal_params(n)
        fp = allocate_eval_points(n, max(params.ell, 3), q)
        answers = [rng.randrange(q) for _ in range(n)]
        assert basic.decode_answers(fp, params, answers) == solve_own_system(
            fp, fp.alphas, fp.fs[: params.ell], params.t_storage + params.t_query, answers)
        for case, ell, power_count in ((1, (n - 2) // 4, 3 * ((n - 2) // 4) + 2),
                                       (2, (n - 4) // 2, (n - 4) // 2 + 4)):
            if ell >= 1 and ell + power_count == n:
                assert topr.decode_sparse(fp, ell, answers) == solve_own_system(
                    fp, fp.alphas, fp.fs[:ell], power_count, answers)
        # any subset of bit constants against any square system
        k = rng.randint(1, min(3, n - 1))
        f_subset = tuple(rng.sample(fp.fs, k))
        inverse = decode_inverse(fp.field, fp.alphas, f_subset)
        assert apply_rows(q, inverse, answers) == solve_own_system(
            fp, fp.alphas, f_subset, n - k, answers)

    @given(st.sampled_from([(6, 6, 8), (10, 6, 4), (9, 4, 5), (7, 3, 3)]),
           st.integers(0, 2**32))
    @settings(max_examples=12, deadline=None)
    def test_region_read_matches_per_subpacket_solve(self, shape, seed):
        n, ell_r, ell_w = shape
        noise = CounterNoise(seed)
        plan = fixture_plan(n, ell_r, ell_w)
        spec = plan.regions[0]
        fp = allocate_eval_points(n, spec.y, 127)
        length = 2 * spec.period
        model = draw_model(2, length, 127, seed)
        region = rs.realize_regions(plan, length, CounterNoise(seed))[0]
        states = rs.init_region_states(model, fp, region, noise)
        j_read = region.j_read
        queries = rs.build_read_queries(1, fp, region, 2, noise)
        positions, values = rs.region_read(fp, region, states, queries)
        decoded = dict(zip(positions.tolist(), values.tolist()))

        dbs = rs.read_databases(n, spec.case)
        alphas = [fp.alpha(db) for db in dbs]
        for s in range(length // ell_r):
            t = s % spec.read_patterns
            fs = rs._pattern_fs(fp, t + 1, ell_r, spec.y)
            answers = []
            for db in dbs:
                acc = 0
                for i in range(ell_r):
                    cell_block, j = divmod(s * ell_r + i, spec.y)
                    row = states[db - 1].cells[cell_block][j]
                    acc += sum(c * v for c, v in zip(row, queries[t][db - 1][i]))
                answers.append(acc % 127)
            f_subset = [fs[i - 1] for i in j_read[t]]
            want = solve_own_system(fp, alphas, f_subset, len(dbs) - len(f_subset), answers)
            assert [decoded[s * ell_r + i - 1] for i in j_read[t]] == want


BUILDER_PRIMES = (127, 2**31 - 1, 2**61 - 1)  # the last is above the int64 kernel bound


def distinct_residues(rng, q, count):
    """``count`` distinct nonzero residues mod q."""
    return rng.sample(range(1, min(q, 2**62)), count)


def product_form_basis(field, xs):
    """basis_i = prod_{j != i} (x - x_j) / (x_i - x_j), multiplied out factor by factor."""
    q = field.q
    out = []
    for i, xi in enumerate(xs):
        coeffs, denom = [1], 1
        for j, xj in enumerate(xs):
            if j != i:
                coeffs = [(up - xj * c) % q for up, c in zip([0] + coeffs, coeffs + [0])]
                denom = denom * (xi - xj) % q
        scale = field.inv(denom)
        out.append([c * scale % q for c in coeffs])
    return out


class TestMapBuilders:
    """The one-pass builders give exactly the maps of their definitions."""

    @given(st.integers(2, 40), st.sampled_from(BUILDER_PRIMES), st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_basis_matches_its_definition(self, n, q, seed):
        field = PrimeField(q)
        xs = distinct_residues(random.Random(seed), q, n)
        basis = lagrange_basis(field, xs)
        assert basis == product_form_basis(field, xs)
        units = [[int(i == k) for i in range(n)] for k in range(n)]
        assert basis == [lagrange_interpolate(field, xs, e) for e in units]

    @given(st.integers(2, 40), st.sampled_from(BUILDER_PRIMES), st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_inverse_matches_solve_decode(self, n, q, seed):
        rng = random.Random(seed)
        field = PrimeField(q)
        k = rng.randint(1, n)
        points = distinct_residues(rng, q, n + k)
        alphas, f_subset = tuple(points[:n]), tuple(points[n:])
        rows = [decode_row(field, a, f_subset, n - k) for a in alphas]
        inverse = decode_inverse.__wrapped__(field, alphas, f_subset)
        # the leading rows of the inverse: times the system they give the identity's
        assert [[sum(x * row[c] for x, row in zip(inv_row, rows)) % q for c in range(n)]
                for inv_row in inverse] == [[int(i == c) for i in range(n)] for c in range(k)]
        # and column c is solve_decode on the c-th unit right-hand side
        for c in rng.sample(range(n), min(n, 3)):
            e = [int(i == c) for i in range(n)]
            col = solve_decode(field, rows, e)
            assert [row[c] for row in inverse] == col[:k]

    def test_inversion_counts(self, monkeypatch):
        n, k = 12, 4
        fp = allocate_eval_points(n, k, 2**31 - 1)
        calls = []
        real_inv = PrimeField.inv
        monkeypatch.setattr(PrimeField, "inv", lambda self, a: calls.append(a) or real_inv(self, a))
        lagrange_basis(fp.field, fp.alphas)
        assert len(calls) == n
        calls.clear()
        decode_inverse.__wrapped__(fp.field, fp.alphas, fp.fs)
        # n * k reciprocals in the decode rows, then one pivot inversion per column
        assert len(calls) == n * k + n

    def test_singular_system_raises(self):
        fp = allocate_eval_points(6, 2, 127)
        alphas = fp.alphas[:5] + fp.alphas[:1]  # a repeated row
        with pytest.raises(DomainError, match="singular"):
            decode_inverse.__wrapped__(fp.field, alphas, fp.fs)
        with pytest.raises(DomainError, match="distinct"):
            lagrange_basis(fp.field, alphas)

    def test_oracle_and_decoders_stay_apart(self, monkeypatch):
        # two independent paths: a shared bug cannot vouch for itself
        from pruw import poly, storage

        def forbidden(*args):
            raise AssertionError("the oracle and the decoders share a builder")

        fp = allocate_eval_points(10, 4, 127)
        monkeypatch.setattr(poly, "_eliminate", forbidden)
        monkeypatch.setattr(PrimeField, "inv", forbidden)
        for affine in (True, False):
            for j in range(4):
                storage._oracle_map.__wrapped__(fp, storage.Layout("x", 4, 3, affine, 4), j)
        monkeypatch.undo()
        for name in ("lagrange_basis", "lagrange_interpolate"):
            monkeypatch.setattr(poly, name, forbidden)
        decode_inverse.__wrapped__(fp.field, fp.alphas, fp.fs)
