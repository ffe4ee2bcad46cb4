"""The batched field kernels at the int64 boundary.

q = 3,037,000,493 is the largest prime whose residue products fit int64 and
q = 3,037,000,507 the next one, which runs on object arrays.  With every
input at q - 1 each product is (q - 1)^2, just below 2^63, so a kernel that
sums two products before reducing them overflows on the int64 path.  Each
kernel is checked against the same arithmetic on plain Python ints.  The
int64 kernels sum products of a 16-bit limb and a residue, so they are
also checked just past the term bound T(q) that keeps those sums exact, and
against the object-array path on random shapes and residues.
"""

import dataclasses
import math
import random

import numpy as np
import pytest

from pruw import basic
from pruw import random_sparse as rs
from pruw.errors import IntegrityError
from pruw.field import CounterNoise, allocate_eval_points, kernel_dtype, mod_einsum, term_bound
from pruw.poly import (
    apply_rows,
    combine_map,
    combine_update,
    decode_row,
    solve_decode,
)
from pruw.storage import (
    _oracle_map,
    draw_model,
    answer,
    fold,
    init_basic,
    init_random_sparse,
    init_topr,
    reconstruct_plain,
)

from plans import fixture_plan

EDGE = [3_037_000_493, 3_037_000_507]
S, K, M = 3, 4, 5


def full(q, *shape):
    return np.full(shape, q - 1, dtype=kernel_dtype(q))


def weighted_answer(q, rows, qvecs, coefs):
    """``sum_k coefs[..., k] * <rows[..., k, :], qvecs[k]>`` mod q: the
    per-bit row products of :func:`answer`, weighted as top-r weights them
    with its reversing noise, by a second limb-split sum over K."""
    dtype = rows.dtype
    products = mod_einsum(q, "km,...km->...k", np.asarray(qvecs, dtype=dtype), rows)
    return mod_einsum(q, "...k,...k->...", np.asarray(coefs, dtype=dtype), products)


@pytest.mark.parametrize("q", EDGE)
def test_dtype_switches_at_the_boundary(q):
    assert kernel_dtype(q) == (np.int64 if q == EDGE[0] else object)


@pytest.mark.parametrize("q", EDGE)
class TestAllMaxResidues:
    def test_answer(self, q):
        rows, qvecs = full(q, S, K, M), [[q - 1] * M] * K
        inner = sum((q - 1) * (q - 1) for _ in range(M))  # one row product, unreduced
        weighted = K * (q - 1) * inner % q
        assert answer(q, rows, qvecs).tolist() == [K * inner % q] * S
        assert weighted_answer(q, rows, qvecs, [[q - 1] * K] * S).tolist() == [weighted] * S
        # (R, K) coefficients weight the same row products R ways
        assert weighted_answer(q, rows[0], qvecs, [[q - 1] * K] * 2).tolist() == [weighted] * 2

    def test_fold(self, q):
        rows = full(q, S, K, M)
        fold(q, rows, [[q - 1] * M] * K, [[q - 1] * K] * S)
        assert rows.tolist() == [[[(q - 1 + (q - 1) * (q - 1)) % q] * M] * K] * S

    def test_apply_rows(self, q):
        rows = [[q - 1] * K] * 3
        want = sum((q - 1) * (q - 1) for _ in range(K)) % q
        assert apply_rows(q, rows, [q - 1] * K) == [want] * 3
        assert apply_rows(q, rows, full(q, K, S, M)).tolist() == [[[want] * M] * S] * 3

    def test_decode_map(self, q):
        params = basic.optimal_params(6)
        fp = allocate_eval_points(6, params.ell, q)
        got = basic.decode_answers(fp, params, full(q, 6, S))
        rows = [decode_row(fp.field, a, fp.fs[: params.ell], params.t_storage + params.t_query)
                for a in fp.alphas]
        want = solve_decode(fp.field, rows, [q - 1] * 6)[: params.ell]
        assert got.T.tolist() == [want] * S

    def test_combine_map(self, q):
        fp = allocate_eval_points(6, 3, q)
        symbols = apply_rows(q, combine_map(fp.field, fp.fs, fp.alphas, 2), full(q, 5, S))
        want = combine_update(fp.field, [q - 1] * 3, fp.fs, fp.alphas, [q - 1] * 2)
        assert symbols.T.tolist() == [want] * S

    def test_oracle(self, q):
        params = basic.optimal_params(6)
        fp = allocate_eval_points(6, params.ell, q)
        length = S * params.ell
        states = init_basic(np.zeros((M, length), dtype=kernel_dtype(q)), fp, params.t_storage,
                            params.t_query, CounterNoise(1))
        for st in states:
            st.cells[...] = q - 1
        want = np.zeros((M, length), dtype=kernel_dtype(q))
        for j in range(params.ell):
            weights, parity = _oracle_map(fp, states[0].layout.noise_terms, j)
            assert all(sum(c * (q - 1) for c in row) % q == 0 for row in parity)
            value = sum(w * (q - 1) for w in weights) % q
            for s in range(S):
                for m in range(M):
                    want[m][s * params.ell + j] = value
        assert np.array_equal(reconstruct_plain(states), want)


@pytest.mark.parametrize("q", EDGE)
def test_region_without_subpackets(q):
    # a realized region can cover no positions at all
    fp = allocate_eval_points(6, 3, q)
    states = init_random_sparse(np.zeros((2, 0), dtype=kernel_dtype(q)), fp, 1, 2, 3,
                                CounterNoise(1))
    assert [st.cells.shape for st in states] == [(0, 3, 2)] * 6
    assert states[0].cells.dtype == kernel_dtype(q)
    assert reconstruct_plain(states).shape == (2, 0)

    plan = fixture_plan(6, 2, 3)
    spec = plan.regions[0]
    [region] = rs.realize_regions(plan, 0, CounterNoise(1))
    assert (region.start, region.real_bits) == (0, 0)
    noise = CounterNoise(1)
    rq = rs.build_read_queries(1, fp, region, 2, noise)
    wq = rs.build_write_queries(1, fp, region, 2, noise)
    positions, values = rs.region_read(fp, region, states, rq)
    assert len(positions) == len(values) == 0
    written = rs.region_write([], fp, region, states, wq, noise)
    assert len(written) == 0


# ---- the int64 limb path at its term bound T(q)

PAST_BOUND = [(3_037_000_493, 46_341), (2**31 - 1, 65_537)]


def test_term_bound():
    assert [term_bound(q) for q, _ in PAST_BOUND] == [46_340, 65_536]
    for q, _ in PAST_BOUND:
        def fits(t):
            return t * (q - 1) * (2**16 - 1) + (q - 1) * 2**16 < 2**63
        assert fits(term_bound(q)) and not fits(term_bound(q) + 1)


def worst_limbs(q, count):
    """``count`` residues for the split operand (query vectors, coefficients,
    map rows) at their worst against q - 1: low limb 2^16 - 1 under the
    largest high limb that stays below q.  All-(q - 1) inputs are not the
    worst case (q - 1 has low limb 62,252 at 3,037,000,493), so one unchunked
    sum of T(q) + 1 of them still fits int64.  Leading entries drop their
    high limb until one unchunked int64 sum of the count products would wrap,
    which this asserts, so dropping the chunking gives a wrong residue."""
    high = ((q - 1) >> 16) - 1
    lo_sum = count * 0xFFFF * (q - 1)
    for dropped in range(count):
        hi_sum = (count - dropped) * high * (q - 1) % q
        if lo_sum + (hi_sum << 16) >= 2**63:
            return [0xFFFF] * dropped + [high << 16 | 0xFFFF] * (count - dropped)
    raise AssertionError("no input of this family overflows an unchunked sum")


@pytest.mark.parametrize("q, count", PAST_BOUND)
class TestPastTheTermBound:
    def test_answer(self, q, count):
        rows = full(q, 2, 1, count)
        for qvec in ([q - 1] * count, worst_limbs(q, count)):
            assert answer(q, rows, [qvec]).tolist() == [(q - 1) * sum(qvec) % q] * 2

    def test_answer_with_coefs(self, q, count):
        rows = full(q, 2, count)
        coefs = [[q - 1, 1], [2, q - 2], [0, 1]]
        for qvec in ([q - 1] * count, worst_limbs(q, count)):
            inner = (q - 1) * sum(qvec) % q
            want = [(a + b) * inner % q for a, b in coefs]
            assert weighted_answer(q, rows, [qvec, qvec], coefs).tolist() == want

    def test_answer_with_coefs_over_a_long_row_axis(self, q, count):
        # K = count rows of one symbol each: the coefficient sum is the long one
        rows, qvecs = full(q, count, 1), [[1]] * count
        for coef in ([q - 1] * count, worst_limbs(q, count)):
            assert weighted_answer(q, rows, qvecs, [coef]).tolist() == [(q - 1) * sum(coef) % q]

    def test_apply_rows_over_a_long_input_axis(self, q, count):
        vec = full(q, count, 3)
        for row in ([q - 1] * count, worst_limbs(q, count)):
            want = (q - 1) * sum(row) % q
            assert apply_rows(q, [row, row[::-1]], vec).tolist() == [[want] * 3] * 2


# ---- the int64 limb path against the object-array path

Q64 = 3_037_000_493
# (S, K, M): no subpackets, M = 1, then seeded random shapes
SHAPES = [(0, 3, 2), (1, 1, 1), (4, 3, 1)] + [
    (r.randint(1, 6), r.randint(1, 5), r.randint(1, 8)) for r in map(random.Random, range(3))
]


def pair(rng, *shape):
    """The same random residues mod Q64 as an int64 and an object array."""
    obj = np.array([rng.randrange(Q64) for _ in range(math.prod(shape))],
                   dtype=object).reshape(shape)
    return obj.astype(np.int64), obj


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("shape", SHAPES)
class TestAgainstObjectPath:
    def test_answer(self, shape, seed):
        rng = random.Random(seed)
        s, k, m = shape
        (rows, rows_o), (qv, qv_o) = pair(rng, s, k, m), pair(rng, k, m)
        (coefs, coefs_o), (wide, wide_o) = pair(rng, s, k), pair(rng, 4, k)
        got, want = answer(Q64, rows, qv), answer(Q64, rows_o, qv_o)
        assert (got.dtype, want.dtype) == (np.int64, object) and got.tolist() == want.tolist()
        assert (weighted_answer(Q64, rows, qv, coefs).tolist()
                == weighted_answer(Q64, rows_o, qv_o, coefs_o).tolist())
        flat, flat_o = rows.reshape(-1, m), rows_o.reshape(-1, m)
        if len(flat):
            # top-r's form: every row at once, R weightings of the row products
            tiled, tiled_o = np.tile(qv, (s, 1)), np.tile(qv_o, (s, 1))
            (w, w_o) = pair(rng, 4, s * k)
            assert (weighted_answer(Q64, flat, tiled, w).tolist()
                    == weighted_answer(Q64, flat_o, tiled_o, w_o).tolist())
        if s:
            # one row block weighted R ways
            assert (weighted_answer(Q64, rows[0], qv, wide).tolist()
                    == weighted_answer(Q64, rows_o[0], qv_o, wide_o).tolist())

    def test_fold(self, shape, seed):
        rng = random.Random(seed)
        s, k, m = shape
        (rows, rows_o), (qv, qv_o), (fac, fac_o) = pair(rng, s, k, m), pair(rng, k, m), pair(rng, s, k)
        fold(Q64, rows, qv, fac)
        fold(Q64, rows_o, qv_o, fac_o)
        assert rows.dtype == np.int64 and rows.tolist() == rows_o.tolist()

    def test_apply_rows(self, shape, seed):
        rng = random.Random(seed)
        s, k, m = shape
        rows = pair(rng, k + 2, k)[1].tolist()
        (vec, vec_o), (one, one_o) = pair(rng, k, s, m), pair(rng, k)
        got, want = apply_rows(Q64, rows, vec), apply_rows(Q64, rows, vec_o)
        assert (got.dtype, want.dtype) == (np.int64, object) and got.tolist() == want.tolist()
        assert apply_rows(Q64, rows, one).tolist() == apply_rows(Q64, rows, one_o).tolist()


def as_objects(states):
    return [dataclasses.replace(st, cells=st.cells.astype(object)) for st in states]


def oracle_outcome(states):
    """The decoded values, or the IntegrityError message."""
    try:
        return reconstruct_plain(states).tolist()
    except IntegrityError as exc:
        return str(exc)


def layouts(seed):
    """Storage over Q64 for each layout, M = 1 and M = 3, plus a region with
    no subpackets."""
    fp = allocate_eval_points(6, 3, Q64)
    fp10 = allocate_eval_points(10, 3, Q64)
    for m_count in (1, 3):
        model = draw_model(m_count, 3 * 4 + 1, Q64, seed)
        yield init_basic(model, fp, 3, 1, CounterNoise(seed))
        yield init_topr(draw_model(m_count, 3 * 4, Q64, seed + 1), fp10, 2, CounterNoise(seed))
        yield init_random_sparse(model, fp, 1, 2, 3, CounterNoise(seed))
    yield init_random_sparse(np.zeros((2, 0), dtype=kernel_dtype(Q64)), fp, 1, 2, 3,
                             CounterNoise(seed))


@pytest.mark.parametrize("seed", range(3))
def test_oracle_against_object_path(seed):
    rng = random.Random(seed)
    for states in layouts(seed):
        objects = as_objects(states)
        assert objects[0].cells.dtype == object and states[0].cells.dtype == np.int64
        assert oracle_outcome(states) == oracle_outcome(objects)
        if not states[0].subpackets:
            continue
        # one replica's cell replaced: both paths name the same cell
        n = rng.randrange(len(states))
        s, j, m = (rng.randrange(size) for size in states[0].cells.shape)
        value = (int(states[n].cells[s, j, m]) + 1) % Q64
        states[n].cells[s, j, m] = objects[n].cells[s, j, m] = value
        assert oracle_outcome(states) == oracle_outcome(objects)
        assert oracle_outcome(states).startswith("cell (")
