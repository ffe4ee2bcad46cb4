"""The batched field kernels at the int64 boundary.

q = 3,037,000,493 is the largest prime whose residue products fit int64 and
q = 3,037,000,507 the next one, which runs on object arrays.  With every
input at q - 1 each product is (q - 1)^2, just below 2^63, so a kernel that
sums two products before reducing them overflows on the int64 path.  Each
kernel is checked against the same arithmetic on plain Python ints.
"""

import random

import numpy as np
import pytest

from pruw import basic
from pruw import random_sparse as rs
from pruw.field import allocate_eval_points, kernel_dtype
from pruw.poly import (
    DecodeSystem,
    apply_rows,
    combine_map,
    combine_update,
    decode_row,
    solve_decode,
)
from pruw.storage import (
    ModelPlain,
    _oracle_map,
    answer,
    fold,
    init_basic,
    init_random_sparse,
    reconstruct_plain,
)

EDGE = [3_037_000_493, 3_037_000_507]
S, K, M = 3, 4, 5


def full(q, *shape):
    return np.full(shape, q - 1, dtype=kernel_dtype(q))


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
        assert answer(q, rows, qvecs, [[q - 1] * K] * S).tolist() == [weighted] * S
        # (R, K) coefficients weight the same row products R ways
        assert answer(q, rows[0], qvecs, [[q - 1] * K] * 2).tolist() == [weighted] * 2

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
        want = solve_decode(fp.field, DecodeSystem(rows=rows, rhs=[q - 1] * 6))[: params.ell]
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
        states = init_basic(ModelPlain.zeros(M, length), fp, params.t_storage, params.t_query,
                            params.t_update, seed=1)
        for st in states:
            st.cells[...] = q - 1
        want = ModelPlain.zeros(M, length)
        for j in range(params.ell):
            weights, parity = _oracle_map(fp, states[0].layout, j)
            assert all(sum(c * (q - 1) for c in row) % q == 0 for row in parity)
            value = sum(w * (q - 1) for w in weights) % q
            for s in range(S):
                for m in range(M):
                    want.values[m][s * params.ell + j] = value
        assert reconstruct_plain(states) == want


@pytest.mark.parametrize("q", EDGE)
def test_region_without_subpackets(q):
    # a realized region can cover no positions at all
    fp = allocate_eval_points(6, 3, q)
    states = init_random_sparse(ModelPlain.zeros(2, 0), fp, 1, 2, 3, seed=1)
    assert [st.cells.shape for st in states] == [(0, 3, 2)] * 6
    assert states[0].cells.dtype == kernel_dtype(q)
    assert reconstruct_plain(states) == ModelPlain.zeros(2, 0)

    plan = rs.plan_from_subpacketizations(6, 2, 3)
    spec = plan.regions[0]
    realized = rs.RealizedRegion(spec=spec, start=0, real_bits=0, total_bits=0)
    sets = rs.draw_bit_sets(plan, 1)[0]
    rng = random.Random(1)
    rq = rs.build_read_queries(1, fp, spec, sets.read, 2, rng)
    wq = rs.build_write_queries(1, fp, spec, sets.write, 2, rng)
    assert rs.region_read(fp, realized, states, rq, sets.read) == {}
    assert rs.region_write([], 1, fp, realized, states, wq, sets.write, rng) == (set(), 0)
