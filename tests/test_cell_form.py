"""One cell form: random sparsification's cells and queries against the paper's.

The paper stores random's cells as W / (f_j - alpha_n) + mask(alpha_n) and
reads them with indicator queries.  Storage keeps every layout affine, so a
random cell is (f_j - alpha_n) times the paper's and its read query is the
paper's divided by (f_j - alpha_n):

    (W + (f - a) P)(z + d / (f - a)) = (W / (f - a) + P)((f - a) z + d),

so every answer is the paper's, and a write's increments are (f_j - alpha_n)
times the paper form's.  Set-up and the oracle need no field inverse.
"""

import dataclasses

import numpy as np
import pytest

from pruw import random_sparse as rs, storage
from pruw.field import CounterNoise, PrimeField, allocate_eval_points, kernel_dtype
from pruw.poly import build_query
from pruw.storage import (
    DRAW_CHUNK,
    draw_model,
    init_basic,
    init_random_sparse,
    init_topr,
    reconstruct_plain,
)

from paper_forms import indicator_query
from plans import fixture_plan

M = 2
SEED = 7
# the int64 kernel path, and the first prime on object arrays
PRIMES = (127, 2**31 - 1, 3_037_000_507)


def random_region(n, case, q):
    """(fp, region, states): one random region of the given case with a
    padded tail, two read or write patterns, masked from CounterNoise(SEED)."""
    base = rs.correct_bits(n)
    ell_r, ell_w = (base, base + 1) if case == 1 else (base + 1, base)
    plan = fixture_plan(n, ell_r, ell_w)
    spec = plan.regions[0]
    assert spec.case == case
    region = rs.realize_regions(plan, 2 * spec.period, CounterNoise(SEED + 1))[0]
    region = dataclasses.replace(region, real_bits=2 * spec.period - 1)
    fp = allocate_eval_points(n, spec.y, q)
    model = draw_model(M, region.real_bits, q, SEED)
    return fp, region, rs.init_region_states(model, fp, region, CounterNoise(SEED))


def paper_cells(fp, state):
    """The paper's cells, W / (f_j - alpha_n) + mask(alpha_n), as Python
    ints: this state's cells times (f_j - alpha_n)^-1."""
    q, alpha = fp.q, fp.alpha(state.db_index)
    return [[[c * pow(f - alpha, -1, q) % q for c in bit]
             for f, bit in zip(fp.fs, sub)] for sub in state.cells.tolist()]


def as_state(state, cells):
    return dataclasses.replace(state, cells=np.array(cells, dtype=kernel_dtype(state.fp.q)))


def paper_write_factors(fp, fs, skip):
    """The null-shaper factors alone, prod_r (a_r - a_n) / prod_r (a_r - f):
    what the paper's cells fold a write with."""
    q = fp.q
    rows = []
    for n in range(1, fp.n_databases + 1):
        row = []
        for f in fs:
            num = den = 1
            for r in skip:
                num *= fp.alpha(r) - fp.alpha(n)
                den *= fp.alpha(r) - f
            row.append(num * pow(den, -1, q) % q)
        rows.append(row)
    return np.array(rows, dtype=kernel_dtype(q))


@pytest.mark.parametrize("q", PRIMES)
@pytest.mark.parametrize("n", [6, 7, 10, 11])
@pytest.mark.parametrize("case", [1, 2])
class TestRandomAgainstPaperForm:
    def test_cells_are_scaled_paper_cells(self, case, n, q):
        fp, region, states = random_region(n, case, q)
        layout, first = states[0].layout, states[0]
        width, terms = layout.width, layout.noise_terms
        assert first.subpackets <= DRAW_CHUNK and first.padded_length > first.length
        # the one chunk's stream, read as z[s, j, m, i]
        z = CounterNoise(SEED).symbol(q, first.subpackets * width * M * terms, "random", 0)
        z = z.reshape(first.subpackets, width, M, terms).tolist()
        model = draw_model(M, region.real_bits, q, SEED).tolist()
        for st in states:
            alpha = fp.alpha(st.db_index)
            for s, sub in enumerate(st.cells.tolist()):
                for j, bit in enumerate(sub):
                    pos, f_j = s * width + j, fp.fs[j]
                    for m, cell in enumerate(bit):
                        w = model[m][pos] if pos < region.real_bits else 0
                        mask = sum(c * alpha**i for i, c in enumerate(z[s][j][m]))
                        paper = (w * pow(f_j - alpha, -1, q) + mask) % q
                        assert cell == (f_j - alpha) * paper % q

    def test_read_answers_are_the_paper_answers(self, case, n, q, monkeypatch):
        fp, region, states = random_region(n, case, q)
        spec, noise, tag = region.spec, CounterNoise(SEED + 2), (0,)
        got = []

        def recording(q_, rows, qvecs, _real=rs.answer):
            got.append(_real(q_, rows, qvecs).tolist())
            return _real(q_, rows, qvecs)

        monkeypatch.setattr(rs, "answer", recording)
        rs.region_read(fp, region, states, rs.build_read_queries(1, fp, region, M, noise, tag))
        want = []
        for t in range(1, spec.read_patterns + 1):
            fs = rs._pattern_fs(fp, t, spec.ell_r, spec.y)
            query = indicator_query(fp, fs, build_query(1, fp, fs, M, noise,
                                                        selected=region.j_read[t - 1],
                                                        tag=(*tag, "read", t)))
            for db in rs.read_databases(n, case):
                paper = as_state(states[db - 1], paper_cells(fp, states[db - 1]))
                rows = rs._pattern_rows(paper, spec.ell_r, spec.read_patterns, t).tolist()
                want.append([sum(c * v for bit, vec in zip(sub, query[db - 1])
                                 for c, v in zip(bit, vec)) % q for sub in rows])
        assert got == want

    def test_write_increments_are_scaled_paper_increments(self, case, n, q, monkeypatch):
        fp, region, states = random_region(n, case, q)
        queries = rs.build_write_queries(1, fp, region, M, CounterNoise(SEED + 2), (0,))
        deltas = CounterNoise(SEED + 3).symbol(q, region.real_bits, "delta")

        def increments(states):
            before = [st.cells.tolist() for st in states]
            rs.region_write(deltas, fp, region, states, queries, CounterNoise(SEED + 4), (0,))
            return [[[[(a - b) % q for a, b in zip(bit_a, bit_b)]
                      for bit_a, bit_b in zip(sub_a, sub_b)]
                     for sub_a, sub_b in zip(st.cells.tolist(), cells)]
                    for st, cells in zip(states, before)]

        paper_states = [as_state(st, paper_cells(fp, st)) for st in states]
        got = increments(states)
        monkeypatch.setattr(rs, "write_factors", paper_write_factors)
        want = increments(paper_states)
        assert any(c for db in got for sub in db for bit in sub for c in bit)
        for st, db_got, db_want in zip(states, got, want):
            alpha = fp.alpha(st.db_index)
            for sub_got, sub_want in zip(db_got, db_want):
                for f_j, bit_got, bit_want in zip(fp.fs, sub_got, sub_want):
                    assert bit_got == [(f_j - alpha) * c % q for c in bit_want]


@pytest.mark.parametrize("q", PRIMES)
def test_setup_and_oracle_invert_nothing(q, monkeypatch):
    def forbidden(*args):
        raise AssertionError("set-up or the oracle called PrimeField.inv")

    builds = [
        (6, 2, lambda model, fp: init_basic(model, fp, 3, 1, CounterNoise(SEED))),
        (6, 1, lambda model, fp: init_topr(model, fp, 1, CounterNoise(SEED))),
        (8, 2, lambda model, fp: init_topr(model, fp, 2, CounterNoise(SEED))),
        (7, 3, lambda model, fp: init_random_sparse(model, fp, 1, 2, 3, CounterNoise(SEED))),
        (10, 5, lambda model, fp: init_random_sparse(model, fp, 2, 5, 4, CounterNoise(SEED))),
    ]
    for n, width, build in builds:
        fp = allocate_eval_points(n, width, q)
        model = draw_model(M, 4 * width + 1, q, SEED)
        storage._oracle_map.cache_clear()
        monkeypatch.setattr(PrimeField, "inv", forbidden)
        assert np.array_equal(reconstruct_plain(build(model, fp)), model)
        monkeypatch.undo()
