"""Masked storage: construction, round trips, tamper detection, distributions."""

import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pruw.errors import ConfigError, IntegrityError
from pruw.field import CounterNoise, PrimeField, ZeroNoise, allocate_eval_points, kernel_dtype
from pruw.storage import (
    DRAW_CHUNK,
    draw_model,
    init_basic,
    init_random_sparse,
    init_topr,
    reconstruct_plain,
    topr_subpacketization,
)


def mask_value(stream, q, j, m, m_count, terms, alpha):
    """Reference mask of cell (s, j, m): sum_i Z_i alpha^i by Horner, Z_i read
    from subpacket s's stream at position (j, m, i), row-major."""
    acc = 0
    for i in reversed(range(terms)):
        acc = (acc * alpha + stream[(j * m_count + m) * terms + i]) % q
    return acc


def subpacket_stream(noise, q, layout, m_count, s):
    """Subpacket s's mask coefficients as Python ints: width * M * terms,
    sliced from the stream of its chunk, which holds the chunk's subpackets
    one after another."""
    count = layout.width * m_count * layout.noise_terms
    k = s % DRAW_CHUNK
    chunk = noise.symbol(q, (k + 1) * count, layout.kind, s // DRAW_CHUNK).tolist()
    return chunk[k * count :]


def reference_cells(model, fp, layout, seed, noise_off):
    """Every database's cells, one cell at a time from the layout's formula:
    W + (f_j - alpha) * mask on the affine layouts, W / (f_j - alpha) + mask
    on the random one; with the noise off, W or W / (f_j - alpha).  The
    model is zero-padded to whole layout periods."""
    q, width, (m_count, length), values = fp.q, layout.width, model.shape, model.tolist()
    noise = CounterNoise(seed)
    subpackets = -(-length // layout.period) * layout.period // width
    streams = [subpacket_stream(noise, q, layout, m_count, s) for s in range(subpackets)]
    out = []
    for alpha in fp.alphas:
        cells = []
        for s in range(subpackets):
            block = []
            for j in range(width):
                f_j, pos = fp.fs[j], s * width + j
                col = []
                for m in range(m_count):
                    w = values[m][pos] if pos < length else 0
                    mask = 0 if noise_off else mask_value(
                        streams[s], q, j, m, m_count, layout.noise_terms, alpha)
                    if layout.affine_mask:
                        col.append((w + (f_j - alpha) * mask) % q)
                    else:
                        col.append((w * pow(f_j - alpha, -1, q) + mask) % q)
                block.append(col)
            cells.append(block)
        out.append(cells)
    return out


def init_layout(layout, model, n, q, ells, noise):
    """States of one layout ("basic", "topr-<case>", "random-<case>") masked
    from the source ``noise``; raises ConfigError where N or q admits none."""
    kind, _, case = layout.partition("-")
    lo, hi = sorted(ells)
    if kind == "basic":
        t_storage = (n + 1) // 2
        fp = allocate_eval_points(n, n - t_storage - 1, q)
        return init_basic(model, fp, t_storage, 1, noise)
    if kind == "topr":
        fp = allocate_eval_points(n, topr_subpacketization(n, int(case)), q)
        return init_topr(model, fp, int(case), noise)
    ell_r, ell_w = (lo, hi) if case == "1" else (hi, lo)
    fp = allocate_eval_points(n, hi, q)
    return init_random_sparse(model, fp, int(case), ell_r, ell_w, noise)


LAYOUTS = ("basic", "topr-1", "topr-2", "random-1", "random-2")


def small_basic(q=11, n=4, m=2, length=6, seed=5):
    fp = allocate_eval_points(n, 1, q)
    model = draw_model(m, length, q, 0)
    states = init_basic(model, fp, 2, 1, CounterNoise(seed))
    return fp, model, states


class TestInitBasic:
    def test_valid_shapes(self):
        fp, model, states = small_basic()
        assert len(states) == 4
        assert states[0].subpackets == 6

    def test_ten_databases(self):
        fp = allocate_eval_points(10, 4, 127)
        model = draw_model(1, 8, 127, 0)
        states = init_basic(model, fp, 5, 1, CounterNoise(0))
        assert states[0].layout.width == 4

    def test_cells_match_formula(self):
        fp, model, states = small_basic()
        noise = CounterNoise(5)
        for st_ in states:
            alpha = fp.alpha(st_.db_index)
            for s in range(st_.subpackets):
                stream = subpacket_stream(noise, 11, st_.layout, 2, s)
                for m in range(2):
                    w = int(model[m][s])
                    mask = mask_value(stream, 11, 0, m, 2, 2, alpha)
                    assert st_.cells[s][0][m] == (w + (fp.fs[0] - alpha) * mask) % 11

    def test_cross_database_noise_identity(self):
        # same counter stream feeds every database; only alpha varies
        fp, model, states = small_basic()
        q = 11
        for s in range(states[0].subpackets):
            for m in range(2):
                # solve the two-unknown system from two databases and check
                # the rest agree: cell = w + (f - alpha) * maskpoly(alpha)
                ys = [st_.cells[s][0][m] for st_ in states]
                from pruw.poly import lagrange_interpolate, poly_degree

                coeffs = lagrange_interpolate(fp.field, list(fp.alphas), ys)
                assert poly_degree(coeffs) <= 2


class TestRoundTrips:
    def test_basic_identity(self):
        _, model, states = small_basic()
        assert np.array_equal(reconstruct_plain(states), model)

    def test_basic_padding(self):
        fp = allocate_eval_points(6, 2, 127)
        model = draw_model(2, 7, 127, 2)  # pads to 8
        states = init_basic(model, fp, 3, 1, CounterNoise(9))
        assert states[0].padded_length == 8
        assert np.array_equal(reconstruct_plain(states), model)

    def test_topr_cases(self):
        for case, ell in ((1, 2), (2, 3)):
            fp = allocate_eval_points(10, ell, 127)
            model = draw_model(2, 5 * ell, 127, 3)
            states = init_topr(model, fp, case, CounterNoise(4))
            assert states[0].layout.width == ell
            assert np.array_equal(reconstruct_plain(states), model)

    def test_random_sparse_cases(self):
        fp = allocate_eval_points(6, 8, 127)
        model = draw_model(2, 24, 127, 4)
        states = init_random_sparse(model, fp, 1, 6, 8, CounterNoise(11))
        assert np.array_equal(reconstruct_plain(states), model)
        fp2 = allocate_eval_points(10, 6, 127)
        states2 = init_random_sparse(model, fp2, 2, 6, 4, CounterNoise(11))
        assert np.array_equal(reconstruct_plain(states2), model)

    def test_tamper_detected(self):
        _, model, states = small_basic()
        states[2].cells[1][0][0] = (states[2].cells[1][0][0] + 1) % 11
        with pytest.raises(IntegrityError):
            reconstruct_plain(states)

    def test_padding_cell_named(self):
        fp = allocate_eval_points(6, 2, 127)
        model = draw_model(2, 7, 127, 2)  # position 7 is padding
        states = init_basic(model, fp, 3, 1, CounterNoise(9))
        # the same step in every replica keeps the cell consistent, so only
        # the padding check sees it
        for st in states:
            st.cells[3, 1, 1] = (st.cells[3, 1, 1] + 1) % 127
        with pytest.raises(IntegrityError,
                           match=r"^padding cell \(s=3, j=1, m=1\) decoded to a nonzero symbol$"):
            reconstruct_plain(states)

    def test_decoded_model_is_an_array_with_list_values(self):
        fp = allocate_eval_points(6, 2, 127)
        model = draw_model(2, 7, 127, 2)
        rec = reconstruct_plain(init_basic(model, fp, 3, 1, CounterNoise(9)))
        assert rec.shape == (2, 7) and rec.dtype == kernel_dtype(127)
        assert rec.tolist() == model.tolist() and type(rec.tolist()[0][0]) is int

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_basic_identity_random_shapes(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 8)
        t1 = rng.randint((n + 1) // 2, n - 2)
        ell = n - t1 - 1
        fp = allocate_eval_points(n, ell, 127)
        model = draw_model(rng.randint(1, 3), rng.randint(1, 12), 127, seed)
        states = init_basic(model, fp, t1, 1, CounterNoise(seed))
        assert np.array_equal(reconstruct_plain(states), model)


class TestTopRShape:
    def test_subpacketization_table(self):
        assert topr_subpacketization(10, 1) == 2
        assert topr_subpacketization(10, 2) == 3
        assert topr_subpacketization(6, 1) == 1
        assert topr_subpacketization(6, 2) == 1

    def test_rejects_non_integral(self):
        with pytest.raises(ConfigError):
            topr_subpacketization(5, 2)
        with pytest.raises(ConfigError):
            topr_subpacketization(8, 1)
        with pytest.raises(ConfigError):
            topr_subpacketization(4, 2)  # ell = 0

    def test_noise_degree_by_case(self):
        fp = allocate_eval_points(10, 3, 127)
        model = draw_model(1, 6, 127, 0)
        s1 = init_topr(model, allocate_eval_points(10, 2, 127), 1, CounterNoise(0))
        s2 = init_topr(model, fp, 2, CounterNoise(0))
        assert s1[0].layout.noise_terms == 5  # mask degree 2 * ell
        assert s2[0].layout.noise_terms == 5  # mask degree ell + 1


class TestRandomSparseInit:
    def test_tie_is_case_2(self):
        fp = allocate_eval_points(10, 4, 127)
        model = draw_model(1, 8, 127, 0)
        states = init_random_sparse(model, fp, 2, 4, 4, CounterNoise(0))
        assert states[0].layout.width == 4

    def test_noise_terms_by_parity(self):
        fp = allocate_eval_points(11, 6, 127)
        model = draw_model(1, 12, 127, 0)
        s1 = init_random_sparse(model, fp, 1, 4, 6, CounterNoise(0))
        s2 = init_random_sparse(model, fp, 2, 6, 4, CounterNoise(0))
        assert s1[0].layout.noise_terms == 5  # floor(11/2)
        assert s2[0].layout.noise_terms == 6  # ceil(11/2)


class TestCellDistributions:
    """Security surrogate: masked cells are uniform and model-independent."""

    @pytest.fixture
    def laws(self):
        """Exact law of every database's cell for w=0 and w=5: N=4 basic keeps
        2 mask coefficients per cell, so all 7^2 streams of the one subpacket
        run through the real init."""
        q = 7
        fp = allocate_eval_points(4, 1, q)

        class Playback:
            """Serves the single subpacket's stream as the draws."""

            def __init__(self, draws):
                self.draws = draws

            def symbol(self, q, count, *tag):
                assert (count, tag) == (len(self.draws), ("basic", 0))
                return np.array(self.draws, dtype=kernel_dtype(q))

        laws = {}
        for w in (0, 5):
            laws[w] = [Counter() for _ in range(4)]
            for draws in itertools.product(range(q), repeat=2):
                states = init_basic([[w]], fp, 2, 1, Playback(draws))
                for law, st_ in zip(laws[w], states):
                    law[st_.cells[0][0][0]] += 1
        return q, laws

    def test_cell_chi2_uniform(self, laws):
        # the exact law leaves a chi-square statistic of zero: every value
        # of F_7 occurs equally often in every database, for every model
        q, laws = laws
        for per_db in laws.values():
            for law in per_db:
                expected = sum(law.values()) / q
                chi2 = sum((law[v] - expected) ** 2 / expected for v in range(q))
                assert chi2 == 0
                assert law == Counter({v: q for v in range(q)})

    def test_cells_model_independent(self, laws):
        _, laws = laws
        assert laws[0] == laws[5]


class TestSharedDraw:
    """One stream per draw chunk serves every database."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()
        streams = []
        for cls, name in ((CounterNoise, "symbol"), (PrimeField, "inv")):
            def counting(self, *args, _real=getattr(cls, name), _name=name):
                counts[_name] += 1
                if _name == "symbol":
                    streams.append((args[1], args[2:]))
                return _real(self, *args)

            monkeypatch.setattr(cls, name, counting)
        return counts, streams

    @pytest.mark.parametrize("layout, n", [
        ("basic", 4), ("basic", 9), ("topr-1", 6), ("topr-1", 10), ("topr-2", 8),
        ("random-1", 7), ("random-1", 8), ("random-2", 9), ("random-2", 10),
    ])
    def test_draws_once_per_coefficient(self, calls, layout, n):
        counts, streams = calls
        # two full chunks and a partial one
        model = draw_model(2, (2 * DRAW_CHUNK + 3) * 4, 127, 1)
        streams.clear()
        states = init_layout(layout, model, n, 127, (3, 4), CounterNoise(6))
        lay, subpackets = states[0].layout, states[0].subpackets
        per_subpacket = lay.width * 2 * lay.noise_terms
        assert subpackets > 2 * DRAW_CHUNK
        assert streams == [(min(DRAW_CHUNK, subpackets - lo) * per_subpacket,
                            (lay.kind, lo // DRAW_CHUNK))
                           for lo in range(0, subpackets, DRAW_CHUNK)]
        if not lay.affine_mask:
            assert counts["inv"] <= lay.width * n

    @given(
        layout=st.sampled_from(LAYOUTS),
        n=st.integers(min_value=4, max_value=10),
        # the largest prime on the int64 path, the next prime (object
        # arrays) and a modulus whose stream reads 16-byte words
        q=st.sampled_from((13, 127, 8191, 3_037_000_493, 3_037_000_507, 2**64 + 13)),
        m=st.integers(min_value=1, max_value=3),
        length=st.integers(min_value=1, max_value=13),
        ells=st.tuples(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4)),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        noise_off=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    @example(layout="basic", n=5, q=3_037_000_493, m=2, length=7, ells=(1, 2), seed=1,
             noise_off=False)
    @example(layout="topr-2", n=8, q=3_037_000_507, m=2, length=7, ells=(1, 2), seed=2,
             noise_off=False)
    @example(layout="random-1", n=7, q=2**64 + 13, m=2, length=7, ells=(2, 3), seed=3,
             noise_off=False)
    # more subpackets than two draw chunks, with a padded tail
    @example(layout="topr-1", n=6, q=127, m=1, length=2 * DRAW_CHUNK + 5, ells=(1, 1), seed=4,
             noise_off=False)
    def test_cells_match_reference(self, layout, n, q, m, length, ells, seed, noise_off):
        model = draw_model(m, length, q, seed)
        noise = ZeroNoise() if noise_off else CounterNoise(seed)
        try:
            states = init_layout(layout, model, n, q, ells, noise)
        except ConfigError:
            assume(False)
        expected = reference_cells(model, states[0].fp, states[0].layout, seed, noise_off)
        assert [st_.cells.tolist() for st_ in states] == expected
