"""Session set-up on arrays: the bulk model draw, the all-database mask
kernel at worst-case magnitudes, and the one model array a session holds."""

import random
from fractions import Fraction

import numpy as np
import pytest

from pruw.config import ExperimentConfig
from pruw.field import CounterNoise, allocate_eval_points, kernel_dtype
from pruw.harness import Session
from pruw.storage import (
    DRAW_CHUNK,
    draw_model,
    init_basic,
    init_random_sparse,
    init_topr,
    topr_subpacketization,
)

# the int64 edge, the first object-array prime, and the least prime above
# 2^32, which draws per symbol
Q64, QOBJ, Q33 = 3_037_000_493, 3_037_000_507, 4_294_967_311


class CountingRandom(random.Random):
    """A Mersenne stream that logs the width of each getrandbits call."""

    def __init__(self, seed):
        self.calls = []
        super().__init__(seed)

    def getrandbits(self, k):
        self.calls.append(k)
        return super().getrandbits(k)


class TestBulkDraw:
    @pytest.mark.parametrize("q", [2, 3, 5, 127, 2**30, 2**31 - 1, Q64, QOBJ, Q33])
    @pytest.mark.parametrize("m_count, length", [(1, 1), (3, 17), (2, 0), (4, 250)])
    def test_matches_randrange_row_major(self, q, m_count, length):
        rng, ref = random.Random(q + length), random.Random(q + length)
        model = draw_model(m_count, length, q, rng)
        want = [[ref.randrange(q) for _ in range(length)] for _ in range(m_count)]
        assert model.shape == (m_count, length)
        assert model.dtype == kernel_dtype(q)
        assert model.tolist() == want
        assert all(type(v) is int for row in model.tolist() for v in row)
        assert rng.getstate() == ref.getstate()
        assert rng.random() == ref.random()

    def test_rejections_are_topped_up_with_the_missing_words(self):
        # q = 2^30 keeps the top 31 bits of a word and rejects about half
        q, count = 2**30, 1000
        rng, ref = CountingRandom(7), random.Random(7)
        model = draw_model(1, count, q, rng)
        assert model.tolist() == [[ref.randrange(q) for _ in range(count)]]
        assert rng.random() == ref.random()
        calls = rng.calls[:-1]  # the last one is random()'s own
        assert calls[0] == 32 * count and len(calls) > 2
        # each call asks for the words still missing, never more than the last
        assert all(b <= a for a, b in zip(calls, calls[1:]))

    def test_word_loop_by_hand(self):
        # the first words of the stream, shifted and filtered by hand
        q, count = 2**30, 40
        words = random.Random(11)
        want = []
        while len(want) < count:
            w = words.getrandbits(32) >> 1
            if w < q:
                want.append(w)
        rng = random.Random(11)
        assert draw_model(2, count // 2, q, rng).tolist() == [want[:20], want[20:]]
        assert rng.getstate() == words.getstate()


def worst_limbs(q):
    """The largest residue whose low 16-bit limb is all ones."""
    v = (q - 1) | 0xFFFF
    return v if v < q else v - (1 << 16)


# 15 mask terms at alpha_n up to 45: the powers alpha_n^i mod q fill both
# 16-bit limbs, so an unreduced high-limb sum times 2^16 overflows int64
N = 30
WIDTHS = {"basic": 14, "topr-1": 7, "topr-2": 13, "random-1": 3, "random-2": 3}


def init_layout(layout, model, q, disable_noise):
    kind, _, case = layout.partition("-")
    if kind == "basic":
        fp = allocate_eval_points(N, 14, q)
        return init_basic(model, fp, 15, 1, 1, 5, disable_noise)
    if kind == "topr":
        fp = allocate_eval_points(N, topr_subpacketization(N, int(case)), q)
        return init_topr(model, fp, int(case), 5, disable_noise)
    ell_r, ell_w = (2, 3) if case == "1" else (3, 2)
    fp = allocate_eval_points(N, 3, q)
    return init_random_sparse(model, fp, int(case), ell_r, ell_w, 5, disable_noise)


class TestSetupKernelWorstCase:
    """Every cell against its plain-int formula with every symbol at its
    largest: an all-(q - 1) model and a constant noise stream v, so cell
    (n, s, j, m) is w + (f_j - alpha_n) * v * sum_i alpha_n^i, or
    w / (f_j - alpha_n) + v * sum_i alpha_n^i on the random layout."""

    @pytest.mark.parametrize("layout", ["basic", "topr-1", "topr-2", "random-1", "random-2"])
    @pytest.mark.parametrize("q", [Q64, QOBJ])
    @pytest.mark.parametrize("noise", ["q-1", "limbs", "off"])
    def test_cells_match_plain_formula(self, layout, q, noise, monkeypatch):
        v = {"q-1": q - 1, "limbs": worst_limbs(q), "off": 0}[noise]
        dtype = kernel_dtype(q)
        monkeypatch.setattr(CounterNoise, "symbol",
                            lambda self, q_, count, *tag: np.full(count, v, dtype=dtype))
        # more subpackets than one draw chunk, and a padded tail
        m_count, length = 2, (DRAW_CHUNK + 1) * WIDTHS[layout] + 1
        model = [[q - 1] * length for _ in range(m_count)]
        states = init_layout(layout, model, q, noise == "off")
        lay, fp = states[0].layout, states[0].fp
        for st in states:
            alpha = fp.alphas[st.db_index - 1]
            mask = v * sum(alpha**i for i in range(lay.noise_terms))
            want = np.empty(st.cells.shape, dtype=object)
            for j in range(lay.width):
                f_j = fp.fs[j]
                for s in range(st.subpackets):
                    w = q - 1 if s * lay.width + j < length else 0
                    if lay.affine_mask:
                        want[s, j] = (w + (f_j - alpha) * mask) % q
                    else:
                        want[s, j] = (w * pow(f_j - alpha, -1, q) + mask) % q
            assert st.cells.dtype == dtype
            assert st.cells.tolist() == want.tolist(), (layout, st.db_index)


def configs():
    return [
        ExperimentConfig(scheme="basic", n=6, m=2, l=13, q=127, seed=5),
        ExperimentConfig(scheme="topr", n=10, m=2, p=5, q=127, case=2, seed=5),
        ExperimentConfig(scheme="random", n=6, m=2, l=30, seed=5,
                         d_read=Fraction(1, 3), d_write=Fraction(1, 5)),
    ]


class TestOneModelArray:
    @pytest.mark.parametrize("cfg", configs(), ids=lambda c: c.scheme)
    def test_oracle_is_a_copy_of_the_model(self, cfg):
        session = Session(cfg)
        model, oracle = session.model, session.oracle
        assert np.array_equal(model, oracle) and not np.shares_memory(model, oracle)
        before = model.copy()
        oracle += 1
        assert np.array_equal(model, before)
