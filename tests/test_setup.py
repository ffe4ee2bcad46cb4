"""Session set-up on arrays: the bulk model draw, the all-database mask
kernel at worst-case magnitudes, the one model array a session holds, and
the counter-noise calls a session makes."""

import ast
import hashlib
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import pruw
from pruw.config import ExperimentConfig
from pruw.field import CounterNoise, ZeroNoise, allocate_eval_points, kernel_dtype
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
# 2^32, whose stream reads 8-byte words
Q64, QOBJ, Q33 = 3_037_000_493, 3_037_000_507, 4_294_967_311


class TestBulkDraw:
    """The model is one counter stream: the first M * L uniform draws from
    range(q) under the tag ("model",), laid out row-major."""

    @pytest.mark.parametrize("q", [2, 3, 5, 127, 2**30, 2**31 - 1, Q64, QOBJ, Q33])
    @pytest.mark.parametrize("m_count, length", [(1, 1), (3, 17), (2, 0), (4, 250)])
    def test_matches_randrange_row_major(self, q, m_count, length):
        seed = q + length
        model = draw_model(m_count, length, q, seed)
        want = CounterNoise(seed).symbol(q, m_count * length, "model").tolist()
        assert model.shape == (m_count, length)
        assert model.dtype == kernel_dtype(q)
        assert model.tolist() == [want[m * length : (m + 1) * length] for m in range(m_count)]
        assert all(type(v) is int and 0 <= v < q for row in model.tolist() for v in row)

    def test_word_loop_by_hand(self):
        # the first 4-byte words of the stream, masked and filtered by hand
        q, count, seed = 2**30, 40, 11
        data = hashlib.shake_256(seed.to_bytes(8, "little") + repr(("model",)).encode())
        words = data.digest(4 * 4 * count)
        want = []
        for k in range(0, len(words), 4):
            w = int.from_bytes(words[k : k + 4], "little") & (2**31 - 1)
            if w < q:
                want.append(w)
        assert draw_model(2, count // 2, q, seed).tolist() == [want[:20], want[20:40]]


def worst_limbs(q):
    """The largest residue whose low 16-bit limb is all ones."""
    v = (q - 1) | 0xFFFF
    return v if v < q else v - (1 << 16)


# 15 mask terms at alpha_n up to 45: the powers alpha_n^i mod q fill both
# 16-bit limbs, so an unreduced high-limb sum times 2^16 overflows int64
N = 30
WIDTHS = {"basic": 14, "topr-1": 7, "topr-2": 13, "random-1": 3, "random-2": 3}


def init_layout(layout, model, q, noise):
    kind, _, case = layout.partition("-")
    if kind == "basic":
        fp = allocate_eval_points(N, 14, q)
        return init_basic(model, fp, 15, 1, noise)
    if kind == "topr":
        fp = allocate_eval_points(N, topr_subpacketization(N, int(case)), q)
        return init_topr(model, fp, int(case), noise)
    ell_r, ell_w = (2, 3) if case == "1" else (3, 2)
    fp = allocate_eval_points(N, 3, q)
    return init_random_sparse(model, fp, int(case), ell_r, ell_w, noise)


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
        states = init_layout(layout, model, q, ZeroNoise() if noise == "off" else CounterNoise(5))
        lay, fp = states[0].layout, states[0].fp
        for st in states:
            alpha = fp.alphas[st.db_index - 1]
            mask = v * sum(alpha**i for i in range(lay.noise_terms))
            want = np.empty(st.cells.shape, dtype=object)
            for j in range(lay.width):
                f_j = fp.fs[j]
                for s in range(st.subpackets):
                    w = q - 1 if s * lay.width + j < length else 0
                    want[s, j] = (w + (f_j - alpha) * mask) % q
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
    def test_storage_never_aliases_the_oracle(self, cfg):
        # the drawn model is the oracle; storage keeps cells of its own
        session = Session(cfg)
        states = [st for _, block in session.scheme.storage for st in block]
        assert not any(np.shares_memory(st.cells, session.oracle) for st in states)
        before = [st.cells.copy() for st in states]
        session.oracle += 1
        assert all(np.array_equal(st.cells, cells) for st, cells in zip(states, before))


class TestOneRandomnessFamily:
    """Every draw in the package is a counter stream: no module imports
    ``random``, and no session builds a Mersenne generator."""

    def test_no_module_imports_random(self):
        for path in sorted(Path(pruw.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                assert not any(name.split(".")[0] == "random" for name in names), path.name

    @pytest.mark.parametrize("cfg", configs(), ids=lambda c: c.scheme)
    def test_sessions_build_no_mersenne_generator(self, cfg, monkeypatch):
        def no_mersenne(*args):
            raise AssertionError(f"a {cfg.scheme} session built a random.Random")

        monkeypatch.setattr(random, "Random", no_mersenne)
        session = Session(cfg)
        for _ in range(2):
            assert session.run_iteration().verdict


class TestNoiseCalls:
    """Every draw is one counter-noise call under its own (seed, tag), so
    the calls a basic session makes do not grow with L: one for the model
    and one per set-up chunk, then a fixed few per iteration."""

    @pytest.fixture
    def tags(self, monkeypatch):
        tags = []
        real = CounterNoise.symbol

        def counting(self, q, count, *tag):
            tags.append(tag)
            return real(self, q, count, *tag)

        monkeypatch.setattr(CounterNoise, "symbol", counting)
        return tags

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(scheme="basic", n=6, m=2, l=13, q=127, seed=5),
        ExperimentConfig(scheme="topr", n=10, m=2, p=5, q=127, case=2, seed=5),
        # two regions and a zero-distortion tail, so three region tags
        ExperimentConfig(scheme="random", n=10, m=2, l=60, seed=5,
                         d_read=Fraction(1, 4), d_write=Fraction(1, 5)),
    ], ids=lambda c: c.scheme)
    def test_no_stream_is_drawn_twice(self, cfg, monkeypatch):
        # a repeated (seed, tag) would hand two messages the same noise
        streams = []
        real = CounterNoise.symbol

        def recording(self, q, count, *tag):
            streams.append((self._key, tag))
            return real(self, q, count, *tag)

        monkeypatch.setattr(CounterNoise, "symbol", recording)
        session = Session(cfg)
        for _ in range(2):
            session.run_iteration()
        assert len(session.scheme.storage) == (3 if cfg.scheme == "random" else 1)
        assert len(streams) == len(set(streams))

    @pytest.mark.parametrize("length", [2000, 20000])
    def test_basic_calls_do_not_grow_with_length(self, tags, length):
        session = Session(ExperimentConfig(scheme="basic", n=10, m=8, l=length, seed=3))
        chunks = -(-session.scheme.states[0].subpackets // DRAW_CHUNK)
        assert tags == [("model",)] + [("basic", c) for c in range(chunks)]
        for _ in range(2):
            tags.clear()
            assert session.run_iteration().verdict
            assert tags == [("mask",), ("delta",), ("update-noise",)]
