"""Top-r sparsification: permutation setup, sparse reads/writes, costs."""

import dataclasses
import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from pruw import topr
from pruw.config import ExperimentConfig
from pruw.errors import ConfigError, DomainError, ProtocolError
from pruw.field import CounterNoise, ZeroNoise, allocate_eval_points, kernel_dtype
from pruw.harness import Session
from pruw.poly import apply_rows
from pruw.storage import answer, draw_model, fold, init_topr, reconstruct_plain, write_factors

PERM_FIXTURE = (2, 5, 1, 3, 4)


def build_session(case, n=10, p=5, m_count=3, q=127, seed=0, perm=PERM_FIXTURE):
    from pruw.storage import topr_subpacketization

    ell = topr_subpacketization(n, case)
    fp = allocate_eval_points(n, ell, q)
    model = draw_model(m_count, p * ell, q, seed)
    states = init_topr(model, fp, case, CounterNoise(seed + 1))
    setup = topr.coordinator_setup(p, ell, case, fp, CounterNoise(seed + 2), perm=perm)
    return fp, model, states, setup


def reference_reversing(setup, n):
    """Database n's noisy reversing matrix in plain ints, from the definition:
    the permutation's base pattern (1, or (f_j - alpha_n)^-1 on case 2's
    block diagonals) plus the shared noise, scaled by prod_j (f_j - alpha_n)
    in case 1, read from one stream per block column."""
    fp, q, ell = setup.fp, setup.fp.q, setup.ell
    block = 1 if setup.case == 1 else ell
    side = setup.p_subpackets * block
    noise = setup.noise
    tag = "rev1" if setup.case == 1 else "rev2"
    columns = [noise.symbol(q, side * block, tag, v).tolist() for v in range(setup.p_subpackets)]
    scale = math.prod(f - fp.alpha(n) for f in fp.fs[:ell]) % q if setup.case == 1 else 1
    mat = [[scale * columns[c // block][r * block + c % block] % q for c in range(side)]
           for r in range(side)]
    for i, true in enumerate(setup.perm):
        for j in range(block):
            entry = 1 if setup.case == 1 else pow(fp.fs[j] - fp.alpha(n), -1, q)
            r, c = (true - 1) * block + j, i * block + j
            mat[r][c] = (mat[r][c] + entry) % q
    return mat


def base_pattern(setup, n):
    """Database n's reversing matrix without noise: the permutation's base."""
    return reference_reversing(dataclasses.replace(setup, noise=ZeroNoise()), n)


def weights(setup, n, v_perm):
    """Database n's un-permuting weights for the permuted indices ``v_perm``
    (any order), a (len(v_perm), P * ell) array with one column per
    (subpacket, bit) in storage order: the per-database reference for the
    sessions' all-database contractions.

    Row k is column v = v_perm[k] of the reversing matrix repeated over the
    bits (case 1), or the sums over its block column v (case 2): the shared
    noise's column v-1 times prod_j (f_j - alpha_n) plus a 1 at row
    perm(v)-1 (case 1), or the column as is plus (f_j - alpha_n)^-1 at row
    (perm(v)-1) * ell + j (case 2).
    """
    q, ell = setup.fp.q, setup.ell
    const = topr._reversing_constants(setup.fp, ell, setup.case)[n - 1]
    cols = np.asarray(v_perm, dtype=np.intp) - 1
    at = np.arange(len(cols))
    rows = np.asarray(setup.perm, dtype=np.intp)[cols] - 1
    z = setup.reversing_matrix()[:, cols]
    if setup.case == 1:
        z *= const
        z[rows, at] += 1
        z %= q
        return z.repeat(ell, axis=0).T
    gamma = np.array(const, dtype=z.dtype)
    rows = rows[:, None] * ell + np.arange(ell)
    z[rows, at[:, None]] = (z[rows, at[:, None]] + gamma) % q
    return z.T


def build_query(case, theta, fp, ell, m_count, noise):
    if case == 1:
        return topr.build_query_case1(theta, fp, ell, m_count, noise)
    return topr.build_query_case2(theta, fp, ell, m_count, noise)


class TestCoordinatorSetup:
    def test_reversing_matrix_p3(self):
        fp = allocate_eval_points(10, 2, 127)
        setup = topr.coordinator_setup(3, 2, 1, fp, CounterNoise(0), perm=(2, 3, 1))
        assert base_pattern(setup, 1) == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]

    def test_singleton(self):
        fp = allocate_eval_points(10, 2, 127)
        setup = topr.coordinator_setup(1, 2, 1, fp, CounterNoise(0))
        assert setup.perm == (1,)
        assert base_pattern(setup, 1) == [[1]]

    def test_case2_blocks(self):
        fp = allocate_eval_points(10, 3, 127)
        setup = topr.coordinator_setup(3, 3, 2, fp, CounterNoise(0), perm=(2, 3, 1))
        mat = base_pattern(setup, 4)
        alpha = fp.alpha(4)
        gamma = [fp.field.inv(fp.fs[j] - alpha) for j in range(3)]
        # block (perm(i), i) carries the reciprocal diagonal
        for i in range(1, 4):
            r0 = (setup.perm[i - 1] - 1) * 3
            c0 = (i - 1) * 3
            for j in range(3):
                assert mat[r0 + j][c0 + j] == gamma[j]
        assert mat[0][0] == 0

    def test_denoised_reversing_matrix_is_permutation(self):
        fp, _, _, setup = build_session(1)
        noisy = reference_reversing(setup, 3)
        alpha = fp.alpha(3)
        scale = 1
        for j in range(setup.ell):
            scale = scale * (fp.fs[j] - alpha) % 127
        base = base_pattern(setup, 1)
        noise = setup.noise
        for c in range(5):
            column = noise.symbol(127, 5, "rev1", c).tolist()
            for r in range(5):
                denoised = (noisy[r][c] - scale * column[r]) % 127
                assert denoised == base[r][c]
        # doubly stochastic 0/1
        assert all(sum(row) == 1 for row in base)
        assert all(sum(col) == 1 for col in zip(*base))

    def test_reversal_restores_order(self):
        fp, _, _, setup = build_session(1)
        vec = [10, 20, 30, 40, 50]
        permuted = [vec[setup.perm[i] - 1] for i in range(5)]
        base = base_pattern(setup, 1)
        restored = [sum(base[r][c] * permuted[c] for c in range(5)) for r in range(5)]
        assert restored == vec

    def test_uniform_over_permutations(self):
        fp = allocate_eval_points(10, 2, 127)
        counts = {}
        trials = 6000
        for seed in range(trials):
            s = topr.coordinator_setup(3, 2, 1, fp, CounterNoise(seed))
            counts[s.perm] = counts.get(s.perm, 0) + 1
        assert len(counts) == 6
        assert all(abs(c - trials / 6) < 5 * (trials * (1 / 6) * (5 / 6)) ** 0.5
                   for c in counts.values())

    def test_bad_perm_override(self):
        fp = allocate_eval_points(10, 2, 127)
        with pytest.raises(ConfigError):
            topr.coordinator_setup(3, 2, 1, fp, CounterNoise(0), perm=(1, 1, 2))


class TestColumnWeights:
    # the default modulus, the largest prime on the int64 path and the next
    @pytest.mark.parametrize("q", [127, 3_037_000_493, 3_037_000_507])
    @pytest.mark.parametrize("case", [1, 2])
    def test_matches_reference(self, case, q):
        fp, _, _, setup = build_session(case, q=q)
        ell = setup.ell
        for n in range(1, fp.n_databases + 1):
            rev = reference_reversing(setup, n)
            for v in range(1, setup.p_subpackets + 1):
                if case == 1:
                    expected = [row[v - 1] for row in rev for _ in range(ell)]
                else:
                    expected = [sum(row[(v - 1) * ell : v * ell]) % q for row in rev]
                got = weights(setup, n, [v])[0].tolist()
                assert got == expected
                assert all(type(w) is int for w in got)


class TestWeights:
    """Each database's weights come from the one shared noise matrix; they
    must equal the reference reversing matrix's columns (case 1, repeated
    over the bits) or block-column sums (case 2)."""

    @staticmethod
    def dense_columns(setup, n):
        # one row per permuted index v, in storage order
        rev = reference_reversing(setup, n)
        q, ell = setup.fp.q, setup.ell
        out = []
        for v in range(1, setup.p_subpackets + 1):
            if setup.case == 1:
                out.append([row[v - 1] for row in rev for _ in range(ell)])
            else:
                out.append([sum(row[(v - 1) * ell : v * ell]) % q for row in rev])
        return out

    @pytest.mark.parametrize("q", [127, 3_037_000_493, 3_037_000_507])
    @pytest.mark.parametrize("case", [1, 2])
    def test_match_dense_reference(self, case, q):
        fp, _, _, setup = build_session(case, q=q, perm=None, seed=4)
        rng = random.Random(case * q)
        for n in range(1, fp.n_databases + 1):
            expected = self.dense_columns(setup, n)
            for v in range(1, setup.p_subpackets + 1):
                assert weights(setup, n, [v]).tolist() == [expected[v - 1]]
            # an index list in any order, of any length
            for count in (setup.p_subpackets, 2):
                order = rng.sample(range(1, setup.p_subpackets + 1), count)
                got = weights(setup, n, order)
                assert got.dtype == kernel_dtype(q)
                assert got.tolist() == [expected[v - 1] for v in order]

    @pytest.mark.parametrize("case", [1, 2])
    def test_noise_drawn_once_at_first_use(self, case, monkeypatch):
        fp, _, _, setup = build_session(case)
        original = CounterNoise.symbol
        streams = []

        def counting(self, q, count, *tag):
            streams.append((count, tag))
            return original(self, q, count, *tag)

        monkeypatch.setattr(CounterNoise, "symbol", counting)
        assert setup._reversing is None
        for n in range(1, fp.n_databases + 1):
            weights(setup, n, [1, 3])
        block = 1 if case == 1 else setup.ell
        side = setup.p_subpackets * block
        tag = "rev1" if case == 1 else "rev2"
        assert streams == [(side * block, (tag, v)) for v in range(setup.p_subpackets)]
        noise = setup.reversing_matrix()
        assert noise.shape == (side, setup.p_subpackets)
        assert noise.dtype == kernel_dtype(fp.q)


class TestAllDatabases:
    """A phase un-permutes for every database in one shared-noise
    contraction; its answers and folds must equal the per-database
    reference: the row products weighted by :func:`weights`, and the fold
    of the weighted symbols."""

    @staticmethod
    def v_sets(p, rng):
        shuffled = list(range(1, p + 1))
        rng.shuffle(shuffled)
        return [[], [rng.randint(1, p)], list(range(1, p + 1)), shuffled]

    # the default modulus, the largest prime on the int64 path and the next
    @pytest.mark.parametrize("q", [127, 3_037_000_493, 3_037_000_507])
    @pytest.mark.parametrize("case", [1, 2])
    def test_answers_match_reference(self, case, q):
        fp, _, states, setup = build_session(case, q=q, perm=None, seed=6)
        query = build_query(case, 2, fp, setup.ell, 3, CounterNoise(7))
        for v in self.v_sets(setup.p_subpackets, random.Random(case * q)):
            got = topr.answer_sparse(states, setup, query, v)
            want = []
            for st in states:
                # the per-bit row products, in storage order, weighted in Python ints
                prods = [answer(q, st.cells[:, j : j + 1], query[st.db_index - 1][j : j + 1])
                         for j in range(setup.ell)]
                prods = [int(x) for x in np.stack(prods, axis=1).ravel()]
                want.append([sum(int(w) * x for w, x in zip(row, prods)) % q
                             for row in weights(setup, st.db_index, v).tolist()])
            assert got.shape == (fp.n_databases, len(v))
            assert got.dtype == kernel_dtype(q)
            assert got.tolist() == want
            assert all(type(a) is int for row in got.tolist() for a in row)

    @pytest.mark.parametrize("q", [127, 3_037_000_493, 3_037_000_507])
    @pytest.mark.parametrize("case", [1, 2])
    def test_folds_match_reference(self, case, q):
        fp, _, states, setup = build_session(case, q=q, perm=None, seed=8)
        query = build_query(case, 1, fp, setup.ell, 3, CounterNoise(9))
        factors = write_factors(fp, fp.fs[: setup.ell], ())
        rng = random.Random(case + q)
        for positions in self.v_sets(setup.p_subpackets, rng):
            symbols = CounterNoise(len(positions)).symbol(
                q, len(positions) * fp.n_databases, "symbols").reshape(len(positions), fp.n_databases)
            want = [st.cells.copy() for st in states]
            if positions:
                for st, cells in zip(states, want):
                    n = st.db_index
                    t = apply_rows(q, (symbols[:, n - 1],), weights(setup, n, positions))[0]
                    t = t.reshape(st.subpackets, setup.ell)
                    fold(q, cells, query[n - 1], t * factors[n - 1] % q)
            topr.apply_sparse_write(states, setup, query, positions, symbols)
            for st, cells in zip(states, want):
                assert st.cells.dtype == cells.dtype
                assert st.cells.tolist() == cells.tolist()

    @pytest.mark.parametrize("n", [6, 10])
    @pytest.mark.parametrize("case", [1, 2])
    def test_one_noise_use_per_phase(self, case, n, monkeypatch):
        original = topr.PermutationSetup.reversing_matrix
        calls = []

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(topr.PermutationSetup, "reversing_matrix", counting)
        cfg = ExperimentConfig(scheme="topr", n=n, m=2, p=8, case=case, q=127, seed=3,
                               r=Fraction(1, 2), r_prime=Fraction(1, 2))
        it = Session(cfg).run_iteration()
        assert it.detail["v_tilde"] and it.detail["write_positions"]
        assert it.detail["read_ok"] and it.detail["write_ok"]
        assert len(calls) == 2


class TestInversePermutation:
    def test_built_lazily(self):
        fp = allocate_eval_points(10, 2, 127)
        setup = topr.coordinator_setup(7, 2, 1, fp, CounterNoise(3))
        assert "_inverse" not in vars(setup) and setup._reversing is None
        assert setup.permuted_index(setup.perm[4]) == 5
        assert "_inverse" in vars(setup)

    def test_matches_linear_search(self):
        fp = allocate_eval_points(10, 2, 127)
        for seed in range(20):
            setup = topr.coordinator_setup(9, 2, 1, fp, CounterNoise(seed))
            for true in range(1, 10):
                assert setup.permuted_index(true) == setup.perm.index(true) + 1
                assert setup.true_index(setup.permuted_index(true)) == true
            true_set = random.Random(seed).sample(range(1, 10), 4)
            assert setup.permuted_set(true_set) == sorted(setup.perm.index(s) + 1
                                                          for s in true_set)


class TestReadSparse:
    @pytest.mark.parametrize("case", [1, 2])
    def test_worked_example(self, case):
        fp, model, states, setup = build_session(case)
        theta = 2
        query = build_query(case, theta, fp, setup.ell, 3, CounterNoise(5))
        true, bits = topr.read_sparse([2, 3], setup, states, query)
        decoded = dict(zip(true.tolist(), bits.tolist()))
        assert sorted(decoded) == [1, 5]  # perm maps 2 -> 5, 3 -> 1
        for s, bits in decoded.items():
            lo = (s - 1) * setup.ell
            assert bits == model[theta - 1][lo : lo + setup.ell].tolist()

    @pytest.mark.parametrize("case", [1, 2])
    def test_full_set_matches_reconstruct(self, case):
        fp, model, states, setup = build_session(case)
        theta = 1
        query = build_query(case, theta, fp, setup.ell, 3, CounterNoise(6))
        true, bits = topr.read_sparse(list(range(1, 6)), setup, states, query)
        decoded = dict(zip(true.tolist(), bits.tolist()))
        rec = reconstruct_plain(states)
        flat = []
        for s in range(1, 6):
            flat.extend(decoded[s])
        assert flat == rec[theta - 1].tolist()

    def test_random_plants(self):
        rng = random.Random(8)
        noise = CounterNoise(8)
        for trial in range(5):
            case = rng.choice([1, 2])
            fp, model, states, setup = build_session(case, q=127, seed=100 + trial,
                                                     perm=None)
            theta = rng.randint(1, 3)
            query = build_query(case, theta, fp, setup.ell, 3, noise)
            v = rng.sample(range(1, 6), 2)
            true, bits = topr.read_sparse(v, setup, states, query)
            decoded = dict(zip(true.tolist(), bits.tolist()))
            for s, bits in decoded.items():
                lo = (s - 1) * setup.ell
                assert bits == model[theta - 1][lo : lo + setup.ell].tolist()


class TestWriteSparse:
    def test_worked_example_positions(self):
        fp, model, states, setup = build_session(1)
        theta = 1
        rng = random.Random(9)
        noise = CounterNoise(9)
        query = build_query(1, theta, fp, setup.ell, 3, noise)
        scores = [10, 0, 0, 9, 0]  # non-zero subpackets 1 and 4
        deltas = [[rng.randrange(127) for _ in range(setup.ell)] for _ in range(5)]
        positions, chosen = topr.write_sparse(deltas, scores, Fraction(2, 5), setup, states,
                                              query, noise)
        assert chosen == [1, 4]
        assert positions == [3, 5]
        expect = model.copy()
        for s in chosen:
            lo = (s - 1) * setup.ell
            for k in range(setup.ell):
                expect[theta - 1][lo + k] = (
                    expect[theta - 1][lo + k] + deltas[s - 1][k]
                ) % 127
        assert np.array_equal(reconstruct_plain(states), expect)

    def test_zero_count_warns_and_noops(self):
        fp, model, states, setup = build_session(1)
        rng = random.Random(10)
        noise = CounterNoise(10)
        query = build_query(1, 1, fp, setup.ell, 3, noise)
        deltas = [[0] * setup.ell for _ in range(5)]
        with pytest.warns(UserWarning):
            positions, chosen = topr.write_sparse(deltas, [1] * 5, Fraction(1, 100), setup,
                                                  states, query, noise)
        assert positions == chosen == []
        assert np.array_equal(reconstruct_plain(states), model)

    @pytest.mark.parametrize("case", [1, 2])
    def test_random_write_matches_oracle(self, case):
        rng = random.Random(11)
        noise = CounterNoise(11)
        fp, model, states, setup = build_session(case, q=127, perm=None, seed=12)
        theta = 3
        query = build_query(case, theta, fp, setup.ell, 3, noise)
        scores = [rng.randrange(100) for _ in range(5)]
        deltas = [[rng.randrange(127) for _ in range(setup.ell)] for _ in range(5)]
        _, chosen = topr.write_sparse(deltas, scores, Fraction(2, 5), setup, states, query,
                                      noise)
        expect = model.copy()
        for s in chosen:
            lo = (s - 1) * setup.ell
            for k in range(setup.ell):
                expect[theta - 1][lo + k] = (
                    expect[theta - 1][lo + k] + deltas[s - 1][k]
                ) % 127
        assert np.array_equal(reconstruct_plain(states), expect)

    def test_ties_break_low_index(self):
        assert topr.select_top_r([5, 5, 5, 5, 5], Fraction(2, 5), 5) == [1, 2]

    def test_order_matches_fraction_key(self):
        # int scores sort as their Fractions did: descending, ties to the lower index
        rng = random.Random(21)
        for _ in range(200):
            p = rng.randint(1, 40)
            scores = [rng.randrange(rng.choice([3, 50, 1 << 30])) for _ in range(p)]
            r = Fraction(rng.randint(0, p), p)
            count = topr.round_half_up(r * p)
            order = sorted(range(1, p + 1), key=lambda s: (-Fraction(scores[s - 1]), s))
            assert topr.select_top_r(scores, r, p) == sorted(order[:count])

    def test_unwritten_subpackets_plain_unchanged(self):
        rng = random.Random(13)
        noise = CounterNoise(13)
        fp, model, states, setup = build_session(1, seed=14)
        query = build_query(1, 2, fp, setup.ell, 3, noise)
        deltas = [[rng.randrange(127) for _ in range(setup.ell)] for _ in range(5)]
        topr.write_sparse(deltas, [9, 0, 0, 0, 0], Fraction(1, 5), setup, states, query, noise)
        rec = reconstruct_plain(states)
        for s in range(2, 6):  # untouched subpackets
            lo = (s - 1) * setup.ell
            assert rec[1][lo : lo + setup.ell].tolist() == model[1][lo : lo + setup.ell].tolist()

    @pytest.mark.parametrize("q", [127, 2**61 - 1])
    @pytest.mark.parametrize("kind", ["short", "wide", "ragged", "short_scores"])
    def test_malformed_inputs_rejected(self, kind, q):
        fp, model, states, setup = build_session(1, q=q)
        query = build_query(1, 1, fp, setup.ell, 3, CounterNoise(15))
        ell = setup.ell
        deltas = [[1] * ell for _ in range(5)]
        scores = [5, 4, 3, 2, 1]
        if kind == "short":
            deltas = deltas[:2]
        elif kind == "wide":
            deltas = [[1] * (ell + 1) for _ in range(5)]
        elif kind == "ragged":
            deltas[2] = [1] * (ell + 1)
        else:
            scores = scores[:3]
        message = {"short": "updates for 5 subpackets", "wide": f"{ell} updates for subpacket 1",
                   "ragged": f"{ell} updates for subpacket 3", "short_scores": "5 scores"}[kind]
        with pytest.raises(DomainError, match=message):
            topr.write_sparse(deltas, scores, Fraction(2, 5), setup, states, query,
                              CounterNoise(16))
        assert np.array_equal(reconstruct_plain(states), model)

    @pytest.mark.parametrize("case", [1, 2])
    def test_numpy_integer_deltas_on_the_object_path(self, case):
        # numpy int64 update values at q = 2^61 - 1 write as their Python ints
        q = 2**61 - 1
        fp, model, states, setup = build_session(case, q=q)
        query = build_query(case, 1, fp, setup.ell, 3, CounterNoise(17))
        deltas = [[np.int64(2**60 + 2 * s + j) for j in range(setup.ell)] for s in range(5)]
        _, chosen = topr.write_sparse(deltas, [10, 0, 0, 9, 0], Fraction(2, 5), setup, states,
                                      query, CounterNoise(18))
        assert chosen == [1, 4]
        expect = model.copy()
        for s in chosen:
            for j in range(setup.ell):
                pos = (s - 1) * setup.ell + j
                expect[0][pos] = (expect[0][pos] + int(deltas[s - 1][j])) % q
        assert np.array_equal(reconstruct_plain(states), expect)

    def test_duplicate_positions_rejected(self):
        fp, model, states, setup = build_session(1)
        query = build_query(1, 1, fp, setup.ell, 3, CounterNoise(0))
        with pytest.raises(ProtocolError):
            topr.apply_sparse_write(states, setup, query, [3, 3], [[1] * 10, [2] * 10])

    def test_payload_needs_a_symbol_per_database(self):
        fp, model, states, setup = build_session(1)
        query = build_query(1, 1, fp, setup.ell, 3, CounterNoise(0))
        for symbols in ([[1] * 9, [2] * 9], [[1] * 10]):
            with pytest.raises(ProtocolError, match="one symbol per position and database"):
                topr.apply_sparse_write(states, setup, query, [3, 4], symbols)
        assert np.array_equal(reconstruct_plain(states), model)


class TestPositionPrivacy:
    def test_permuted_positions_uniform_over_subsets(self):
        # chi-square over all C(5,2) subsets at significance 0.01; each trial
        # draws its permutation as a session does, one per seed for both sets
        from scipy.stats import chi2

        from pruw.storage import topr_subpacketization

        p, size, trials, case = 5, 2, 20_000, 1
        ell = topr_subpacketization(10, case)
        fp = allocate_eval_points(10, ell, 127)
        subsets = list(combinations(range(1, p + 1), size))
        index = {s: i for i, s in enumerate(subsets)}
        true_sets = ((1, 4), (2, 3))
        counts = {true_set: [0] * len(subsets) for true_set in true_sets}
        for seed in range(trials):
            setup = topr.coordinator_setup(p, ell, case, fp, CounterNoise(seed).derive("perm"))
            for true_set in true_sets:
                counts[true_set][index[tuple(setup.permuted_set(true_set))]] += 1
        expected = trials / len(subsets)
        for true_set in true_sets:
            stat = sum((c - expected) ** 2 / expected for c in counts[true_set])
            assert stat < chi2.ppf(0.99, df=len(subsets) - 1), (true_set, stat)


class TestCosts:
    def test_degenerate(self):
        c = topr.costs_topr(10, 1, 5, 0, 0, 1)
        assert c.read == 0 and c.write == 0

    def test_case1_symbolic(self):
        r = Fraction(1, 4)
        c = topr.costs_topr(10, 25, 5, r, r, 1)
        lam = 2  # log_5 25
        assert c.write == 4 * r * (1 + lam) / (1 - Fraction(2, 10))

    def test_case1_read_form(self):
        rp = Fraction(1, 5)
        c = topr.costs_topr(10, 25, 5, Fraction(1, 5), rp, 1)
        expected = (4 * rp + Fraction(4, 10) * (1 + rp) * 2) / (1 - Fraction(2, 10))
        assert c.read == expected

    def test_case2_denominators(self):
        r = rp = Fraction(1, 5)
        c = topr.costs_topr(10, 25, 5, r, rp, 2)
        assert c.read == (2 * rp + Fraction(2, 10) * (1 + rp) * 2) / (1 - Fraction(4, 10))
        assert c.write == 2 * r * (1 + 2) / (1 - Fraction(4, 10))
        assert c.read_alt == (2 * rp + Fraction(2, 10) * (1 + rp) * 2) / (1 - Fraction(2, 10))
        assert c.write_alt == 2 * r * (1 + 2) / (1 - Fraction(2, 10))

    def test_metered_equals_analytic_when_log_integral(self):
        for case in (1, 2):
            a = topr.costs_topr(10, 25, 5, Fraction(1, 5), Fraction(1, 5), case)
            m = topr.costs_topr_metered(10, 25, 5, Fraction(1, 5), Fraction(1, 5), case)
            assert m.read == a.read
            assert m.write == a.write

    def test_fractional_log_float_path(self):
        c = topr.costs_topr(10, 30, 5, Fraction(1, 5), Fraction(1, 5), 1)
        assert isinstance(c.read, float)
        assert abs(c.read - (4 * 0.2 + 0.4 * 1.2 * math.log(30, 5)) / 0.8) < 1e-12

    # repr of each cost at a fractional log_5 P, pinned before the float and
    # Fraction forms shared one formula: (case, P, r, r') -> costs
    FLOAT_COSTS = {
        (1, 26, "1/5", "1/5"): (2.214621519544285, 3.0243691992404753),
        (1, 26, "1/5", "1/3"): (3.016246132826983, 3.0243691992404753),
        (1, 26, "1/3", "1/5"): (2.214621519544285, 5.040615332067459),
        (1, 26, "1/3", "1/3"): (3.016246132826983, 5.040615332067459),
        (1, 30, "1/5", "1/5"): (2.267969651535627, 3.1132827525593787),
        (1, 30, "1/5", "1/3"): (3.075521835039585, 3.1132827525593787),
        (1, 30, "1/3", "1/5"): (2.267969651535627, 5.188804587598964),
        (1, 30, "1/3", "1/3"): (3.075521835039585, 5.188804587598964),
        (1, 64, "1/5", "1/5"): (2.5504356090642153, 3.5840593484403582),
        (1, 64, "1/5", "1/3"): (3.389372898960239, 3.5840593484403582),
        (1, 64, "1/3", "1/5"): (2.5504356090642153, 5.973432247400597),
        (1, 64, "1/3", "1/3"): (3.389372898960239, 5.973432247400597),
        (2, 26, "1/5", "1/5"): (1.4764143463628567, 2.0162461328269834,
                                1.1073107597721425, 1.5121845996202377),
        (2, 26, "1/5", "1/3"): (2.0108307552179885, 2.0162461328269834,
                                1.5081230664134917, 1.5121845996202377),
        (2, 26, "1/3", "1/5"): (1.4764143463628567, 3.360410221378306,
                                1.1073107597721425, 2.5203076660337294),
        (2, 26, "1/3", "1/3"): (2.0108307552179885, 3.360410221378306,
                                1.5081230664134917, 2.5203076660337294),
        (2, 30, "1/5", "1/5"): (1.511979767690418, 2.0755218350395856,
                                1.1339848257678136, 1.5566413762796893),
        (2, 30, "1/5", "1/3"): (2.0503478900263903, 2.0755218350395856,
                                1.5377609175197928, 1.5566413762796893),
        (2, 30, "1/3", "1/5"): (1.511979767690418, 3.4592030583993094,
                                1.1339848257678136, 2.594402293799482),
        (2, 30, "1/3", "1/3"): (2.0503478900263903, 3.4592030583993094,
                                1.5377609175197928, 2.594402293799482),
        (2, 64, "1/5", "1/5"): (1.7002904060428101, 2.389372898960239,
                                1.2752178045321074, 1.7920296742201791),
        (2, 64, "1/5", "1/3"): (2.259581932640159, 2.389372898960239,
                                1.6946864494801193, 1.7920296742201791),
        (2, 64, "1/3", "1/5"): (1.7002904060428101, 3.982288164933731,
                                1.2752178045321074, 2.9867161237002984),
        (2, 64, "1/3", "1/3"): (2.259581932640159, 3.982288164933731,
                                1.6946864494801193, 2.9867161237002984),
    }

    @pytest.mark.parametrize("case, p, r, r_prime", list(FLOAT_COSTS))
    def test_float_costs_pinned(self, case, p, r, r_prime):
        c = topr.costs_topr(10, p, 5, Fraction(r), Fraction(r_prime), case)
        got = (c.read, c.write) if case == 1 else (c.read, c.write, c.read_alt, c.write_alt)
        assert [repr(x) for x in got] == [repr(x) for x in self.FLOAT_COSTS[case, p, r, r_prime]]

    def test_position_symbols(self):
        assert topr.position_symbols(25, 5) == 2
        assert topr.position_symbols(26, 5) == 3
        assert topr.position_symbols(1, 5) == 0
        assert topr.position_symbols(5, 127) == 1
