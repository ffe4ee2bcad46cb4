"""Basic scheme: parameters, queries, decoding, write rounds, costs."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from pruw import basic
from pruw.cli import main
from pruw.errors import ConfigError, DomainError
from pruw.field import CounterNoise, ZeroNoise, allocate_eval_points, kernel_dtype
from pruw.poly import lagrange_interpolate, poly_degree
from pruw.storage import draw_model, init_basic, reconstruct_plain, write_factors


def apply_updates_oracle(model, theta, deltas_flat, q):
    """Plain-arithmetic reference for what a write must do to the model."""
    out = model.copy()
    for pos, d in enumerate(deltas_flat[: model.shape[1]]):
        out[theta - 1][pos] = (out[theta - 1][pos] + d) % q
    return out


def null_shaper_factor(fp, skip_set, f, n):
    """Reference: prod_r (a_r - a_n) / prod_r (a_r - f) over the 1-based
    database indices in ``skip_set``, for one bit constant and one database;
    1 for an empty skip set."""
    q = fp.q
    num, den = 1, 1
    for r in skip_set:
        num = num * (fp.alpha(r) - fp.alpha(n)) % q
        den = den * (fp.alpha(r) - f) % q
    return num * fp.field.inv(den) % q


def check_write_factors(fp, fs, skip):
    """write_factors entry by entry against the null-shaper definition, times
    (f - alpha_n); zero rows exactly on the skip set."""
    factors = write_factors(fp, fs, skip)
    assert factors.shape == (fp.n_databases, len(fs))
    assert factors.dtype == kernel_dtype(fp.q)
    rows = factors.tolist()
    for n, row in enumerate(rows, start=1):
        assert row == [null_shaper_factor(fp, skip, f, n) * (f - fp.alpha(n)) % fp.q for f in fs]
    assert [n for n, row in enumerate(rows, start=1) if not any(row)] == sorted(skip)
    assert all(all(row) for n, row in enumerate(rows, start=1) if n not in skip)
    assert not factors.flags.writeable
    with pytest.raises(ValueError):
        factors[0, 0] = 1


def build_session(n, q, m_count=2, length=None, seed=0):
    params = basic.optimal_params(n)
    length = length if length is not None else 4 * params.ell
    fp = allocate_eval_points(n, params.ell, q)
    model = draw_model(m_count, length, q, seed)
    states = init_basic(model, fp, params.t_storage, params.t_query, CounterNoise(seed + 1))
    return params, fp, model, states


class TestParams:
    def test_optimal_examples(self):
        p4 = basic.optimal_params(4)
        assert (p4.t_storage, p4.ell, p4.skip_count) == (2, 1, 0)
        p10 = basic.optimal_params(10)
        assert (p10.t_storage, p10.ell, p10.skip_count) == (5, 4, 0)
        p5 = basic.optimal_params(5)
        assert (p5.t_storage, p5.ell, p5.skip_count) == (3, 1, 1)
        assert p5.skip_set == (1,)

    def test_too_few_databases(self):
        with pytest.raises(ConfigError):
            basic.optimal_params(3)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_budget_below_four_databases(self, n, tmp_path, capsys):
        # t_query, t_update >= 1 force n <= 2 * t_storage <= 2n - 4
        for t1, t2, t3 in itertools.product(range(1, 2 * n + 3), repeat=3):
            with pytest.raises(ConfigError):
                basic.BasicParams(n=n, t_storage=t1, t_query=t2, t_update=t3)
        for overrides in ("t1=1\n", "t2=1\nt3=1\n", f"t1={n}\nt2=1\nt3=1\n"):
            cfg = tmp_path / "cfg"
            cfg.write_text(f"scheme=basic\nn={n}\nm=2\nl=4\nq=127\n{overrides}")
            assert main(["run", "--config", str(cfg)]) == 2
            assert "the scheme needs at least 4 databases" in capsys.readouterr().err

    def test_bound_checks(self):
        with pytest.raises(ConfigError):
            basic.BasicParams(n=4, t_storage=1, t_query=1, t_update=1)
        with pytest.raises(ConfigError):
            basic.BasicParams(n=4, t_storage=3, t_query=1, t_update=1)
        basic.BasicParams(n=6, t_storage=4, t_query=1, t_update=1)  # non-optimal but valid


class TestReadQuery:
    def test_debug_mode_shape(self):
        params, fp, model, _ = build_session(4, 11, m_count=1)
        q = basic.build_read_query(1, params, fp, 1, ZeroNoise())
        for n in range(1, 5):
            inv = fp.field.inv(fp.fs[0] - fp.alpha(n))
            assert q[n - 1] == [[inv]]

    def test_theta_out_of_range(self):
        params, fp, _, _ = build_session(4, 11)
        with pytest.raises(DomainError):
            basic.build_read_query(0, params, fp, 2, CounterNoise(0))
        with pytest.raises(DomainError):
            basic.build_read_query(3, params, fp, 2, CounterNoise(0))

    def test_masks_shared_across_databases(self):
        # subtracting the data term leaves the same mask value everywhere
        # only when t_query == 1 (no alpha powers); check at n pairs
        params, fp, _, _ = build_session(4, 127)
        q = basic.build_read_query(2, params, fp, 2, CounterNoise(1))
        masks = []
        for n in range(1, 5):
            inv = fp.field.inv(fp.fs[0] - fp.alpha(n))
            masks.append((q[n - 1][0][1] - inv) % 127)
        assert len(set(masks)) == 1


class TestReadRoundTrip:
    def test_zero_noise_answer_formula(self):
        # with all noise off the answer is exactly W / (f1 - alpha)
        n, q = 4, 11
        params = basic.optimal_params(n)
        fp = allocate_eval_points(n, params.ell, q)
        model = draw_model(1, 2, q, 3)
        states = init_basic(model, fp, 2, 1, ZeroNoise())
        query = basic.build_read_query(1, params, fp, 1, ZeroNoise())
        for st in states:
            a = basic.answer_read(st, query, 0)
            inv = fp.field.inv(fp.fs[0] - fp.alpha(st.db_index))
            assert a == model[0][0] * inv % q

    def test_plant_and_recover(self):
        for n, q in ((4, 11), (5, 127), (10, 127)):
            params, fp, model, states = build_session(n, q)
            for theta in (1, 2):
                query = basic.build_read_query(theta, params, fp, 2, CounterNoise(7))
                decoded = []
                for s in range(states[0].subpackets):
                    answers = [basic.answer_read(st, query, s) for st in states]
                    decoded.extend(basic.decode_answers(fp, params, answers))
                assert decoded[: model.shape[1]] == model[theta - 1].tolist()

    def test_decode_system_is_n_by_n(self):
        params = basic.optimal_params(10)
        assert params.ell + params.t_storage + params.t_query == 10

    def test_shape_mismatch(self):
        params, fp, model, states = build_session(4, 11)
        other_params, other_fp, _, _ = build_session(6, 127)
        query = basic.build_read_query(1, other_params, other_fp, 2, CounterNoise(0))
        with pytest.raises(DomainError):
            basic.answer_read(states[0], query, 0)


class TestWriteRound:
    def test_zero_delta_zero_noise_is_identity(self):
        params, fp, model, states = build_session(4, 11)
        query = basic.build_read_query(1, params, fp, 2, CounterNoise(0))
        basic.write_round([0] * states[0].length, params, fp, query, states, ZeroNoise())
        assert np.array_equal(reconstruct_plain(states), model)

    def test_random_write_matches_oracle(self):
        rng = random.Random(9)
        noise = CounterNoise(9)
        params, fp, model, states = build_session(4, 11, m_count=2)
        theta = 2
        query = basic.build_read_query(theta, params, fp, 2, noise)
        deltas = [rng.randrange(11) for _ in range(states[0].length)]
        basic.write_round(deltas, params, fp, query, states, noise)
        assert np.array_equal(reconstruct_plain(states),
                              apply_updates_oracle(model, theta, deltas, 11))

    def test_null_shaper_zero_on_skip_set(self):
        # the int64 kernel dtype and, above its bound, object arrays
        for q, n in itertools.product((127, 2**61 - 1), range(4, 13)):
            fp = allocate_eval_points(n, n, q)
            # basic: every valid t_storage with t_query = t_update = 1, so
            # skip sets of every size from 0 (or 1) up to N - 4
            for t_storage in range((n + 1) // 2, n - 1):
                params = basic.BasicParams(n=n, t_storage=t_storage, t_query=1, t_update=1)
                check_write_factors(fp, fp.fs[: params.ell], params.skip_set)
            # random: odd N, case 2 skips the last database
            check_write_factors(fp, fp.fs[: n // 2], (n,) if n % 2 else ())
            # top-r: no skip set
            check_write_factors(fp, fp.fs[: n // 2 - 1], ())

    @pytest.mark.parametrize("q", [127, 2**61 - 1])
    def test_wrong_length_delta_vector_rejected(self, q):
        # a padded block (L = 7, ell = 2): the deltas span the real length
        params, fp, model, states = build_session(6, q, length=7)
        query = basic.build_read_query(1, params, fp, 2, CounterNoise(0))
        length, padded = states[0].length, states[0].padded_length
        assert (length, padded) == (7, 8)
        vectors = (np.ones(padded, dtype=kernel_dtype(q)),  # too long: the padded length
                   [1] * (length - 1),  # too short
                   np.ones((1, length), dtype=kernel_dtype(q)),  # 2-D
                   [[1] * params.ell for _ in range(states[0].subpackets)])  # per-subpacket
        for deltas in vectors:
            with pytest.raises(DomainError, match=f"expected {length} deltas"):
                basic.write_round(deltas, params, fp, query, states, CounterNoise(1))
        assert np.array_equal(reconstruct_plain(states), model)

    @pytest.mark.parametrize("q", [127, 2**61 - 1])
    def test_padded_block_write_matches_oracle(self, q):
        # storage pads the real-length deltas; the padding cells stay zero
        rng = random.Random(5)
        params, fp, model, states = build_session(6, q, length=7)
        query = basic.build_read_query(2, params, fp, 2, CounterNoise(5))
        deltas = [rng.randrange(q) for _ in range(7)]
        basic.write_round(deltas, params, fp, query, states, CounterNoise(6))
        assert np.array_equal(reconstruct_plain(states), apply_updates_oracle(model, 2, deltas, q))

    def test_numpy_integer_deltas_on_the_object_path(self):
        # numpy int64 update values at q = 2^61 - 1 write as their Python ints
        q = 2**61 - 1
        params, fp, model, states = build_session(6, q)
        twins = build_session(6, q)[3]
        query = basic.build_read_query(1, params, fp, 2, CounterNoise(0))
        values = [2**60 + k for k in range(states[0].length)]
        basic.write_round(values, params, fp, query, states, CounterNoise(1))
        basic.write_round([np.int64(v) for v in values], params, fp, query, twins,
                          CounterNoise(1))
        assert [st.cells.tolist() for st in twins] == [st.cells.tolist() for st in states]
        assert np.array_equal(reconstruct_plain(twins), apply_updates_oracle(model, 1, values, q))

    def test_skipped_database_unchanged_but_updated(self):
        # odd N: database 1 gets no payload and its cells stay bit-identical,
        # yet the reconstructed model carries the update
        rng = random.Random(11)
        noise = CounterNoise(11)
        params, fp, model, states = build_session(5, 127)
        theta = 1
        query = basic.build_read_query(theta, params, fp, 2, noise)
        before = [row for block in states[0].cells.tolist() for row in block]
        deltas = [rng.randrange(127) for _ in range(states[0].length)]
        basic.write_round(deltas, params, fp, query, states, noise)
        after = [row for block in states[0].cells.tolist() for row in block]
        assert before == after
        assert np.array_equal(reconstruct_plain(states),
                              apply_updates_oracle(model, theta, deltas, 127))

    def test_increment_has_storage_shape(self):
        # interpolating the written increment across databases gives degree
        # <= t_storage and value delta at the bit constant
        rng = random.Random(13)
        noise = CounterNoise(13)
        params, fp, model, states = build_session(6, 127)
        theta = 1
        query = basic.build_read_query(theta, params, fp, 2, noise)
        snapshot = [st.cells.tolist() for st in states]
        deltas = [rng.randrange(127) for _ in range(states[0].length)]
        basic.write_round(deltas, params, fp, query, states, noise)
        s = 0
        for k in range(params.ell):
            for m in range(2):
                incr = [
                    (st.cells[s][k][m] - snapshot[i][s][k][m]) % 127
                    for i, st in enumerate(states)
                ]
                coeffs = lagrange_interpolate(fp.field, list(fp.alphas), incr)
                assert poly_degree(coeffs) <= params.t_storage
                expected = deltas[s * params.ell + k] if (m + 1) == theta else 0
                assert fp.field.poly_eval(coeffs, fp.fs[k]) == expected

    def test_other_submodels_untouched(self):
        rng = random.Random(17)
        noise = CounterNoise(17)
        params, fp, model, states = build_session(4, 127, m_count=3)
        query = basic.build_read_query(2, params, fp, 3, noise)
        deltas = [rng.randrange(127) for _ in range(states[0].length)]
        basic.write_round(deltas, params, fp, query, states, noise)
        rec = reconstruct_plain(states)
        assert rec[0].tolist() == model[0].tolist()
        assert rec[2].tolist() == model[2].tolist()

    def test_three_iround_trips(self):
        rng = random.Random(23)
        noise = CounterNoise(23)
        params, fp, model, states = build_session(6, 127, m_count=3)
        oracle = model.copy()
        for theta in (1, 3, 2):
            query = basic.build_read_query(theta, params, fp, 3, noise)
            decoded = []
            for s in range(states[0].subpackets):
                answers = [basic.answer_read(st, query, s) for st in states]
                decoded.extend(basic.decode_answers(fp, params, answers))
            assert decoded[: oracle.shape[1]] == oracle[theta - 1].tolist()
            deltas = [rng.randrange(127) for _ in range(states[0].length)]
            basic.write_round(deltas, params, fp, query, states, noise)
            oracle = apply_updates_oracle(oracle, theta, deltas, 127)
            assert np.array_equal(reconstruct_plain(states), oracle)


class TestCosts:
    def test_theorem_values(self):
        assert basic.costs_basic(10)[:2] == (Fraction(5, 2), Fraction(5, 2))
        assert basic.costs_basic(5)[:2] == (Fraction(5, 1), Fraction(4, 1))
        assert basic.costs_basic(4)[:2] == (Fraction(4, 1), Fraction(4, 1))
        assert basic.costs_basic(11)[:2] == (Fraction(11, 4), Fraction(5, 2))

    def test_even_odd_closed_forms(self):
        for n in range(4, 30):
            c_r, c_w, _ = basic.costs_basic(n)
            if n % 2 == 0:
                assert c_r == 2 / (1 - Fraction(2, n))
                assert c_w == 2 / (1 - Fraction(2, n))
            else:
                assert c_r == 2 / (1 - Fraction(3, n))
                assert c_w == (2 - Fraction(2, n)) / (1 - Fraction(3, n))

    def test_asymptote(self):
        n = 10**6
        c_r, c_w, _ = basic.costs_basic(n)
        assert abs(float(c_r) - 2) < 1e-5
        assert abs(float(c_w) - 2) < 1e-5

    def test_general_params_formula(self):
        p = basic.BasicParams(n=8, t_storage=5, t_query=1, t_update=2)
        c_r, c_w, c_t = basic.costs_basic_general(p)
        assert c_r == Fraction(8, p.ell)
        assert c_w == Fraction(8 - p.skip_count, p.ell)
        assert c_t == c_r + c_w
