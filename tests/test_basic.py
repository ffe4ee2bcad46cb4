"""Basic scheme: parameters, queries, decoding, write rounds, costs."""

import random
from fractions import Fraction

import pytest

from pruw import basic
from pruw.errors import ConfigError, DomainError
from pruw.field import allocate_eval_points
from pruw.poly import lagrange_interpolate, poly_degree
from pruw.storage import ModelPlain, init_basic, reconstruct_plain


def apply_updates_oracle(model, theta, deltas_flat, q):
    """Plain-arithmetic reference for what a write must do to the model."""
    out = model.copy()
    for pos, d in enumerate(deltas_flat[: model.length]):
        out.values[theta - 1][pos] = (out.values[theta - 1][pos] + d) % q
    return out


def build_session(n, q, m_count=2, length=None, seed=0):
    params = basic.optimal_params(n)
    length = length if length is not None else 4 * params.ell
    fp = allocate_eval_points(n, params.ell, q)
    rng = random.Random(seed)
    model = ModelPlain.random(m_count, length, q, rng)
    states = init_basic(model, fp, params.t_storage, params.t_query, params.t_update,
                        seed=seed + 1)
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

    def test_bound_checks(self):
        with pytest.raises(ConfigError):
            basic.BasicParams(n=4, t_storage=1, t_query=1, t_update=1)
        with pytest.raises(ConfigError):
            basic.BasicParams(n=4, t_storage=3, t_query=1, t_update=1)
        basic.BasicParams(n=6, t_storage=4, t_query=1, t_update=1)  # non-optimal but valid


class TestReadQuery:
    def test_debug_mode_shape(self):
        params, fp, model, _ = build_session(4, 11, m_count=1)
        q = basic.build_read_query(1, params, fp, 1, random.Random(0), disable_noise=True)
        for n in range(1, 5):
            inv = fp.field.inv(fp.fs[0] - fp.alpha(n))
            assert q.block(n) == [[inv]]

    def test_theta_out_of_range(self):
        params, fp, _, _ = build_session(4, 11)
        with pytest.raises(DomainError):
            basic.build_read_query(0, params, fp, 2, random.Random(0))
        with pytest.raises(DomainError):
            basic.build_read_query(3, params, fp, 2, random.Random(0))

    def test_masks_shared_across_databases(self):
        # subtracting the data term leaves the same mask value everywhere
        # only when t_query == 1 (no alpha powers); check at n pairs
        params, fp, _, _ = build_session(4, 127)
        q = basic.build_read_query(2, params, fp, 2, random.Random(1))
        masks = []
        for n in range(1, 5):
            inv = fp.field.inv(fp.fs[0] - fp.alpha(n))
            masks.append((q.block(n)[0][1] - inv) % 127)
        assert len(set(masks)) == 1


class TestReadRoundTrip:
    def test_zero_noise_answer_formula(self):
        # with all noise off the answer is exactly W / (f1 - alpha)
        n, q = 4, 11
        params = basic.optimal_params(n)
        fp = allocate_eval_points(n, params.ell, q)
        model = ModelPlain.random(1, 2, q, random.Random(3))
        states = init_basic(model, fp, 2, 1, 1, seed=0, disable_noise=True)
        query = basic.build_read_query(1, params, fp, 1, random.Random(0), disable_noise=True)
        for st in states:
            a = basic.answer_read(st, query, 0)
            inv = fp.field.inv(fp.fs[0] - fp.alpha(st.db_index))
            assert a == model.values[0][0] * inv % q

    def test_plant_and_recover(self):
        for n, q in ((4, 11), (5, 127), (10, 127)):
            params, fp, model, states = build_session(n, q)
            for theta in (1, 2):
                query = basic.build_read_query(theta, params, fp, 2, random.Random(7))
                decoded = []
                for s in range(states[0].subpackets):
                    answers = [basic.answer_read(st, query, s) for st in states]
                    decoded.extend(basic.decode_answers(fp, params, answers))
                assert decoded[: model.length] == model.values[theta - 1]

    def test_decode_system_is_n_by_n(self):
        params = basic.optimal_params(10)
        assert params.ell + params.t_storage + params.t_query == 10

    def test_shape_mismatch(self):
        params, fp, model, states = build_session(4, 11)
        other_params, other_fp, _, _ = build_session(6, 127)
        query = basic.build_read_query(1, other_params, other_fp, 2, random.Random(0))
        with pytest.raises(DomainError):
            basic.answer_read(states[0], query, 0)


class TestWriteRound:
    def test_zero_delta_zero_noise_is_identity(self):
        params, fp, model, states = build_session(4, 11)
        query = basic.build_read_query(1, params, fp, 2, random.Random(0))
        deltas = [[0] * params.ell for _ in range(states[0].subpackets)]
        basic.write_round(deltas, 1, params, fp, query, states, random.Random(1),
                          disable_noise=True)
        assert reconstruct_plain(states) == model

    def test_random_write_matches_oracle(self):
        rng = random.Random(9)
        params, fp, model, states = build_session(4, 11, m_count=2)
        theta = 2
        query = basic.build_read_query(theta, params, fp, 2, rng)
        deltas = [[rng.randrange(11) for _ in range(params.ell)]
                  for _ in range(states[0].subpackets)]
        basic.write_round(deltas, theta, params, fp, query, states, rng)
        flat = [d for block in deltas for d in block]
        assert reconstruct_plain(states) == apply_updates_oracle(model, theta, flat, 11)

    def test_null_shaper_zero_on_skip_set(self):
        params, fp, _, _ = build_session(5, 127)
        assert params.skip_set == (1,)
        for k in range(1, params.ell + 1):
            assert basic.null_shaper_factor(fp, params.skip_set, fp.f(k), 1) == 0
            assert basic.null_shaper_factor(fp, params.skip_set, fp.f(k), 3) != 0

    def test_skipped_database_unchanged_but_updated(self):
        # odd N: database 1 gets no payload and its cells stay bit-identical,
        # yet the reconstructed model carries the update
        rng = random.Random(11)
        params, fp, model, states = build_session(5, 127)
        theta = 1
        query = basic.build_read_query(theta, params, fp, 2, rng)
        before = [row[:] for block in states[0].cells for row in block]
        deltas = [[rng.randrange(127) for _ in range(params.ell)]
                  for _ in range(states[0].subpackets)]
        basic.write_round(deltas, theta, params, fp, query, states, rng)
        after = [row[:] for block in states[0].cells for row in block]
        assert before == after
        flat = [d for block in deltas for d in block]
        assert reconstruct_plain(states) == apply_updates_oracle(model, theta, flat, 127)

    def test_increment_has_storage_shape(self):
        # interpolating the written increment across databases gives degree
        # <= t_storage and value delta at the bit constant
        rng = random.Random(13)
        params, fp, model, states = build_session(6, 127)
        theta = 1
        query = basic.build_read_query(theta, params, fp, 2, rng)
        snapshot = [[[row[:] for row in block] for block in st.cells] for st in states]
        deltas = [[rng.randrange(127) for _ in range(params.ell)]
                  for _ in range(states[0].subpackets)]
        basic.write_round(deltas, theta, params, fp, query, states, rng)
        s = 0
        for k in range(params.ell):
            for m in range(2):
                incr = [
                    (st.cells[s][k][m] - snapshot[i][s][k][m]) % 127
                    for i, st in enumerate(states)
                ]
                coeffs = lagrange_interpolate(fp.field, list(fp.alphas), incr)
                assert poly_degree(coeffs) <= params.t_storage
                expected = deltas[s][k] if (m + 1) == theta else 0
                assert fp.field.poly_eval(coeffs, fp.fs[k]) == expected

    def test_other_submodels_untouched(self):
        rng = random.Random(17)
        params, fp, model, states = build_session(4, 127, m_count=3)
        query = basic.build_read_query(2, params, fp, 3, rng)
        deltas = [[rng.randrange(127) for _ in range(params.ell)]
                  for _ in range(states[0].subpackets)]
        basic.write_round(deltas, 2, params, fp, query, states, rng)
        rec = reconstruct_plain(states)
        assert rec.values[0] == model.values[0]
        assert rec.values[2] == model.values[2]

    def test_write_requires_same_session_query(self):
        params, fp, model, states = build_session(4, 11)
        query = basic.build_read_query(1, params, fp, 2, random.Random(0))
        with pytest.raises(DomainError):
            basic.write_round([[0]] * states[0].subpackets, 2, params, fp, query,
                              states, random.Random(1))

    def test_three_iround_trips(self):
        rng = random.Random(23)
        params, fp, model, states = build_session(6, 127, m_count=3)
        oracle = model.copy()
        for theta in (1, 3, 2):
            query = basic.build_read_query(theta, params, fp, 3, rng)
            decoded = []
            for s in range(states[0].subpackets):
                answers = [basic.answer_read(st, query, s) for st in states]
                decoded.extend(basic.decode_answers(fp, params, answers))
            assert decoded[: oracle.length] == oracle.values[theta - 1]
            deltas = [[rng.randrange(127) for _ in range(params.ell)]
                      for _ in range(states[0].subpackets)]
            basic.write_round(deltas, theta, params, fp, query, states, rng)
            flat = [d for block in deltas for d in block]
            oracle = apply_updates_oracle(oracle, theta, flat, 127)
            assert reconstruct_plain(states) == oracle


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
