"""Random sparsification: optimizer, cyclic layout, reads/writes, costs."""

import random
from fractions import Fraction

import numpy as np
import pytest

from pruw import random_sparse as rs
from pruw.config import parse_config_text
from pruw.errors import ConfigError
from pruw.field import CounterNoise, allocate_eval_points
from pruw.harness import Session, run_session
from pruw.storage import draw_model, reconstruct_plain

from plans import fixture_plan


def region_session(n, ell_r, ell_w, length, q=127, m_count=2, seed=0):
    plan = fixture_plan(n, ell_r, ell_w)
    spec = plan.regions[0]
    fp = allocate_eval_points(n, spec.y, q)
    model = draw_model(m_count, length, q, seed)
    region = rs.realize_regions(plan, length, CounterNoise(seed + 2))[0]
    states = rs.init_region_states(model, fp, region, CounterNoise(seed + 1))
    return plan, spec, fp, model, region, states


class TestPatternConstants:
    def test_wraparound(self):
        # the second reading subpacket of the (6, 8) layout wraps past f_8:
        # f_7, f_8, f_1, f_2, f_3, f_4
        assert rs._pattern_fs(allocate_eval_points(6, 8, 127), 2, 6, 8) == (7, 8, 1, 2, 3, 4)


class TestOptimizer:
    def test_integral_budget(self):
        plan = rs.optimize_plan(10, Fraction(1, 5), Fraction(1, 5))
        assert plan.read_segments == (rs.PhaseSegment(Fraction(1), 5),)
        assert plan.regions[0].case == 2

    def test_split_budget(self):
        plan = rs.optimize_plan(10, Fraction(1, 10), Fraction(1, 10))
        assert plan.read_segments == (
            rs.PhaseSegment(Fraction(1, 2), 4),
            rs.PhaseSegment(Fraction(1, 2), 5),
        )
        cr, cw = rs.costs_random(10, plan)
        assert cr == cw == Fraction(9, 4)
        closed = rs.costs_random_closed_form(10, Fraction(1, 10), Fraction(1, 10))
        assert closed == (Fraction(9, 4), Fraction(9, 4))

    def test_zero_budget_reduces_to_dense(self):
        plan = rs.optimize_plan(10, 0, 0)
        assert plan.read_segments == (rs.PhaseSegment(Fraction(1), 4),)
        assert rs.costs_random(10, plan) == (Fraction(5, 2), Fraction(5, 2))

    def test_budget_bounds(self):
        with pytest.raises(ConfigError):
            rs.optimize_plan(10, Fraction(1), 0)
        with pytest.raises(ConfigError):
            rs.optimize_plan(10, 0, Fraction(-1, 10))

    def test_budget_is_met_with_equality_on_split(self):
        plan = rs.optimize_plan(10, Fraction(1, 10), Fraction(1, 10))
        d = sum(seg.lam * Fraction(seg.ell - 4, seg.ell) for seg in plan.read_segments)
        assert d == Fraction(1, 10)

    def test_mixed_budgets_odd_n(self):
        plan = rs.optimize_plan(11, 0, Fraction(1, 4))
        assert [(r.ell_r, r.ell_w, r.case) for r in plan.regions] == [
            (4, 4, 1),
            (4, 6, 1),
        ]
        assert rs.costs_random(11, plan) == rs.costs_random_closed_form(11, 0, Fraction(1, 4))

    def test_odd_n_closed_forms(self):
        cr, cw = rs.costs_random_closed_form(11, Fraction(1, 4), 0)
        assert cr == 2 / (1 - Fraction(3, 11)) * Fraction(3, 4)
        assert cw == (2 - Fraction(2, 11)) / (1 - Fraction(3, 11))

    def test_lambda_weighted_equals_closed_form_on_grid(self):
        for n in (4, 6, 10, 11, 13):
            for num in range(0, 8):
                d = Fraction(num, 10)
                plan = rs.optimize_plan(n, d, d)
                assert rs.costs_random(n, plan) == rs.costs_random_closed_form(n, d, d)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_region_shapes_are_what_storage_assumes(self, n):
        # storage builds a region's cells from its spec unchecked: both ells
        # at least base >= 1, case 1 only when ell_w >= ell_r, case 2 only
        # when ell_r >= ell_w
        budgets = [Fraction(0), Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]
        base = rs.correct_bits(n)
        plans = [rs.optimize_plan(n, d_read, d_write) for d_read in budgets for d_write in budgets]
        plans += [fixture_plan(n, ell_r, ell_w)
                  for ell_r in range(base, base + 4) for ell_w in range(base, base + 4)]
        for plan in plans:
            assert plan.base == base >= 1
            for spec in plan.regions:
                assert min(spec.ell_r, spec.ell_w) >= plan.base
                assert spec.case in (1, 2)
                if spec.case == 1:
                    assert spec.ell_w >= spec.ell_r
                else:
                    assert spec.ell_r >= spec.ell_w

    def test_fixture_plans_are_what_storage_assumes(self):
        # the explicit shapes the protocol tests pin
        for n, ell_r, ell_w, case in ((6, 6, 8, 1), (6, 2, 3, 1), (10, 6, 4, 2), (11, 6, 4, 2),
                                      (10, 4, 4, 2)):
            [spec] = fixture_plan(n, ell_r, ell_w).regions
            assert (spec.ell_r, spec.ell_w, spec.case) == (ell_r, ell_w, case)
            assert min(ell_r, ell_w) >= rs.correct_bits(n) >= 1
        with pytest.raises(ConfigError, match="outside"):
            fixture_plan(10, 3, 4)  # below base = 4: a negative budget

    def test_fixture_plans_have_one_region_on_the_grid(self):
        for n in range(4, 25):
            base = rs.correct_bits(n)
            for ell_r in range(base, base + 8):
                for ell_w in range(base, base + 8):
                    plan = fixture_plan(n, ell_r, ell_w)
                    case = rs._region_case(ell_r, ell_w, plan.d_read, plan.d_write)
                    assert plan.regions == (rs.RegionSpec(Fraction(1), ell_r, ell_w, case),)


def realized_states(plan, length, q=127, seed=0):
    """Each realized region with its states, built from the model slice."""
    fp = allocate_eval_points(plan.n, max(r.y for r in plan.regions), q)
    model = draw_model(1, length, q, seed)
    return [(reg, rs.init_region_states(model, fp, reg, CounterNoise(seed)))
            for reg in rs.realize_regions(plan, length, CounterNoise(seed))]


class TestPlanRealization:
    def test_single_region(self):
        plan = fixture_plan(6, 6, 8)
        [(reg, states)] = realized_states(plan, 48)
        assert reg.real_bits == states[0].length == 48
        assert states[0].padded_length == 48

    def test_split_alignment(self):
        plan = rs.optimize_plan(10, Fraction(1, 10), Fraction(1, 10))
        blocks = realized_states(plan, 40)
        assert [(r.real_bits, st[0].length, st[0].padded_length) for r, st in blocks] == [
            (20, 20, 20), (20, 20, 20)]

    def test_padding_lands_in_first_region(self):
        plan = rs.optimize_plan(10, Fraction(1, 10), Fraction(1, 10))
        (first, first_states), (second, second_states) = realized_states(plan, 37)
        assert second.real_bits % second.spec.period == 0
        assert second_states[0].padded_length == second_states[0].length == second.real_bits
        assert first_states[0].length == first.real_bits
        assert first_states[0].padded_length % first.spec.period == 0
        assert first_states[0].padded_length > first.real_bits
        assert first.real_bits + second.real_bits == 37 and second.start == first.real_bits

    def test_bit_sets_are_drawn_by_block_and_phase(self):
        # block idx's read (write) J sets lead the rows of one direct draw
        # under (idx, "read" | "write"), sorted and 1-based; the tail too
        plan = rs.optimize_plan(10, Fraction(1, 4), Fraction(1, 5))
        regions = rs.realize_regions(plan, 97, CounterNoise(4))
        assert len(regions) == 3
        for idx, reg in enumerate(regions):
            for phase, ell, patterns, sets in (
                    ("read", reg.spec.ell_r, reg.spec.read_patterns, reg.j_read),
                    ("write", reg.spec.ell_w, reg.spec.write_patterns, reg.j_write)):
                orders = CounterNoise(4).orders(ell, patterns, idx, phase)
                assert sets == tuple(tuple(sorted(i + 1 for i in row[:plan.base]))
                                     for row in orders)

    def test_super_subpacket_periodicity(self):
        # the f-assignment of reading subpacket s + gamma_r equals that of s
        spec = fixture_plan(6, 6, 8).regions[0]
        gamma_r = spec.period // spec.ell_r
        assert gamma_r == 4
        fp = allocate_eval_points(6, 8, 127)
        for s in range(1, 5):
            fs_a = rs._pattern_fs(fp, s, 6, 8)
            fs_b = rs._pattern_fs(fp, s + gamma_r, 6, 8)
            assert fs_a == fs_b


class TestRemainder:
    def test_tail_is_whole_and_moves_no_region(self):
        # a distortive first region (ell 4/5): the 17 bits left over form a
        # zero-distortion tail, and the regions keep the J sets they have at
        # the aligned length
        plan = rs.optimize_plan(10, Fraction(1, 4), Fraction(1, 5))
        aligned = rs.realize_regions(plan, 240, CounterNoise(7))  # the aligned length
        *regions, tail = rs.realize_regions(plan, 97, CounterNoise(7))
        assert [(r.start, r.real_bits) for r in regions] == [(0, 20), (20, 60)]
        assert (tail.spec, tail.start, tail.real_bits) == (
            rs.RegionSpec(Fraction(0), 4, 4, case=2), 80, 17)
        assert tail.j_read == tail.j_write == ((1, 2, 3, 4),)
        assert ([(r.j_read, r.j_write) for r in regions]
                == [(r.j_read, r.j_write) for r in aligned])

    def test_layout_is_what_realization_cuts(self):
        plan = rs.optimize_plan(10, Fraction(1, 4), Fraction(1, 5))
        assert rs.region_layout(plan, 97) == [
            (r.spec, r.start, r.real_bits) for r in rs.realize_regions(plan, 97, CounterNoise(7))]

    def test_oversized_queries_refused_before_the_j_sets_are_drawn(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("J sets were drawn for a config over the bound")

        monkeypatch.setattr(CounterNoise, "orders", no_draw)
        cfg = parse_config_text("scheme=random\nn=10\nl=64\nd_read=999/1000\nd_write=997/1000\n")
        with pytest.raises(ConfigError, match="need 53600160 one-time query symbols"):
            rs.RandomScheme(cfg)

    def test_l2000_stays_in_budget(self):
        res = run_session(parse_config_text(
            "scheme=random\nn=10\nl=2000\nd_read=1/3\nd_write=1/5\n"))
        [it] = res.iterations
        assert res.verdict
        assert (it.distortion.read_measured, it.distortion.pad_bits) == (Fraction(33, 100), 0)
        assert [(r["ell_r"], r["ell_w"], r["real_bits"]) for r in it.detail["regions"]] == [
            (6, 5, 1980), (4, 4, 20)]

    def test_l2000_costs_are_exact(self):
        # the unaligned L meters the realized blocks, not the lambda-weighted
        # (5/3, 2): 10 * (330 + 5) read and 10 * (396 + 5) write subpackets
        session = Session(parse_config_text(
            "scheme=random\nn=10\nl=2000\nd_read=1/3\nd_write=1/5\n"))
        ledger = session.run_iteration().ledger
        assert session.scheme.costs() == (Fraction(67, 40), Fraction(401, 200))
        assert (ledger.c_read, ledger.c_write) == session.scheme.costs()


class TestCase1Protocol:
    def test_worked_layout_fixture(self):
        # reading subpacket 2 of the (6, 8) layout with J = {2, 5} touches
        # the constants f_8 and f_3
        fs = rs._pattern_fs(allocate_eval_points(6, 8, 127), 2, 6, 8)
        assert [fs[1], fs[4]] == [8, 3]

    def test_read_write_roundtrip(self):
        plan, spec, fp, model, region, states = region_session(6, 6, 8, 48)
        theta = 1
        rng = random.Random(3)
        noise = CounterNoise(3)
        rq = rs.build_read_queries(theta, fp, region, 2, noise)
        positions, values = rs.region_read(fp, region, states, rq)
        assert len(positions) and all(model[0][pos] == v for pos, v in zip(positions, values))
        wq = rs.build_write_queries(theta, fp, region, 2, noise)
        deltas = [rng.randrange(127) for _ in range(48)]
        written = rs.region_write(deltas, fp, region, states, wq, noise)
        expect = model.copy()
        for pos in written:
            expect[0][pos] = (expect[0][pos] + deltas[pos]) % 127
        assert np.array_equal(reconstruct_plain(states), expect)

    def test_odd_n_reads_from_one_fewer_database(self):
        assert rs.read_databases(11, 1) == list(range(1, 11))
        assert rs.read_databases(10, 1) == list(range(1, 11))
        assert rs.write_databases(11, 1) == list(range(1, 12))


class TestCase2Protocol:
    def test_write_combine_worked_example(self):
        # writing subpacket 2 of the (6, 4) layout with J = {1, 3}: the
        # update combines at constants f_5 and f_1
        fp = allocate_eval_points(10, 6, 127)
        fs = rs._pattern_fs(fp, 2, 4, 6)
        assert [fs[0], fs[2]] == [5, 1]
        from pruw.poly import combine_update, delta_tilde

        d1, d3, z = 17, 42, 9
        (u,) = combine_update(fp.field, [d1, d3], [5, 1], [fp.alpha(2)], [z])
        alpha = fp.alpha(2)
        dt = delta_tilde(fp.field, [d1, d3], [5, 1])
        manual = (dt[0] * (1 - alpha) + dt[1] * (5 - alpha)
                  + (5 - alpha) * (1 - alpha) * z) % 127
        assert u == manual

    @pytest.mark.parametrize("n", [10, 11])
    def test_read_write_roundtrip(self, n):
        plan, spec, fp, model, region, states = region_session(n, 6, 4, 24)
        theta = 2
        rng = random.Random(5)
        noise = CounterNoise(5)
        rq = rs.build_read_queries(theta, fp, region, 2, noise)
        positions, values = rs.region_read(fp, region, states, rq)
        assert all(model[1][pos] == v for pos, v in zip(positions, values))
        wq = rs.build_write_queries(theta, fp, region, 2, noise)
        deltas = [rng.randrange(127) for _ in range(24)]
        written = rs.region_write(deltas, fp, region, states, wq, noise)
        expect = model.copy()
        for pos in written:
            expect[1][pos] = (expect[1][pos] + deltas[pos]) % 127
        assert np.array_equal(reconstruct_plain(states), expect)

    def test_odd_excluded_database_untouched(self):
        plan, spec, fp, model, region, states = region_session(11, 6, 4, 24)
        rng = random.Random(7)
        noise = CounterNoise(7)
        wq = rs.build_write_queries(1, fp, region, 2, noise)
        before = states[-1].cells.tolist()
        deltas = [rng.randrange(127) for _ in range(24)]
        written = rs.region_write(deltas, fp, region, states, wq, noise)
        assert states[-1].cells.tolist() == before
        # yet the reconstruction (which includes database N) carries the update
        expect = model.copy()
        for pos in written:
            expect[0][pos] = (expect[0][pos] + deltas[pos]) % 127
        assert np.array_equal(reconstruct_plain(states), expect)


@pytest.mark.parametrize("shape", [(6, 6, 8), (11, 6, 4)])
def test_numpy_integer_deltas_on_the_object_path(shape):
    # numpy int64 update values at q = 2^61 - 1 write as their Python ints
    q = 2**61 - 1
    n, ell_r, ell_w = shape
    plan, spec, fp, model, region, states = region_session(n, ell_r, ell_w, 24, q=q)
    noise = CounterNoise(8)
    wq = rs.build_write_queries(1, fp, region, 2, noise)
    deltas = [np.int64(2**60 + k) for k in range(24)]
    written = rs.region_write(deltas, fp, region, states, wq, noise)
    assert len(written)
    expect = model.copy()
    for pos in written:
        expect[0][pos] = (expect[0][pos] + int(deltas[pos])) % q
    assert np.array_equal(reconstruct_plain(states), expect)


class TestDistortion:
    def test_structural_distortion_formula(self):
        # measured distortion is (ell - base)/ell per phase, independent of
        # the planted values
        plan, spec, fp, model, region, states = region_session(10, 6, 4, 24)
        rng = random.Random(9)
        noise = CounterNoise(9)
        rq = rs.build_read_queries(1, fp, region, 2, noise)
        positions, _ = rs.region_read(fp, region, states, rq)
        assert Fraction(24 - len(positions), 24) == Fraction(6 - 4, 6)
        wq = rs.build_write_queries(1, fp, region, 2, noise)
        written = rs.region_write([0] * 24, fp, region, states, wq, noise)
        assert Fraction(24 - len(written), 24) == Fraction(4 - 4, 4)
