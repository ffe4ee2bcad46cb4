"""Privacy audits: exact distribution equality, controls, budget guards,
and the lane-batched laws against a per-draw reference."""

import itertools
import sys
from collections import Counter
from fractions import Fraction

import pytest

import pruw.audit
from pruw.audit import (
    _joint_law,
    _lanes,
    _Playback,
    _query_law,
    audit_positions,
    audit_query,
    audit_update,
    default_audit_suite,
    make_query_sampler,
)
from pruw.errors import ConfigError, InconclusiveError
from pruw.field import allocate_eval_points
from pruw.poly import combine_update


def per_draw_law(sampler, theta, q, k):
    """The reference law: one sampler call per draw vector of q**k."""
    return Counter(tuple(sampler(theta, _Playback(draw)))
                   for draw in itertools.product(range(q), repeat=k))


def per_draw_tvd(a, b):
    return Fraction(sum(abs(a[v] - b[v]) for v in a.keys() | b.keys()), 2 * sum(a.values()))


def draw_count(sampler, theta):
    probe = _Playback()
    sampler(theta, probe)
    return probe.taken


def partly_leaking(scheme, q, m_count, case=1):
    # the last coordinate is d0*d1 + theta, which is not uniform: d0*d1 = 0
    # with probability (2q - 1)/q^2, so theta shifts that mass
    def sample(theta, noise):
        d = noise.symbol(q, m_count, "mask")
        return d[2:] + [(d[0] * d[1] + theta) % q]
    return sample


SCHEMES = [("basic", 1), ("topr", 1), ("topr", 2), ("random", 1)]


class TestQueryAudit:
    def test_theta_hypotheses_indistinguishable(self):
        res = audit_query("basic", 1, 2, 3125, q=5)
        assert res.passed
        assert res.value == 0.0

    def test_random_scheme_query(self):
        res = audit_query("random", 1, 2, 3125, q=5)
        assert res.passed and res.value == 0.0

    def test_projection_set_documented(self):
        res = audit_query("topr", 1, 2, 3125, q=5)
        assert res.samples == 3125
        assert res.detail["support"] == 5**5

    def test_control_fails(self):
        res = audit_query("basic", 1, 2, 3125, q=5, disable_noise=True)
        assert not res.passed
        assert res.value == 1.0

    def test_large_field_rejected(self):
        with pytest.raises(ConfigError):
            audit_query("basic", 1, 2, 3125, q=13)

    def test_insufficient_samples_inconclusive(self):
        with pytest.raises(InconclusiveError):
            audit_query("basic", 1, 2, 500, q=5)

    def test_leak_only_in_joint_distribution(self, monkeypatch):
        # M-1 uniform coordinates and a last one that makes the sum theta:
        # every marginal and every pair is uniform, the joint law reveals theta
        def make_sampler(scheme, q, m_count, case=1):
            def sample(theta, rng):
                coords = rng.symbol(q, m_count - 1, "mask")
                return coords + [(theta - sum(coords)) % q]
            return sample

        monkeypatch.setattr(pruw.audit, "make_query_sampler", make_sampler)
        res = audit_query("basic", 1, 2, 3125, q=5)
        assert not res.passed
        assert res.value == 1.0

    def test_draw_count_depending_on_theta_inconclusive(self, monkeypatch):
        # a builder that draws one more symbol under theta=2 than the probe
        # (theta=1) counted would otherwise get zero padding and a wrong TVD
        def make_sampler(scheme, q, m_count, case=1):
            def sample(theta, noise):
                return noise.symbol(q, m_count - 2 + theta, "mask")[:m_count]
            return sample

        monkeypatch.setattr(pruw.audit, "make_query_sampler", make_sampler)
        with pytest.raises(InconclusiveError, match="drew 5 noise symbols under theta=2, but 4"):
            audit_query("basic", 1, 2, 3125, q=5)


class TestLanes:
    @pytest.mark.parametrize("q", [5, 3])
    @pytest.mark.parametrize("scheme, case", SCHEMES)
    def test_lane_law_matches_per_draw_reference(self, scheme, case, q):
        sampler = make_query_sampler(scheme, q, 5, case)
        k = draw_count(sampler, 1)
        lanes = _lanes(q, k, q ** k)
        for theta in (1, 2):
            assert _query_law(sampler, theta, lanes, q ** k) == per_draw_law(sampler, theta, q, k)

    @pytest.mark.parametrize("q", [5, 3])
    def test_update_law_matches_per_draw_reference(self, q):
        fp = allocate_eval_points(1, 1, q)
        for delta in (1, 3):
            def update(noise):
                return combine_update(fp.field, [delta % q], [1], fp.alphas, noise)
            reference = Counter(tuple(update([z])) for z in range(q))
            assert _joint_law(update(_lanes(q, 1, q)), q) == reference

    @pytest.mark.parametrize("q, expected", [(5, Fraction(1, 5)), (3, Fraction(1, 3))])
    def test_partial_leak_same_tvd_both_ways(self, monkeypatch, q, expected):
        sampler = partly_leaking("basic", q, 5)
        reference = per_draw_tvd(*(per_draw_law(sampler, theta, q, 5) for theta in (1, 2)))
        monkeypatch.setattr(pruw.audit, "make_query_sampler", partly_leaking)
        res = audit_query("basic", 1, 2, 3125, q=q)
        assert 0 < res.value < 1
        assert res.value == float(reference) == float(expected)

    def test_digits_in_product_order(self):
        lanes = _lanes(3, 3, 27)
        assert list(zip(*(lane.values for lane in lanes))) == list(
            itertools.product(range(3), repeat=3))
        assert [lane.values for lane in _lanes(3, 2, 1)] == [[0], [0]]

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_lanes_match_per_element_digits(self, q, k):
        for size in (1, q ** k):
            expected = [[x // q ** (k - 1 - i) % q for x in range(size)] for i in range(k)]
            assert [lane.values for lane in _lanes(q, k, size)] == expected

    def test_arithmetic_lane_by_lane(self):
        a, b = _lanes(5, 2, 25)
        pairs = list(itertools.product(range(5), repeat=2))
        cases = [
            (a + b, [x + y for x, y in pairs]),
            (a - b, [x - y for x, y in pairs]),
            (a * b, [x * y for x, y in pairs]),
            (3 + a, [3 + x for x, _ in pairs]),
            (3 - a, [3 - x for x, _ in pairs]),
            (3 * a, [3 * x for x, _ in pairs]),
            (a - 3, [x - 3 for x, _ in pairs]),
            (-a, [-x for x, _ in pairs]),
            ((a * b + 7) % 5, [(x * y + 7) % 5 for x, y in pairs]),
        ]
        for lane, expected in cases:
            assert lane.values == expected

    def test_no_truth_value_order_or_hash(self):
        a, b = _lanes(5, 2, 25)
        for op in (bool, lambda x: x == b, lambda x: x != 0, lambda x: x < b,
                   lambda x: x <= 1, lambda x: x > b, lambda x: x >= 1, hash):
            with pytest.raises(TypeError):
                op(a)
        with pytest.raises(TypeError):
            a + 1.5


class TestBuilderCalls:
    """One real builder call per hypothesis, plus the probe: a return to
    per-draw enumeration (thousands of calls) fails here, not only in timing."""

    @staticmethod
    def count_calls(monkeypatch, name):
        original = getattr(pruw.poly, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "pruw" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("disable_noise", [False, True])
    @pytest.mark.parametrize("scheme, case", SCHEMES)
    def test_calls_per_audit(self, monkeypatch, scheme, case, disable_noise):
        queries = self.count_calls(monkeypatch, "build_query")
        updates = self.count_calls(monkeypatch, "combine_update")
        results = default_audit_suite(scheme, case=case, disable_noise=disable_noise)
        assert [r.value for r in results] == [float(disable_noise)] * len(results)
        assert 0 < len(queries) <= 3
        assert 0 < len(updates) <= 2


class TestUpdateAudit:
    def test_value_hypotheses_indistinguishable(self):
        res = audit_update(1, 3, 3125, q=5)
        assert res.passed and res.value == 0.0

    def test_control_fails(self):
        res = audit_update(1, 3, 3125, q=5, disable_noise=True)
        assert not res.passed and res.value == 1.0


class TestPositionAudit:
    def test_uniform_over_subsets(self):
        res = audit_positions([1, 4], [2, 3], 5, 3125)
        assert res.passed and res.value == 0.0
        assert res.detail["subsets"] == 10

    def test_control_fails(self):
        res = audit_positions([1, 4], [2, 3], 5, 3125, disable_noise=True)
        assert not res.passed and res.value == 1.0

    def test_too_few_samples(self):
        with pytest.raises(InconclusiveError):
            audit_positions([1, 4], [2, 3], 5, 30)

    def test_size_mismatch(self):
        with pytest.raises(ConfigError):
            audit_positions([1], [2, 3], 5, 3125)


class TestSuite:
    def test_basic_suite_passes(self):
        results = default_audit_suite("basic", samples=3125)
        assert len(results) == 2
        assert all(r.passed and r.value == 0.0 for r in results)

    def test_topr_suite_includes_positions(self):
        for case in (1, 2):
            results = default_audit_suite("topr", samples=3125, case=case)
            assert [r.statistic for r in results] == [
                "query-tvd[topr]", "update-tvd", "positions-tvd",
            ]
            assert all(r.passed and r.value == 0.0 for r in results)

    def test_same_results_for_every_seed(self):
        def run(seed):
            return [r.as_dict() for r in default_audit_suite("topr", samples=3125, seed=seed)]
        assert run(0) == run(31)

    def test_control_fails_every_audit(self):
        for scheme in ("basic", "topr", "random"):
            results = default_audit_suite(scheme, samples=3125, disable_noise=True)
            assert all(not r.passed and r.value == 1.0 for r in results)

    def test_control_within_live_budget(self):
        # the budget is the live draw space's, noise-off control or not
        with pytest.raises(InconclusiveError):
            default_audit_suite("basic", samples=1000, disable_noise=True)

    def test_results_serialize(self):
        res = default_audit_suite("basic", samples=3125)[0]
        d = res.as_dict()
        assert d["passed"] and d["samples"] == 3125 and d["detail"] == {"support": 5**5}
