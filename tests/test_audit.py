"""Privacy audits: exact distribution equality, controls, budget guards."""

import pytest

import pruw.audit
from pruw.audit import (
    audit_positions,
    audit_query,
    audit_update,
    default_audit_suite,
)
from pruw.errors import ConfigError, InconclusiveError


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
