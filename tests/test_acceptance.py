"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE n: PASS/FAIL` line (visible with `pytest -s`
or in captured output) and enforces the criterion with plain assertions.
Tolerances are exact rational equality unless a statistical threshold is
stated.
"""

import json
import random
import time
from fractions import Fraction

from pruw import basic, random_sparse as rs, topr
from pruw.audit import default_audit_suite
from pruw.cli import main as cli_main
from pruw.config import ExperimentConfig
from pruw.field import allocate_eval_points
from pruw.harness import run_session
from pruw.poly import (
    combine_update,
    combined_update_residual,
    lagrange_interpolate,
    null_shaper_residual,
    poly_degree,
)

Q_BIG = 2**31 - 1


def report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {name}")
    assert ok, f"criterion {num} failed: {name}"


def test_criterion_1_basic_cost_reproduction():
    t0 = time.monotonic()
    expected = {
        4: (Fraction(4), Fraction(4)),
        5: (Fraction(5), Fraction(4)),
        6: (Fraction(3), Fraction(3)),
        10: (Fraction(5, 2), Fraction(5, 2)),
        11: (Fraction(11, 4), Fraction(5, 2)),
    }
    ok = True
    for n, (c_r, c_w) in expected.items():
        cfg = ExperimentConfig(scheme="basic", n=n, m=2, l=64, q=Q_BIG, seed=n)
        it = run_session(cfg).iterations[0]
        analytic = basic.costs_basic(n)
        ok &= it.verdict
        ok &= it.ledger.c_read == c_r == analytic[0]
        ok &= it.ledger.c_write == c_w == analytic[1]
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    report(1, f"basic costs exact for N in {{4,5,6,10,11}} ({elapsed:.2f}s)", ok)


def test_criterion_2_topr_cost_reproduction():
    t0 = time.monotonic()
    r = rp = Fraction(1, 5)
    ok = True
    # case 1: metered == closed form with log_5 25 = 2, exactly
    cfg = ExperimentConfig(scheme="topr", n=10, m=2, p=25, q=127, position_base=5,
                           case=1, r=r, r_prime=rp, seed=2)
    it = run_session(cfg).iterations[0]
    a1 = topr.costs_topr(10, 25, 5, r, rp, 1)
    ok &= it.verdict
    ok &= it.ledger.c_read == a1.read == Fraction(11, 5)
    ok &= it.ledger.c_write == a1.write == Fraction(3)
    # case 2: metered matches the subpacketization-derived form (1 - 4/N
    # denominators); the alternative published normalization is also emitted
    cfg2 = ExperimentConfig(scheme="topr", n=10, m=2, p=25, q=127, position_base=5,
                            case=2, r=r, r_prime=rp, seed=3)
    it2 = run_session(cfg2).iterations[0]
    a2 = topr.costs_topr(10, 25, 5, r, rp, 2)
    denom = 1 - Fraction(4, 10)
    alt_denom = 1 - Fraction(2, 10)
    lam = 2
    ok &= it2.verdict
    ok &= it2.ledger.c_read == a2.read == (2 * rp + Fraction(2, 10) * (1 + rp) * lam) / denom
    ok &= it2.ledger.c_write == a2.write == 2 * r * (1 + lam) / denom
    ok &= a2.read_alt == (2 * rp + Fraction(2, 10) * (1 + rp) * lam) / alt_denom
    ok &= a2.write_alt == 2 * r * (1 + lam) / alt_denom
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    report(2, f"top-r costs exact at q=5, P=25, N=10 ({elapsed:.2f}s)", ok)


def test_criterion_3_rate_distortion_line():
    t0 = time.monotonic()
    ok = True
    expected = {Fraction(0): Fraction(5, 2), Fraction(1, 10): Fraction(9, 4),
                Fraction(1, 5): Fraction(2)}
    for d, cost in expected.items():
        plan = rs.optimize_plan(10, d, d)
        length = 40 if d == Fraction(1, 10) else 20
        cfg = ExperimentConfig(scheme="random", n=10, m=2, l=length, q=Q_BIG,
                               d_read=d, d_write=d, seed=5)
        it = run_session(cfg).iterations[0]
        ok &= it.verdict
        ok &= it.ledger.c_read == it.ledger.c_write == cost
        ok &= rs.costs_random(10, plan) == (cost, cost)
        ok &= it.distortion.within_budget
        ok &= it.distortion.read_measured == d  # realized == budget on this grid
        ok &= it.distortion.write_measured == d
    # the split at budget 0.1 is (1/2 at base, 1/2 at base+1)
    split = rs.optimize_plan(10, Fraction(1, 10), Fraction(1, 10)).read_segments
    ok &= split == (rs.PhaseSegment(Fraction(1, 2), 4), rs.PhaseSegment(Fraction(1, 2), 5))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    report(3, f"rate-distortion line {{2.5, 2.25, 2.0}} exact ({elapsed:.2f}s)", ok)


def _random_basic_cfg(rng):
    q = rng.choice([11, 127])
    n = rng.choice([4, 5, 6] if q == 11 else [4, 5, 6, 7, 8, 10, 11])
    ell = basic.optimal_params(n).ell
    m = rng.randint(1, 3)
    return ExperimentConfig(scheme="basic", n=n, m=m, l=ell * rng.randint(1, 4),
                            q=q, theta=rng.randint(1, m), seed=rng.randrange(1 << 30))


def _random_topr_cfg(rng, case):
    q, n = rng.choice([(11, 6), (127, 6), (127, 10)])
    m = rng.randint(1, 3)
    p = rng.randint(1, 5)
    r = Fraction(rng.randint(0, p), p)
    rp = Fraction(rng.randint(0, p), p)
    return ExperimentConfig(scheme="topr", n=n, m=m, p=p, q=q, case=case, r=r,
                            r_prime=rp, theta=rng.randint(1, m),
                            seed=rng.randrange(1 << 30))


def _random_random_cfg(rng, case):
    q, n = rng.choice([(11, 4), (11, 5), (127, 10), (127, 11)])
    budgets = [Fraction(0), Fraction(1, 10), Fraction(1, 5), Fraction(1, 4), Fraction(1, 2)]
    d_a, d_b = sorted(rng.sample(budgets, 2))
    if case == 1:
        d_read, d_write = d_a, d_b  # strictly smaller read budget
    else:
        d_read, d_write = d_b, d_a
    plan = rs.optimize_plan(n, d_read, d_write)
    from pruw.harness import aligned_length

    length = aligned_length(plan)
    m = rng.randint(1, 2)
    return ExperimentConfig(scheme="random", n=n, m=m, l=length, q=q,
                            d_read=d_read, d_write=d_write,
                            theta=rng.randint(1, m), seed=rng.randrange(1 << 30))


def test_criterion_4_correctness_round_trips():
    rng = random.Random(2024)
    ok = True
    for _ in range(100):
        cfg = _random_basic_cfg(rng)
        ok &= run_session(cfg, thetas=[cfg.theta]).verdict
    for case in (1, 2):
        for _ in range(100):
            cfg = _random_topr_cfg(rng, case)
            ok &= run_session(cfg, thetas=[cfg.theta]).verdict
    for case in (1, 2):
        for _ in range(100):
            cfg = _random_random_cfg(rng, case)
            res = run_session(cfg, thetas=[cfg.theta])
            ok &= res.verdict
            cases = {r["case"] for r in res.iterations[0].detail["regions"]}
            if cfg.d_read != cfg.d_write:
                ok &= case in cases
    # the worked sparse-position example, end to end, both cases
    for case in (1, 2):
        cfg = ExperimentConfig(scheme="topr", n=10, m=3, p=5, q=127, case=case,
                               r=Fraction(2, 5), r_prime=Fraction(2, 5),
                               perm=(2, 5, 1, 3, 4), v_tilde=(2, 3),
                               scores=(10, 0, 0, 9, 0), seed=8)
        it = run_session(cfg).iterations[0]
        ok &= it.verdict
        ok &= it.detail["v_true"] == [5, 1]
        ok &= it.detail["write_positions"] == [3, 5]
    report(4, "plant/recover + write/reconstruct vs oracle, 100x per scheme/case", ok)


def test_criterion_5_residual_suites():
    rng = random.Random(77)
    ok = True
    # combined-update decomposition: 1000 randomized instances, each also
    # tampered at one symbol
    for _ in range(1000):
        q = rng.choice([11, 127, 2**31 - 1])
        ell = rng.randint(1, 6)
        t_up = rng.randint(1, 3)
        n = ell + t_up + rng.randint(0, 2)
        fp = allocate_eval_points(n, ell, q if q > n + ell else 127)
        field = fp.field
        deltas = [rng.randrange(field.q) for _ in range(ell)]
        noise = [rng.randrange(field.q) for _ in range(t_up)]
        us = combine_update(field, deltas, list(fp.fs), fp.alphas, noise)
        k = rng.randint(1, ell)
        res = combined_update_residual(field, us, fp.alphas, fp.fs, k, deltas, t_up)
        ok &= res.ok
        idx = rng.randrange(n)
        tampered = us[:]
        tampered[idx] = (tampered[idx] + rng.randint(1, field.q - 1)) % field.q
        ok &= not combined_update_residual(field, tampered, fp.alphas, fp.fs, k, deltas, t_up).ok
    # null-shaper rescaling: 1000 randomized instances with |F| in [0, 4];
    # corrupting one evaluation breaks the degree bound
    for _ in range(1000):
        q = rng.choice([127, 2**31 - 1])
        size = rng.randint(0, 4)
        spare = rng.randint(size + 2, size + 5)
        fp = allocate_eval_points(size + spare, 1, q)
        field = fp.field
        skip = list(fp.alphas[:size])
        points = fp.alphas[size:]
        res = null_shaper_residual(field, skip, fp.fs[0], points)
        ok &= res.ok
        ok &= res.degree == size - 1  # tight bound
        # single-symbol sensitivity of the degree statistic
        values = [field.poly_eval(res.coeffs, x) for x in points]
        idx = rng.randrange(len(points))
        values[idx] = (values[idx] + rng.randint(1, field.q - 1)) % field.q
        corrupted = lagrange_interpolate(field, list(points), values)
        ok &= poly_degree(corrupted) > res.bound
    report(5, "residual-degree suites, 1000 instances each, tamper flips verdict", ok)


def test_criterion_6_privacy_audits():
    t0 = time.monotonic()
    ok = True
    for scheme in ("basic", "topr", "random"):
        results = default_audit_suite(scheme, samples=100_000, q=5, seed=31)
        ok &= all(r.passed for r in results)
        ok &= all(r.threshold == 0.02 for r in results if "tvd" in r.statistic)
        controls = default_audit_suite(scheme, samples=100_000, q=5, seed=31,
                                       disable_noise=True)
        ok &= all(not r.passed for r in controls)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    report(6, f"privacy audits at stated thresholds, controls fail ({elapsed:.1f}s)", ok)


def test_criterion_7_skip_set_behavior():
    rng = random.Random(55)
    ok = True
    for _ in range(20):
        n = rng.choice([5, 7, 9, 11])
        params = basic.optimal_params(n)
        q = 127 if n <= 9 else 2**31 - 1
        cfg = ExperimentConfig(scheme="basic", n=n, m=2, l=params.ell * rng.randint(1, 3),
                               q=q, theta=rng.randint(1, 2), seed=rng.randrange(1 << 30))
        from pruw.harness import Session

        session = Session(cfg)
        skip_db = session.scheme.states[0]
        assert skip_db.db_index == 1 and 1 in params.skip_set
        before = skip_db.cells.tolist()
        it = session.run_iteration(cfg.theta)
        after = skip_db.cells.tolist()
        ok &= before == after            # storage bit-identical across the write
        ok &= it.verdict                 # yet reconstruction shows the update
        sent_to_skip = [f for f in session.log.frames
                        if f.kind == "WRITE_U" and f.db in params.skip_set]
        ok &= sent_to_skip == []         # zero write payload
    report(7, "skip-set databases: no payload, unchanged cells, updated model", ok)


def test_criterion_8_determinism(tmp_path):
    cfg_text = (
        "scheme=topr\nn=10\nm=3\np=5\nq=127\ncase=1\nr=2/5\nr_prime=2/5\n"
        "perm=2,5,1,3,4\nv_tilde=2,3\nscores=10,0,0,9,0\nseed=99\niterations=2\n"
    )
    cfg_path = tmp_path / "fixture.cfg"
    cfg_path.write_text(cfg_text)
    import os

    os.environ["PRUW_LOG"] = "frames"
    try:
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(a)]) == 0
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(b)]) == 0
        ok = a.read_bytes() == b.read_bytes()
        ok &= (tmp_path / "a.json.frames").read_bytes() == (tmp_path / "b.json.frames").read_bytes()
        ok &= json.loads(a.read_text())["verdict"] == "pass"
    finally:
        del os.environ["PRUW_LOG"]
    report(8, "identical seeds give byte-identical result JSON and frame traces", ok)
