"""Session orchestration: metering, verdicts, determinism, cost sweeps."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from pruw.config import ExperimentConfig, parse_config_text
from pruw.errors import ConfigError, IntegrityError
from pruw.field import kernel_dtype
from pruw.harness import CostRow, Session, aligned_length, run_session, verify_costs
from pruw import harness, topr, wire
from pruw import random_sparse as rs
from test_golden_digests import CONFIGS


class TestBasicIteration:
    def test_small_fixture_costs(self):
        cfg = ExperimentConfig(scheme="basic", n=4, m=2, l=8, q=11, seed=3)
        res = run_session(cfg)
        it = res.iterations[0]
        assert it.verdict
        assert it.ledger.c_read == 4
        assert it.ledger.c_write == 4

    def test_theta_outside_range_refused(self):
        session = Session(ExperimentConfig(scheme="basic", n=4, m=2, l=8, q=11, seed=3))
        with pytest.raises(ConfigError, match=r"^theta=0 outside 1\.\.2$"):
            session.run_iteration(theta=0)

    def test_metered_matches_closed_form(self):
        from pruw.basic import costs_basic

        for n in (4, 5, 6, 10, 11):
            from pruw.basic import optimal_params

            ell = optimal_params(n).ell
            cfg = ExperimentConfig(scheme="basic", n=n, m=2, l=4 * ell, seed=1)
            it = run_session(cfg).iterations[0]
            c_r, c_w, _ = costs_basic(n)
            assert it.ledger.c_read == c_r
            assert it.ledger.c_write == c_w

    def test_three_iteration_soak(self):
        cfg = ExperimentConfig(scheme="basic", n=6, m=3, l=8, q=127, seed=5,
                               iterations=3)
        res = run_session(cfg, thetas=[1, 3, 2])
        assert [it.theta for it in res.iterations] == [1, 3, 2]
        assert res.verdict

    @pytest.mark.parametrize("thetas", [[1, 2], [1, 2, 1, 2]], ids=["short", "long"])
    def test_thetas_must_match_iterations(self, thetas, monkeypatch):
        # one theta per iteration, checked before any set-up work
        def refuse(cfg):
            raise AssertionError("a session was built for mismatched thetas")

        monkeypatch.setattr(harness, "Session", refuse)
        cfg = ExperimentConfig(scheme="basic", n=4, m=2, l=4, q=11, iterations=3)
        with pytest.raises(ConfigError, match=f"^{len(thetas)} thetas given for 3 iterations$"):
            run_session(cfg, thetas=thetas)

    def test_skip_set_reported_for_odd_n(self):
        cfg = ExperimentConfig(scheme="basic", n=5, m=2, l=4, q=127, seed=2)
        it = run_session(cfg).iterations[0]
        assert it.detail["skip_set"] == [1]
        assert it.verdict

    def test_padded_length_round_trip(self):
        # L not divisible by ell: the padded tail must stay zero across writes
        cfg = ExperimentConfig(scheme="basic", n=10, m=2, l=62, seed=5, iterations=2)
        res = run_session(cfg, thetas=[1, 2])
        assert res.verdict

    def test_noise_budget_overrides_pass_through(self):
        # non-optimal but valid budgets still run the whole round trip
        cfg = ExperimentConfig(scheme="basic", n=8, m=2, l=4, q=127, seed=4,
                               t1=5, t2=2, t3=2)
        it = run_session(cfg).iterations[0]
        assert it.verdict
        assert it.ledger.c_read == Fraction(8, 1)  # ell = 1
        assert it.ledger.c_write == Fraction(8 - 1, 1)  # skip count 2*5-8-2+1 = 1


class TestToprIteration:
    def test_worked_fixture_through_harness(self):
        cfg = ExperimentConfig(
            scheme="topr", n=10, m=3, p=5, q=127, case=1,
            r=Fraction(2, 5), r_prime=Fraction(2, 5),
            perm=(2, 5, 1, 3, 4), v_tilde=(2, 3), scores=(10, 0, 0, 9, 0), seed=3,
        )
        it = run_session(cfg).iterations[0]
        assert it.verdict
        assert it.detail["v_true"] == [5, 1]
        assert it.detail["write_positions"] == [3, 5]

    def test_downlink_set_chains_across_iterations(self):
        cfg = ExperimentConfig(
            scheme="topr", n=10, m=2, p=5, q=127, case=2,
            r=Fraction(2, 5), r_prime=Fraction(2, 5), seed=9, iterations=2,
        )
        session = Session(cfg)
        first = session.run_iteration()
        second = session.run_iteration()
        assert second.detail["v_tilde"] == sorted(first.detail["write_positions"])
        assert first.verdict and second.verdict

    def test_three_iteration_soak(self):
        cfg = ExperimentConfig(
            scheme="topr", n=10, m=3, p=5, q=127, case=1,
            r=Fraction(2, 5), r_prime=Fraction(2, 5), seed=21, iterations=3,
        )
        res = run_session(cfg, thetas=[2, 1, 3])
        assert res.verdict
        assert len(res.iterations) == 3

    def test_position_alphabet_override(self):
        cfg = ExperimentConfig(
            scheme="topr", n=10, m=2, p=25, q=127, position_base=5, case=1,
            r=Fraction(1, 5), r_prime=Fraction(1, 5), seed=4,
        )
        it = run_session(cfg).iterations[0]
        assert it.detail["position_symbols"] == 2  # ceil(log_5 25)
        from pruw.topr import costs_topr_metered

        m = costs_topr_metered(10, 25, 5, Fraction(1, 5), Fraction(1, 5), 1)
        assert it.ledger.c_read == m.read
        assert it.ledger.c_write == m.write


class TestRandomIteration:
    def test_distortion_split(self):
        cfg = ExperimentConfig(scheme="random", n=10, m=2, l=40,
                               d_read=Fraction(1, 10), d_write=Fraction(1, 10), seed=3)
        it = run_session(cfg).iterations[0]
        assert it.verdict
        assert it.ledger.c_read == Fraction(9, 4)
        assert it.distortion.read_measured == Fraction(1, 10)
        assert it.distortion.within_budget

    def test_zero_budget_matches_basic_ledger(self):
        n, length = 10, 16
        cfg_b = ExperimentConfig(scheme="basic", n=n, m=2, l=length, seed=6)
        cfg_r = ExperimentConfig(scheme="random", n=n, m=2, l=length, seed=6)
        lb = run_session(cfg_b).iterations[0].ledger
        lr = run_session(cfg_r).iterations[0].ledger
        assert (lb.c_read, lb.c_write) == (lr.c_read, lr.c_write)
        assert lb.read_down == lr.read_down
        assert lb.write_up == lr.write_up

    def test_one_time_queries_not_metered(self):
        cfg = ExperimentConfig(scheme="random", n=10, m=2, l=40,
                               d_read=Fraction(1, 10), d_write=Fraction(1, 10),
                               seed=3, iterations=2)
        res = run_session(cfg)
        first, second = res.iterations
        assert first.ledger.write_up_unmetered > 0
        assert second.ledger.write_up_unmetered == 0
        assert first.ledger.c_write == second.ledger.c_write

    def test_session_pins_theta(self):
        cfg = ExperimentConfig(scheme="random", n=10, m=2, l=16, seed=3)
        session = Session(cfg)
        with pytest.raises(ConfigError):
            session.run_iteration(theta=2)

    def test_run_session_refuses_other_theta_before_setup(self, monkeypatch):
        def refuse(cfg):
            raise AssertionError("a session was built for a theta it cannot read")

        monkeypatch.setattr(harness, "Session", refuse)
        cfg = ExperimentConfig(scheme="random", n=6, m=2, l=30, d_read=Fraction(1, 3),
                               d_write=Fraction(1, 5), seed=3, iterations=2)
        with pytest.raises(ConfigError, match="^the one-time queries pin theta"):
            run_session(cfg, thetas=[1, 2])

    def test_run_session_accepts_configured_theta(self):
        cfg = ExperimentConfig(scheme="random", n=6, m=2, l=30, d_read=Fraction(1, 3),
                               d_write=Fraction(1, 5), seed=3, iterations=2, theta=2)
        res = run_session(cfg, thetas=[2, 2])
        assert [it.theta for it in res.iterations] == [2, 2]

    def test_three_iteration_soak(self):
        cfg = ExperimentConfig(scheme="random", n=10, m=2, l=40, seed=8,
                               d_read=Fraction(1, 10), d_write=Fraction(1, 10),
                               iterations=3)
        res = run_session(cfg)
        assert res.verdict
        assert all(it.distortion.within_budget for it in res.iterations)


class TestBuiltOnce:
    """Every fixed map and write factor is built by a session's first
    iteration; a later one inverts only what it draws afresh."""

    @pytest.mark.parametrize("shape, inversions", [
        (dict(scheme="random", n=9, m=2, l=97, d_read=Fraction(1, 5), d_write=Fraction(1, 3)),
         0),
        (dict(scheme="random", n=10, m=8, l=2000, d_read=Fraction(1, 3),
              d_write=Fraction(1, 5)), 0),
        # the N * ell reciprocals of basic's fresh read query, ell = 3 at N = 9
        (dict(scheme="basic", n=9, m=2, l=97), 9 * 3),
    ])
    def test_second_iteration_inversions(self, monkeypatch, shape, inversions):
        from pruw.field import PrimeField

        session = Session(ExperimentConfig(seed=4, iterations=2, **shape))
        session.run_iteration()
        calls = []
        real_inv = PrimeField.inv
        monkeypatch.setattr(PrimeField, "inv", lambda self, a: calls.append(a) or real_inv(self, a))
        session.run_iteration()
        assert len(calls) == inversions


class TestKernelBound:
    """Set-up kernels run on int64 up to q = 3,037,000,493 and on Python ints
    from the next prime; sessions on both sides reach a true verdict."""

    @pytest.mark.parametrize("q", [3_037_000_493, 3_037_000_507])
    @pytest.mark.parametrize("cfg", [
        dict(scheme="basic", n=5, m=2, l=9),
        dict(scheme="topr", n=10, m=2, p=5, case=1, r=Fraction(2, 5), r_prime=Fraction(2, 5)),
        dict(scheme="topr", n=10, m=2, p=5, case=2, r=Fraction(2, 5), r_prime=Fraction(2, 5)),
    ])
    def test_true_verdict(self, cfg, q):
        res = run_session(ExperimentConfig(q=q, seed=7, iterations=2, **cfg))
        assert res.verdict
        assert all(it.detail["read_ok"] and it.detail["write_ok"] for it in res.iterations)


class TestToprBound:
    """The shared reversing noise holds side * P symbols (P^2 in case 1,
    ell * P^2 in case 2); a session refuses a P above the bound before it
    builds anything."""

    def test_oversized_p_rejected_at_setup(self, monkeypatch):
        from pruw import topr

        def refuse(*args, **kwargs):
            raise AssertionError("set-up work ran for a rejected config")

        monkeypatch.setattr(topr, "coordinator_setup", refuse)
        monkeypatch.setattr(topr, "init_topr", refuse)
        cfg = ExperimentConfig(scheme="topr", n=10, case=2, p=3000, q=127)
        with pytest.raises(ConfigError, match="largest p for n=10, case=2 is 836"):
            Session(cfg)

    @pytest.mark.parametrize("case, largest", [(1, 1448), (2, 836)])
    def test_largest_p_admitted(self, case, largest):
        assert largest == math.isqrt(topr.REVERSING_SYMBOL_LIMIT // (1 if case == 1 else 3))
        Session(ExperimentConfig(scheme="topr", n=10, m=1, case=case, p=largest, q=127))
        with pytest.raises(ConfigError):
            Session(ExperimentConfig(scheme="topr", n=10, m=1, case=case, p=largest + 1,
                                     q=127))

    def test_largest_case2_p_runs(self):
        res = run_session(ExperimentConfig(scheme="topr", n=10, m=1, case=2, p=836, q=127,
                                           seed=3))
        assert res.verdict
        assert res.iterations[0].detail["read_ok"] and res.iterations[0].detail["write_ok"]


class TestLedger:
    def test_conservation(self):
        cfg = ExperimentConfig(scheme="basic", n=4, m=2, l=8, q=11, seed=3)
        res = run_session(cfg)
        it = res.iterations[0]
        by_hand = {}
        for f in res.log.frames:
            key = (f.phase, f.direction, f.metered)
            by_hand[key] = by_hand.get(key, 0) + f.symbols
        assert by_hand == it.ledger.totals
        assert it.ledger.read_down == by_hand[("read", "down", True)]

    def test_frames_carry_session_ids(self):
        cfg = ExperimentConfig(scheme="basic", n=4, m=2, l=4, q=127, seed=3,
                               iterations=2)
        res = run_session(cfg)
        sessions = {f.session for f in res.log.frames}
        assert sessions == {0, 1}
        assert "sess=0" in res.log.frames[0].line()

    def test_golden_configs_emit_exactly_the_kinds(self):
        # every kind the cost table names is sent, and no other
        emitted = set()
        for text in CONFIGS.values():
            emitted |= {f.kind for f in run_session(parse_config_text(text)).log.frames}
        assert emitted == set(wire.KINDS)

    def test_every_frame_counted_once(self):
        cfg = ExperimentConfig(scheme="topr", n=10, m=2, p=5, q=127, case=1, seed=3,
                               r=Fraction(2, 5), r_prime=Fraction(2, 5))
        res = run_session(cfg)
        total = sum(f.symbols for f in res.log.frames)
        led = res.iterations[0].ledger
        assert total == (led.read_down + led.read_up + led.write_down
                         + led.write_up + led.write_up_unmetered)


class TestDeterminism:
    @pytest.mark.parametrize("scheme", ["basic", "topr", "random"])
    def test_identical_seeds_identical_output(self, scheme):
        def make():
            if scheme == "basic":
                cfg = ExperimentConfig(scheme="basic", n=5, m=2, l=4, q=127, seed=11)
            elif scheme == "topr":
                cfg = ExperimentConfig(scheme="topr", n=10, m=2, p=5, q=127, case=2,
                                       r=Fraction(2, 5), r_prime=Fraction(2, 5), seed=11)
            else:
                cfg = ExperimentConfig(scheme="random", n=10, m=2, l=40, seed=11,
                                       d_read=Fraction(1, 10), d_write=Fraction(1, 10))
            res = run_session(cfg)
            return res.result_json(), res.trace()
        assert make() == make()

    def test_different_seeds_differ(self):
        a = run_session(ExperimentConfig(scheme="basic", n=4, m=2, l=4, q=127, seed=1))
        b = run_session(ExperimentConfig(scheme="basic", n=4, m=2, l=4, q=127, seed=2))
        assert a.result_json() != b.result_json()

    def test_json_round_trips(self):
        res = run_session(ExperimentConfig(scheme="basic", n=4, m=2, l=4, q=127, seed=1))
        parsed = json.loads(res.result_json())
        assert parsed["verdict"] == "pass"
        assert parsed["iterations"][0]["ledger"]["c_read"] == "4"


def shift_plain(states, s, j, m):
    """Add one to the plain symbol of cell (s, j, m) consistently in every
    replica, so the storage stays well formed but holds a wrong value."""
    for st in states:
        fp = st.fp
        step = 1 if st.layout.affine_mask else fp.field.inv(fp.fs[j] - fp.alpha(st.db_index))
        st.cells[s][j][m] = (st.cells[s][j][m] + step) % fp.q


class TestFailureDetail:
    """A failing check names its first bad item; a passing run adds no keys."""

    def test_passing_iteration_adds_no_mismatch_keys(self):
        for cfg in (
            ExperimentConfig(scheme="basic", n=6, m=2, l=12, q=127, seed=5),
            ExperimentConfig(scheme="topr", n=10, m=2, p=5, q=127, case=2, seed=5),
            ExperimentConfig(scheme="random", n=6, m=2, l=30, seed=5,
                             d_read=Fraction(1, 3), d_write=Fraction(1, 5)),
        ):
            detail = run_session(cfg).iterations[0].detail
            assert "read_mismatch" not in detail and "write_mismatch" not in detail

    def test_basic_read_and_write_mismatch(self):
        session = Session(ExperimentConfig(scheme="basic", n=6, m=2, l=12, q=127, seed=5))
        before = session.oracle[0][3]
        shift_plain(session.scheme.states, 1, 1, 0)  # ell = 2: position 3 of submodel 1
        it = session.run_iteration(1)
        assert not it.verdict
        assert it.detail["read_mismatch"] == {"position": 3, "expected": before,
                                              "got": (before + 1) % 127}
        after = session.oracle[0][3]
        assert it.detail["write_mismatch"] == {"submodel": 1, "position": 3,
                                               "expected": after, "got": (after + 1) % 127}

    def test_write_mismatch_outside_the_read_submodel(self):
        session = Session(ExperimentConfig(scheme="basic", n=6, m=2, l=12, q=127, seed=5))
        shift_plain(session.scheme.states, 2, 0, 1)
        it = session.run_iteration(1)
        assert it.detail["read_ok"] and "read_mismatch" not in it.detail
        want = session.oracle[1][4]
        assert it.detail["write_mismatch"] == {"submodel": 2, "position": 4,
                                               "expected": want, "got": (want + 1) % 127}

    def test_topr_read_mismatch_names_the_true_position(self):
        cfg = ExperimentConfig(
            scheme="topr", n=10, m=3, p=5, q=127, case=1,
            r=Fraction(2, 5), r_prime=Fraction(2, 5),
            perm=(2, 5, 1, 3, 4), v_tilde=(2, 3), scores=(10, 0, 0, 9, 0), seed=3,
        )
        session = Session(cfg)
        before = session.oracle[0][1]
        shift_plain(session.scheme.states, 0, 1, 0)  # true subpacket 1 is read, ell = 2
        it = session.run_iteration(1)
        assert it.detail["read_mismatch"] == {"position": 1, "expected": before,
                                              "got": (before + 1) % 127}
        after = session.oracle[0][1]
        assert it.detail["write_mismatch"] == {"submodel": 1, "position": 1,
                                               "expected": after, "got": (after + 1) % 127}

    def test_random_write_mismatch_in_model_positions(self):
        cfg = ExperimentConfig(scheme="random", n=6, m=2, l=30, seed=5,
                               d_read=Fraction(1, 3), d_write=Fraction(1, 5))
        session = Session(cfg)
        q = session.scheme.fp.q
        reg = session.scheme.regions[-1]  # region-local position 1 is model position start + 1
        assert reg.start > 0 and reg.spec.y > 1
        shift_plain(session.scheme.storage[-1][1], 0, 1, 1)
        it = session.run_iteration(1)
        want = session.oracle[1][reg.start + 1]
        assert it.detail["write_mismatch"] == {"submodel": 2, "position": reg.start + 1,
                                               "expected": want, "got": (want + 1) % q}


# a padded basic block (ell = 4), top-r, and random plans: two regions with
# the padding in the first, the benchmark's single region with an unpadded
# zero-distortion tail, and the same plan at L = 2001, whose tail pads 3 bits
BLOCK_CONFIGS = {
    "basic-padded": ExperimentConfig(scheme="basic", n=10, m=2, l=13, seed=5),
    "topr": ExperimentConfig(scheme="topr", n=10, m=2, p=5, case=2, seed=5),
    "random-two-regions": ExperimentConfig(scheme="random", n=10, m=2, l=37, seed=5,
                                           d_read=Fraction(1, 10), d_write=Fraction(1, 10)),
    "random-l2000": ExperimentConfig(scheme="random", n=10, m=8, l=2000, seed=5,
                                     d_read=Fraction(1, 3), d_write=Fraction(1, 5)),
    "random-padded-tail": ExperimentConfig(scheme="random", n=10, m=8, l=2001, seed=5,
                                           d_read=Fraction(1, 3), d_write=Fraction(1, 5)),
}
PAD_BITS = {"basic-padded": 3, "topr": 0, "random-two-regions": 2, "random-l2000": 0,
            "random-padded-tail": 3}


class TestBlockContract:
    """Every scheme's storage blocks tile the model by their real lengths;
    storage alone holds the padding, and a nonzero pad cell is named."""

    @pytest.mark.parametrize("name", BLOCK_CONFIGS)
    def test_blocks_tile_the_model(self, name):
        session = Session(BLOCK_CONFIGS[name])
        pos = 0
        for start, states in session.scheme.storage:
            assert start == pos
            assert {st.length for st in states} == {states[0].length}
            assert states[0].padded_length % states[0].layout.period == 0
            pos += states[0].length
        assert pos == session.scheme.length  # top-r's L is P * ell
        it = session.run_iteration()
        pads = [states[0].padded_length - states[0].length for _, states in session.scheme.storage]
        assert sum(pads) == PAD_BITS[name]
        if it.distortion is not None:
            assert it.distortion.pad_bits == sum(pads)
            assert [r["pad_bits"] for r in it.detail["regions"]] == pads

    @pytest.mark.parametrize("name, cell", [("random-two-regions", (5, 2, 0)),
                                            ("random-padded-tail", (5, 2, 1))])
    def test_nonzero_pad_cell_is_named(self, name, cell):
        session = Session(BLOCK_CONFIGS[name])
        # the one padded block: the first region, or the tail
        [states] = [states for _, states in session.scheme.storage
                    if states[0].padded_length > states[0].length]
        s, j, m = cell
        assert s * states[0].layout.width + j >= states[0].length  # a pad cell
        shift_plain(states, s, j, m)
        with pytest.raises(IntegrityError, match=rf"padding cell \(s={s}, j={j}, m={m}\)"):
            session.run_iteration()


class TestOracleArrays:
    """The session's oracle is one (M, L) array of the kernel dtype; its
    mismatch details are plain ints on either side of the int64 bound."""

    @pytest.mark.parametrize("q", [3_037_000_493, 3_037_000_507])
    def test_write_mismatch_details_are_ints(self, q):
        session = Session(ExperimentConfig(scheme="basic", n=6, m=2, l=12, q=q, seed=5))
        assert session.oracle.shape == (2, 12)
        assert session.oracle.dtype == (np.int64 if q == 3_037_000_493 else object)
        shift_plain(session.scheme.states, 2, 0, 1)
        it = session.run_iteration(1)
        mismatch = it.detail["write_mismatch"]
        assert all(type(v) is int for v in mismatch.values())
        want = session.oracle[1][4]
        assert mismatch == {"submodel": 2, "position": 4, "expected": want,
                            "got": (want + 1) % q}
        json.dumps(it.detail)

    def test_oracle_follows_every_write(self):
        session = Session(ExperimentConfig(scheme="topr", n=10, m=2, p=5, q=127, case=2,
                                           seed=5))
        before = session.oracle.copy()
        for _ in range(3):
            assert session.run_iteration(2).verdict
        assert (session.oracle[0] == before[0]).all()
        assert (session.oracle[1] != before[1]).any()


# one config per hand-off shape; q is appended per test
HANDOFF_CONFIGS = {
    "basic-padded": "scheme=basic\nn=6\nm=2\nl=13\n",
    "topr-case1": "scheme=topr\nn=10\nm=2\np=5\ncase=1\nr=2/5\nr_prime=2/5\n",
    "topr-case2": "scheme=topr\nn=10\nm=2\np=5\ncase=2\nr=2/5\nr_prime=2/5\n",
    "topr-r0": "scheme=topr\nn=10\nm=2\np=5\ncase=2\nr=0\nr_prime=2/5\n",
    "topr-r-prime0": "scheme=topr\nn=10\nm=2\np=5\ncase=1\nr=2/5\nr_prime=0\n",
    "random-case1": "scheme=random\nn=6\nm=2\nl=30\nd_read=0\nd_write=1/3\n",
    "random-case2-padded": "scheme=random\nn=9\nm=2\nl=40\nd_read=1/4\nd_write=0\n",
    # the second region covers no model position
    "random-empty-region": "scheme=random\nn=4\nm=1\nl=1\nd_read=0\nd_write=1/3\n",
}


class TestHandOff:
    """Every scheme's read and write hand the session a (positions, symbols)
    pair of arrays, on either side of the int64 bound."""

    @pytest.mark.parametrize("q", [127, 3_037_000_507])
    @pytest.mark.parametrize("name", sorted(HANDOFF_CONFIGS))
    def test_read_and_write_return_arrays(self, name, q):
        session = Session(parse_config_text(HANDOFF_CONFIGS[name] + f"seed=4\nq={q}\n"))
        scheme, length = session.scheme, session.scheme.length
        handed = []
        for phase in ("read", "write"):
            def spy(*args, _step=getattr(scheme, phase)):
                handed.append(_step(*args))
                return handed[-1]

            setattr(scheme, phase, spy)
        for _ in range(2):  # top-r's second read follows the first write
            assert session.run_iteration().verdict
        assert len(handed) == 4
        for positions, symbols in handed:
            assert positions.dtype == np.intp and positions.ndim == 1
            assert len(np.unique(positions)) == len(positions)
            assert ((0 <= positions) & (positions < length)).all()
            assert symbols.dtype == kernel_dtype(q) and symbols.shape == positions.shape
            if scheme.budget is not None:
                assert (np.diff(positions) > 0).all()


class TestVerifyCosts:
    def test_basic_sweep(self):
        rows = verify_costs([{"scheme": "basic", "n": n} for n in (4, 5, 6, 10)])
        assert all(row.match for row in rows)

    def test_random_sweep_matches_rate_line(self):
        rows = verify_costs([
            {"scheme": "random", "n": 10, "d_read": d, "d_write": d} for d in ("0", "1/10", "1/5")
        ])
        assert [row.analytic_cr for row in rows] == [
            Fraction(5, 2), Fraction(9, 4), Fraction(2),
        ]
        assert all(row.match for row in rows)

    def test_topr_integral_log_fixture(self):
        rows = verify_costs([
            {"scheme": "topr", "n": 10, "p": 25, "position_base": 5, "r": "1/5",
             "r_prime": "1/5", "case": 1},
        ])
        assert rows[0].match
        assert rows[0].measured_cr == Fraction(11, 5)

    def test_aligned_length(self):
        plan = rs.optimize_plan(10, Fraction(1, 10), Fraction(1, 10))
        assert aligned_length(plan) == 40

    def test_aligned_length_is_the_smallest_aligned_multiple(self):
        # reference: walk the multiples of the periods' lcm, with no cap, to
        # the first that gives every region a whole number of periods
        def search(plan):
            step = math.lcm(*(reg.period for reg in plan.regions))
            length = step
            while not all((reg.lam * length).denominator == 1
                          and int(reg.lam * length) % reg.period == 0
                          for reg in plan.regions):
                length += step
            return length

        for n in range(4, 13):
            for k_read in range(1, 20):
                for k_write in range(1, 10):
                    plan = rs.optimize_plan(n, Fraction(k_read, 20), Fraction(k_write, 10))
                    assert aligned_length(plan) == search(plan), (n, k_read, k_write)

    def test_knobs_are_the_keys_off_their_defaults(self):
        # p=5, r=1/5 and seed=1 are defaults; a list knob's commas get a quoted cell
        [row] = verify_costs([{"scheme": "topr", "n": 10, "p": 5, "r": "1/5", "seed": 1,
                               "perm": "2,1,3,5,4"}])
        assert row.knobs == "perm=2,1,3,5,4"
        assert row.csv_line() == 'topr,10,"perm=2,1,3,5,4",8/5,8/5,2,2,true'

    def test_basic_line_without_l_aligns_to_its_own_ell(self):
        # t1=6 leaves ell = 3, so the line runs at l = 12 and meters the closed form
        [row] = verify_costs([{"scheme": "basic", "n": 10, "t1": 6}])
        assert row.knobs == "l=12;t1=6" and row.match

    def test_csv_line_format(self):
        row = CostRow(scheme="basic", n=4, knobs="optimal", measured_cr=Fraction(4),
                      analytic_cr=Fraction(4), measured_cw=Fraction(4),
                      analytic_cw=Fraction(4), match=True)
        assert row.csv_line() == "basic,4,optimal,4,4,4,4,true"
