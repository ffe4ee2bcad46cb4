"""Session orchestration: databases, coordinator, users, meter, and oracles.

A session owns the initialized storage and the session-lifetime artifacts
(permutation, one-time queries, fixed bit sets); each iteration runs
read -> inject synthetic updates -> write, meters every frame, and checks
the storage against an independently maintained plain-arithmetic oracle.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import basic, random_sparse as rs, topr, wire
from .config import ExperimentConfig
from .errors import ConfigError
from .field import allocate_eval_points, is_prime
from .storage import (
    CoordinatorSetup,
    ModelPlain,
    init_basic,
    init_topr,
    reconstruct_plain,
)


@dataclass
class IterationResult:
    theta: int
    ledger: wire.CostLedger
    verdict: bool
    detail: dict
    distortion: rs.DistortionReport | None = None

    def as_dict(self) -> dict:
        out = {
            "theta": self.theta,
            "verdict": "pass" if self.verdict else "fail",
            "ledger": self.ledger.as_dict(),
            "detail": self.detail,
            "distortion": None,
        }
        if self.distortion is not None:
            out["distortion"] = {
                "read_budget": str(self.distortion.read_budget),
                "write_budget": str(self.distortion.write_budget),
                "read_measured": str(self.distortion.read_measured),
                "write_measured": str(self.distortion.write_measured),
                "pad_bits": self.distortion.pad_bits,
                "within_budget": self.distortion.within_budget,
            }
        return out


@dataclass
class SessionResult:
    config: ExperimentConfig
    iterations: list[IterationResult]
    log: wire.FrameLog

    @property
    def verdict(self) -> bool:
        return all(it.verdict for it in self.iterations)

    def as_dict(self) -> dict:
        iterations = [it.as_dict() for it in self.iterations]
        return {
            "scheme": self.config.scheme,
            "config": self.config.as_dict(),
            "ledger": iterations[0]["ledger"] if iterations else None,
            "distortion": iterations[0]["distortion"] if iterations else None,
            "iterations": iterations,
            "verdict": "pass" if self.verdict else "fail",
            "audits": [],
        }

    def result_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def trace(self) -> str:
        return self.log.trace()


def next_prime_above(x: int) -> int:
    candidate = max(2, x + 1)
    while not is_prime(candidate):
        candidate += 1
    return candidate


def _first_mismatch(positions, expected, got) -> dict | None:
    """First (position, expected, got) where two symbol sequences differ."""
    for pos, want, have in zip(positions, expected, got):
        if want != have:
            return {"position": pos, "expected": want, "got": have}
    return None


def _write_mismatch(oracle: ModelPlain, plain: ModelPlain, offset: int = 0) -> dict | None:
    """First (submodel, position, expected, got) where storage and oracle
    differ; ``offset`` shifts region-local positions to model positions."""
    for m, (want, got) in enumerate(zip(oracle.values, plain.values)):
        hit = _first_mismatch(range(offset, offset + len(want)), want, got)
        if hit is not None:
            return {"submodel": m + 1, **hit}
    return None


def _explain(detail: dict, read_mismatch: dict | None, write_mismatch: dict | None) -> None:
    """Name the first bad item of a failing check; passing runs add no keys."""
    if read_mismatch is not None:
        detail["read_mismatch"] = read_mismatch
    if write_mismatch is not None:
        detail["write_mismatch"] = write_mismatch


class Session:
    """Initialized network for one scheme configuration."""

    def __init__(self, cfg: ExperimentConfig):
        cfg.validate()
        self.cfg = cfg
        self.log = wire.FrameLog()
        self.iteration_index = 0
        self.coordinator = CoordinatorSetup(master_seed=cfg.seed)
        model_rng = random.Random(self.coordinator.model_seed)
        storage_seed = self.coordinator.storage_seed
        if cfg.scheme == "basic":
            self.params = self._basic_params(cfg)
            self.fp = allocate_eval_points(cfg.n, self.params.ell, cfg.q)
            self.model = ModelPlain.random(cfg.m, cfg.l, cfg.q, model_rng)
            self.states = init_basic(
                self.model, self.fp, self.params.t_storage, self.params.t_query,
                self.params.t_update, storage_seed, cfg.disable_noise,
            )
            self.length = cfg.l
        elif cfg.scheme == "topr":
            from .storage import topr_subpacketization

            ell = topr_subpacketization(cfg.n, cfg.case)
            self.length = cfg.p * ell
            self.fp = allocate_eval_points(cfg.n, ell, cfg.q)
            self.model = ModelPlain.random(cfg.m, self.length, cfg.q, model_rng)
            self.states = init_topr(self.model, self.fp, cfg.case, storage_seed, cfg.disable_noise)
            self.setup = topr.coordinator_setup(
                cfg.p, ell, cfg.case, self.fp, self.coordinator.permutation_seed,
                perm=cfg.perm,
            )
            self.position_symbols = topr.position_symbols(cfg.p, self.position_base())
            self.last_write_positions: list[int] = []
        else:
            self.plan = rs.optimize_plan(cfg.n, cfg.d_read, cfg.d_write)
            self.realized = rs.realize_regions(self.plan, cfg.l)
            f_count = max(r.spec.y for r in self.realized)
            self.fp = allocate_eval_points(cfg.n, f_count, cfg.q)
            self.model = ModelPlain.random(cfg.m, cfg.l, cfg.q, model_rng)
            self.region_states = [
                rs.init_region_states(self.model, self.fp, reg, storage_seed, idx, cfg.disable_noise)
                for idx, reg in enumerate(self.realized)
            ]
            self.bit_sets = rs.draw_bit_sets(self.plan, cfg.seed)
            rs.validate_bit_sets(self.plan, self.bit_sets)
            self.length = cfg.l
            self._build_random_queries()
        self.oracle = self.model.copy()

    # -- shared helpers -------------------------------------------------

    @staticmethod
    def _basic_params(cfg: ExperimentConfig) -> basic.BasicParams:
        if cfg.t1 is None and cfg.t2 is None and cfg.t3 is None:
            return basic.optimal_params(cfg.n)
        opt = basic.optimal_params(cfg.n) if cfg.n >= 4 else None
        t1 = cfg.t1 if cfg.t1 is not None else (opt.t_storage if opt else 1)
        t2 = cfg.t2 if cfg.t2 is not None else 1
        t3 = cfg.t3 if cfg.t3 is not None else 1
        return basic.BasicParams(n=cfg.n, t_storage=t1, t_query=t2, t_update=t3)

    def position_base(self) -> int:
        return self.cfg.position_base or self.cfg.q

    def _user_rng(self, label: str) -> random.Random:
        return random.Random(self.coordinator.user_seed(label, self.iteration_index))

    def _synthetic_deltas(self, count: int, rng: random.Random) -> list[int]:
        return [rng.randrange(self.fp.q) for _ in range(count)]

    # -- per-scheme iterations -------------------------------------------

    def run_iteration(self, theta: int | None = None) -> IterationResult:
        cfg = self.cfg
        theta = cfg.theta if theta is None else theta
        if not 1 <= theta <= cfg.m:
            raise ConfigError(f"theta={theta} outside 1..{cfg.m}")
        self.log.session = self.iteration_index
        ledger = wire.CostLedger(normalizer=self.length)
        if cfg.scheme == "basic":
            result = self._iterate_basic(theta, ledger)
        elif cfg.scheme == "topr":
            result = self._iterate_topr(theta, ledger)
        else:
            result = self._iterate_random(theta, ledger)
        self.iteration_index += 1
        return result

    def _record(self, ledger, *args, **kwargs):
        frame = self.log.record(*args, **kwargs)
        ledger.add(frame)

    def _iterate_basic(self, theta: int, ledger: wire.CostLedger) -> IterationResult:
        cfg, fp, params = self.cfg, self.fp, self.params
        query_rng = self._user_rng("query")
        query = basic.build_read_query(theta, params, fp, cfg.m, query_rng, cfg.disable_noise)
        for n in range(1, cfg.n + 1):
            self._record(ledger, wire.READ_Q, wire.PHASE_READ, wire.UP, n,
                         params.ell * cfg.m)
        subpackets = self.states[0].subpackets
        decoded_bits: list[int] = []
        for s in range(subpackets):
            answers = []
            for st in self.states:
                answers.append(basic.answer_read(st, query, s))
                self._record(ledger, wire.READ_A, wire.PHASE_READ, wire.DOWN,
                             st.db_index, 1, subpacket=s)
            decoded_bits.extend(basic.decode_answers(fp, params, answers))
        expected = self.oracle.values[theta - 1]
        read_ok = decoded_bits[: self.length] == expected
        read_mismatch = None if read_ok else _first_mismatch(range(self.length), expected,
                                                             decoded_bits)

        update_rng = self._user_rng("update")
        padded = self.states[0].padded_length
        # padded tail positions must stay zero
        flat = self._synthetic_deltas(self.length, update_rng)
        flat += [0] * (padded - self.length)
        deltas = [flat[s * params.ell : (s + 1) * params.ell] for s in range(subpackets)]
        basic.write_round(deltas, theta, params, fp, query, self.states, update_rng,
                          cfg.disable_noise)
        skip = set(params.skip_set)
        for s in range(subpackets):
            for n in range(1, cfg.n + 1):
                if n in skip:
                    continue
                self._record(ledger, wire.WRITE_U, wire.PHASE_WRITE, wire.UP, n, 1,
                             subpacket=s)
        for pos in range(self.length):
            self.oracle.values[theta - 1][pos] = (
                self.oracle.values[theta - 1][pos] + flat[pos]
            ) % fp.q
        plain = reconstruct_plain(self.states)
        write_ok = plain == self.oracle
        detail = {"read_ok": read_ok, "write_ok": write_ok, "skip_set": list(params.skip_set)}
        _explain(detail, read_mismatch, None if write_ok else _write_mismatch(self.oracle, plain))
        return IterationResult(theta=theta, ledger=ledger, verdict=read_ok and write_ok,
                               detail=detail)

    def _iterate_topr(self, theta: int, ledger: wire.CostLedger) -> IterationResult:
        cfg, fp, setup = self.cfg, self.fp, self.setup
        clog = self.position_symbols
        # permutation delivery to the user, charged per the cost accounting
        self._record(ledger, wire.PERM_SETUP, wire.PHASE_READ, wire.DOWN, 0,
                     cfg.p * clog)
        if self.iteration_index == 0:
            if cfg.v_tilde is not None:
                v_tilde = sorted(cfg.v_tilde)
            else:
                count = topr.round_half_up(Fraction(cfg.r_prime) * cfg.p)
                v_tilde = list(range(1, count + 1))
        else:
            v_tilde = sorted(set(self.last_write_positions))
        query_rng = self._user_rng("query")
        if cfg.case == 1:
            query_blocks = topr.build_query_case1(theta, fp, setup.ell, cfg.m, query_rng,
                                                  cfg.disable_noise)
        else:
            query_blocks = topr.build_query_case2(theta, fp, setup.ell, cfg.m, query_rng,
                                                  cfg.disable_noise)
        for n in range(1, cfg.n + 1):
            self._record(ledger, wire.READ_Q, wire.PHASE_READ, wire.UP, n,
                         setup.ell * cfg.m)
        self._record(ledger, wire.DOWNLINK_SET, wire.PHASE_READ, wire.DOWN, 1,
                     len(v_tilde) * clog)
        decoded = topr.read_sparse(theta, v_tilde, setup, self.states, query_blocks)
        # frames are labelled in the permuted domain: that is all a database sees
        for v in v_tilde:
            for n in range(1, cfg.n + 1):
                self._record(ledger, wire.READ_A, wire.PHASE_READ, wire.DOWN, n, 1,
                             subpacket=v)
        read_ok = True
        read_mismatch = None
        for true_s, bits in decoded.items():
            lo = (true_s - 1) * setup.ell
            expected = self.oracle.values[theta - 1][lo : lo + setup.ell]
            if bits != expected:
                read_ok = False
                read_mismatch = read_mismatch or _first_mismatch(range(lo, lo + setup.ell),
                                                                 expected, bits)

        update_rng = self._user_rng("update")
        if cfg.scores is not None:
            if len(cfg.scores) != cfg.p:
                raise ConfigError("scores override must list one value per subpacket")
            scores = list(cfg.scores)
        else:
            scores = [update_rng.randrange(1 << 30) for _ in range(cfg.p)]
        deltas = [self._synthetic_deltas(setup.ell, update_rng) for _ in range(cfg.p)]
        result = topr.write_sparse(deltas, scores, Fraction(cfg.r), theta, setup,
                                   self.states, query_blocks, update_rng,
                                   cfg.disable_noise)
        for n in range(1, cfg.n + 1):
            if result.positions:
                self._record(ledger, wire.SPARSE_POS, wire.PHASE_WRITE, wire.UP, n,
                             len(result.positions) * clog)
            for pos in result.positions:
                self._record(ledger, wire.WRITE_U, wire.PHASE_WRITE, wire.UP, n, 1,
                             subpacket=pos)
        for s in result.chosen_true:
            lo = (s - 1) * setup.ell
            for k in range(setup.ell):
                self.oracle.values[theta - 1][lo + k] = (
                    self.oracle.values[theta - 1][lo + k] + deltas[s - 1][k]
                ) % fp.q
        self.last_write_positions = list(result.positions)
        plain = reconstruct_plain(self.states)
        write_ok = plain == self.oracle
        detail = {
            "read_ok": read_ok,
            "write_ok": write_ok,
            "v_tilde": list(v_tilde),
            "v_true": [setup.true_index(v) for v in v_tilde],
            "write_positions": list(result.positions),
            "chosen_true": list(result.chosen_true),
            "position_symbols": clog,
        }
        _explain(detail, read_mismatch, None if write_ok else _write_mismatch(self.oracle, plain))
        return IterationResult(theta=theta, ledger=ledger, verdict=read_ok and write_ok,
                               detail=detail)

    def _build_random_queries(self):
        cfg = self.cfg
        rng = random.Random(self.coordinator.scheme_seed("one-time-queries"))
        self.read_queries = []
        self.write_queries = []
        for reg, sets in zip(self.realized, self.bit_sets):
            self.read_queries.append(
                rs.build_read_queries(cfg.theta, self.fp, reg.spec, sets.read, cfg.m,
                                      rng, cfg.disable_noise)
            )
            self.write_queries.append(
                rs.build_write_queries(cfg.theta, self.fp, reg.spec, sets.write, cfg.m,
                                       rng, cfg.disable_noise)
            )

    def _iterate_random(self, theta: int, ledger: wire.CostLedger) -> IterationResult:
        cfg, fp = self.cfg, self.fp
        if theta != cfg.theta:
            raise ConfigError("the one-time queries pin theta for the whole session")
        # one-time queries are uploaded on the first iteration only
        if self.iteration_index == 0:
            for reg, sets in zip(self.realized, self.bit_sets):
                spec = reg.spec
                for n in range(1, cfg.n + 1):
                    self._record(ledger, wire.READ_Q, wire.PHASE_READ, wire.UP, n,
                                 spec.read_patterns * spec.ell_r * cfg.m)
                    self._record(ledger, wire.WRITE_QGEN, wire.PHASE_WRITE, wire.UP, n,
                                 spec.write_patterns * spec.ell_w * cfg.m,
                                 metered=False)
        read_ok = True
        read_mismatch = None
        distorted_read = 0
        for idx, reg in enumerate(self.realized):
            spec = reg.spec
            decoded = rs.region_read(fp, reg, self.region_states[idx],
                                     self.read_queries[idx], self.bit_sets[idx].read)
            dbs = rs.read_databases(cfg.n, spec.case)
            subpackets = reg.total_bits // spec.ell_r
            for s in range(subpackets):
                for db in dbs:
                    self._record(ledger, wire.READ_A, wire.PHASE_READ, wire.DOWN, db, 1,
                                 subpacket=s)
            covered = 0
            for pos, value in decoded.items():
                if pos < reg.real_bits:
                    covered += 1
                    expected = self.oracle.values[theta - 1][reg.start + pos]
                    if value != expected:
                        read_ok = False
                        read_mismatch = read_mismatch or {
                            "position": reg.start + pos, "expected": expected, "got": value}
            distorted_read += reg.real_bits - covered

        update_rng = self._user_rng("update")
        deltas_full = self._synthetic_deltas(self.length, update_rng)
        distorted_write = 0
        for idx, reg in enumerate(self.realized):
            spec = reg.spec
            region_deltas = [
                deltas_full[reg.start + pos] if pos < reg.real_bits else 0
                for pos in range(reg.total_bits)
            ]
            written, _ = rs.region_write(region_deltas, theta, fp, reg,
                                         self.region_states[idx],
                                         self.write_queries[idx],
                                         self.bit_sets[idx].write, update_rng,
                                         cfg.disable_noise)
            dbs = rs.write_databases(cfg.n, spec.case)
            subpackets = reg.total_bits // spec.ell_w
            for s in range(subpackets):
                for db in dbs:
                    self._record(ledger, wire.WRITE_U, wire.PHASE_WRITE, wire.UP, db, 1,
                                 subpacket=s)
            covered = 0
            for pos in written:
                if pos < reg.real_bits:
                    covered += 1
                    v = self.oracle.values[theta - 1][reg.start + pos]
                    self.oracle.values[theta - 1][reg.start + pos] = (
                        v + deltas_full[reg.start + pos]
                    ) % fp.q
            distorted_write += reg.real_bits - covered

        write_ok, write_mismatch = True, None
        for idx, reg in enumerate(self.realized):
            oracle = self._oracle_region(idx)
            plain = reconstruct_plain(self.region_states[idx])
            if plain != oracle:
                write_ok = False
                write_mismatch = _write_mismatch(oracle, plain, reg.start)
                break
        report = rs.DistortionReport(
            read_budget=self.plan.d_read,
            write_budget=self.plan.d_write,
            read_measured=Fraction(distorted_read, self.length),
            write_measured=Fraction(distorted_write, self.length),
            pad_bits=sum(reg.pad_bits for reg in self.realized),
        )
        detail = {
            "read_ok": read_ok,
            "write_ok": write_ok,
            "regions": [
                {
                    "lam": str(reg.spec.lam),
                    "ell_r": reg.spec.ell_r,
                    "ell_w": reg.spec.ell_w,
                    "case": reg.spec.case,
                    "real_bits": reg.real_bits,
                    "pad_bits": reg.pad_bits,
                }
                for reg in self.realized
            ],
        }
        _explain(detail, read_mismatch, write_mismatch)
        return IterationResult(theta=theta, ledger=ledger,
                               verdict=read_ok and write_ok and report.within_budget,
                               detail=detail, distortion=report)

    def _oracle_region(self, idx: int) -> ModelPlain:
        reg = self.realized[idx]
        values = [
            row[reg.start : reg.start + reg.real_bits] + [0] * reg.pad_bits
            for row in self.oracle.values
        ]
        return ModelPlain(m_count=self.oracle.m_count, length=reg.total_bits, values=values)


def run_session(cfg: ExperimentConfig, thetas: list[int] | None = None) -> SessionResult:
    session = Session(cfg)
    iterations = []
    for i in range(cfg.iterations):
        theta = thetas[i] if thetas else cfg.theta
        iterations.append(session.run_iteration(theta))
    return SessionResult(config=cfg, iterations=iterations, log=session.log)


def run_iteration(cfg: ExperimentConfig) -> IterationResult:
    """Single-iteration convenience wrapper."""
    return run_session(cfg).iterations[0]


@dataclass
class CostRow:
    scheme: str
    n: int
    knobs: str
    measured_cr: object
    analytic_cr: object
    measured_cw: object
    analytic_cw: object
    match: bool
    extra: dict = dc_field(default_factory=dict)

    def csv_line(self) -> str:
        return ",".join(
            [
                self.scheme,
                str(self.n),
                self.knobs,
                str(self.measured_cr),
                str(self.analytic_cr),
                str(self.measured_cw),
                str(self.analytic_cw),
                "true" if self.match else "false",
            ]
        )


CSV_HEADER = "scheme,N,knobs,measured_CR,analytic_CR,measured_CW,analytic_CW,match"


def aligned_length(plan: rs.SparsePlan) -> int:
    """Smallest model length realizing the plan's fractions exactly."""
    base = math.lcm(*(reg.period for reg in plan.regions))
    for k in range(1, 100000):
        length = k * base
        if all((reg.lam * length).denominator == 1
               and int(reg.lam * length) % reg.period == 0
               for reg in plan.regions):
            return length
    raise ConfigError("could not align the plan to a whole-subpacket grid")


def verify_costs(specs: list[dict]) -> list[CostRow]:
    """Run each configuration and set measured against analytic costs."""
    rows = []
    for spec in specs:
        scheme = spec["scheme"]
        if scheme == "basic":
            n = int(spec["n"])
            ell = basic.optimal_params(n).ell
            cfg = ExperimentConfig(scheme="basic", n=n, m=2, l=4 * ell,
                                   q=int(spec.get("q", 2**31 - 1)),
                                   seed=int(spec.get("seed", 1)))
            res = run_session(cfg).iterations[0]
            cr, cw, _ = basic.costs_basic(n)
            rows.append(CostRow(
                scheme="basic", n=n, knobs="optimal",
                measured_cr=res.ledger.c_read, analytic_cr=cr,
                measured_cw=res.ledger.c_write, analytic_cw=cw,
                match=res.ledger.c_read == cr and res.ledger.c_write == cw,
            ))
        elif scheme == "topr":
            n, p, q = int(spec["n"]), int(spec["p"]), int(spec["q"])
            case = int(spec.get("case", 1))
            r, rp = Fraction(spec.get("r", "1/5")), Fraction(spec.get("r_prime", "1/5"))
            from .storage import topr_subpacketization

            ell = topr_subpacketization(n, case)
            q_exec = q if q > n + ell else next_prime_above(n + ell)
            cfg = ExperimentConfig(scheme="topr", n=n, m=2, p=p, q=q_exec,
                                   position_base=q, case=case, r=r, r_prime=rp,
                                   seed=int(spec.get("seed", 1)))
            res = run_session(cfg).iterations[0]
            metered = topr.costs_topr_metered(n, p, q, r, rp, case)
            analytic = topr.costs_topr(n, p, q, r, rp, case)
            extra = {"analytic_fractional_cr": str(analytic.read),
                     "analytic_fractional_cw": str(analytic.write),
                     "q_exec": q_exec}
            knobs = f"p={p};q={q};r={r};r'={rp};case={case}"
            if analytic.read_alt is not None:
                extra["alt_cr"] = str(analytic.read_alt)
                extra["alt_cw"] = str(analytic.write_alt)
                knobs += f";alt_cr={analytic.read_alt};alt_cw={analytic.write_alt}"
            rows.append(CostRow(
                scheme="topr", n=n, knobs=knobs,
                measured_cr=res.ledger.c_read, analytic_cr=metered.read,
                measured_cw=res.ledger.c_write, analytic_cw=metered.write,
                match=res.ledger.c_read == metered.read and res.ledger.c_write == metered.write,
                extra=extra,
            ))
        elif scheme == "random":
            n = int(spec["n"])
            d_read = Fraction(spec.get("d_read", spec.get("d", 0)))
            d_write = Fraction(spec.get("d_write", spec.get("d", 0)))
            plan = rs.optimize_plan(n, d_read, d_write)
            length = int(spec.get("l", 0)) or aligned_length(plan)
            cfg = ExperimentConfig(scheme="random", n=n, m=2, l=length,
                                   q=int(spec.get("q", 2**31 - 1)),
                                   d_read=d_read, d_write=d_write,
                                   seed=int(spec.get("seed", 1)))
            res = run_session(cfg).iterations[0]
            cr, cw = rs.costs_random(n, plan)
            closed = rs.costs_random_closed_form(n, d_read, d_write)
            rows.append(CostRow(
                scheme="random", n=n,
                knobs=f"d_read={d_read};d_write={d_write};l={length}",
                measured_cr=res.ledger.c_read, analytic_cr=cr,
                measured_cw=res.ledger.c_write, analytic_cw=cw,
                match=res.ledger.c_read == cr and res.ledger.c_write == cw,
                extra={"closed_form_cr": str(closed[0]), "closed_form_cw": str(closed[1])},
            ))
        else:
            raise ConfigError(f"unknown scheme {scheme!r} in sweep")
    return rows
