"""Session orchestration: one read -> write -> verify loop for every scheme.

A session owns the noise root, the wire log and the oracle: the drawn plain
model, which builds the masked storage and is then updated in plain
arithmetic alongside it (storage keeps no reference to it).  The scheme
classes (``basic.BasicScheme``, ``topr.TopRScheme``,
``random_sparse.RandomScheme``, keyed by config name in :data:`SCHEMES`)
hold everything that differs.  Each is built as ``Scheme(cfg)`` and offers:

* ``length``: the normalizing length (each scheme also keeps its field
  constants as ``fp``, which only the scheme itself reads);
* ``init_storage(model, noise)``: builds the masked replicas of the
  ``(M, length)`` model array, drawing their privacy noise from the root
  ``noise`` (under "storage", and the random scheme's one-time queries
  under "one-time-queries");
* ``storage``: ``(start, states)`` blocks; model positions ``start ..
  start + states[0].length - 1`` live in ``states``, which storage
  zero-pads to whole layout periods (``padded_length``);
* ``read(theta, iteration, noise, record, detail)``: records the read
  frames and returns the pair ``(positions, symbols)``: the model positions
  it decoded and their decoded symbols;
* ``write(data, noise, record, detail)``: records the write frames and
  returns the pair ``(positions, deltas)`` for what was written, through
  the query its read cached or its one-time write queries.

Both pairs are arrays: ``np.intp`` positions, each named once, and symbols
of :func:`~pruw.field.kernel_dtype`, index for index.

The root is a :class:`~pruw.field.CounterNoise` on the config seed, or the
all-zero :class:`~pruw.field.ZeroNoise` when ``disable_noise`` is set; the
session picks it once and no step below branches on it.  (The scheme
constructors draw top-r's permutation, "perm", and random's J sets,
"bit-sets", from their own ``CounterNoise(cfg.seed)`` whatever the root.)
A read's ``noise`` is the root derived under "query-<i>" for iteration i,
and a write's under "update-<i>".  A write's ``data`` is the counter source under "update-<i>"
whatever the root, since the update values ("delta") and top-r's "scores"
are data, not privacy noise.  Each draw is one ``symbol`` call under a tag
naming its use ("mask", "update-noise" beside those two), so an iteration
makes the same few calls whatever L is.
``record(kind, dbs, symbols)`` logs and meters one message of ``kind``
and ``symbols`` symbols to or from each database in ``dbs``, in order (0
is the coordinator); the kind alone fixes its phase, direction and
metering (:data:`~pruw.wire.KINDS`).  Both steps may add scheme-specific
keys to ``detail``.  The remaining members are:

* ``costs()``: the ``(C_R, C_W)`` the scheme predicts.  Random's is exact
  at every L, built from its storage blocks' sizes; basic's and top-r's
  are closed forms, which the meter reports only where nothing is padded
  or rounded (basic when ell divides L, top-r in its first iteration).  No
  verdict compares the two;
* ``budget``: ``None`` or the ``(d_read, d_write)`` distortion budget.

A position missing from the read or write positions is distortion.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import basic, random_sparse as rs, topr, wire
from .config import ExperimentConfig, build_config
from .errors import ConfigError
from .field import CounterNoise, ZeroNoise, derive_seed
from .storage import draw_model, reconstruct_plain

SCHEMES = {"basic": basic.BasicScheme, "topr": topr.TopRScheme, "random": rs.RandomScheme}


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


def _write_mismatch(oracle, storage) -> dict | None:
    """First (submodel, position, expected, got), block by block, where a
    storage block's decoded ``(M, length)`` array and the oracle's slice of
    it differ."""
    import numpy as np

    for start, states in storage:
        got = reconstruct_plain(states)
        bad = np.flatnonzero(oracle[:, start : start + got.shape[1]] != got)
        if len(bad):
            m, k = divmod(int(bad[0]), got.shape[1])
            return {"submodel": m + 1, "position": start + k,
                    "expected": int(oracle[m, start + k]), "got": int(got[m, k])}
    return None


class Session:
    """Initialized network for one scheme configuration."""

    def __init__(self, cfg: ExperimentConfig):
        cfg.validate()
        self.cfg = cfg
        self.log = wire.FrameLog()
        self.iteration_index = 0
        self.noise = ZeroNoise() if cfg.disable_noise else CounterNoise(cfg.seed)
        self.scheme = SCHEMES[cfg.scheme](cfg)
        # the drawn model, then updated in plain arithmetic as the writes land
        self.oracle = draw_model(cfg.m, self.scheme.length, cfg.q, derive_seed(cfg.seed, "model"))
        self.scheme.init_storage(self.oracle, self.noise)

    def run_iteration(self, theta: int | None = None) -> IterationResult:
        """Read, write, then check the decoded symbols and every storage
        block against the oracle; a failing check names its first bad item
        in ``detail``."""
        import numpy as np

        cfg, scheme = self.cfg, self.scheme
        theta = cfg.theta if theta is None else theta
        if not 1 <= theta <= cfg.m:
            raise ConfigError(f"theta={theta} outside 1..{cfg.m}")
        i = self.iteration_index
        ledger = wire.CostLedger(normalizer=scheme.length)

        def record(kind, dbs, symbols):
            for db in dbs:
                ledger.add(self.log.record(i, kind, db, symbols))

        detail: dict = {}
        truth = self.oracle[theta - 1]
        read_pos, got = scheme.read(theta, i, self.noise.derive(f"query-{i}"), record, detail)
        bad = np.flatnonzero(truth[read_pos] != got)
        read_mismatch = None
        if len(bad):
            k = bad[0]
            read_mismatch = {"position": int(read_pos[k]), "expected": int(truth[read_pos[k]]),
                             "got": int(got[k])}
        write_pos, delta = scheme.write(CounterNoise(derive_seed(cfg.seed, f"update-{i}")),
                                        self.noise.derive(f"update-{i}"), record, detail)
        truth[write_pos] = (truth[write_pos] + delta) % cfg.q  # each position named once
        write_mismatch = _write_mismatch(self.oracle, scheme.storage)
        detail["read_ok"] = read_mismatch is None
        detail["write_ok"] = write_mismatch is None
        if read_mismatch is not None:
            detail["read_mismatch"] = read_mismatch
        if write_mismatch is not None:
            detail["write_mismatch"] = write_mismatch
        verdict = read_mismatch is None and write_mismatch is None
        report = None
        if scheme.budget is not None:
            length = scheme.length
            report = rs.DistortionReport(
                read_budget=scheme.budget[0],
                write_budget=scheme.budget[1],
                read_measured=Fraction(length - len(read_pos), length),
                write_measured=Fraction(length - len(write_pos), length),
                pad_bits=sum(states[0].padded_length - states[0].length
                             for _, states in scheme.storage),
            )
            verdict = verdict and report.within_budget
        self.iteration_index += 1
        return IterationResult(theta=theta, ledger=ledger, verdict=verdict, detail=detail,
                               distortion=report)


def run_session(cfg: ExperimentConfig, thetas: list[int] | None = None) -> SessionResult:
    """Run ``cfg.iterations`` iterations, iteration i at ``thetas[i]`` when
    ``thetas`` is given (one per iteration) and at ``cfg.theta`` otherwise.
    A random session's one-time queries are built for ``cfg.theta``, so any
    other theta there is refused before the session is built."""
    if thetas is None:
        thetas = [cfg.theta] * cfg.iterations
    elif len(thetas) != cfg.iterations:
        raise ConfigError(f"{len(thetas)} thetas given for {cfg.iterations} iterations")
    elif cfg.scheme == "random" and any(theta != cfg.theta for theta in thetas):
        raise ConfigError("the one-time queries pin theta for the whole session")
    session = Session(cfg)
    iterations = [session.run_iteration(theta) for theta in thetas]
    return SessionResult(config=cfg, iterations=iterations, log=session.log)


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

    def csv_line(self) -> str:
        # a list-valued knob (perm=2,1,3) holds commas, so its cell is quoted
        knobs = f'"{self.knobs}"' if "," in self.knobs else self.knobs
        costs = (self.measured_cr, self.analytic_cr, self.measured_cw, self.analytic_cw)
        return ",".join([self.scheme, str(self.n), knobs, *map(str, costs),
                         "true" if self.match else "false"])


CSV_HEADER = "scheme,N,knobs,measured_CR,analytic_CR,measured_CW,analytic_CW,match"


def aligned_length(plan: rs.SparsePlan) -> int:
    """Smallest model length realizing the plan's fractions exactly: a
    multiple of every region's period that gives each region (lam = a/b) a
    whole number of periods, lam * L = 0 mod period."""
    return math.lcm(*(math.lcm(reg.period, reg.lam.denominator * reg.period
                               // math.gcd(reg.period, reg.lam.numerator))
                      for reg in plan.regions))


def verify_costs(specs: list[dict]) -> list[CostRow]:
    """Run each sweep line, a run config given as ``{key: value}`` in config
    syntax, and set its metered costs against the scheme's prediction.  A
    basic or random line that sets no ``l`` runs at its aligned length; a
    top-r case-2 row's knobs add the alternative published normalization.
    The knobs are the keys, besides scheme and n, that differ from the
    default config."""
    default = ExperimentConfig().as_dict()
    rows = []
    for spec in specs:
        where = "sweep line " + repr(" ".join(f"{key}={value}" for key, value in spec.items()))
        cfg = build_config((where, key, value) for key, value in spec.items())
        try:
            cfg.validate()
            if "l" not in spec and cfg.scheme == "basic":
                cfg.l = 4 * basic.BasicScheme(cfg).params.ell
            elif "l" not in spec and cfg.scheme == "random":
                cfg.l = aligned_length(rs.optimize_plan(cfg.n, cfg.d_read, cfg.d_write))
            session = Session(cfg)
            ledger = session.run_iteration().ledger
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        knobs = ";".join(f"{key}={','.join(map(str, value)) if isinstance(value, list) else value}"
                         for key, value in cfg.as_dict().items()
                         if key not in ("scheme", "n") and value != default[key])
        if cfg.scheme == "topr" and cfg.case == 2:
            alt = topr.costs_topr(cfg.n, cfg.p, cfg.position_base or cfg.q, cfg.r, cfg.r_prime,
                                  cfg.case)
            knobs += f";alt_cr={alt.read_alt};alt_cw={alt.write_alt}"
        cr, cw = session.scheme.costs()
        rows.append(CostRow(
            scheme=cfg.scheme, n=cfg.n, knobs=knobs,
            measured_cr=ledger.c_read, analytic_cr=cr,
            measured_cw=ledger.c_write, analytic_cw=cw,
            match=ledger.c_read == cr and ledger.c_write == cw,
        ))
    return rows
