"""Random sparsification: distortion-budgeted subpacketization.

Only ``floor(N/2) - 1`` bits per subpacket are ever read or written
correctly; enlarging the subpacket trades distortion for cost linearly.  The
optimizer turns a distortion budget into at most two subpacketizations per
phase (a lambda-split); overlaying the read and write splits yields regions,
each tagged case 1 (storage keyed to the writing subpacket) or case 2
(storage keyed to the reading subpacket).  The bit constants repeat
cyclically with period y = max(ell_r, ell_w), so queries are defined once
per super-subpacket pattern and reused; they are one-time messages and stay
off the cost meter.

Region boundaries are realized on each region's lcm grid (whole
super-subpackets); the realized fractions are what the meter reports.  The
first region takes the remainder, padded to its grid.  The padding costs no
distortion only if that region carries none; on a single-region plan, or
one where only one phase splits, pad bits take correct-bit slots from real
positions and can overrun the budget (N=10, L=2000, d=(1/3, 1/5) reads
667/2000 with 10 pad bits).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import wire
from .errors import ConfigError, DomainError
from .field import FieldParams, allocate_eval_points, derive_seed, kernel_dtype
from .poly import apply_rows, build_query, combine_map, decode_inverse
from .storage import DatabaseState, answer, fold, init_random_sparse, write_factors

# Bound on the symbols of a session's one-time queries, N * M * sum over the
# realized regions of (read_patterns * ell_r + write_patterns * ell_w).
QUERY_SYMBOL_LIMIT = 1 << 21


def g_index(x: int, y: int) -> int:
    """Cyclic bit-constant index: x mod y, mapping multiples of y to y."""
    r = x % y
    return y if r == 0 else r


def correct_bits(n: int) -> int:
    """Bits per subpacket that are read/written faithfully."""
    return n // 2 - 1


@dataclass(frozen=True)
class PhaseSegment:
    lam: Fraction
    ell: int


@dataclass(frozen=True)
class RegionSpec:
    """One storage region of the overlaid read/write splits."""

    lam: Fraction
    ell_r: int
    ell_w: int
    case: int

    @property
    def y(self) -> int:
        return max(self.ell_r, self.ell_w)

    @property
    def period(self) -> int:
        return math.lcm(self.ell_r, self.ell_w)

    @property
    def read_patterns(self) -> int:
        return math.lcm(self.ell_r, self.y) // self.ell_r

    @property
    def write_patterns(self) -> int:
        return math.lcm(self.ell_w, self.y) // self.ell_w

    @property
    def gamma_r(self) -> int:
        return self.period // self.ell_r


@dataclass(frozen=True)
class SparsePlan:
    n: int
    d_read: Fraction
    d_write: Fraction
    read_segments: tuple[PhaseSegment, ...]
    write_segments: tuple[PhaseSegment, ...]
    regions: tuple[RegionSpec, ...]

    @property
    def base(self) -> int:
        return correct_bits(self.n)


def _phase_segments(n: int, budget: Fraction) -> tuple[PhaseSegment, ...]:
    base = correct_bits(n)
    i_star = budget / (1 - budget) * base
    if i_star.denominator == 1:
        return (PhaseSegment(lam=Fraction(1), ell=base + int(i_star)),)
    eta = -((-i_star.numerator) // i_star.denominator)  # ceil
    lam0 = 1 - budget / eta * (base + eta)
    return (
        PhaseSegment(lam=lam0, ell=base),
        PhaseSegment(lam=1 - lam0, ell=base + eta),
    )


def _region_case(ell_r: int, ell_w: int, d_read: Fraction, d_write: Fraction) -> int:
    if ell_w > ell_r:
        return 1
    if ell_r > ell_w:
        return 2
    # equal subpacketizations: follow the phase-level budget ordering so the
    # odd-N closed forms stay attainable; exact budget ties go to case 2
    return 1 if d_read < d_write else 2


def optimize_plan(n: int, d_read, d_write) -> SparsePlan:
    if n < 4:
        raise ConfigError("the scheme needs at least 4 databases")
    d_read, d_write = Fraction(d_read), Fraction(d_write)
    for d in (d_read, d_write):
        if not 0 <= d < 1:
            raise ConfigError(f"distortion budget {d} outside [0, 1)")
    read_segments = _phase_segments(n, d_read)
    write_segments = _phase_segments(n, d_write)
    cuts = {Fraction(0), Fraction(1)}
    for segments in (read_segments, write_segments):
        acc = Fraction(0)
        for seg in segments[:-1]:
            acc += seg.lam
            cuts.add(acc)
    cuts = sorted(cuts)
    regions = []
    for a, b in zip(cuts, cuts[1:]):
        if b == a:
            continue
        mid = (a + b) / 2
        ell_r = next(seg.ell for seg, lo, hi in _extents(read_segments) if lo <= mid < hi)
        ell_w = next(seg.ell for seg, lo, hi in _extents(write_segments) if lo <= mid < hi)
        regions.append(
            RegionSpec(lam=b - a, ell_r=ell_r, ell_w=ell_w,
                       case=_region_case(ell_r, ell_w, d_read, d_write))
        )
    return SparsePlan(
        n=n,
        d_read=d_read,
        d_write=d_write,
        read_segments=read_segments,
        write_segments=write_segments,
        regions=tuple(regions),
    )


def _extents(segments):
    lo = Fraction(0)
    for seg in segments:
        yield seg, lo, lo + seg.lam
        lo += seg.lam


def plan_from_subpacketizations(n: int, ell_r: int, ell_w: int) -> SparsePlan:
    """Single-region plan pinned to explicit subpacketizations (fixtures)."""
    base = correct_bits(n)
    if min(ell_r, ell_w) < base:
        raise ConfigError(f"subpacketizations must be >= {base}")
    d_read = Fraction(ell_r - base, ell_r)
    d_write = Fraction(ell_w - base, ell_w)
    region = RegionSpec(lam=Fraction(1), ell_r=ell_r, ell_w=ell_w,
                        case=_region_case(ell_r, ell_w, d_read, d_write))
    return SparsePlan(
        n=n, d_read=d_read, d_write=d_write,
        read_segments=(PhaseSegment(Fraction(1), ell_r),),
        write_segments=(PhaseSegment(Fraction(1), ell_w),),
        regions=(region,),
    )


@dataclass(frozen=True)
class RealizedRegion:
    spec: RegionSpec
    start: int        # first real model position covered (0-based)
    real_bits: int    # real positions covered
    total_bits: int   # storage extent, a multiple of spec.period

    @property
    def pad_bits(self) -> int:
        return self.total_bits - self.real_bits


def realize_regions(plan: SparsePlan, length: int) -> list[RealizedRegion]:
    """Cut the model into whole super-subpackets per region.

    Later (higher-distortion) regions are floored to their grid; the first
    region absorbs the remainder, padded to its grid, which can overrun the
    budget unless that region carries no distortion (see the module doc).
    """
    specs = [r for r in plan.regions if r.lam > 0]
    if not specs:
        raise ConfigError("plan has no regions")
    sizes = []
    remaining = length
    for spec in specs[1:][::-1]:
        size = (spec.lam * length).__floor__() // spec.period * spec.period
        size = min(size, remaining)
        sizes.append(size)
        remaining -= size
    sizes = sizes[::-1]
    first_real = remaining
    first_total = -(-first_real // specs[0].period) * specs[0].period
    out = [RealizedRegion(spec=specs[0], start=0, real_bits=first_real, total_bits=first_total)]
    pos = first_real
    for spec, size in zip(specs[1:], sizes):
        out.append(RealizedRegion(spec=spec, start=pos, real_bits=size, total_bits=size))
        pos += size
    return out


@dataclass(frozen=True)
class RegionBitSets:
    """Per-pattern correct-bit index sets (1-based within the subpacket)."""

    read: tuple[tuple[int, ...], ...]
    write: tuple[tuple[int, ...], ...]


def draw_bit_sets(plan: SparsePlan, seed: int) -> list[RegionBitSets]:
    """Draw every J set once for the session; fixed thereafter."""
    rng = random.Random(derive_seed(seed, "bit-sets"))
    base = plan.base
    out = []
    for spec in plan.regions:
        read = tuple(
            tuple(sorted(rng.sample(range(1, spec.ell_r + 1), base)))
            for _ in range(spec.read_patterns)
        )
        write = tuple(
            tuple(sorted(rng.sample(range(1, spec.ell_w + 1), base)))
            for _ in range(spec.write_patterns)
        )
        out.append(RegionBitSets(read=read, write=write))
    return out


def validate_bit_sets(plan: SparsePlan, sets: list[RegionBitSets]) -> None:
    base = plan.base
    for spec, rs in zip(plan.regions, sets):
        if len(rs.read) != spec.read_patterns or len(rs.write) != spec.write_patterns:
            raise ConfigError("bit-set pattern count does not match the plan")
        for j in rs.read:
            if len(j) != base or not all(1 <= i <= spec.ell_r for i in j):
                raise ConfigError(f"read bit set must pick {base} indices within the subpacket")
        for j in rs.write:
            if len(j) != base or not all(1 <= i <= spec.ell_w for i in j):
                raise ConfigError(f"write bit set must pick {base} indices within the subpacket")


def init_region_states(
    model,
    fp: FieldParams,
    realized: RealizedRegion,
    noise,
) -> list[DatabaseState]:
    """The region's states over its slice of the ``(M, L)`` model array,
    zero-padded to the region's storage extent, masked with draws from
    ``noise``."""
    import numpy as np

    spec = realized.spec
    sub = np.zeros((len(model), realized.total_bits), dtype=model.dtype)
    sub[:, : realized.real_bits] = model[:, realized.start : realized.start + realized.real_bits]
    return init_random_sparse(sub, fp, spec.case, spec.ell_r, spec.ell_w, noise)


def read_databases(n: int, case: int) -> list[int]:
    """Databases answering in the reading phase (odd N, case 1 skips one)."""
    if case == 1 and n % 2 == 1:
        return list(range(1, n))
    return list(range(1, n + 1))


def write_databases(n: int, case: int) -> list[int]:
    """Databases receiving update symbols (odd N, case 2 skips the last)."""
    if case == 2 and n % 2 == 1:
        return list(range(1, n))
    return list(range(1, n + 1))


def _pattern_fs(fp: FieldParams, t: int, phase_ell: int, y: int) -> tuple[int, ...]:
    """Bit constants of pattern t (1-based), following the cyclic layout."""
    return tuple(fp.f(g_index((t - 1) * phase_ell + i, y)) for i in range(1, phase_ell + 1))


def build_read_queries(
    theta: int,
    fp: FieldParams,
    spec: RegionSpec,
    j_read,
    m_count: int,
    noise,
    tag=(),
):
    """One-time read queries: queries[t-1][n-1][i][m] over the patterns.

    Indicators on the J-set bits, masked by (f - alpha) times free noise;
    pattern t's masks are drawn under (*tag, "read", t)."""
    return [
        build_query(theta, fp, _pattern_fs(fp, t, spec.ell_r, spec.y), m_count, noise,
                    reciprocal=False, selected=j_read[t - 1], tag=(*tag, "read", t))
        for t in range(1, spec.read_patterns + 1)
    ]


def build_write_queries(
    theta: int,
    fp: FieldParams,
    spec: RegionSpec,
    j_write,
    m_count: int,
    noise,
    tag=(),
):
    """One-time write queries: queries[t-1][n-1][i][m].

    Reciprocal indicators on the J-set bits masked by free noise; the
    reciprocal puts the decomposed update directly into the storage shape.
    Pattern t's masks are drawn under (*tag, "write", t).
    """
    return [
        build_query(theta, fp, _pattern_fs(fp, t, spec.ell_w, spec.y), m_count, noise,
                    selected=j_write[t - 1], tag=(*tag, "write", t))
        for t in range(1, spec.write_patterns + 1)
    ]


def _jset_positions(total_bits: int, ell: int, jsets):
    """Row s: the region-local positions (0-based) of the J set of subpacket
    s, which follows pattern s mod len(jsets); a ``(subpackets, |J|)``
    ``np.intp`` array, ascending when read row by row."""
    import numpy as np

    s = np.arange(total_bits // ell, dtype=np.intp)
    return s[:, None] * ell + (np.array(jsets, dtype=np.intp) - 1)[s % len(jsets)]


def _pattern_rows(state: DatabaseState, ell: int, patterns: int, t: int):
    """The cell rows of pattern t's subpackets (t, t + patterns, ... for a
    phase subpacketization ell), as a ``(count, ell, M)`` view."""
    return state.cells.reshape(-1, ell, state.m_count)[t - 1 :: patterns]


def region_read(
    fp: FieldParams,
    realized: RealizedRegion,
    states: list[DatabaseState],
    queries,
    j_read,
):
    """Decode the faithful bits of every reading subpacket in the region.

    Returns the J-set positions only, region-local (0-based), ascending and
    as an ``np.intp`` array, with their decoded symbols; everything else is
    distortion by construction.  Each read pattern is one batch: one answer
    call per database and one decode over all of its subpackets.
    """
    import numpy as np

    spec = realized.spec
    dbs = read_databases(fp.n_databases, spec.case)
    alphas = tuple(fp.alpha(db) for db in dbs)
    positions = _jset_positions(realized.total_bits, spec.ell_r, j_read)
    values = np.empty(positions.shape, dtype=kernel_dtype(fp.q))
    for t in range(1, spec.read_patterns + 1):
        fs = _pattern_fs(fp, t, spec.ell_r, spec.y)
        f_subset = tuple(fs[i - 1] for i in j_read[t - 1])
        inverse = decode_inverse(fp.field, alphas, f_subset)
        answers = np.stack([
            answer(fp.q, _pattern_rows(states[db - 1], spec.ell_r, spec.read_patterns, t),
                   queries[t - 1][db - 1])
            for db in dbs
        ])
        values[t - 1 :: spec.read_patterns] = apply_rows(fp.q, inverse, answers).T
    return positions.reshape(-1), values.reshape(-1)


def region_write(
    deltas,
    theta: int,
    fp: FieldParams,
    realized: RealizedRegion,
    states: list[DatabaseState],
    queries,
    j_write,
    noise,
    tag=(),
):
    """Apply one write round over the region.

    ``deltas`` is the region-local update vector (length total_bits).
    Returns the region-local positions written, ascending and as an
    ``np.intp`` array, and the symbols sent per database.  The noise is one
    symbol per writing subpacket, in subpacket order, drawn in one call
    under ("update-noise", *tag); each write pattern is then one combine
    over its subpackets and one fold per database.
    """
    import numpy as np

    spec = realized.spec
    if len(deltas) != realized.total_bits:
        raise DomainError("delta vector does not span the region")
    n = fp.n_databases
    dbs = write_databases(n, spec.case)
    # odd N, case 2: the excluded database is a one-element skip set
    skip = (n,) if len(dbs) < n else ()
    subpackets = realized.total_bits // spec.ell_w
    q, dtype = fp.q, kernel_dtype(fp.q)
    z = noise.symbol(q, subpackets, "update-noise", *tag)
    alphas = tuple(fp.alpha(db) for db in dbs)
    positions = _jset_positions(realized.total_bits, spec.ell_w, j_write)
    # per subpacket: its J-set deltas, then its noise symbol
    inputs = np.concatenate([np.asarray(deltas, dtype=dtype)[positions],
                             np.asarray(z, dtype=dtype).reshape(subpackets, 1)], axis=1)
    for t in range(1, spec.write_patterns + 1):
        fs = _pattern_fs(fp, t, spec.ell_w, spec.y)
        sub_fs = tuple(fs[i - 1] for i in j_write[t - 1])
        us = apply_rows(q, combine_map(fp.field, sub_fs, alphas, 1),
                        inputs[t - 1 :: spec.write_patterns].T)
        factors = write_factors(fp, states[0].layout.affine_mask, fs, skip)
        for db, u in zip(dbs, us):
            fold(q, _pattern_rows(states[db - 1], spec.ell_w, spec.write_patterns, t),
                 queries[t - 1][db - 1], np.outer(u, factors[db - 1]) % q)
    return positions.reshape(-1), subpackets * len(dbs)


@dataclass(frozen=True)
class DistortionReport:
    read_budget: Fraction
    write_budget: Fraction
    read_measured: Fraction
    write_measured: Fraction
    pad_bits: int = 0

    @property
    def within_budget(self) -> bool:
        return self.read_measured <= self.read_budget and self.write_measured <= self.write_budget


def costs_random(n: int, plan: SparsePlan) -> tuple[Fraction, Fraction]:
    """Lambda-weighted exact costs of the plan (what the meter reports on an
    aligned length)."""
    read = Fraction(0)
    write = Fraction(0)
    for spec in plan.regions:
        read += spec.lam * Fraction(len(read_databases(n, spec.case)), spec.ell_r)
        write += spec.lam * Fraction(len(write_databases(n, spec.case)), spec.ell_w)
    return read, write


def costs_random_closed_form(n: int, d_read, d_write) -> tuple[Fraction, Fraction]:
    """Closed-form achievable costs for the budget pair."""
    d_read, d_write = Fraction(d_read), Fraction(d_write)
    if n % 2 == 0:
        scale = Fraction(2, 1) / (1 - Fraction(2, n))
        return scale * (1 - d_read), scale * (1 - d_write)
    tight = Fraction(2, 1) / (1 - Fraction(3, n))
    loose = (2 - Fraction(2, n)) / (1 - Fraction(3, n))
    if d_read < d_write:
        return loose * (1 - d_read), tight * (1 - d_write)
    return tight * (1 - d_read), loose * (1 - d_write)


class RandomScheme:
    """Random sparsification in a session: one storage block per realized
    region, with the bit sets and the one-time queries fixed at set-up for
    the configured theta."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.plan = optimize_plan(cfg.n, cfg.d_read, cfg.d_write)
        self.budget = (self.plan.d_read, self.plan.d_write)
        self.realized = realize_regions(self.plan, cfg.l)
        symbols = cfg.n * cfg.m * sum(
            r.spec.read_patterns * r.spec.ell_r + r.spec.write_patterns * r.spec.ell_w
            for r in self.realized
        )
        if symbols > QUERY_SYMBOL_LIMIT:
            raise ConfigError(
                f"d_read={self.plan.d_read}, d_write={self.plan.d_write} need {symbols} "
                f"one-time query symbols, above the limit of {QUERY_SYMBOL_LIMIT}"
            )
        self.length = cfg.l
        self.fp = allocate_eval_points(cfg.n, max(r.spec.y for r in self.realized), cfg.q)
        self.bit_sets = draw_bit_sets(self.plan, cfg.seed)
        validate_bit_sets(self.plan, self.bit_sets)

    def init_storage(self, model, noise) -> None:
        cfg, storage, queries = self.cfg, noise.derive("storage"), noise.derive("one-time-queries")
        self.read_queries, self.write_queries, self.storage = [], [], []
        for idx, (reg, sets) in enumerate(zip(self.realized, self.bit_sets)):
            self.read_queries.append(build_read_queries(cfg.theta, self.fp, reg.spec, sets.read,
                                                        cfg.m, queries, (idx,)))
            self.write_queries.append(build_write_queries(cfg.theta, self.fp, reg.spec,
                                                          sets.write, cfg.m, queries, (idx,)))
            self.storage.append((reg.start, reg.real_bits, init_region_states(
                model, self.fp, reg, storage.derive(f"region-{idx}"))))

    def read(self, theta, iteration, noise, record, detail):
        import numpy as np

        cfg = self.cfg
        if theta != cfg.theta:
            raise ConfigError("the one-time queries pin theta for the whole session")
        # one-time queries are uploaded on the first iteration only
        if iteration == 0:
            for reg in self.realized:
                spec = reg.spec
                for n in range(1, cfg.n + 1):
                    record(wire.READ_Q, wire.PHASE_READ, wire.UP, n,
                           spec.read_patterns * spec.ell_r * cfg.m)
                    record(wire.WRITE_QGEN, wire.PHASE_WRITE, wire.UP, n,
                           spec.write_patterns * spec.ell_w * cfg.m, metered=False)
        positions, symbols = [], []
        for reg, (_, _, states), queries, sets in zip(self.realized, self.storage,
                                                      self.read_queries, self.bit_sets):
            pos, values = region_read(self.fp, reg, states, queries, sets.read)
            for db in read_databases(cfg.n, reg.spec.case):
                record(wire.READ_A, wire.PHASE_READ, wire.DOWN, db,
                       reg.total_bits // reg.spec.ell_r)
            real = pos < reg.real_bits
            positions.append(reg.start + pos[real])
            symbols.append(values[real])
        detail["regions"] = [
            {"lam": str(reg.spec.lam), "ell_r": reg.spec.ell_r, "ell_w": reg.spec.ell_w,
             "case": reg.spec.case, "real_bits": reg.real_bits, "pad_bits": reg.pad_bits}
            for reg in self.realized
        ]
        return np.concatenate(positions), np.concatenate(symbols)

    def write(self, theta, data, noise, record, detail):
        import numpy as np

        cfg = self.cfg
        deltas = data.symbol(self.fp.q, self.length, "delta")
        positions = []
        for idx, (reg, (_, _, states), queries, sets) in enumerate(zip(
                self.realized, self.storage, self.write_queries, self.bit_sets)):
            region = np.zeros(reg.total_bits, dtype=deltas.dtype)
            region[: reg.real_bits] = deltas[reg.start : reg.start + reg.real_bits]
            written, _ = region_write(region, theta, self.fp, reg, states, queries, sets.write,
                                      noise, (idx,))
            for db in write_databases(cfg.n, reg.spec.case):
                record(wire.WRITE_U, wire.PHASE_WRITE, wire.UP, db,
                       reg.total_bits // reg.spec.ell_w)
            positions.append(reg.start + written[written < reg.real_bits])
        positions = np.concatenate(positions)
        return positions, deltas[positions]

    def costs(self):
        return costs_random(self.cfg.n, self.plan)
