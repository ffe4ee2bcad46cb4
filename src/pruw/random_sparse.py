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

Each realized :class:`Region` records its spec, its model slice and its J
sets, drawn once per session: a phase's J sets are the first base entries
of uniform orders from one counter stream tagged (region index, "read" |
"write"), so no region's sets depend on any other draw.  Regions are
realized on their lcm grids (whole super-subpackets); the realized
fractions are what the meter reports.  Each region is floored to its
period.  The remainder goes to the first region when it carries no
distortion (ell_r = ell_w = base, as whenever both phases split), and
otherwise to a zero-distortion tail region (lam 0, ell_r = ell_w = base)
whose J sets are the whole subpacket.  Padding costs symbols, never
distortion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import wire
from .errors import ConfigError, DomainError
from .field import CounterNoise, FieldParams, allocate_eval_points, kernel_dtype, symbol_array
from .poly import apply_rows, build_query, combine_map, decode_inverse
from .storage import DatabaseState, answer, fold, init_random_sparse, write_factors

# Bound on the symbols of a session's one-time queries, N * M * sum over the
# realized regions of (read_patterns * ell_r + write_patterns * ell_w).
QUERY_SYMBOL_LIMIT = 1 << 21


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


@dataclass(frozen=True)
class Region:
    """One realized region: model positions ``start .. start + real_bits -
    1`` under ``spec``, with its per-pattern correct-bit (J) sets, 1-based
    within the subpacket."""

    spec: RegionSpec
    start: int
    real_bits: int
    j_read: tuple[tuple[int, ...], ...]
    j_write: tuple[tuple[int, ...], ...]


def region_layout(plan: SparsePlan, length: int) -> list[tuple[RegionSpec, int, int]]:
    """``(spec, start, size)`` per region of an L-bit model, in model order.

    Every region is floored to its period.  A zero-distortion first region
    (ell_r = ell_w = base) takes the remainder; otherwise a nonzero
    remainder becomes a zero-distortion tail region, appended last, so
    padding never takes correct-bit slots from a distortive region.
    """
    specs = list(plan.regions)
    sizes = [(spec.lam * length).__floor__() // spec.period * spec.period for spec in specs]
    remainder = length - sum(sizes)
    if specs[0].ell_r == specs[0].ell_w == plan.base:
        sizes[0] += remainder
    elif remainder:
        specs.append(RegionSpec(lam=Fraction(0), ell_r=plan.base, ell_w=plan.base,
                                case=_region_case(plan.base, plan.base, plan.d_read,
                                                  plan.d_write)))
        sizes.append(remainder)
    return list(zip(specs, itertools.accumulate(sizes[:-1], initial=0), sizes))


def realize_regions(plan: SparsePlan, length: int, noise) -> list[Region]:
    """The :func:`region_layout` regions with their J sets drawn from
    ``noise``: region idx's read (write) patterns take the first base
    entries of the rows of one ``noise.orders`` call tagged (idx, "read" |
    "write"), sorted and 1-based, so a tail region's sets are the whole
    subpacket."""

    def draw(ell: int, patterns: int, *tag) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted(i + 1 for i in row[: plan.base]))
                     for row in noise.orders(ell, patterns, *tag))

    return [Region(spec, start, size, draw(spec.ell_r, spec.read_patterns, idx, "read"),
                   draw(spec.ell_w, spec.write_patterns, idx, "write"))
            for idx, (spec, start, size) in enumerate(region_layout(plan, length))]


def init_region_states(
    model,
    fp: FieldParams,
    region: Region,
    noise,
) -> list[DatabaseState]:
    """The region's states over its slice of the ``(M, L)`` model array,
    masked with draws from ``noise``; storage pads the slice to the
    region's period."""
    spec = region.spec
    return init_random_sparse(model[:, region.start : region.start + region.real_bits], fp,
                              spec.case, spec.ell_r, spec.ell_w, noise)


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
    """Bit constants of pattern t (1-based), following the cyclic layout:
    its bit i (0-based) takes ``fs[((t - 1) * phase_ell + i) mod y]``."""
    return tuple(fp.fs[((t - 1) * phase_ell + i) % y] for i in range(phase_ell))


def build_read_queries(theta: int, fp: FieldParams, region: Region, m_count: int, noise,
                       tag=()):
    """The region's one-time read queries: queries[t-1][n-1][i][m] over the
    patterns.

    Indicators on the J-set bits, masked by (f - alpha) times free noise;
    pattern t's masks are drawn under (*tag, "read", t)."""
    spec = region.spec
    return [
        build_query(theta, fp, _pattern_fs(fp, t, spec.ell_r, spec.y), m_count, noise,
                    reciprocal=False, selected=region.j_read[t - 1], tag=(*tag, "read", t))
        for t in range(1, spec.read_patterns + 1)
    ]


def build_write_queries(theta: int, fp: FieldParams, region: Region, m_count: int, noise,
                        tag=()):
    """The region's one-time write queries: queries[t-1][n-1][i][m].

    Reciprocal indicators on the J-set bits masked by free noise; the
    reciprocal puts the decomposed update directly into the storage shape.
    Pattern t's masks are drawn under (*tag, "write", t).
    """
    spec = region.spec
    return [
        build_query(theta, fp, _pattern_fs(fp, t, spec.ell_w, spec.y), m_count, noise,
                    selected=region.j_write[t - 1], tag=(*tag, "write", t))
        for t in range(1, spec.write_patterns + 1)
    ]


def _jset_positions(padded_length: int, ell: int, jsets):
    """Row s: the region-local positions (0-based) of the J set of subpacket
    s, which follows pattern s mod len(jsets); a ``(subpackets, |J|)``
    ``np.intp`` array, ascending when read row by row."""
    import numpy as np

    s = np.arange(padded_length // ell, dtype=np.intp)
    return s[:, None] * ell + (np.array(jsets, dtype=np.intp) - 1)[s % len(jsets)]


def _pattern_rows(state: DatabaseState, ell: int, patterns: int, t: int):
    """The cell rows of pattern t's subpackets (t, t + patterns, ... for a
    phase subpacketization ell), as a ``(count, ell, M)`` view."""
    return state.cells.reshape(-1, ell, state.m_count)[t - 1 :: patterns]


def region_read(
    fp: FieldParams,
    region: Region,
    states: list[DatabaseState],
    queries,
):
    """Decode the faithful bits of every reading subpacket in the region.

    Returns the model positions of the J-set bits that are real (not
    padding), ascending and as an ``np.intp`` array, with their decoded
    symbols; everything else is distortion by construction.  Each read
    pattern is one batch: one answer call per database and one decode over
    all of its subpackets.
    """
    import numpy as np

    spec, j_read = region.spec, region.j_read
    dbs = read_databases(fp.n_databases, spec.case)
    alphas = tuple(fp.alpha(db) for db in dbs)
    positions = _jset_positions(states[0].padded_length, spec.ell_r, j_read)
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
    real = positions < region.real_bits
    return region.start + positions[real], values[real]


def region_write(
    deltas,
    fp: FieldParams,
    region: Region,
    states: list[DatabaseState],
    queries,
    noise,
    tag=(),
):
    """Apply one write round over the region, through the one-time write
    ``queries``, which fix the submodel written.

    ``deltas`` holds the region's ``real_bits`` updates; the padding's J-set
    bits get a zero update, so the padding stays zero.  Returns the model
    positions written, ascending and as an ``np.intp`` array.  The noise is
    one symbol per writing subpacket, in subpacket order, drawn in one call
    under ("update-noise", *tag); each write pattern is then one combine
    over its subpackets and one fold per database.
    """
    import numpy as np

    spec, j_write = region.spec, region.j_write
    q, dtype = fp.q, kernel_dtype(fp.q)
    values = symbol_array(deltas, q, (region.real_bits,))
    if values is None:
        raise DomainError("delta vector does not span the region")
    n = fp.n_databases
    dbs = write_databases(n, spec.case)
    # odd N, case 2: the excluded database is a one-element skip set
    skip = (n,) if len(dbs) < n else ()
    padded_length = states[0].padded_length
    subpackets = padded_length // spec.ell_w
    z = noise.symbol(q, subpackets, "update-noise", *tag)
    alphas = tuple(fp.alpha(db) for db in dbs)
    positions = _jset_positions(padded_length, spec.ell_w, j_write)
    padded = np.concatenate([values, np.zeros(padded_length - region.real_bits, dtype=dtype)])
    # per subpacket: its J-set deltas, then its noise symbol
    inputs = np.concatenate([padded[positions],
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
    return region.start + positions[positions < region.real_bits]


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
    region, with the regions' J sets and one-time queries fixed at set-up
    for the configured theta."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.plan = optimize_plan(cfg.n, cfg.d_read, cfg.d_write)
        self.budget = (self.plan.d_read, self.plan.d_write)
        symbols = cfg.n * cfg.m * sum(
            spec.read_patterns * spec.ell_r + spec.write_patterns * spec.ell_w
            for spec, _, _ in region_layout(self.plan, cfg.l)
        )
        if symbols > QUERY_SYMBOL_LIMIT:
            raise ConfigError(
                f"d_read={self.plan.d_read}, d_write={self.plan.d_write} need {symbols} "
                f"one-time query symbols, above the limit of {QUERY_SYMBOL_LIMIT}"
            )
        self.regions = realize_regions(self.plan, cfg.l,
                                       CounterNoise(cfg.seed).derive("bit-sets"))
        self.length = cfg.l
        self.fp = allocate_eval_points(cfg.n, max(r.spec.y for r in self.regions), cfg.q)

    def init_storage(self, model, noise) -> None:
        cfg, storage, queries = self.cfg, noise.derive("storage"), noise.derive("one-time-queries")
        # per region: its (read, write) one-time queries and its storage block
        self.queries = [(build_read_queries(cfg.theta, self.fp, reg, cfg.m, queries, (idx,)),
                         build_write_queries(cfg.theta, self.fp, reg, cfg.m, queries, (idx,)))
                        for idx, reg in enumerate(self.regions)]
        self.storage = [(reg.start, init_region_states(model, self.fp, reg,
                                                       storage.derive(f"region-{idx}")))
                        for idx, reg in enumerate(self.regions)]

    def read(self, theta, iteration, noise, record, detail):
        import numpy as np

        cfg = self.cfg
        if theta != cfg.theta:
            raise ConfigError("the one-time queries pin theta for the whole session")
        # one-time queries are uploaded on the first iteration only
        if iteration == 0:
            for reg in self.regions:
                spec = reg.spec
                for n in range(1, cfg.n + 1):
                    record(wire.READ_Q, [n], spec.read_patterns * spec.ell_r * cfg.m)
                    record(wire.WRITE_QGEN, [n], spec.write_patterns * spec.ell_w * cfg.m)
        positions, symbols = [], []
        for reg, (_, states), (queries, _) in zip(self.regions, self.storage, self.queries):
            pos, values = region_read(self.fp, reg, states, queries)
            record(wire.READ_A, read_databases(cfg.n, reg.spec.case),
                   states[0].padded_length // reg.spec.ell_r)
            positions.append(pos)
            symbols.append(values)
        detail["regions"] = [
            {"lam": str(reg.spec.lam), "ell_r": reg.spec.ell_r, "ell_w": reg.spec.ell_w,
             "case": reg.spec.case, "real_bits": reg.real_bits,
             "pad_bits": states[0].padded_length - states[0].length}
            for reg, (_, states) in zip(self.regions, self.storage)
        ]
        return np.concatenate(positions), np.concatenate(symbols)

    def write(self, data, noise, record, detail):
        import numpy as np

        deltas = data.symbol(self.fp.q, self.length, "delta")
        positions = []
        for idx, (reg, (start, states), (_, queries)) in enumerate(zip(
                self.regions, self.storage, self.queries)):
            written = region_write(deltas[start : start + reg.real_bits], self.fp, reg, states,
                                   queries, noise, (idx,))
            record(wire.WRITE_U, write_databases(self.cfg.n, reg.spec.case),
                   states[0].padded_length // reg.spec.ell_w)
            positions.append(written)
        positions = np.concatenate(positions)
        return positions, deltas[positions]

    def costs(self):
        """The exact ``(C_R, C_W)`` at this L: over the storage blocks, the
        answering databases times the block's read (write) subpackets,
        summed and divided by L.  On an aligned L this is
        :func:`costs_random`."""
        n, read, write = self.cfg.n, 0, 0
        for reg, (_, states) in zip(self.regions, self.storage):
            padded, case = states[0].padded_length, reg.spec.case
            read += len(read_databases(n, case)) * (padded // reg.spec.ell_r)
            write += len(write_databases(n, case)) * (padded // reg.spec.ell_w)
        return Fraction(read, self.length), Fraction(write, self.length)
