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
super-subpackets); the realized fractions are what the meter reports, and
any padding is confined to the zero-distortion region.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .basic import null_shaper_factor
from .errors import ConfigError, DomainError
from .field import FieldParams, derive_seed, seeded_uniform
from .poly import apply_rows, build_query, combine_update, decode_inverse
from .storage import DatabaseState, ModelPlain, answer, fold, init_random_sparse


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

    @property
    def gamma_w(self) -> int:
        return self.period // self.ell_w


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
    region absorbs the remainder and any padding, which is harmless there
    because the canonical first region carries zero distortion.
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
    model: ModelPlain,
    fp: FieldParams,
    realized: RealizedRegion,
    seed: int,
    region_index: int,
    disable_noise: bool = False,
) -> list[DatabaseState]:
    spec = realized.spec
    sub_values = [
        row[realized.start : realized.start + realized.real_bits]
        + [0] * realized.pad_bits
        for row in model.values
    ]
    sub_model = ModelPlain(m_count=model.m_count, length=realized.total_bits, values=sub_values)
    return init_random_sparse(
        sub_model, fp, spec.case, spec.ell_r, spec.ell_w,
        derive_seed(seed, f"region-{region_index}"), disable_noise,
    )


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


def _pattern_fs(fp: FieldParams, t: int, phase_ell: int, y: int) -> list[int]:
    """Bit constants of pattern t (1-based), following the cyclic layout."""
    return [fp.f(g_index((t - 1) * phase_ell + i, y)) for i in range(1, phase_ell + 1)]


def build_read_queries(
    theta: int,
    fp: FieldParams,
    spec: RegionSpec,
    j_read,
    m_count: int,
    rng: random.Random,
    disable_noise: bool = False,
):
    """One-time read queries: queries[t-1][n-1][i][m] over the patterns.

    Indicators on the J-set bits, masked by (f - alpha) times free noise."""
    return [
        build_query(theta, fp, _pattern_fs(fp, t, spec.ell_r, spec.y), m_count, rng,
                    disable_noise, reciprocal=False, selected=j_read[t - 1])
        for t in range(1, spec.read_patterns + 1)
    ]


def build_write_queries(
    theta: int,
    fp: FieldParams,
    spec: RegionSpec,
    j_write,
    m_count: int,
    rng: random.Random,
    disable_noise: bool = False,
):
    """One-time write queries: queries[t-1][n-1][i][m].

    Reciprocal indicators on the J-set bits masked by free noise; the
    reciprocal puts the decomposed update directly into the storage shape.
    """
    return [
        build_query(theta, fp, _pattern_fs(fp, t, spec.ell_w, spec.y), m_count, rng,
                    disable_noise, selected=j_write[t - 1])
        for t in range(1, spec.write_patterns + 1)
    ]


def region_read(
    fp: FieldParams,
    realized: RealizedRegion,
    states: list[DatabaseState],
    queries,
    j_read,
) -> dict[int, int]:
    """Decode the faithful bits of every reading subpacket in the region.

    Returns {region-local position (0-based): decoded symbol} covering the
    J-set positions only; everything else is distortion by construction.
    """
    spec = realized.spec
    n = fp.n_databases
    dbs = read_databases(n, spec.case)
    base = len(j_read[0])
    power_count = len(dbs) - base
    subpackets = realized.total_bits // spec.ell_r
    decoded: dict[int, int] = {}
    q = fp.q
    alphas = tuple(fp.alpha(db) for db in dbs)
    # one decode inverse per read pattern, fixed for the session
    inverses = []
    for t in range(1, spec.read_patterns + 1):
        fs = _pattern_fs(fp, t, spec.ell_r, spec.y)
        f_subset = tuple(fs[i - 1] for i in j_read[t - 1])
        inverses.append(decode_inverse(fp.field, alphas, f_subset, power_count))
    for s in range(1, subpackets + 1):
        t = (s - 1) % spec.read_patterns + 1
        lo = (s - 1) * spec.ell_r
        answers = [answer(q, states[db - 1].rows(lo, spec.ell_r), queries[t - 1][db - 1])
                   for db in dbs]
        sol = apply_rows(q, inverses[t - 1], answers)
        for idx, i in enumerate(j_read[t - 1]):
            decoded[lo + i - 1] = sol[idx]
    return decoded


def region_write(
    deltas: list[int],
    theta: int,
    fp: FieldParams,
    realized: RealizedRegion,
    states: list[DatabaseState],
    queries,
    j_write,
    rng: random.Random,
    disable_noise: bool = False,
) -> tuple[set[int], int]:
    """Apply one write round over the region.

    ``deltas`` is the region-local update vector (length total_bits).
    Returns (region-local positions written, symbols sent per database).
    """
    spec = realized.spec
    if len(deltas) != realized.total_bits:
        raise DomainError("delta vector does not span the region")
    n = fp.n_databases
    dbs = write_databases(n, spec.case)
    # odd N, case 2: the excluded database is a one-element skip set
    skip = (n,) if len(dbs) < n else ()
    subpackets = realized.total_bits // spec.ell_w
    q = fp.q
    alphas = [fp.alpha(db) for db in dbs]
    # per write pattern: bit constants and each database's null-shaper
    # factors, which depend only on the constants
    patterns = []
    for t in range(1, spec.write_patterns + 1):
        fs = _pattern_fs(fp, t, spec.ell_w, spec.y)
        diags = [[null_shaper_factor(fp, skip, f, db) for f in fs] for db in dbs]
        patterns.append((fs, diags))
    written: set[int] = set()
    for s in range(1, subpackets + 1):
        t = (s - 1) % spec.write_patterns + 1
        fs, diags = patterns[t - 1]
        jset = list(j_write[t - 1])
        lo = (s - 1) * spec.ell_w
        sub_fs = [fs[i - 1] for i in jset]
        sub_deltas = [deltas[lo + i - 1] for i in jset]
        noise = [0] if disable_noise else seeded_uniform(rng, q, 1)
        us = combine_update(fp.field, sub_deltas, sub_fs, alphas, noise)
        for db, u, diag in zip(dbs, us, diags):
            fold(q, states[db - 1].rows(lo, spec.ell_w), queries[t - 1][db - 1],
                 [d * u % q for d in diag])
        for i in jset:
            written.add(lo + i - 1)
    return written, subpackets * len(dbs)


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
    """Lambda-weighted exact costs of the plan (what the meter must match)."""
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
