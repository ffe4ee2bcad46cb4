"""Noise-masked replicated storage for the three scheme variants.

Each database holds, per subpacket, per bit, per submodel, one masked symbol:

* basic:      ``W + (f_j - alpha_n) * mask(alpha_n)`` with ``t_storage`` terms,
* top-r:      same shape with the case-specific mask degree (2*ell or ell+1),
* random:     ``W / (f_j - alpha_n) + mask(alpha_n)`` on a cyclic f layout.

The mask coefficients are identical across databases (only alpha varies);
they come from a counter-mode stream keyed by the coordinator seed, so any
cell is reproducible without ever materializing the mask tensors.
"""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass, field as dc_field

from .errors import ConfigError, DomainError, IntegrityError
from .field import CounterNoise, FieldParams, derive_seed
from .poly import lagrange_interpolate, unit_vectors

KIND_BASIC = "basic"
KIND_TOPR = "topr"
KIND_RANDOM = "random"


@dataclass
class ModelPlain:
    """The plain (unmasked) model: m_count submodels of `length` symbols."""

    m_count: int
    length: int
    values: list[list[int]]

    @classmethod
    def random(cls, m_count: int, length: int, q: int, rng: random.Random) -> "ModelPlain":
        vals = [[rng.randrange(q) for _ in range(length)] for _ in range(m_count)]
        return cls(m_count=m_count, length=length, values=vals)

    @classmethod
    def zeros(cls, m_count: int, length: int) -> "ModelPlain":
        return cls(m_count, length, [[0] * length for _ in range(m_count)])

    def copy(self) -> "ModelPlain":
        return ModelPlain(self.m_count, self.length, [row[:] for row in self.values])

    def __eq__(self, other):
        return (
            isinstance(other, ModelPlain)
            and other.m_count == self.m_count
            and other.length == self.length
            and other.values == self.values
        )


@dataclass(frozen=True)
class BasicLayout:
    kind = KIND_BASIC
    t_storage: int
    t_query: int
    t_update: int
    ell: int

    @property
    def width(self) -> int:
        return self.ell

    @property
    def noise_terms(self) -> int:
        return self.t_storage

    @property
    def affine_mask(self) -> bool:
        # cell = W + (f - alpha) * mask
        return True


@dataclass(frozen=True)
class TopRLayout:
    kind = KIND_TOPR
    case: int
    ell: int

    @property
    def width(self) -> int:
        return self.ell

    @property
    def mask_degree(self) -> int:
        return 2 * self.ell if self.case == 1 else self.ell + 1

    @property
    def noise_terms(self) -> int:
        return self.mask_degree + 1

    @property
    def affine_mask(self) -> bool:
        return True


@dataclass(frozen=True)
class RandomLayout:
    kind = KIND_RANDOM
    case: int
    ell_r: int
    ell_w: int
    n_databases: int

    @property
    def y(self) -> int:
        return max(self.ell_r, self.ell_w)

    @property
    def width(self) -> int:
        return self.y

    @property
    def noise_terms(self) -> int:
        half = self.n_databases // 2
        if self.case == 1:
            return half  # mask degree floor(N/2) - 1
        return self.n_databases - half  # mask degree ceil(N/2) - 1

    @property
    def affine_mask(self) -> bool:
        # cell = W / (f - alpha) + mask
        return False


@dataclass(frozen=True)
class CoordinatorSetup:
    """Seed fan-out for the trusted initialization.

    Every noise stream (storage masks, permutation, fixed bit sets, user
    streams) derives from the master seed through labelled hashing, so
    replaying the same master seed reproduces byte-identical initial states.
    """

    master_seed: int

    @property
    def model_seed(self) -> int:
        return derive_seed(self.master_seed, "model")

    @property
    def storage_seed(self) -> int:
        return derive_seed(self.master_seed, "storage")

    @property
    def permutation_seed(self) -> int:
        return derive_seed(self.master_seed, "perm")

    def user_seed(self, label: str, iteration: int) -> int:
        return derive_seed(self.master_seed, f"{label}-{iteration}")

    def scheme_seed(self, label: str) -> int:
        return derive_seed(self.master_seed, label)


@dataclass
class DatabaseState:
    """One database's masked storage for one contiguous storage block.

    ``cells[s][j][m]`` is the masked symbol of bit j (0-based within the
    subpacket) of submodel m in subpacket s.  ``length`` is the unpadded
    per-submodel symbol count this block covers.
    """

    db_index: int
    fp: FieldParams
    layout: object
    m_count: int
    length: int
    cells: list[list[list[int]]]
    aux: object = dc_field(default=None, repr=False)

    @property
    def subpackets(self) -> int:
        return len(self.cells)

    @property
    def padded_length(self) -> int:
        return self.subpackets * self.layout.width

    def rows(self, lo: int, count: int) -> list[list[int]]:
        """The M-symbol cell rows at flat bit positions lo .. lo+count-1,
        counted row-major over (subpacket, bit); the rows are the stored
        lists, so :func:`fold` updates storage in place."""
        width = self.layout.width
        cells = self.cells
        return [cells[p // width][p % width] for p in range(lo, lo + count)]


def answer(q: int, rows, qvecs, coefs=None) -> int:
    """A database's read answer: sum_k coefs[k] * <rows[k], qvecs[k]> mod q
    (every coefficient 1 when ``coefs`` is None)."""
    if coefs is None:
        return sum(sum(map(operator.mul, row, qv)) for row, qv in zip(rows, qvecs)) % q
    return sum(
        c * sum(map(operator.mul, row, qv)) for c, row, qv in zip(coefs, rows, qvecs)
    ) % q


def fold(q: int, rows, qvecs, factors) -> None:
    """A database's write: rows[k] += factors[k] * qvecs[k] mod q, in place."""
    for row, qv, factor in zip(rows, qvecs, factors):
        for m in range(len(row)):
            row[m] = (row[m] + factor * qv[m]) % q


def _padded(model: ModelPlain, width: int) -> tuple[list[list[int]], int]:
    pad = (-model.length) % width
    if pad == 0:
        return model.values, model.length
    vals = [row + [0] * pad for row in model.values]
    return vals, model.length + pad


def mask_value(noise: CounterNoise, q: int, kind: str, s: int, j: int, m: int, terms: int, alpha: int) -> int:
    """Mask polynomial of cell (s, j, m) evaluated at alpha."""
    acc = 0
    p = 1
    for i in range(terms):
        acc = (acc + p * noise.symbol(q, kind, s, j, m, i)) % q
        p = p * alpha % q
    return acc


def _build_states(
    model: ModelPlain,
    fp: FieldParams,
    layout,
    seed: int,
    disable_noise: bool,
) -> list[DatabaseState]:
    q = fp.q
    width = layout.width
    values, padded_len = _padded(model, width)
    subpackets = padded_len // width
    noise = CounterNoise(seed)
    states = []
    for n in range(1, fp.n_databases + 1):
        alpha = fp.alpha(n)
        cells = []
        for s in range(subpackets):
            block = []
            for j in range(width):
                f_j = fp.fs[j]
                col = []
                for m in range(model.m_count):
                    w = values[m][s * width + j]
                    if disable_noise:
                        mask = 0
                    else:
                        mask = mask_value(noise, q, layout.kind, s, j, m, layout.noise_terms, alpha)
                    if layout.affine_mask:
                        cell = (w + (f_j - alpha) * mask) % q
                    else:
                        cell = (w * fp.field.inv(f_j - alpha) + mask) % q
                    col.append(cell)
                block.append(col)
            cells.append(block)
        states.append(
            DatabaseState(
                db_index=n,
                fp=fp,
                layout=layout,
                m_count=model.m_count,
                length=model.length,
                cells=cells,
            )
        )
    return states


def init_basic(
    model: ModelPlain,
    fp: FieldParams,
    t_storage: int,
    t_query: int,
    t_update: int,
    seed: int,
    disable_noise: bool = False,
) -> list[DatabaseState]:
    """Build all replicas with shared masks.  ``disable_noise`` is a debug
    switch for fixtures; it stores the model in the clear."""
    n = fp.n_databases
    if min(t_storage, t_query, t_update) < 1:
        raise ConfigError("all noise-term counts must be >= 1")
    if 2 * t_storage < n + t_update - 1:
        raise ConfigError(
            f"t_storage={t_storage} too small: need 2*t_storage >= {n + t_update - 1}"
        )
    if t_storage > n - t_query - 1:
        raise ConfigError(f"t_storage={t_storage} leaves no room for data (ell < 1)")
    ell = n - t_storage - t_query
    if len(fp.fs) < ell:
        raise ConfigError(f"need {ell} bit constants, field params carry {len(fp.fs)}")
    layout = BasicLayout(t_storage=t_storage, t_query=t_query, t_update=t_update, ell=ell)
    return _build_states(model, fp, layout, seed, disable_noise)


def topr_subpacketization(n: int, case: int) -> int:
    """Per-case subpacketization; rejects shapes the cost analysis excludes."""
    if case == 1:
        if (n - 2) % 4 != 0:
            raise ConfigError(f"case 1 needs N = 4*ell + 2; N={n} does not fit")
        ell = (n - 2) // 4
    elif case == 2:
        if (n - 4) % 2 != 0:
            raise ConfigError(f"case 2 needs N = 2*ell + 4; N={n} does not fit")
        ell = (n - 4) // 2
    else:
        raise ConfigError(f"unknown case {case}")
    if ell < 1:
        raise ConfigError(f"N={n} gives subpacketization {ell} < 1")
    return ell


def init_topr(
    model: ModelPlain,
    fp: FieldParams,
    case: int,
    seed: int,
    disable_noise: bool = False,
) -> list[DatabaseState]:
    ell = topr_subpacketization(fp.n_databases, case)
    if len(fp.fs) < ell:
        raise ConfigError(f"need {ell} bit constants, field params carry {len(fp.fs)}")
    layout = TopRLayout(case=case, ell=ell)
    return _build_states(model, fp, layout, seed, disable_noise)


def init_random_sparse(
    model: ModelPlain,
    fp: FieldParams,
    case: int,
    ell_r: int,
    ell_w: int,
    seed: int,
    disable_noise: bool = False,
) -> list[DatabaseState]:
    if ell_r < 1 or ell_w < 1:
        raise ConfigError("subpacketizations must be >= 1")
    # ties (ell_r == ell_w) are admissible under either case; the plan's
    # budget ordering decides which storage degree they get
    if case == 1 and not ell_w >= ell_r:
        raise ConfigError("case 1 requires ell_w >= ell_r")
    if case == 2 and not ell_r >= ell_w:
        raise ConfigError("case 2 requires ell_r >= ell_w")
    if case not in (1, 2):
        raise ConfigError(f"unknown case {case}")
    layout = RandomLayout(case=case, ell_r=ell_r, ell_w=ell_w, n_databases=fp.n_databases)
    if len(fp.fs) < layout.y:
        raise ConfigError(f"need {layout.y} bit constants, field params carry {len(fp.fs)}")
    return _build_states(model, fp, layout, seed, disable_noise)


@functools.lru_cache(maxsize=256)
def _oracle_map(fp: FieldParams, layout, j: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(evaluation weights, parity rows) taking bit j's N replicas to its
    plain symbol.

    Column n holds the Lagrange coefficients of the n-th unit vector over the
    database constants, so the coefficients of any cell's interpolant are
    the map applied to its replicas.  The weights evaluate that interpolant
    at f_j; the parity rows are its coefficients above the mask degree,
    which vanish on consistent storage.  The random layout's per-cell
    (f_j - alpha_n) rescale is folded into column n.
    """
    q = fp.q
    f_j = fp.fs[j]
    cols = []
    for alpha, e in zip(fp.alphas, unit_vectors(fp.n_databases)):
        col = lagrange_interpolate(fp.field, fp.alphas, e)
        if not layout.affine_mask:
            col = [c * (f_j - alpha) % q for c in col]
        cols.append(col)
    weights = tuple(fp.field.poly_eval(col, f_j) for col in cols)
    parity = tuple(
        tuple(col[k] for col in cols) for k in range(layout.noise_terms + 1, fp.n_databases)
    )
    return weights, parity


def reconstruct_plain(states: list[DatabaseState]) -> ModelPlain:
    """Invert the masking across databases (test oracle, not a protocol step).

    Interpolates each cell across the database constants and reads the plain
    symbol off at the bit constant; the coefficients above the mask degree
    act as a consistency check, so any single corrupted cell raises
    IntegrityError.  Interpolation is a fixed linear map per bit constant,
    built from :func:`lagrange_interpolate` once per field and layout and
    applied to every cell as N-term dot products; it never calls the
    decoders' Gaussian elimination.
    """
    if not states:
        raise DomainError("no database states given")
    fp = states[0].fp
    layout = states[0].layout
    if len(states) != fp.n_databases:
        raise IntegrityError("need the full replication group to reconstruct")
    first = states[0]
    for st in states[1:]:
        if st.layout != layout or st.m_count != first.m_count or st.subpackets != first.subpackets:
            raise IntegrityError("database states disagree on shape")
    q = fp.q
    mul = operator.mul
    width = layout.width
    maps = [_oracle_map(fp, layout, j) for j in range(width)]
    out = ModelPlain.zeros(first.m_count, first.length)
    for s in range(first.subpackets):
        blocks = [st.cells[s] for st in states]
        for j, (weights, parity) in enumerate(maps):
            pos = s * width + j
            for m, ys in enumerate(zip(*[block[j] for block in blocks])):
                for row in parity:
                    if sum(map(mul, row, ys)) % q:
                        raise IntegrityError(
                            f"cell (s={s}, j={j}, m={m}) inconsistent across databases"
                        )
                w = sum(map(mul, weights, ys)) % q
                if pos < first.length:
                    out.values[m][pos] = w
                elif w != 0:
                    raise IntegrityError("padding decoded to a nonzero symbol")
    return out
