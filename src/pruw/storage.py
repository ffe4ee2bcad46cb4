"""Noise-masked replicated storage for the three scheme variants.

Each database holds, per subpacket, per bit, per submodel, one masked symbol
``W + (f_j - alpha_n) * mask(alpha_n)`` on every :class:`Layout`.  The mask
has ``t_storage`` terms on basic, degree 2*ell or ell+1 (by case) on top-r,
and floor or ceil of N/2 terms on random's cyclic f layout.  The paper
stores random's cells as ``W / (f_j - alpha_n) + mask(alpha_n)`` and reads
them with indicator queries; here they are that times the public
(f_j - alpha_n), read with the indicator query divided by it (the
reciprocal form), so every answer is the paper's:
(W + (f - a) P)(z + d / (f - a)) = (W / (f - a) + P)((f - a) z + d).

A write folds with :func:`write_factors` (the null-shaper factor over the
skip set, times (f_j - alpha_n)), built here once per deployment, and the
oracle undoes the form.

The mask coefficients are identical across databases (only alpha varies);
they come from the noise source that ``init_basic``, ``init_topr`` and
``init_random_sparse`` take (a :class:`~pruw.field.CounterNoise`, or the
all-zero :class:`~pruw.field.ZeroNoise` that stores the model in the
clear), one stream per :data:`DRAW_CHUNK` subpackets tagged (kind, chunk)
holding, subpacket after subpacket, each one's width * M * noise_terms
coefficients, so any chunk is reproducible without ever materializing the
mask tensors.  Set-up draws each chunk's stream once, in one call, so the
draw costs the same whatever N is.  The constants of
:func:`~pruw.field.allocate_eval_points` are small integers, so N cells
are one exact map [1, (f_j - alpha_n) alpha_n^i] over [W, z_0 .. z_{t-1}]:
one :func:`~pruw.field.mod_einsum` per chunk, one reduction, no inverse.
The plain model is one more stream, tagged ("model",): :func:`draw_model`.

A database's cells are one contiguous ``(subpackets, width, M)`` numpy
array of :func:`~pruw.field.kernel_dtype` (int64 up to q = 3,037,000,493,
object arrays of Python ints above), the n-th slice of the
``(N, subpackets, width, M)`` array set-up fills.  The kernels over them are
:func:`answer` (the masked inner products a read returns), :func:`fold` (a
write's scaled copy of the cached query, added in place) and the oracle
:func:`reconstruct_plain`.  Their sums of products go through
:func:`~pruw.field.mod_einsum`, which delays the reduction: a small exact
integer operand is summed in one einsum, a residue operand in 16-bit limbs,
at most T(q) products at a time, and each output is reduced once.  A fold
adds a single product to each cell and reduces once.  Each kernel takes a
leading batch axis, so a scheme makes one call per database and phase, not
one per subpacket.  numpy is imported inside the functions that use it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import ConfigError, DomainError, IntegrityError
from .field import CounterNoise, FieldParams, exact_or_residues, kernel_dtype, mod_einsum
from .poly import apply_rows

# subpackets whose mask coefficients are drawn as one stream before their
# cells are laid into the databases; bounds the coefficients held at once
DRAW_CHUNK = 64


def draw_model(m_count: int, length: int, q: int, seed: int):
    """The ``(M, length)`` plain model, an array of :func:`kernel_dtype`: the
    first M * length symbols of the ``("model",)`` counter stream under
    ``seed``, row-major."""
    return CounterNoise(seed).symbol(q, m_count * length, "model").reshape(m_count, length)


@dataclass(frozen=True)
class Layout:
    """The shape of one storage block, whose cells are all
    ``W + (f - alpha) * mask``: ``kind`` tags its mask streams, ``width`` is
    its bits per subpacket and ``noise_terms`` its mask coefficients per
    cell.  ``period``, a multiple of ``width``, is the grid the block is
    padded to with zeros: ``width`` on the basic and top-r layouts,
    lcm(ell_r, ell_w) on the random one, whose read and write subpackets
    both tile it."""

    kind: str
    width: int
    noise_terms: int
    period: int

    # every layout has the affine cell form; kept as a read-only constant,
    # not a field, for perfbench/selftest.py, which reads it
    affine_mask = True


@dataclass
class DatabaseState:
    """One database's masked storage for one contiguous storage block.

    ``cells[s, j, m]`` is the masked symbol of bit j (0-based within the
    subpacket) of submodel m in subpacket s, in a contiguous
    ``(subpackets, width, M)`` array of :func:`kernel_dtype`.  ``length`` is
    the real per-submodel symbol count this block covers, on every layout;
    the cells past it, up to ``padded_length`` (a multiple of the layout's
    period), hold zeros.
    """

    db_index: int
    fp: FieldParams
    layout: Layout
    m_count: int
    length: int
    cells: object

    @property
    def subpackets(self) -> int:
        return len(self.cells)

    @property
    def padded_length(self) -> int:
        return self.subpackets * self.layout.width


def row_products(q: int, rows, qvecs):
    """The K row products of a read, ``<rows[..., k, :], qvecs[k]>`` mod q.

    ``rows`` is a ``(..., K, M)`` array and ``qvecs`` is ``(K, M)``; the
    leading axes are a batch, kept in the ``(..., K)`` result.  The products
    are one :func:`~pruw.field.mod_einsum` call that splits the query vectors
    into 16-bit limbs: each is summed unreduced over M, in chunks of at most
    T(q) terms, and reduced once.
    """
    import numpy as np

    return mod_einsum(q, "km,...km->...k", np.asarray(qvecs, dtype=rows.dtype), rows)


def answer(q: int, rows, qvecs):
    """Read answers: the K :func:`row_products` summed mod q, so ``(S, K, M)``
    rows give S answers."""
    import numpy as np

    out = np.sum(row_products(q, rows, qvecs), axis=-1)
    out -= out // q * q
    return out


def fold(q: int, rows, qvecs, factors) -> None:
    """A database's write: ``rows[..., k, :] += factors[..., k] * qvecs[k]``
    mod q, in place.  ``rows`` is a ``(..., K, M)`` view of the cells,
    ``qvecs`` is ``(K, M)`` and ``factors`` is ``(..., K)``.  Each cell adds
    one unreduced product, which stays below q^2 - q < 2^63 on int64, and is
    reduced once, straight into ``rows``, as x - (x // q) * q like
    :func:`~pruw.field.mod_einsum`."""
    import numpy as np

    dtype = rows.dtype
    step = np.multiply(np.asarray(factors, dtype=dtype)[..., None], np.asarray(qvecs, dtype=dtype))
    step += rows
    np.subtract(step, step // q * q, out=rows)


@functools.lru_cache(maxsize=256)
def write_factors(fp: FieldParams, fs: tuple, skip: tuple):
    """The factors each database folds a write with, a read-only
    ``(N, len(fs))`` array of :func:`kernel_dtype` built once per (field,
    bit constants, skip set).

    Row n - 1 is database n's null-shaper factor over the 1-based database
    indices ``skip``, ``prod_r (a_r - a_n) / prod_r (a_r - f)`` at each bit
    constant f in ``fs`` (1 for an empty skip set), times ``(f - a_n)``; it
    is zero exactly on the skip set.
    """
    import numpy as np

    q = fp.q
    skipped = [fp.alpha(r) for r in skip]
    # the shaper's denominator depends on f alone: one inverse per constant
    dens = [fp.field.inv(math.prod(a - f for a in skipped)) for f in fs]
    rows = []
    for alpha in fp.alphas:
        num = math.prod(a - alpha for a in skipped)
        rows.append([num * den * (f - alpha) % q for f, den in zip(fs, dens)])
    out = np.array(rows, dtype=kernel_dtype(q))
    out.setflags(write=False)
    return out


def _build_states(model, fp: FieldParams, layout, noise) -> list[DatabaseState]:
    """Every database's cells for the ``(M, length)`` plain model, an array
    or nested lists of residues, zero-padded to whole layout periods and
    masked with draws from ``noise``."""
    import numpy as np

    q = fp.q
    dtype = kernel_dtype(q)
    plain = np.asarray(model, dtype=dtype)
    m_count, length = plain.shape
    kind, width, terms = layout.kind, layout.width, layout.noise_terms
    padded = -(-length // layout.period) * layout.period
    subpackets = padded // width
    if padded > length:
        # np.pad would fill object arrays with numpy ints
        pad = np.zeros((m_count, padded - length), dtype=dtype)
        plain = np.concatenate([plain, pad], axis=1)
    # w[s, j, m]: the plain symbol of bit j of submodel m in subpacket s
    w = plain.reshape(m_count, subpackets, width).transpose(1, 2, 0)
    # one exact map over [w, z]
    rows = [[1] + [(f - alpha) * alpha**i for i in range(terms)]
            for alpha in fp.alphas for f in fp.fs[:width]]
    rows = np.array(exact_or_residues(q, rows), dtype=dtype).reshape(-1, width, terms + 1)
    cells = np.empty((len(fp.alphas), subpackets, width, m_count), dtype=dtype)
    for lo in range(0, subpackets, DRAW_CHUNK):
        hi = min(lo + DRAW_CHUNK, subpackets)
        # one stream per chunk, read as z[s, j, m, i]
        z = noise.symbol(q, (hi - lo) * width * m_count * terms, kind,
                         lo // DRAW_CHUNK).reshape(hi - lo, width, m_count, terms)
        # [w, z] copied to [j, i, s, m] and read as [j, s, m, i]: the
        # einsum's inner loop then runs along contiguous (s, m)
        x = np.empty((width, terms + 1, hi - lo, m_count), dtype=dtype)
        x[:, 0] = w[lo:hi].transpose(1, 0, 2)
        x[:, 1:] = z.transpose(1, 3, 0, 2)
        cells[:, lo:hi] = mod_einsum(q, "nji,jsmi->nsjm", rows, x.transpose(0, 2, 3, 1))
    return [
        DatabaseState(db_index=n, fp=fp, layout=layout, m_count=m_count,
                      length=length, cells=db_cells)
        for n, db_cells in enumerate(cells, start=1)
    ]


def init_basic(
    model,
    fp: FieldParams,
    t_storage: int,
    t_query: int,
    noise,
) -> list[DatabaseState]:
    """Build all replicas with masks drawn from ``noise``, shared across
    databases, ell = N - t_storage - t_query bits per subpacket.
    :class:`~pruw.basic.BasicParams` owns the budget (the privacy floor and
    ell >= 1), and ``fp`` carries ell bit constants."""
    ell = fp.n_databases - t_storage - t_query
    return _build_states(model, fp, Layout("basic", ell, t_storage, ell), noise)


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
    model,
    fp: FieldParams,
    case: int,
    noise,
) -> list[DatabaseState]:
    """Build all replicas for a top-r case; :func:`topr_subpacketization`
    owns the shape, and ``fp`` carries its ell bit constants."""
    ell = topr_subpacketization(fp.n_databases, case)
    # mask degree 2 * ell (case 1) or ell + 1 (case 2)
    terms = (2 * ell if case == 1 else ell + 1) + 1
    return _build_states(model, fp, Layout("topr", ell, terms, ell), noise)


def init_random_sparse(
    model,
    fp: FieldParams,
    case: int,
    ell_r: int,
    ell_w: int,
    noise,
) -> list[DatabaseState]:
    """Build all replicas of one random region.  The plan owns the shape: its
    ells are at least ``base`` >= 1 and its case follows their ordering
    (:class:`~pruw.random_sparse.RegionSpec`); ``fp`` carries max(ell_r,
    ell_w) bit constants."""
    # mask degree floor(N/2) - 1 (case 1) or ceil(N/2) - 1 (case 2)
    half = fp.n_databases // 2
    terms = half if case == 1 else fp.n_databases - half
    layout = Layout("random", max(ell_r, ell_w), terms, math.lcm(ell_r, ell_w))
    return _build_states(model, fp, layout, noise)


@functools.lru_cache(maxsize=256)
def _oracle_map(fp: FieldParams, t: int, j: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(evaluation weights, parity rows) taking bit j's N replicas to its
    plain symbol, as exact integers (:func:`~pruw.field.exact_or_residues`).

    Each cell is g(alpha_n), g of degree t (the layout's noise_terms) with
    g(f_j) = w, so the map depends on the field, t and j alone.  This relies
    on :func:`~pruw.field.allocate_eval_points`' consecutive constants: the
    weights extrapolate g from alpha_1 .. alpha_{t+1}, and the parity rows,
    the (t+1)-th differences over each window of t + 2 constants, vanish
    exactly on consistent storage.
    """
    n, a_1 = fp.n_databases, fp.alphas[0]
    if fp.alphas != tuple(range(a_1, a_1 + n)):
        raise DomainError("the oracle needs consecutive database constants")
    u = fp.fs[j] - a_1
    # node i is alpha_1 + i: L_i(u) = prod_{k != i} (u - k) * (-1)^(t - i) / (i! (t - i)!)
    rows = [[math.prod(u - k for k in range(t + 1) if k != i) * (-1) ** (t - i)
             // (math.factorial(i) * math.factorial(t - i)) if i <= t else 0 for i in range(n)]]
    rows += [[(-1) ** (k - r) * math.comb(t + 1, k - r) if k >= r else 0 for k in range(n)]
             for r in range(n - t - 1)]
    weights, *parity = exact_or_residues(fp.q, rows)
    return weights, tuple(parity)


def reconstruct_plain(states: list[DatabaseState]):
    """Invert the masking across databases (test oracle, not a protocol step).

    Extrapolates each cell across the database constants to the bit
    constant; the finite differences of order above the mask degree act as
    a consistency check, and every padding cell must decode to zero.  The
    first bad cell in (s, j, m) order raises IntegrityError naming it.  Both
    are one small exact integer map per bit constant (:func:`_oracle_map`,
    built without a field inverse); for each bit the N databases' cells are
    copied into one contiguous ``(N, S * M)`` slab and the map is applied to
    it in one :func:`~pruw.poly.apply_rows` call, one unsplit einsum where
    the map fits.  It never calls the decoders' Gaussian elimination.
    Returns the decoded ``(M, length)`` array of the block's real positions.
    """
    import numpy as np

    if not states:
        raise DomainError("no database states given")
    first = states[0]
    fp, width = first.fp, first.layout.width
    if len(states) != fp.n_databases:
        raise IntegrityError("need the full replication group to reconstruct")
    plain = np.empty_like(first.cells)
    inconsistent = np.zeros(plain.shape, dtype=bool)
    slab = np.empty((len(states),) + plain[:, 0].shape, dtype=plain.dtype)  # [n, s, m]
    for j in range(width):
        for n, st in enumerate(states):
            slab[n] = st.cells[:, j]
        weights, parity = _oracle_map(fp, first.layout.noise_terms, j)
        out = apply_rows(fp.q, (weights,) + parity, slab)
        plain[:, j] = out[0]
        inconsistent[:, j] = (out[1:] != 0).any(axis=0)
    # the padding positions (flat index >= length) must decode to zero
    padding = (np.arange(first.padded_length) >= first.length).reshape(-1, width, 1)
    nonzero_pad = (plain != 0) & padding
    bad = np.flatnonzero(inconsistent | nonzero_pad)
    if len(bad):
        s, j, m = (int(i) for i in np.unravel_index(bad[0], plain.shape))
        if inconsistent[s, j, m]:
            raise IntegrityError(f"cell (s={s}, j={j}, m={m}) inconsistent across databases")
        raise IntegrityError(f"padding cell (s={s}, j={j}, m={m}) decoded to a nonzero symbol")
    return plain.reshape(-1, first.m_count).T[:, : first.length]
