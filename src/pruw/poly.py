"""Polynomial kernels shared by all scheme variants.

Every scheme's query comes from :func:`build_query`: at the wanted submodel
either the reciprocal ``1/(f_k - alpha_n)`` or the indicator 1, plus a mask
polynomial in ``alpha_n`` whose coefficients all databases share.  The
indicator query is the reciprocal query scaled by ``(f_k - alpha_n)``.  The
database side of every scheme is two array kernels in :mod:`pruw.storage`
over the cells: ``answer`` (the masked inner products a read returns) and
``fold`` (a write's scaled copy of the cached query, added in place).

The write paths combine the per-bit updates of a subpacket into one symbol
per database (a Lagrange-style combination evaluated at that database's
constant); the read paths invert square systems whose rows mix reciprocal
terms ``1/(f_i - alpha_n)`` with plain powers of ``alpha_n``: one row per
answering database and as many powers as make it square, so the shape
follows from the constants.  The factors a write folds with depend on the
cell form and live in :mod:`pruw.storage`.

Every step after the answers is a fixed linear map of the evaluation
constants, built once per field and shape from plain-int code and applied
to all subpackets at once by :func:`apply_rows`: the user's combined update
(:func:`combine_map`, from :func:`combine_update` on unit vectors), the
decoder's inverse (:func:`decode_inverse`, one Gauss-Jordan pass over the
augmented system ``[A | I]``, O(N^3)) and the storage oracle's integer
extrapolation and finite differences (built in :mod:`pruw.storage`).  The
application sums the products unreduced and reduces each output once
(:func:`~pruw.field.mod_einsum`: one einsum for a small exact integer map,
16-bit limbs for residues), so it is exact on int64.  Verification keeps
independent code paths: the residual checks interpolate in Lagrange form
(:func:`lagrange_basis`), the oracle extrapolates over consecutive
constants, the decoder runs Gaussian elimination, so a shared bug cannot
vouch for itself; only the application is shared.
Everything but :func:`apply_rows` runs on plain ints without numpy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import DomainError
from .field import FieldParams, PrimeField, kernel_dtype, mod_einsum


def delta_tilde(field: PrimeField, deltas, fs) -> list[int]:
    """Per-bit rescaled updates: delta_i / prod_{j != i} (f_j - f_i)."""
    if len(deltas) != len(fs):
        raise DomainError("deltas and bit constants must have equal length")
    if len(set(fs)) != len(fs):
        raise DomainError("bit constants must be distinct")
    q = field.q
    out = []
    for i, d in enumerate(deltas):
        fi = fs[i]
        denom = 1
        for j, fj in enumerate(fs):
            if j != i:
                denom = denom * (fj - fi) % q
        out.append(d * field.inv(denom) % q)
    return out


def combine_update(field: PrimeField, deltas, fs, alphas, noise) -> list[int]:
    """One update symbol per database constant, each carrying all bits of
    one subpacket.

    At each ``alpha``: ``sum_i dtilde_i prod_{j != i}(f_j - alpha)
    + prod_j(f_j - alpha) * z(alpha)``, where ``z`` is a polynomial with the
    given noise coefficients.  The rescaled updates ``dtilde`` are computed
    once for all of ``alphas``.
    """
    if len(noise) < 1:
        raise DomainError("at least one masking symbol is required")
    q = field.q
    dtil = delta_tilde(field, deltas, fs)
    out = []
    for alpha in alphas:
        if alpha in fs:
            raise DomainError("database constant collides with a bit constant")
        # after bit i: acc = sum_{k <= i} dtilde_k prod_{j <= i, j != k}(f_j - alpha)
        acc, full = 0, 1
        for d, fj in zip(dtil, fs):
            diff = fj - alpha
            acc = (acc * diff + d * full) % q
            full = full * diff % q
        out.append((acc + full * field.poly_eval(noise, alpha)) % q)
    return out


def build_query(
    theta: int,
    fp: FieldParams,
    fs,
    m_count: int,
    noise,
    reciprocal: bool = True,
    terms: int = 1,
    selected=None,
    tag=(),
) -> list[list[list[int]]]:
    """Masked query blocks ``[n-1][k][m]`` for the bit constants ``fs``.

    Reciprocal form at database n, bit k: ``1/(f_k - alpha_n)`` at
    ``m = theta`` plus the mask ``sum_i mask_k[i] alpha_n^i`` with ``terms``
    coefficient vectors per bit, shared across databases.  The indicator
    form is the reciprocal form times ``(f_k - alpha_n)``: 1 at theta plus
    ``(f_k - alpha_n)`` times the mask.  The theta entry sits only on the
    bits in ``selected`` (1-based; all bits when None).  All masks are one
    ``noise.symbol(q, len(fs) * m_count * terms, "mask", *tag)`` draw, a
    list or an array: bit k's masks are its k-th run of ``m_count * terms``
    symbols and ``mask_k[i]`` is that run's i-th run of ``m_count``.  A
    :class:`~pruw.field.ZeroNoise` source makes every mask zero, so the
    blocks carry the theta entries alone.
    """
    if not 1 <= theta <= m_count:
        raise DomainError(f"submodel index {theta} outside 1..{m_count}")
    q = fp.q
    size = m_count * terms
    draws = noise.symbol(q, len(fs) * size, "mask", *tag)
    if not isinstance(draws, list):
        draws = draws.tolist()
    masks = [draws[lo : lo + size] for lo in range(0, len(draws), size)]
    hits = range(1, len(fs) + 1) if selected is None else selected
    t = theta - 1
    blocks = []
    for alpha in fp.alphas:
        block = []
        for k, (f, mask) in enumerate(zip(fs, masks), 1):
            # Horner over the mask terms, highest power first
            vec = mask[size - m_count:]
            for lo in range(size - 2 * m_count, -1, -m_count):
                vec = [(v * alpha + c) % q for v, c in zip(vec, mask[lo:lo + m_count])]
            if not reciprocal:
                scale = f - alpha
                vec = [v * scale % q for v in vec]
            if k in hits:
                vec[t] = (vec[t] + (fp.field.inv(f - alpha) if reciprocal else 1)) % q
            block.append(vec)
        blocks.append(block)
    return blocks


def lagrange_basis(field: PrimeField, xs) -> list[list[int]]:
    """Coefficients (ascending powers) of every Lagrange basis polynomial over
    the nodes: row i is ``prod_{j != i} (x - x_j) / (x_i - x_j)``.

    The master polynomial ``prod_j (x - x_j)`` is formed once; basis i is its
    quotient by ``(x - x_i)`` (synthetic division) scaled by one inverse, so
    the whole basis is O(N^2) with N inversions (Berrut & Trefethen,
    "Barycentric Lagrange Interpolation", SIAM Review 2004).
    """
    if len(set(xs)) != len(xs):
        raise DomainError("interpolation nodes must be distinct")
    q = field.q
    n = len(xs)
    master = [1]
    for x in xs:
        # times (x - x_j): the shifted coefficients minus x_j times the old
        master = [(up - x * c) % q for up, c in zip([0] + master, master + [0])]
    basis = []
    for xi in xs:
        quot = [0] * n
        carry = 0
        for k in range(n, 0, -1):
            carry = (master[k] + carry * xi) % q
            quot[k - 1] = carry
        # the quotient at x_i is prod_{j != i} (x_i - x_j)
        scale = field.inv(field.poly_eval(quot, xi))
        basis.append([c * scale % q for c in quot])
    return basis


def lagrange_interpolate(field: PrimeField, xs, ys) -> list[int]:
    """Coefficients (ascending powers) of the unique poly through the points:
    ``sum_i ys[i] * basis_i`` over the :func:`lagrange_basis`."""
    if len(xs) != len(ys):
        raise DomainError("point count mismatch")
    q = field.q
    coeffs = [0] * len(xs)
    for y, basis in zip(ys, lagrange_basis(field, xs)):
        coeffs = [(c + y * b) % q for c, b in zip(coeffs, basis)]
    return coeffs


def poly_degree(coeffs) -> int:
    """Degree of a coefficient list; the zero polynomial reports -1."""
    for k in range(len(coeffs) - 1, -1, -1):
        if coeffs[k] != 0:
            return k
    return -1


@dataclass(frozen=True)
class ResidualCheck:
    """Outcome of a residual-degree verification.

    ``coeffs`` is kept so regressions can pin the exact residual, not just
    the boolean verdict.
    """

    ok: bool
    degree: int
    bound: int
    coeffs: tuple[int, ...]


def combined_update_residual(
    field: PrimeField,
    u_values,
    alphas,
    fs,
    k: int,
    expected_deltas,
    noise_terms: int,
) -> ResidualCheck:
    """Check the decomposition property of combined updates.

    For update symbols built with identical deltas/noise across databases,
    ``u_n / (f_k - alpha_n) - delta_k / (f_k - alpha_n)`` must be one
    polynomial in alpha of degree <= len(fs) + noise_terms - 2, the same for
    every database.  ``k`` is the 1-based bit index.
    """
    ell = len(fs)
    if not 1 <= k <= ell:
        raise DomainError(f"bit index {k} outside 1..{ell}")
    if len(u_values) != len(alphas):
        raise DomainError("one update symbol per database constant required")
    if len(alphas) < ell + noise_terms:
        raise DomainError(
            "insufficient evaluation points: "
            f"{len(alphas)} < {ell} + {noise_terms}"
        )
    q = field.q
    fk = fs[k - 1]
    dk = expected_deltas[k - 1]
    residuals = [
        (u - dk) * field.inv(fk - a) % q for u, a in zip(u_values, alphas)
    ]
    coeffs = lagrange_interpolate(field, alphas, residuals)
    degree = poly_degree(coeffs)
    bound = ell + noise_terms - 2
    return ResidualCheck(ok=degree <= bound, degree=degree, bound=bound, coeffs=tuple(coeffs))


def null_shaper_residual(field: PrimeField, skip_alphas, f_k: int, alphas) -> ResidualCheck:
    """Check the rescaling property of the null-shaper factor.

    ``(prod_r (a_r - alpha) / prod_r (a_r - f_k)) / (f_k - alpha)`` minus
    ``1/(f_k - alpha)`` must be a polynomial of degree <= |skip| - 1 across
    the evaluation points.
    """
    q = field.q
    if any((a - f_k) % q == 0 for a in skip_alphas):
        raise DomainError("bit constant collides with a skipped database constant")
    if f_k in alphas:
        raise DomainError("bit constant collides with an evaluation point")
    if len(alphas) < len(skip_alphas) + 1:
        raise DomainError("not enough evaluation points to bound the residual")
    denom = 1
    for a in skip_alphas:
        denom = denom * (a - f_k) % q
    residuals = []
    for x in alphas:
        num = 1
        for a in skip_alphas:
            num = num * (a - x) % q
        lhs = num * field.inv(denom) % q * field.inv(f_k - x) % q
        residuals.append((lhs - field.inv(f_k - x)) % q)
    coeffs = lagrange_interpolate(field, alphas, residuals)
    degree = poly_degree(coeffs)
    bound = len(skip_alphas) - 1
    return ResidualCheck(ok=degree <= bound, degree=degree, bound=bound, coeffs=tuple(coeffs))


def decode_row(field: PrimeField, alpha: int, f_subset, power_count: int) -> list[int]:
    """One answer row: reciprocals of (f - alpha) then powers 0..power_count-1."""
    row = [field.inv((f - alpha) % field.q) for f in f_subset]
    p = 1
    for _ in range(power_count):
        row.append(p)
        p = p * alpha % field.q
    return row


def _eliminate(field: PrimeField, rows, rhs) -> list[list[int]]:
    """Gauss-Jordan elimination of the square ``rows`` against the
    right-hand sides ``rhs`` (one list per row, one column per right-hand
    side), all in one pass over the augmented system with one pivot
    inversion per column.  Returns the solutions, one list per unknown."""
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows) or len(rhs) != n:
        raise DomainError("decode system must be square with matching rhs")
    q = field.q
    a = [list(row) + list(b) for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] % q != 0), None)
        if pivot is None:
            raise DomainError("singular decode system (check evaluation points)")
        a[col], a[pivot] = a[pivot], a[col]
        # columns left of col are already zero in the pivot row
        inv = field.inv(a[col][col])
        a[col][col:] = [v * inv % q for v in a[col][col:]]
        for r in range(n):
            if r != col and a[r][col] % q != 0:
                factor = a[r][col]
                a[r][col:] = [(v - factor * w) % q for v, w in zip(a[r][col:], a[col][col:])]
    return [row[n:] for row in a]


def solve_decode(field: PrimeField, rows, rhs) -> list[int]:
    """Gaussian elimination of the square system ``rows`` (one answer row per
    database) against the answers ``rhs``; the caller reads off the leading
    entries as the decoded bits.  The reference for :func:`decode_inverse`."""
    return [x for (x,) in _eliminate(field, rows, [[b] for b in rhs])]


def unit_vectors(n: int) -> list[list[int]]:
    """The n unit vectors of length n: the identity's rows, and the inputs
    a linear map is built from column by column."""
    return [[int(i == k) for i in range(n)] for k in range(n)]


@functools.lru_cache(maxsize=256)
def decode_inverse(field: PrimeField, alphas: tuple,
                   f_subset: tuple) -> tuple[tuple[int, ...], ...]:
    """Leading rows of the inverse of the decode system, one per bit constant.

    The system is square, one :func:`decode_row` per alpha with
    ``len(alphas) - len(f_subset)`` powers.  One Gauss-Jordan pass over
    ``[rows | I]`` (the elimination :func:`solve_decode` runs) leaves the
    inverse on the right, so row k dotted with the answers
    (:func:`apply_rows`) gives exactly the k-th unknown that solving the
    system itself would.  Built once per (field, constants).
    """
    power_count = len(alphas) - len(f_subset)
    rows = [decode_row(field, a, f_subset, power_count) for a in alphas]
    inverse = _eliminate(field, rows, unit_vectors(len(rows)))
    return tuple(tuple(row) for row in inverse[: len(f_subset)])


@functools.lru_cache(maxsize=256)
def combine_map(field: PrimeField, fs: tuple, alphas: tuple,
                noise_terms: int) -> tuple[tuple[int, ...], ...]:
    """:func:`combine_update` as a fixed linear map, one row per alpha.

    The update symbols are linear in the deltas and the noise coefficients
    together, so column c is :func:`combine_update` on the c-th unit vector
    of the ``len(fs) + noise_terms`` inputs, and :func:`apply_rows` on the
    stacked inputs (deltas first, then noise) gives exactly its symbols.
    Built once per (field, shape).
    """
    ell = len(fs)
    cols = [combine_update(field, e[:ell], fs, alphas, e[ell:])
            for e in unit_vectors(ell + noise_terms)]
    return tuple(tuple(col[n] for col in cols) for n in range(len(alphas)))


def apply_rows(q: int, rows, vec):
    """A fixed linear map applied mod q: ``out[r, ...] = sum_n rows[r][n] *
    vec[n, ...]``.

    ``vec`` is one vector, or a batch with the map's input on its leading
    axis (an ``(N, S)`` matrix gives ``(R, S)``).  The map is the split
    operand of :func:`~pruw.field.mod_einsum`: on int64 a small exact
    integer map is summed against ``vec`` in one einsum, a map of residues
    limb by limb in chunks of at most T(q) input terms, and every output is
    reduced once, so ``vec`` is never copied or
    multiplied out into an ``(R, N, ...)`` temporary.  An array in gives an
    array of its dtype back; a list runs on :func:`kernel_dtype` and gives
    Python ints (nested for a batch).
    """
    import numpy as np

    dtype = vec.dtype if isinstance(vec, np.ndarray) else kernel_dtype(q)
    x = np.asarray(vec, dtype=dtype)
    a = np.asarray(rows, dtype=dtype).reshape(len(rows), x.shape[0])
    out = mod_einsum(q, "rn,pn->rp", a, x.reshape(x.shape[0], -1).T)
    out = out.reshape((len(rows),) + x.shape[1:])
    return out if isinstance(vec, np.ndarray) else out.tolist()
