"""Polynomial kernels shared by all scheme variants.

Every scheme's query comes from :func:`build_query`: at the wanted submodel
either the reciprocal ``1/(f_k - alpha_n)`` or the indicator 1, plus a mask
polynomial in ``alpha_n`` whose coefficients all databases share.  The
indicator query is the reciprocal query scaled by ``(f_k - alpha_n)``.  The
database side of every scheme is two kernels in :mod:`pruw.storage` over
``DatabaseState.rows``: ``answer`` (the masked inner product a read returns)
and ``fold`` (a write's scaled copy of the cached query, added in place).

The write paths combine the per-bit updates of a subpacket into one symbol
per database (a Lagrange-style combination evaluated at that database's
constant); the read paths invert square systems whose rows mix reciprocal
terms ``1/(f_i - alpha_n)`` with plain powers of ``alpha_n``.

Verification deliberately uses two independent code paths: the residual
checks and the storage oracle interpolate in Lagrange form, the decoder runs
Gaussian elimination, so a shared bug cannot vouch for itself.  Both sides
are fixed linear maps of the evaluation points, so each is built once per
field and shape and then applied as N-term dot products: the oracle's map
from :func:`lagrange_interpolate` on unit vectors, the decoder's inverse
(:func:`decode_inverse`) from :func:`solve_decode` on unit right-hand sides.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from .errors import DomainError
from .field import FieldParams, PrimeField, seeded_uniform


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
    rng,
    disable_noise: bool = False,
    reciprocal: bool = True,
    terms: int = 1,
    selected=None,
) -> list[list[list[int]]]:
    """Masked query blocks ``[n-1][k][m]`` for the bit constants ``fs``.

    Reciprocal form at database n, bit k: ``1/(f_k - alpha_n)`` at
    ``m = theta`` plus the mask ``sum_i mask_k[i] alpha_n^i`` with ``terms``
    coefficient vectors per bit, shared across databases.  The indicator
    form is the reciprocal form times ``(f_k - alpha_n)``: 1 at theta plus
    ``(f_k - alpha_n)`` times the mask.  The theta entry sits only on the
    bits in ``selected`` (1-based; all bits when None).  Each bit's masks
    are one draw of ``m_count * terms`` symbols, in bit order, and
    ``mask_k[i]`` is its i-th run of ``m_count``; ``disable_noise`` (debug
    fixtures only) draws nothing and reveals theta outright.
    """
    if not 1 <= theta <= m_count:
        raise DomainError(f"submodel index {theta} outside 1..{m_count}")
    q = fp.q
    size = m_count * terms
    masks = [[0] * size if disable_noise else seeded_uniform(rng, q, size) for _ in fs]
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


def lagrange_interpolate(field: PrimeField, xs, ys) -> list[int]:
    """Coefficients (ascending powers) of the unique poly through the points."""
    if len(xs) != len(ys):
        raise DomainError("point count mismatch")
    if len(set(xs)) != len(xs):
        raise DomainError("interpolation nodes must be distinct")
    q = field.q
    n = len(xs)
    coeffs = [0] * n
    for i in range(n):
        # basis_i(x) = prod_{j != i} (x - x_j) / (x_i - x_j)
        basis = [1]
        denom = 1
        for j in range(n):
            if j == i:
                continue
            new = [0] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] = (new[k] - c * xs[j]) % q
                new[k + 1] = (new[k + 1] + c) % q
            basis = new
            denom = denom * (xs[i] - xs[j]) % q
        scale = ys[i] * field.inv(denom) % q
        for k, c in enumerate(basis):
            coeffs[k] = (coeffs[k] + scale * c) % q
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


@dataclass
class DecodeSystem:
    """Square exact linear system collecting one answer row per database."""

    rows: list[list[int]]
    rhs: list[int]


def decode_row(field: PrimeField, alpha: int, f_subset, power_count: int) -> list[int]:
    """One answer row: reciprocals of (f - alpha) then powers 0..power_count-1."""
    row = [field.inv((f - alpha) % field.q) for f in f_subset]
    p = 1
    for _ in range(power_count):
        row.append(p)
        p = p * alpha % field.q
    return row


def solve_decode(field: PrimeField, system: DecodeSystem) -> list[int]:
    """Gaussian elimination over the field; the caller reads off the leading
    entries as the decoded bits."""
    n = len(system.rows)
    if n == 0 or any(len(r) != n for r in system.rows) or len(system.rhs) != n:
        raise DomainError("decode system must be square with matching rhs")
    q = field.q
    a = [list(row) for row in system.rows]
    b = list(system.rhs)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] % q != 0), None)
        if pivot is None:
            raise DomainError("singular decode system (check evaluation points)")
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        inv = field.inv(a[col][col])
        a[col] = [v * inv % q for v in a[col]]
        b[col] = b[col] * inv % q
        for r in range(n):
            if r != col and a[r][col] % q != 0:
                factor = a[r][col]
                a[r] = [(v - factor * w) % q for v, w in zip(a[r], a[col])]
                b[r] = (b[r] - factor * b[col]) % q
    return b


def unit_vectors(n: int) -> list[list[int]]:
    """The n unit vectors of length n; linear maps are built column by column
    from them."""
    return [[int(i == k) for i in range(n)] for k in range(n)]


@functools.lru_cache(maxsize=256)
def decode_inverse(field: PrimeField, alphas: tuple, f_subset: tuple,
                   power_count: int) -> tuple[tuple[int, ...], ...]:
    """Leading rows of the inverse of the decode system, one per bit constant.

    The system has one :func:`decode_row` per alpha.  Column c of the inverse
    is :func:`solve_decode` on the c-th unit right-hand side, so row k dotted
    with the answers (:func:`apply_rows`) gives exactly the k-th unknown that
    solving the system itself would.  Built once per (field, shape).
    """
    rows = [decode_row(field, a, f_subset, power_count) for a in alphas]
    cols = [solve_decode(field, DecodeSystem(rows=rows, rhs=e)) for e in unit_vectors(len(rows))]
    return tuple(tuple(col[k] for col in cols) for k in range(len(f_subset)))


def apply_rows(q: int, rows, vec) -> list[int]:
    """Each row of a fixed linear map dotted with ``vec``, mod q."""
    return [sum(map(operator.mul, row, vec)) % q for row in rows]
