"""Exact prime-field arithmetic, evaluation-point allocation, and noise.

Every symbol handled by the simulator is a canonical residue in ``[0, q)``:
a Python int in the plain-int code (the audits, the fixed linear maps), an
entry of a numpy array of :func:`kernel_dtype` in the kernels.  Arithmetic
goes through a :class:`PrimeField` handle or :func:`mod_einsum`, and nothing
ever touches floating point.

Every random draw comes from one primitive, :meth:`CounterNoise.symbol`:
SHAKE-256 streams addressed by (seed, tag), in the counter-based style of
Salmon et al., "Parallel random numbers: as easy as 1, 2, 3" (SC 2011).
The model, the storage masks (one stream per set-up chunk), top-r's
reversing noise and every user message's masks, deltas and update noise
are each one stream under a tag naming the use, so a draw is one call
whatever its length, and any block of cells can be regenerated from the
session seed without keeping the whole tensor in memory.  The uniform
orders behind top-r's secret permutation and the random scheme's J sets
come from the same streams, through :meth:`CounterNoise.orders`, so every
draw is a function of (seed, tag) alone, not of the draws made before it.
:meth:`CounterNoise.derive` gives the independent stream family under a
label, keyed by :func:`derive_seed`.  :class:`ZeroNoise` has the same two
methods and draws only zeros: it is the noise-off control, the same
protocol with every privacy-noise symbol zero, so no builder needs a
noise-off branch.

The kernels run on numpy arrays of :func:`kernel_dtype`: int64 while the
product of two residues stays below 2^63 (every prime q <= 3,037,000,493,
the default 2^31 - 1 included), Python ints in object arrays above.  numpy
is imported inside those functions only, so importing the package or
running the audits never loads it.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

from .errors import ConfigError, DomainError

_U64 = (1 << 64) - 1

# Witnesses making Miller-Rabin deterministic for all n below MR_PROVEN_BOUND:
# the first 13 primes.  The bound is psi_13 (OEIS A014233), the least odd
# composite that every one of these bases passes.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_PROVEN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Arithmetic mod a prime q, on canonical int representatives."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        if q >= MR_PROVEN_BOUND:
            raise ConfigError(
                f"modulus {q} is not below {MR_PROVEN_BOUND}, the bound up to "
                "which primality is proven"
            )
        if not is_prime(q):
            raise ConfigError(f"modulus {q} is not prime")
        self.q = q

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return f"PrimeField({self.q})"

    def inv(self, a: int) -> int:
        """Multiplicative inverse, by the extended Euclidean algorithm."""
        if a % self.q == 0:
            raise DomainError("division by zero")
        return pow(a, -1, self.q)

    def poly_eval(self, coeffs, x: int) -> int:
        """Evaluate a coefficient list (ascending powers) at x, Horner form."""
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % self.q
        return acc


@dataclass(frozen=True)
class FieldParams:
    """A prime field plus the globally known evaluation constants.

    ``fs`` are the per-bit constants, ``alphas`` the per-database constants.
    All are nonzero, pairwise distinct, and disjoint, so every ``alpha`` and
    every ``f - alpha`` is invertible.
    """

    field: PrimeField
    fs: tuple[int, ...]
    alphas: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def n_databases(self) -> int:
        return len(self.alphas)

    def alpha(self, n: int) -> int:
        """Evaluation constant of database ``n`` (1-based)."""
        return self.alphas[n - 1]


def allocate_eval_points(n_databases: int, f_count: int, q: int) -> FieldParams:
    """Deterministic allocation rule: f_i = i, alpha_n = f_count + n.

    Keeping the rule fixed (rather than sampling) makes every fixture and
    run reproducible from the scalar parameters alone.
    """
    if n_databases < 1 or f_count < 1:
        raise ConfigError("need at least one database and one bit constant")
    if q <= n_databases + f_count:
        raise ConfigError(
            f"field of size {q} cannot host {f_count} bit constants plus "
            f"{n_databases} database constants (all distinct and nonzero)"
        )
    field = PrimeField(q)
    fs = tuple(range(1, f_count + 1))
    alphas = tuple(range(f_count + 1, f_count + n_databases + 1))
    return FieldParams(field=field, fs=fs, alphas=alphas)


def derive_seed(master: int, label: str) -> int:
    """Stable 64-bit sub-seed; separates the independent noise streams."""
    h = hashlib.blake2b(
        label.encode("ascii"), key=(master & _U64).to_bytes(8, "little"), digest_size=8
    )
    return int.from_bytes(h.digest(), "little")


def kernel_dtype(q: int):
    """dtype of the set-up array kernels for modulus q: int64 while a product
    of two residues fits (q <= 3,037,000,493 among primes), object above."""
    import numpy as np

    return np.int64 if (q - 1) ** 2 < 1 << 63 else object


def symbol_array(values, q: int, shape: tuple):
    """``values`` as a ``shape`` array of :func:`kernel_dtype`, or None if
    they do not form one.  Object arrays hold Python ints: numpy integers
    overflow in products with the fixed maps' coefficients."""
    import numpy as np

    try:
        out = np.asarray(values, dtype=kernel_dtype(q))
    except ValueError:  # ragged rows on int64
        return None
    if out.shape != shape:
        return None
    return np.frompyfunc(int, 1, 1)(out) if out.dtype == object else out


LIMB_BITS = 16


def term_bound(q: int) -> int:
    """T(q): the most products one limb-split int64 sum may add, the largest
    T with T * (q - 1) * (2^16 - 1) + (q - 1) * 2^16 < 2^63 (46,340 at
    q = 3,037,000,493, 65,536 at 2^31 - 1)."""
    return ((1 << 63) - 1 - ((q - 1) << LIMB_BITS)) // ((q - 1) * ((1 << LIMB_BITS) - 1))


def exact_or_residues(q: int, rows) -> tuple:
    """A fixed integer map (equal-length rows) as :func:`mod_einsum`'s split
    operand: exact while its unsplit bound holds, else reduced mod q."""
    if max(abs(v) for row in rows for v in row) * (q - 1) * len(rows[0]) < 1 << 63:
        return tuple(map(tuple, rows))
    return tuple(tuple(v % q for v in row) for row in rows)


def mod_einsum(q: int, subscripts: str, split, other):
    """``einsum(subscripts, split, other) mod q`` for a sum over the last axis
    of both operands, exact on residue arrays ``other`` of :func:`kernel_dtype`.

    ``split`` is the small fixed operand (map rows, query vectors or
    coefficients).  When ``max|split| * (q - 1) * terms < 2^63``, terms its
    last axis and signed entries allowed, no sum can overflow int64, so it
    is one einsum and one reduction.  Otherwise it holds residues, cut into
    16-bit limbs: each limb part is one einsum over the unreduced products
    and each output is reduced once, ``((hi . other mod q) * 2^16 + lo .
    other) mod q``, below 2^63 for at most :func:`term_bound` terms, so a
    longer axis is summed in chunks of that many.  Object arrays sum Python
    ints.  A reduction is ``x - (x // q) * q``: numpy divides an int64
    array by a scalar about four times faster than it takes the remainder.
    """
    import numpy as np

    if (other.dtype == object or not split.size
            or int(np.abs(split).max()) * (q - 1) * split.shape[-1] < 1 << 63):
        out = np.einsum(subscripts, split, other)
        out -= out // q * q
        return out
    bound = term_bound(q)
    if split.shape[-1] > bound:
        out = 0
        for lo in range(0, split.shape[-1], bound):
            out = (out + mod_einsum(q, subscripts, split[..., lo : lo + bound],
                                    other[..., lo : lo + bound])) % q
        return out
    out = np.einsum(subscripts, split >> LIMB_BITS, other)
    out -= out // q * q
    out <<= LIMB_BITS
    out += np.einsum(subscripts, split & ((1 << LIMB_BITS) - 1), other)
    out -= out // q * q
    return out


class CounterNoise:
    """Counter-addressed noise streams: the symbols under a tag are a pure
    function of (seed, tag).  Rejection sampling keeps them exactly uniform."""

    __slots__ = ("_key",)

    def __init__(self, seed: int):
        self._key = (seed & _U64).to_bytes(8, "little")

    def symbol(self, q: int, count: int, *tag):
        """Draws a stream: the first ``count`` symbols of the stream keyed by
        (seed, tag), as a numpy array of :func:`kernel_dtype`.

        The stream is SHAKE-256 over the 8-byte seed and ``repr(tag)``, read
        as little-endian words of 4 bytes when b = q.bit_length() <= 32 and
        of 8 * ceil(b / 64) bytes above; each word is masked to its low b
        bits and kept when below q, so every residue is exactly equally
        likely.  SHAKE is an extendable-output function, so drawing more
        never changes the earlier symbols.  Words of 4 or 8 bytes
        (q < 2^64) are read with numpy, wider ones by a plain loop.
        """
        import numpy as np

        bits = q.bit_length()
        size = 4 if bits <= 32 else 8 * -(-bits // 64)
        mask = (1 << bits) - 1
        stream = hashlib.shake_256(self._key + repr(tag).encode("ascii"))
        words = count * (mask + 1) // q + 16
        while True:
            data = stream.digest(size * words)
            if size <= 8:
                vals = np.frombuffer(data, f"<u{size}") & mask
            else:
                vals = np.array([int.from_bytes(data[k : k + size], "little") & mask
                                 for k in range(0, len(data), size)], dtype=object)
            vals = vals[vals < q]
            if len(vals) >= count:
                return vals[:count].astype(kernel_dtype(q))
            words *= 2

    def orders(self, n: int, rows: int, *tag) -> list[list[int]]:
        """``rows`` independent uniform orders of ``range(n)``, as lists: row
        r lists the indices of its n keys, smallest key first.  The ``rows *
        n`` keys are one :meth:`symbol` draw mod 2^31 under (*tag, attempt),
        redrawn under the next attempt while any row holds a tie.
        Independent uniform keys are exchangeable, so given distinct keys
        each of a row's n! rankings is equally likely, and rows drawn
        independently stay so: the orders are exactly uniform.  A plain
        sort ranks the keys: at tens of keys it costs less than numpy's
        first sort call.
        """
        for attempt in itertools.count():
            keys = self.symbol(1 << 31, rows * n, *tag, attempt).tolist()
            keyed = [keys[r * n : (r + 1) * n] for r in range(rows)]
            if all(len(set(row)) == n for row in keyed):
                return [sorted(range(n), key=row.__getitem__) for row in keyed]

    def derive(self, label: str) -> CounterNoise:
        """The independent source under ``label``: seeded with
        ``derive_seed(seed, label)``."""
        return CounterNoise(derive_seed(int.from_bytes(self._key, "little"), label))


class ZeroNoise:
    """The noise-off source (debug only: a session on it leaks everything).
    Every draw is zeros and every derived source is itself."""

    __slots__ = ()

    def symbol(self, q: int, count: int, *tag):
        """``count`` zeros, as a numpy array of :func:`kernel_dtype`."""
        import numpy as np

        return np.zeros(count, dtype=kernel_dtype(q))

    def derive(self, label: str) -> ZeroNoise:
        return self
