"""Exact prime-field arithmetic, evaluation-point allocation, and noise sources.

Every symbol handled by the simulator is a canonical residue: a plain Python
int in ``[0, q)``.  Arithmetic goes through a :class:`PrimeField` handle so the
hot paths stay cheap and nothing ever touches floating point.

Two kinds of randomness are used and must not be confused:

* stream noise (:func:`seeded_uniform`) — user-side masks drawn from an
  explicit ``random.Random`` stream, fresh per invocation;
* counter-mode noise (:class:`CounterNoise`) — storage masks addressed by an
  index tuple, so any cell can be regenerated from the coordinator seed
  without keeping the whole tensor in memory.
"""

from __future__ import annotations

import hashlib
import random
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
        """Multiplicative inverse via Fermat's little theorem."""
        if a % self.q == 0:
            raise DomainError("division by zero")
        return pow(a, self.q - 2, self.q)

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

    def f(self, i: int) -> int:
        """Per-bit constant ``i`` (1-based)."""
        return self.fs[i - 1]


def allocate_eval_points(n_databases: int, f_count: int, q: int) -> FieldParams:
    """Deterministic allocation rule: f_i = i, alpha_n = f_count + n.

    Keeping the rule fixed (rather than sampling) makes every fixture and
    snapshot reproducible from the scalar parameters alone.
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


def seeded_uniform(rng: random.Random, q: int, count: int) -> list[int]:
    """Uniform i.i.d. residues from an explicit stream; same seed, same stream."""
    return [rng.randrange(q) for _ in range(count)]


def derive_seed(master: int, label: str) -> int:
    """Stable 64-bit sub-seed; separates the independent noise streams."""
    h = hashlib.blake2b(
        label.encode("ascii"), key=(master & _U64).to_bytes(8, "little"), digest_size=8
    )
    return int.from_bytes(h.digest(), "little")


class CounterNoise:
    """Counter-mode noise: the symbol at an index tuple is a pure function of
    (seed, tag).  Rejection sampling keeps the residues exactly uniform."""

    __slots__ = ("_key",)

    def __init__(self, seed: int):
        self._key = (seed & _U64).to_bytes(8, "little")

    def symbol(self, q: int, *tag) -> int:
        bound = (1 << 128) - ((1 << 128) % q)
        ctr = 0
        while True:
            payload = repr((ctr,) + tag).encode("ascii")
            digest = hashlib.blake2b(payload, key=self._key, digest_size=16).digest()
            v = int.from_bytes(digest, "little")
            if v < bound:
                return v % q
            ctr += 1
