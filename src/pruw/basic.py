"""The basic private read-update-write protocol over N replicated databases.

Reading: the user hides the wanted submodel index inside masked reciprocal
queries; each database returns one symbol per subpacket and the user solves
an exact square system.  Writing: the user sends one combined update symbol
per subpacket per database; each database privately decomposes it against
the cached read query, using the per-bit scaling factor and the null-shaper
factor, and folds the increment into its masked cells.  Databases in the
skip set receive nothing at all, yet the model still updates there because
the increment polynomial vanishes at their evaluation constants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError, DomainError
from .field import FieldParams, seeded_uniform
from .poly import apply_rows, build_query, combine_update, decode_inverse
from .storage import DatabaseState, answer, fold


@dataclass(frozen=True)
class BasicParams:
    """Noise-term budget of one deployment; ell and the skip set follow."""

    n: int
    t_storage: int
    t_query: int
    t_update: int

    def __post_init__(self):
        if min(self.t_storage, self.t_query, self.t_update) < 1:
            raise ConfigError("all noise-term counts must be >= 1")
        if 2 * self.t_storage < self.n + self.t_update - 1:
            raise ConfigError(
                f"t_storage={self.t_storage} below the privacy floor "
                f"(need 2*t_storage >= {self.n + self.t_update - 1})"
            )
        if self.t_storage > self.n - self.t_query - 1:
            raise ConfigError("no room left for data symbols (ell < 1)")

    @property
    def ell(self) -> int:
        return self.n - self.t_storage - self.t_query

    @property
    def skip_count(self) -> int:
        return 2 * self.t_storage - self.n - self.t_update + 1

    @property
    def skip_set(self) -> tuple[int, ...]:
        """Databases that receive no write payload (lowest indices, 1-based)."""
        return tuple(range(1, self.skip_count + 1))


def optimal_params(n: int) -> BasicParams:
    """Cost-minimizing noise budget: t_storage = ceil(N/2), others 1."""
    if n < 4:
        raise ConfigError("the scheme needs at least 4 databases")
    return BasicParams(n=n, t_storage=(n + 1) // 2, t_query=1, t_update=1)


def costs_basic(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Closed-form achievable (read, write, total) costs at the optimum."""
    if n < 4:
        raise ConfigError("the scheme needs at least 4 databases")
    p = optimal_params(n)
    c_r = Fraction(n, p.ell)
    c_w = Fraction(n - p.skip_count, p.ell)
    return c_r, c_w, c_r + c_w


def costs_basic_general(params: BasicParams) -> tuple[Fraction, Fraction, Fraction]:
    """Achievable costs for an arbitrary valid noise budget."""
    c_r = Fraction(params.n, params.ell)
    c_w = Fraction(params.n - params.skip_count, params.ell)
    return c_r, c_w, c_r + c_w


@dataclass
class ReadQuery:
    """Masked read query; one block of ell M-vectors per database.

    The mask vectors are shared across databases (only alpha varies), which
    is what lets the write phase reuse the query for decomposition.
    """

    theta: int
    params: BasicParams
    blocks: list[list[list[int]]]  # [db-1][k][m]

    def block(self, n: int) -> list[list[int]]:
        return self.blocks[n - 1]


def build_read_query(
    theta: int,
    params: BasicParams,
    fp: FieldParams,
    m_count: int,
    rng: random.Random,
    disable_noise: bool = False,
) -> ReadQuery:
    """Reciprocal query blocks with ``t_query`` mask terms per bit."""
    blocks = build_query(theta, fp, fp.fs[: params.ell], m_count, rng, disable_noise,
                         terms=params.t_query)
    return ReadQuery(theta=theta, params=params, blocks=blocks)


def answer_read(state: DatabaseState, query: ReadQuery, s: int) -> int:
    """One answer symbol: the inner product of subpacket s with the query."""
    block = query.block(state.db_index)
    ell = state.layout.width
    if len(block) != ell or any(len(v) != state.m_count for v in block):
        raise DomainError("query shape does not match storage shape")
    return answer(state.fp.q, state.rows(s * ell, ell), block)


def decode_answers(fp: FieldParams, params: BasicParams, answers: list[int]) -> list[int]:
    """Solve the N x N system; the first ell entries are the submodel bits."""
    if len(answers) != fp.n_databases:
        raise DomainError("need one answer per database")
    ell = params.ell
    inverse = decode_inverse(fp.field, fp.alphas, fp.fs[:ell], params.t_storage + params.t_query)
    return apply_rows(fp.q, inverse, answers)


def null_shaper_factor(fp: FieldParams, skip_set, f: int, n: int) -> int:
    """Diagonal factor prod_r (a_r - a_n) / prod_r (a_r - f) for the bit
    constant value ``f``; zero on the skip set itself, 1 for an empty one.
    ``n`` and the members of ``skip_set`` are 1-based database indices."""
    q = fp.q
    num, den = 1, 1
    for r in skip_set:
        num = num * (fp.alpha(r) - fp.alpha(n)) % q
        den = den * (fp.alpha(r) - f) % q
    return num * fp.field.inv(den) % q


def build_write_symbols(
    deltas_by_subpacket: list[list[int]],
    params: BasicParams,
    fp: FieldParams,
    rng: random.Random,
    disable_noise: bool = False,
) -> list[list[int]]:
    """User side: one combined symbol per (subpacket, database).

    The masking coefficients are shared across databases so the symbols are
    evaluations of one polynomial, which is what write correctness needs.
    """
    ell = params.ell
    fs = fp.fs[:ell]
    out = []
    for deltas in deltas_by_subpacket:
        if len(deltas) != ell:
            raise DomainError(f"expected {ell} deltas per subpacket")
        noise = [0] * params.t_update if disable_noise else seeded_uniform(rng, fp.q, params.t_update)
        out.append(combine_update(fp.field, deltas, fs, fp.alphas, noise))
    return out


def apply_write(state: DatabaseState, query: ReadQuery, u_symbol: int, s: int,
                factors: list[int]) -> None:
    """Database side: decompose one combined symbol into the increment for
    subpacket s and fold it into storage.  ``factors[k]`` is the database's
    (f_k - a_n) times its null-shaper factor for bit k."""
    params = query.params
    if state.db_index in params.skip_set:
        raise DomainError("databases in the skip set receive no write payload")
    q = state.fp.q
    ell = params.ell
    fold(q, state.rows(s * ell, ell), query.block(state.db_index),
         [f * u_symbol % q for f in factors])


def write_round(
    deltas_by_subpacket: list[list[int]],
    theta: int,
    params: BasicParams,
    fp: FieldParams,
    query: ReadQuery,
    states: list[DatabaseState],
    rng: random.Random,
    disable_noise: bool = False,
) -> list[list[int]]:
    """Full write phase; returns the symbols sent (for metering).

    The same-session read query is reused, as the decomposition requires.
    """
    if query.theta != theta:
        raise DomainError("write must reuse the same-session read query")
    if len(deltas_by_subpacket) != states[0].subpackets:
        raise DomainError("need one delta block per subpacket")
    symbols = build_write_symbols(deltas_by_subpacket, params, fp, rng, disable_noise)
    skip = set(params.skip_set)
    for st in states:
        if st.db_index in skip:
            continue
        # the decomposition factors depend only on the constants: once per round
        alpha = fp.alpha(st.db_index)
        factors = [
            (f - alpha) * null_shaper_factor(fp, params.skip_set, f, st.db_index) % fp.q
            for f in fp.fs[: params.ell]
        ]
        for s, per_db in enumerate(symbols):
            apply_write(st, query, per_db[st.db_index - 1], s, factors)
    return symbols
