"""The basic private read-update-write protocol over N replicated databases.

Reading: the user hides the wanted submodel index inside masked reciprocal
queries; each database returns one symbol per subpacket and the user solves
an exact square system.  Writing: the user sends one combined update symbol
per subpacket per database; each database privately decomposes it against
the cached read query, using the per-bit scaling factor and the null-shaper
factor, and folds the increment into its masked cells.  Databases in the
skip set receive nothing at all, yet the model still updates there because
the increment polynomial vanishes at their evaluation constants.

Every phase runs over all S subpackets at once: each database answers with
one :func:`~pruw.storage.answer` call, the user decodes by applying the
``(ell, N)`` decode inverse to the ``(N, S)`` answer matrix and builds the
``(N, S)`` update symbols with the combine map, and each database folds
them in with one :func:`~pruw.storage.fold` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import wire
from .errors import ConfigError, DomainError
from .field import FieldParams, allocate_eval_points, kernel_dtype
from .poly import apply_rows, build_query, combine_map, decode_inverse
from .storage import DatabaseState, answer, fold, init_basic


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
    return costs_basic_general(optimal_params(n))


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
    noise,
) -> ReadQuery:
    """Reciprocal query blocks with ``t_query`` mask terms per bit."""
    blocks = build_query(theta, fp, fp.fs[: params.ell], m_count, noise, terms=params.t_query)
    return ReadQuery(theta=theta, params=params, blocks=blocks)


def answer_read(state: DatabaseState, query: ReadQuery, s):
    """The inner product of subpacket s with the query, or an array of them
    when ``s`` is a slice of subpackets."""
    block = query.block(state.db_index)
    ell = state.layout.width
    if len(block) != ell or any(len(v) != state.m_count for v in block):
        raise DomainError("query shape does not match storage shape")
    return answer(state.fp.q, state.cells[s], block)


def decode_answers(fp: FieldParams, params: BasicParams, answers):
    """Solve the N x N system; the first ell unknowns are the submodel bits.
    ``answers`` has one row per database: N symbols, or an (N, S) matrix
    whose decoded (ell, S) bits come back together."""
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
    deltas_by_subpacket,
    params: BasicParams,
    fp: FieldParams,
    noise,
):
    """User side: the (N, S) combined symbols, row n - 1 for database n, for
    the ell deltas of each of the S subpackets (an (S, ell) array or lists).

    The masking coefficients are shared across databases so each subpacket's
    symbols are evaluations of one polynomial, which is what write
    correctness needs.  They are one ``noise.symbol(q, S * t_update,
    "update-noise")`` draw, t_update per subpacket in subpacket order.
    """
    import numpy as np

    ell, terms = params.ell, params.t_update
    if any(len(deltas) != ell for deltas in deltas_by_subpacket):
        raise DomainError(f"expected {ell} deltas per subpacket")
    count = len(deltas_by_subpacket)
    dtype = kernel_dtype(fp.q)
    z = noise.symbol(fp.q, count * terms, "update-noise")
    inputs = np.concatenate([np.array(deltas_by_subpacket, dtype=dtype).reshape(count, ell),
                             np.asarray(z, dtype=dtype).reshape(count, terms)], axis=1)
    return apply_rows(fp.q, combine_map(fp.field, fp.fs[:ell], fp.alphas, terms), inputs.T)


def apply_write(state: DatabaseState, query: ReadQuery, u_symbols, factors: list[int]) -> None:
    """Database side: decompose the combined symbols, one per subpacket, into
    the increments and fold them into storage.  ``factors[k]`` is the
    database's (f_k - a_n) times its null-shaper factor for bit k."""
    import numpy as np

    params = query.params
    if state.db_index in params.skip_set:
        raise DomainError("databases in the skip set receive no write payload")
    q = state.fp.q
    fold(q, state.cells, query.block(state.db_index),
         np.outer(u_symbols, np.array(factors, dtype=state.cells.dtype)) % q)


def write_round(
    deltas_by_subpacket,
    theta: int,
    params: BasicParams,
    fp: FieldParams,
    query: ReadQuery,
    states: list[DatabaseState],
    noise,
):
    """Full write phase; returns the (N, S) symbols sent (for metering).

    The same-session read query is reused, as the decomposition requires.
    """
    if query.theta != theta:
        raise DomainError("write must reuse the same-session read query")
    if len(deltas_by_subpacket) != states[0].subpackets:
        raise DomainError("need one delta block per subpacket")
    symbols = build_write_symbols(deltas_by_subpacket, params, fp, noise)
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
        apply_write(st, query, symbols[st.db_index - 1], factors)
    return symbols


class BasicScheme:
    """The basic scheme in a session: one storage block over the whole model,
    a fresh read query per iteration, and a dense write that skips the skip
    set.  Unset noise budgets follow the cost optimum."""

    budget = None

    def __init__(self, cfg):
        self.cfg = cfg
        if cfg.t1 is None and cfg.t2 is None and cfg.t3 is None:
            self.params = optimal_params(cfg.n)
        else:
            opt = optimal_params(cfg.n) if cfg.n >= 4 else None
            self.params = BasicParams(
                n=cfg.n,
                t_storage=cfg.t1 if cfg.t1 is not None else (opt.t_storage if opt else 1),
                t_query=cfg.t2 if cfg.t2 is not None else 1,
                t_update=cfg.t3 if cfg.t3 is not None else 1,
            )
        self.fp = allocate_eval_points(cfg.n, self.params.ell, cfg.q)
        self.length = cfg.l

    def init_storage(self, model, noise) -> None:
        p = self.params
        self.states = init_basic(model, self.fp, p.t_storage, p.t_query, p.t_update,
                                 noise.derive("storage"))
        self.storage = [(0, self.length, self.states)]

    def read(self, theta, iteration, noise, record, detail):
        import numpy as np

        cfg, params = self.cfg, self.params
        self.query = build_read_query(theta, params, self.fp, cfg.m, noise)
        for n in range(1, cfg.n + 1):
            record(wire.READ_Q, wire.PHASE_READ, wire.UP, n, params.ell * cfg.m)
        answers = np.stack([answer_read(st, self.query, slice(None)) for st in self.states])
        decoded = decode_answers(self.fp, params, answers).T.ravel()
        for st in self.states:
            record(wire.READ_A, wire.PHASE_READ, wire.DOWN, st.db_index, st.subpackets)
        return np.arange(self.length, dtype=np.intp), decoded[: self.length]

    def write(self, theta, data, noise, record, detail):
        import numpy as np

        cfg, params = self.cfg, self.params
        subpackets = self.states[0].subpackets
        # padded tail positions must stay zero
        deltas = np.zeros((subpackets, params.ell), dtype=kernel_dtype(self.fp.q))
        deltas.reshape(-1)[: self.length] = data.symbol(self.fp.q, self.length, "delta")
        write_round(deltas, theta, params, self.fp, self.query, self.states, noise)
        skip = params.skip_set
        for n in range(1, cfg.n + 1):
            if n not in skip:
                record(wire.WRITE_U, wire.PHASE_WRITE, wire.UP, n, subpackets)
        detail["skip_set"] = list(skip)
        return np.arange(self.length, dtype=np.intp), deltas.reshape(-1)[: self.length]

    def costs(self):
        c_r, c_w, _ = costs_basic_general(self.params)
        return c_r, c_w
