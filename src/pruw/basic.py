"""The basic private read-update-write protocol over N replicated databases.

Reading: the user hides the wanted submodel index inside masked reciprocal
queries; each database returns one symbol per subpacket and the user solves
an exact square system.  Writing: the user sends one combined update symbol
per subpacket per database; each database privately decomposes it against
the cached read query, using its per-bit write factors (the scaling factor
times the null-shaper factor, :func:`~pruw.storage.write_factors`), and
folds the increment into its masked cells.  Databases in the
skip set receive nothing at all, yet the model still updates there because
the increment polynomial vanishes at their evaluation constants.

Every phase runs over all S subpackets at once: each database answers with
one :func:`~pruw.storage.answer` call, the user decodes by applying the
``(ell, N)`` decode inverse to the ``(N, S)`` answer matrix and builds the
``(N, S)`` update symbols with the combine map, and each database folds
them in with one :func:`~pruw.storage.fold` call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import wire
from .errors import ConfigError, DomainError
from .field import FieldParams, allocate_eval_points, symbol_array
from .poly import apply_rows, build_query, combine_map, decode_inverse
from .storage import DatabaseState, answer, fold, init_basic, write_factors


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


def build_read_query(
    theta: int,
    params: BasicParams,
    fp: FieldParams,
    m_count: int,
    noise,
) -> list[list[list[int]]]:
    """Reciprocal query blocks ``[n-1][k][m]``, ell M-vectors per database
    with ``t_query`` mask terms per bit.  The masks are shared across
    databases (only alpha varies), which lets the write reuse the query."""
    return build_query(theta, fp, fp.fs[: params.ell], m_count, noise, terms=params.t_query)


def answer_read(state: DatabaseState, query, s):
    """The inner product of subpacket s with the database's query block, or
    an array of them when ``s`` is a slice of subpackets."""
    block = query[state.db_index - 1]
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
    return apply_rows(fp.q, decode_inverse(fp.field, fp.alphas, fp.fs[:ell]), answers)


def write_round(
    deltas,
    params: BasicParams,
    fp: FieldParams,
    query,
    states: list[DatabaseState],
    noise,
) -> None:
    """Full write phase for the block's ``(length,)`` real deltas; the
    padding gets a zero update.  The user combines the ell deltas of each of
    the S subpackets with t_update masking coefficients into one symbol per
    subpacket per database.  The coefficients are shared across databases,
    so each subpacket's symbols are evaluations of one polynomial, as write
    correctness needs; they are one ``noise.symbol(q, S * t_update,
    "update-noise")`` draw, t_update per subpacket in subpacket order.  Each
    database decomposes its symbols against the same-session read ``query``,
    so the write lands on the submodel read."""
    import numpy as np

    length, padded_length = states[0].length, states[0].padded_length
    values = symbol_array(deltas, fp.q, (length,))
    if values is None:
        raise DomainError(f"expected {length} deltas, one per position of the block")
    ell, terms, count = params.ell, params.t_update, states[0].subpackets
    padded = np.concatenate([values, np.zeros(padded_length - length, dtype=values.dtype)])
    z = np.asarray(noise.symbol(fp.q, count * terms, "update-noise"), dtype=values.dtype)
    inputs = np.concatenate([padded.reshape(count, ell), z.reshape(count, terms)], axis=1)
    symbols = apply_rows(fp.q, combine_map(fp.field, fp.fs[:ell], fp.alphas, terms), inputs.T)
    skip = params.skip_set
    factors = write_factors(fp, fp.fs[:ell], skip)
    for st in states:
        n = st.db_index
        if n not in skip:
            fold(fp.q, st.cells, query[n - 1], symbols[n - 1][:, None] * factors[n - 1] % fp.q)


class BasicScheme:
    """The basic scheme in a session: one storage block over the whole model,
    a fresh read query per iteration, and a dense write that skips the skip
    set.  Unset noise budgets follow the cost optimum."""

    budget = None

    def __init__(self, cfg):
        self.cfg = cfg
        overrides = {"t_storage": cfg.t1, "t_query": cfg.t2, "t_update": cfg.t3}
        self.params = replace(optimal_params(cfg.n),
                              **{k: v for k, v in overrides.items() if v is not None})
        self.fp = allocate_eval_points(cfg.n, self.params.ell, cfg.q)
        self.length = cfg.l

    def init_storage(self, model, noise) -> None:
        p = self.params
        self.states = init_basic(model, self.fp, p.t_storage, p.t_query, noise.derive("storage"))
        self.storage = [(0, self.states)]

    def read(self, theta, iteration, noise, record, detail):
        import numpy as np

        cfg, params = self.cfg, self.params
        self.query = build_read_query(theta, params, self.fp, cfg.m, noise)
        record(wire.READ_Q, range(1, cfg.n + 1), params.ell * cfg.m)
        answers = np.stack([answer_read(st, self.query, slice(None)) for st in self.states])
        decoded = decode_answers(self.fp, params, answers).T.ravel()
        record(wire.READ_A, range(1, cfg.n + 1), self.states[0].subpackets)
        return np.arange(self.length, dtype=np.intp), decoded[: self.length]

    def write(self, data, noise, record, detail):
        import numpy as np

        deltas = data.symbol(self.fp.q, self.length, "delta")
        write_round(deltas, self.params, self.fp, self.query, self.states, noise)
        skip = self.params.skip_set
        record(wire.WRITE_U, [n for n in range(1, self.cfg.n + 1) if n not in skip],
               self.states[0].subpackets)
        detail["skip_set"] = list(skip)
        return np.arange(self.length, dtype=np.intp), deltas

    def costs(self):
        c_r, c_w, _ = costs_basic_general(self.params)
        return c_r, c_w
