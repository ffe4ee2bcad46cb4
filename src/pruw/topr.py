"""Top-r sparsification: permuted sparse positions with noisy un-permuting.

A coordinator samples a secret permutation of the subpacket indices and
hands each database a noise-added reversing matrix.  Users communicate only
permuted positions; databases un-permute them *inside* the masked algebra,
so neither the true positions nor the zero-valued updates ever leak.

Every database's reversing matrix is a sparse base plus one noise matrix
shared by all databases, and a database only ever applies column v of it
(case 1) or the sum over block column v (case 2).  The coordinator's setup
therefore holds that noise once, reduced to those columns, as a numpy array
of :func:`~pruw.field.kernel_dtype` drawn from one counter stream per block
column.  Since the noise is shared, a phase applies it to every database at
once: one contraction of the noise columns with the ``(N, P * ell)`` row
products (read) or the ``(V, N)`` write symbols (write), each database's
constant as a scale (case 1) and the sparse base term at perm(v) added
after.  No database ever builds its own ``(V, P * ell)`` weights.

Position symbols are charged as ceil(log_q P) field symbols by the meter;
the closed-form costs keep the fractional logarithm and both are reported.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import wire
from .errors import ConfigError, DomainError, ProtocolError
from .field import (CounterNoise, FieldParams, allocate_eval_points, kernel_dtype, mod_einsum,
                    symbol_array)
from .poly import apply_rows, build_query, combine_map, decode_inverse
from .storage import DatabaseState, fold, init_topr, topr_subpacketization, write_factors

# Bound on the symbols of the shared reversing noise, side * P with side P
# (case 1) or P * ell (case 2), which a session draws in its first iteration.
REVERSING_SYMBOL_LIMIT = 1 << 21


def round_half_up(x: Fraction) -> int:
    return int(x + Fraction(1, 2))


def position_symbols(p_subpackets: int, q: int) -> int:
    """Wire charge of one subpacket index: ceil(log_q P) field symbols."""
    c = 0
    span = 1
    while span < p_subpackets:
        span *= q
        c += 1
    return c


@functools.lru_cache(maxsize=64)
def _reversing_constants(fp: FieldParams, ell: int, case: int) -> tuple:
    """Database n's constant in its reversing matrix, at index n-1: case 1's
    noise scale prod_j (f_j - alpha_n) mod q, or case 2's diagonal
    ((f_j - alpha_n)^-1 for j < ell).  Built once per (field, shape)."""
    fs = fp.fs[:ell]
    if case == 1:
        return tuple(math.prod(f - a for f in fs) % fp.q for a in fp.alphas)
    return tuple(tuple(fp.field.inv(f - a) for f in fs) for a in fp.alphas)


@dataclass
class PermutationSetup:
    """The coordinator's secret permutation plus the shared reversing noise.

    ``perm[i-1]`` is the true index assigned to permuted slot i.  Database
    n's reversing matrix has a 1 (case 1) or a reciprocal block (case 2) at
    (perm(i), i), plus the noise matrix Z that all databases share: scaled
    by prod_j (f_j - alpha_n) in case 1, added as is in case 2.  The setup
    holds Z once, reduced to the columns the databases apply, and draws it
    at first use from ``noise``, the source the permutation came from;
    :func:`answer_sparse` and :func:`apply_sparse_write` apply it to all
    databases in one contraction per phase.  The inverse permutation is
    also built at first use.
    """

    perm: tuple[int, ...]
    case: int
    ell: int
    fp: FieldParams
    noise: object
    _reversing: object = dc_field(default=None, init=False, repr=False, compare=False)
    _dense_noise: object = dc_field(default=None, init=False, repr=False, compare=False)

    @property
    def p_subpackets(self) -> int:
        return len(self.perm)

    def true_index(self, permuted: int) -> int:
        return self.perm[permuted - 1]

    @functools.cached_property
    def _inverse(self) -> dict[int, int]:
        return {true: i for i, true in enumerate(self.perm, start=1)}

    def permuted_index(self, true: int) -> int:
        return self._inverse[true]

    def permuted_set(self, true_set) -> list[int]:
        return sorted(self._inverse[s] for s in true_set)

    def _noise_blocks(self):
        """The shared noise's block columns, one counter stream each: a
        (side, block) array for v = 0 .. P-1, tagged ("rev1" | "rev2", v)."""
        tag, block = ("rev1", 1) if self.case == 1 else ("rev2", self.ell)
        side = self.p_subpackets * block
        for v in range(self.p_subpackets):
            yield self.noise.symbol(self.fp.q, side * block, tag, v).reshape(side, block)

    def reversing_noise(self):
        """The shared noise as the databases apply it, a (side, P) array of
        :func:`kernel_dtype`: column v-1 is Z's column v (case 1) or the sum
        mod q over Z's block column v (case 2).  Drawn at first use."""
        if self._reversing is None:
            import numpy as np

            q = self.fp.q
            self._reversing = np.stack([z.sum(axis=1) % q for z in self._noise_blocks()],
                                       axis=1)
        return self._reversing

    def base_matrix(self, n: int):
        """Database n's reversing matrix without noise, as an array of
        :func:`kernel_dtype`: a 1 at (perm(i), i) in case 1; in case 2 the
        block at (perm(i), i) is diagonal, its entry j (f_j - alpha_n)^-1."""
        import numpy as np

        p = self.p_subpackets
        if self.case == 1:
            block, diag = 1, [1]
        else:
            block = self.ell
            diag = list(_reversing_constants(self.fp, block, 2)[n - 1])
        mat = np.zeros((p * block, p * block), dtype=kernel_dtype(self.fp.q))
        rows = ((np.array(self.perm) - 1)[:, None] * block + np.arange(block)).ravel()
        mat[rows, np.arange(p * block)] = diag * p
        return mat

    def reversing_matrix(self, n: int):
        """Noise-added reversing matrix held by database n (1-based), as a
        dense array of :func:`kernel_dtype`: the reference that the shared-noise
        contractions are checked against.  Sessions never build it.  The dense
        noise is drawn once per setup, from the same streams as
        :meth:`reversing_noise`; the matrix itself is rebuilt on every call.
        """
        import numpy as np

        if self._dense_noise is None:
            self._dense_noise = np.concatenate(list(self._noise_blocks()), axis=1)
        q = self.fp.q
        scale = _reversing_constants(self.fp, self.ell, 1)[n - 1] if self.case == 1 else 1
        return (self.base_matrix(n) + self._dense_noise * scale % q) % q


def coordinator_setup(
    p_subpackets: int,
    ell: int,
    case: int,
    fp: FieldParams,
    noise,
    perm: tuple[int, ...] | None = None,
) -> PermutationSetup:
    """Draw the secret permutation, uniform over P!, as one order from
    ``noise`` under ("perm",) (:meth:`~pruw.field.CounterNoise.orders`),
    and keep ``noise`` for the shared reversing noise.  ``perm`` overrides
    the draw for fixtures.  ``ExperimentConfig.validate`` owns P >= 1 and
    :func:`~pruw.storage.topr_subpacketization` the case."""
    if perm is None:
        perm = tuple(i + 1 for i in noise.orders(p_subpackets, 1, "perm")[0])
    else:
        perm = tuple(perm)
        if sorted(perm) != list(range(1, p_subpackets + 1)):
            raise ConfigError("permutation override is not a permutation of 1..P")
    return PermutationSetup(perm=perm, case=case, ell=ell, fp=fp, noise=noise)


def build_query_case1(theta, fp, ell, m_count, noise):
    """Reciprocal query blocks with a single shared mask vector per bit."""
    return build_query(theta, fp, fp.fs[:ell], m_count, noise)


def build_query_case2(theta, fp, ell, m_count, noise):
    """Indicator query blocks masked by (f_k - alpha) times a shared vector."""
    return build_query(theta, fp, fp.fs[:ell], m_count, noise, reciprocal=False)


def answer_sparse(states: list[DatabaseState], setup: PermutationSetup, query_blocks, v_tilde):
    """Every database's answers, an ``(N, V)`` array: row i holds database
    ``states[i]``'s answer for each permuted subpacket index in ``v_tilde``.

    Database n's answer at v is its row products with its query, weighted
    by column v of its reversing matrix (repeated over the bits, case 1) or
    by the sums over its block column v (case 2).  The row products are one
    :func:`~pruw.field.mod_einsum` per database.  The shared noise meets all
    of them in one contraction, scaled by prod_j (f_j - alpha_n) in case 1,
    and the base term adds the products at perm(v): summed over the bits
    (case 1) or weighted by (f_j - alpha_n)^-1 (case 2).
    """
    import numpy as np

    fp, dtype = states[0].fp, states[0].cells.dtype
    q = fp.q
    # prods[i, s, j]: the inner product of cells[s, j] with query row j
    prods = np.stack([
        mod_einsum(q, "jm,sjm->sj", np.asarray(query_blocks[st.db_index - 1], dtype=dtype),
                   st.cells)
        for st in states
    ])
    cols = np.asarray(v_tilde, dtype=np.intp) - 1
    rows = np.asarray(setup.perm, dtype=np.intp)[cols] - 1
    noise = setup.reversing_noise()[:, cols]
    consts = _reversing_constants(fp, setup.ell, setup.case)
    consts = np.array([consts[st.db_index - 1] for st in states], dtype=dtype)
    if setup.case == 1:
        sums = prods.sum(axis=2) % q
        out = consts[:, None] * mod_einsum(q, "nk,vk->nv", sums, noise.T)
        out += sums[:, rows]
    else:
        out = mod_einsum(q, "nk,vk->nv", prods.reshape(len(states), -1), noise.T)
        out += mod_einsum(q, "nj,nvj->nv", consts, prods[:, rows])
    return out % q


def decode_sparse(fp: FieldParams, ell: int, answers):
    """The ell bits behind one answer per database, or (ell, V) bits behind
    an (N, V) answer matrix."""
    if len(answers) != fp.n_databases:
        raise DomainError("need one answer per database")
    return apply_rows(fp.q, decode_inverse(fp.field, fp.alphas, fp.fs[:ell]), answers)


def read_sparse(
    v_tilde: list[int],
    setup: PermutationSetup,
    states: list[DatabaseState],
    query_blocks,
):
    """Decode the selected subpackets; returns their true indices, an
    ``np.intp`` array in ``v_tilde`` order, and their ``(V, ell)`` bits.

    ``v_tilde`` holds permuted indices; the caller (user side) learns the
    true indices through the permutation it received from the coordinator.
    The submodel is the one ``query_blocks`` asks for.
    """
    import numpy as np

    if any(not 1 <= v <= setup.p_subpackets for v in v_tilde):
        raise DomainError("permuted subpacket index out of range")
    true = np.array([setup.true_index(v) for v in v_tilde], dtype=np.intp)
    if not v_tilde:
        return true, np.zeros((0, setup.ell), dtype=states[0].cells.dtype)
    answers = answer_sparse(states, setup, query_blocks, v_tilde)
    return true, decode_sparse(states[0].fp, setup.ell, answers).T


def select_top_r(scores, r: Fraction, p_subpackets: int) -> list[int]:
    """Indices (1-based) of the round(P*r) most significant subpackets; ties
    break toward the lower index."""
    count = round_half_up(Fraction(r) * p_subpackets)
    if count == 0 and r > 0:
        warnings.warn("sparsification rate rounds to zero subpackets; nothing will be written")
    order = sorted(range(1, p_subpackets + 1), key=lambda s: (-scores[s - 1], s))
    return sorted(order[:count])


def write_sparse(
    deltas,                         # deltas[s-1]: the ell updates for subpacket s
    scores,
    r: Fraction,
    setup: PermutationSetup,
    states: list[DatabaseState],
    query_blocks,
    noise,
) -> tuple[list[int], list[int]]:
    """One sparse write round: select, combine, permute positions, send, and
    let every database fold the un-permuted increments into storage through
    the read's ``query_blocks``.  Returns the permuted positions sent and the
    true subpacket indices written, both ascending."""
    import numpy as np

    fp = states[0].fp
    ell, p = setup.ell, setup.p_subpackets
    if len(scores) != p:
        raise DomainError(f"expected {p} scores, got {len(scores)}")
    if len(deltas) != p:
        raise DomainError(f"expected updates for {p} subpackets, got {len(deltas)}")
    block = symbol_array(deltas, fp.q, (p, ell))
    if block is None:
        bad = next((s for s, row in enumerate(deltas, 1) if np.shape(row) != (ell,)), 1)
        raise DomainError(f"expected {ell} updates for subpacket {bad}")
    chosen = select_top_r(scores, r, p)
    # one noise symbol per chosen subpacket, in ascending true order
    zs = noise.symbol(fp.q, len(chosen), "update-noise")
    inputs = np.concatenate([block[np.asarray(chosen, dtype=np.intp) - 1], zs[:, None]], axis=1)
    symbols = apply_rows(fp.q, combine_map(fp.field, fp.fs[:ell], fp.alphas, 1), inputs.T)
    permuted = [setup.permuted_index(s) for s in chosen]
    order = sorted(range(len(chosen)), key=permuted.__getitem__)
    positions = [permuted[k] for k in order]
    values = symbols.T[order]
    apply_sparse_write(states, setup, query_blocks, positions, values)
    return positions, chosen


def apply_sparse_write(
    states: list[DatabaseState],
    setup: PermutationSetup,
    query_blocks,
    positions: list[int],
    symbols,
) -> None:
    """Database side of a write, for every database in ``states``:
    ``symbols[k][i]`` is the symbol for ``positions[k]`` at ``states[i]``.

    Each database rebuilds its permuted update vector, un-permutes it with
    its noisy reversing matrix and adds the per-subpacket increments.  The
    shared noise's columns meet the ``(V, N)`` symbols in one contraction,
    scaled by prod_j (f_j - alpha_n) in case 1; the base term adds each
    symbol at its perm(v), times (f_j - alpha_n)^-1 at bit j in case 2.
    Each database then folds its increments times its
    :func:`~pruw.storage.write_factors` row.
    """
    import numpy as np

    if len(set(positions)) != len(positions):
        raise ProtocolError("duplicate permuted positions in write payload")
    if any(not 1 <= k <= setup.p_subpackets for k in positions):
        raise ProtocolError("permuted position out of range")
    if not positions:
        return
    fp, dtype = states[0].fp, states[0].cells.dtype
    q, ell = fp.q, setup.ell
    sym = np.asarray(symbols, dtype=dtype)
    if sym.shape != (len(positions), len(states)):
        raise ProtocolError("write payload needs one symbol per position and database")
    cols = np.asarray(positions, dtype=np.intp) - 1
    rows = np.asarray(setup.perm, dtype=np.intp)[cols] - 1
    noise = setup.reversing_noise()[:, cols]
    consts = _reversing_constants(fp, ell, setup.case)
    consts = np.array([consts[st.db_index - 1] for st in states], dtype=dtype)
    # t[i, k] = sum_v noise[k, v] * sym[v, i], before each database's base term
    t = mod_einsum(q, "nv,kv->nk", sym.T, noise)
    if setup.case == 1:
        t *= consts[:, None]
        t[:, rows] += sym.T
        t = t[:, :, None]  # one increment for every bit of a subpacket
    else:
        t = t.reshape(len(states), -1, ell)
        t[:, rows] += consts[:, None, :] * sym.T[:, :, None]
    factors = write_factors(fp, states[0].layout.affine_mask, fp.fs[:ell], ())
    steps = t % q * factors[[st.db_index - 1 for st in states]][:, None, :] % q
    for st, step in zip(states, steps):
        fold(q, st.cells, query_blocks[st.db_index - 1], step)


@dataclass(frozen=True)
class TopRCosts:
    """Closed-form costs; ``read``/``write`` follow the per-case derivation,
    the ``alt`` pair is the alternative published normalization for case 2."""

    read: object
    write: object
    read_alt: object = None
    write_alt: object = None


def costs_topr(n: int, p_subpackets: int, q: int, r, r_prime, case: int) -> TopRCosts:
    ell = topr_subpacketization(n, case)
    # log_q P, an exact Fraction when P is an integer power of q
    k = position_symbols(p_subpackets, q)
    lam = Fraction(k) if q ** k == p_subpackets else math.log(p_subpackets, q)
    r = Fraction(r)
    rp = Fraction(r_prime)
    if isinstance(lam, Fraction):
        read = (lam + rp * (n + lam)) / ell
        write = r * n * (1 + lam) / ell
    else:
        read = (lam + float(rp) * (n + lam)) / ell
        write = float(r) * n * (1 + lam) / ell
    if case == 1:
        return TopRCosts(read=read, write=write)
    # alternative form normalizes with denominator (1 - 2/N)
    if isinstance(lam, Fraction):
        read_alt = Fraction(2 * rp * n + 2 * lam * (1 + rp), n - 2)
        write_alt = Fraction(2 * r * n * (1 + lam), n - 2)
    else:
        read_alt = (2 * float(rp) * n + 2 * lam * (1 + float(rp))) / (n - 2)
        write_alt = 2 * float(r) * n * (1 + lam) / (n - 2)
    return TopRCosts(read=read, write=write, read_alt=read_alt, write_alt=write_alt)


def costs_topr_metered(n: int, p_subpackets: int, q: int, r, r_prime, case: int) -> TopRCosts:
    """What the symbol meter should report: positions charged at the integer
    ceil(log_q P), counts rounded to whole subpackets."""
    ell = topr_subpacketization(n, case)
    clog = position_symbols(p_subpackets, q)
    v = round_half_up(Fraction(r_prime) * p_subpackets)
    b = round_half_up(Fraction(r) * p_subpackets)
    length = p_subpackets * ell
    read = Fraction(p_subpackets * clog + v * clog + v * n, length)
    write = Fraction(b * n * (1 + clog), length)
    return TopRCosts(read=read, write=write)


def _bit_positions(subpackets, ell: int):
    """The model positions of the bits of the true subpacket indices
    ``subpackets``, an ``np.intp`` array, subpacket by subpacket."""
    import numpy as np

    return ((subpackets - 1)[:, None] * ell + np.arange(ell, dtype=np.intp)).reshape(-1)


class TopRScheme:
    """Top-r sparsification in a session: one storage block, the coordinator's
    permutation, and a read set that follows the previous write's positions
    after the first iteration."""

    budget = None

    def __init__(self, cfg):
        self.cfg = cfg
        ell = topr_subpacketization(cfg.n, cfg.case)
        block = 1 if cfg.case == 1 else ell  # reversing-noise rows per subpacket
        symbols = cfg.p * block * cfg.p
        if symbols > REVERSING_SYMBOL_LIMIT:
            largest = math.isqrt(REVERSING_SYMBOL_LIMIT // block)
            raise ConfigError(
                f"p={cfg.p} needs {symbols} reversing-noise symbols, above "
                f"the limit of {REVERSING_SYMBOL_LIMIT}; the largest p for n={cfg.n}, "
                f"case={cfg.case} is {largest}"
            )
        self.length = cfg.p * ell
        self.fp = allocate_eval_points(cfg.n, ell, cfg.q)
        self.perm_setup = coordinator_setup(cfg.p, ell, cfg.case, self.fp,
                                            CounterNoise(cfg.seed).derive("perm"), perm=cfg.perm)
        self.clog = position_symbols(cfg.p, cfg.position_base or cfg.q)
        self.last_write_positions: list[int] = []

    def init_storage(self, model, noise) -> None:
        self.states = init_topr(model, self.fp, self.cfg.case, noise.derive("storage"))
        self.storage = [(0, self.states)]

    def read(self, theta, iteration, noise, record, detail):
        cfg, setup, clog = self.cfg, self.perm_setup, self.clog
        # permutation delivery to the user, charged per the cost accounting
        record(wire.PERM_SETUP, [0], cfg.p * clog)
        if iteration > 0:
            v_tilde = sorted(set(self.last_write_positions))
        elif cfg.v_tilde is not None:
            v_tilde = sorted(cfg.v_tilde)
        else:
            v_tilde = list(range(1, round_half_up(Fraction(cfg.r_prime) * cfg.p) + 1))
        build = build_query_case1 if cfg.case == 1 else build_query_case2
        self.query = build(theta, self.fp, setup.ell, cfg.m, noise)
        record(wire.READ_Q, range(1, cfg.n + 1), setup.ell * cfg.m)
        record(wire.DOWNLINK_SET, [1], len(v_tilde) * clog)
        true, bits = read_sparse(v_tilde, setup, self.states, self.query)
        if v_tilde:
            record(wire.READ_A, range(1, cfg.n + 1), len(v_tilde))
        detail["v_tilde"] = v_tilde
        detail["v_true"] = true.tolist()
        return _bit_positions(true, setup.ell), bits.reshape(-1)

    def write(self, data, noise, record, detail):
        import numpy as np

        cfg, setup = self.cfg, self.perm_setup
        scores = cfg.scores if cfg.scores is not None else data.symbol(1 << 30, cfg.p, "scores")
        deltas = data.symbol(self.fp.q, cfg.p * setup.ell, "delta").reshape(cfg.p, setup.ell)
        positions, chosen = write_sparse(deltas, scores, Fraction(cfg.r), setup, self.states,
                                         self.query, noise)
        if positions:
            for n in range(1, cfg.n + 1):
                record(wire.SPARSE_POS, [n], len(positions) * self.clog)
                record(wire.WRITE_U, [n], len(positions))
        self.last_write_positions = positions
        detail["write_positions"] = list(positions)
        detail["chosen_true"] = chosen
        detail["position_symbols"] = self.clog
        true = np.array(chosen, dtype=np.intp)
        return _bit_positions(true, setup.ell), deltas[true - 1].reshape(-1)

    def costs(self):
        cfg = self.cfg
        metered = costs_topr_metered(cfg.n, cfg.p, cfg.position_base or cfg.q, cfg.r,
                                     cfg.r_prime, cfg.case)
        return metered.read, metered.write
