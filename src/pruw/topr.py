"""Top-r sparsification: permuted sparse positions with noisy un-permuting.

A coordinator samples a secret permutation of the subpacket indices and
hands each database a noise-added reversing matrix.  Users communicate only
permuted positions; databases un-permute them *inside* the masked algebra,
so neither the true positions nor the zero-valued updates ever leak.

Case 1 stores one reversing matrix per subpacket grid (small), case 2 a
per-bit block matrix (large but cheaper on the wire).  Position symbols are
charged as ceil(log_q P) field symbols by the meter; the closed-form costs
keep the fractional logarithm and both are reported.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import ConfigError, DomainError, ProtocolError
from .field import CounterNoise, FieldParams, seeded_uniform
from .poly import apply_rows, build_query, combine_update, decode_inverse
from .storage import DatabaseState, TopRLayout, answer, fold, topr_subpacketization


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


@dataclass
class PermutationSetup:
    """The coordinator's secret permutation plus per-database reversing data.

    ``perm[i-1]`` is the true index assigned to permuted slot i.  The base
    reversing matrix has a 1 (case 1) or a reciprocal block (case 2) at
    (perm(i), i); each database's copy adds the shared noise matrix scaled
    per case.  Matrices are built lazily per database and cached: they are
    fixed for the lifetime of the setup.
    """

    perm: tuple[int, ...]
    case: int
    ell: int
    fp: FieldParams
    noise_seed: int
    _cache: dict = dc_field(default_factory=dict, repr=False, compare=False)

    @property
    def p_subpackets(self) -> int:
        return len(self.perm)

    def true_index(self, permuted: int) -> int:
        return self.perm[permuted - 1]

    def permuted_index(self, true: int) -> int:
        return self.perm.index(true) + 1

    def permuted_set(self, true_set) -> list[int]:
        return sorted(self.permuted_index(s) for s in true_set)

    def base_matrix(self) -> list[list[int]]:
        """Case-1 reversing matrix without noise: R[perm(i)-1][i-1] = 1."""
        p = self.p_subpackets
        mat = [[0] * p for _ in range(p)]
        for i in range(1, p + 1):
            mat[self.perm[i - 1] - 1][i - 1] = 1
        return mat

    def base_matrix_blocks(self, n: int) -> list[list[int]]:
        """Case-2 reversing matrix without noise for database n: reciprocal
        diagonal blocks in the case-1 pattern."""
        p, ell, q = self.p_subpackets, self.ell, self.fp.q
        alpha = self.fp.alpha(n)
        size = p * ell
        mat = [[0] * size for _ in range(size)]
        for i in range(1, p + 1):
            row0 = (self.perm[i - 1] - 1) * ell
            col0 = (i - 1) * ell
            for j in range(ell):
                mat[row0 + j][col0 + j] = self.fp.field.inv(self.fp.fs[j] - alpha)
        return mat

    def reversing_matrix(self, n: int) -> list[list[int]]:
        """Noise-added reversing matrix held by database n (1-based)."""
        if n in self._cache:
            return self._cache[n]
        q = self.fp.q
        alpha = self.fp.alpha(n)
        noise = CounterNoise(self.noise_seed)
        if self.case == 1:
            scale = 1
            for j in range(self.ell):
                scale = scale * (self.fp.fs[j] - alpha) % q
            mat = self.base_matrix()
            p = self.p_subpackets
            for r in range(p):
                row = mat[r]
                for c in range(p):
                    row[c] = (row[c] + scale * noise.symbol(q, "rev1", r, c)) % q
        else:
            mat = self.base_matrix_blocks(n)
            size = self.p_subpackets * self.ell
            for r in range(size):
                row = mat[r]
                for c in range(size):
                    row[c] = (row[c] + noise.symbol(q, "rev2", r, c)) % q
        self._cache[n] = mat
        return mat


def coordinator_setup(
    p_subpackets: int,
    ell: int,
    case: int,
    fp: FieldParams,
    seed: int,
    perm: tuple[int, ...] | None = None,
) -> PermutationSetup:
    """Sample the secret permutation (seeded Fisher-Yates, uniform over P!)
    and derive the shared reversing noise.  ``perm`` overrides the draw for
    fixtures."""
    if p_subpackets < 1:
        raise ConfigError("need at least one subpacket")
    if case not in (1, 2):
        raise ConfigError(f"unknown case {case}")
    if perm is None:
        rng = random.Random(seed)
        order = list(range(1, p_subpackets + 1))
        rng.shuffle(order)
        perm = tuple(order)
    else:
        perm = tuple(perm)
        if sorted(perm) != list(range(1, p_subpackets + 1)):
            raise ConfigError("permutation override is not a permutation of 1..P")
    return PermutationSetup(perm=perm, case=case, ell=ell, fp=fp, noise_seed=seed)


def build_query_case1(theta, fp, ell, m_count, rng, disable_noise=False):
    """Reciprocal query blocks with a single shared mask vector per bit."""
    return build_query(theta, fp, fp.fs[:ell], m_count, rng, disable_noise)


def build_query_case2(theta, fp, ell, m_count, rng, disable_noise=False):
    """Indicator query blocks masked by (f_k - alpha) times a shared vector."""
    return build_query(theta, fp, fp.fs[:ell], m_count, rng, disable_noise, reciprocal=False)


def _check_states(setup: PermutationSetup, states: list[DatabaseState]) -> TopRLayout:
    layout = states[0].layout
    if not isinstance(layout, TopRLayout):
        raise ConfigError("states were not initialized for the sparse-position scheme")
    if layout.case != setup.case or layout.ell != setup.ell:
        raise ConfigError("coordinator setup and storage disagree on case/subpacketization")
    expected = topr_subpacketization(states[0].fp.n_databases, layout.case)
    if layout.ell != expected:
        raise ConfigError("database count does not fit the case's subpacketization")
    if states[0].subpackets != setup.p_subpackets:
        raise ConfigError("storage subpacket count does not match the permutation")
    return layout


def column_weights(setup: PermutationSetup, n: int, v_perm: int) -> list[int]:
    """Database n's un-permuting weights for permuted index v_perm, one per
    (subpacket, bit) in storage order: column v_perm of the reversing matrix
    repeated over the bits (case 1), or the sums over its block column
    v_perm (case 2)."""
    rev = setup.reversing_matrix(n)
    ell = setup.ell
    if setup.case == 1:
        return [row[v_perm - 1] for row in rev for _ in range(ell)]
    col0 = (v_perm - 1) * ell
    return [sum(row[col0 : col0 + ell]) % setup.fp.q for row in rev]


def answer_sparse(state: DatabaseState, setup: PermutationSetup, query_block, v_perm: int) -> int:
    """Database-side answer for one permuted subpacket index."""
    return answer(state.fp.q, state.rows(0, state.padded_length), query_block * state.subpackets,
                  column_weights(setup, state.db_index, v_perm))


def decode_sparse(fp: FieldParams, case: int, ell: int, answers: list[int]) -> list[int]:
    n = fp.n_databases
    power_count = (3 * ell + 2) if case == 1 else (ell + 4)
    if ell + power_count != n:
        raise ConfigError("database count does not match the case's decode shape")
    if len(answers) != n:
        raise DomainError("need one answer per database")
    return apply_rows(fp.q, decode_inverse(fp.field, fp.alphas, fp.fs[:ell], power_count), answers)


def read_sparse(
    theta: int,
    v_tilde: list[int],
    setup: PermutationSetup,
    states: list[DatabaseState],
    query_blocks,
) -> dict[int, list[int]]:
    """Decode the selected subpackets; returns {true subpacket index: bits}.

    ``v_tilde`` holds permuted indices; the caller (user side) learns the
    true indices through the permutation it received from the coordinator.
    """
    _check_states(setup, states)
    if any(not 1 <= v <= setup.p_subpackets for v in v_tilde):
        raise DomainError("permuted subpacket index out of range")
    fp = states[0].fp
    out = {}
    for v_perm in v_tilde:
        answers = [answer_sparse(st, setup, query_blocks[st.db_index - 1], v_perm) for st in states]
        bits = decode_sparse(fp, setup.case, setup.ell, answers)
        out[setup.true_index(v_perm)] = bits
    return out


def select_top_r(scores, r: Fraction, p_subpackets: int) -> list[int]:
    """Indices (1-based) of the round(P*r) most significant subpackets; ties
    break toward the lower index."""
    count = round_half_up(Fraction(r) * p_subpackets)
    if count == 0 and r > 0:
        warnings.warn("sparsification rate rounds to zero subpackets; nothing will be written")
    order = sorted(range(1, p_subpackets + 1), key=lambda s: (-Fraction(scores[s - 1]), s))
    return sorted(order[:count])


@dataclass
class SparseWriteResult:
    """What actually crossed the wire in the write phase."""

    positions: list[int]            # permuted positions, ascending
    values: list[list[int]]         # values[j][n-1]: symbol for pair j at db n
    chosen_true: list[int]          # true subpacket indices that were written


def write_sparse(
    deltas,                         # deltas[s-1]: list of ell updates for subpacket s
    scores,
    r: Fraction,
    theta: int,
    setup: PermutationSetup,
    states: list[DatabaseState],
    query_blocks,
    rng: random.Random,
    disable_noise: bool = False,
) -> SparseWriteResult:
    """One sparse write round: select, combine, permute positions, send, and
    let every database fold the un-permuted increments into storage."""
    layout = _check_states(setup, states)
    fp = states[0].fp
    ell = setup.ell
    chosen = select_top_r(scores, r, setup.p_subpackets)
    fs = fp.fs[:ell]
    per_true = {}
    for s in chosen:
        if len(deltas[s - 1]) != ell:
            raise DomainError(f"expected {ell} updates for subpacket {s}")
        noise = [0] if disable_noise else seeded_uniform(rng, fp.q, 1)
        per_true[s] = combine_update(fp.field, deltas[s - 1], fs, fp.alphas, noise)
    pairs = sorted((setup.permuted_index(s), s) for s in chosen)
    positions = [pos for pos, _ in pairs]
    values = [per_true[s] for _, s in pairs]
    for st in states:
        apply_sparse_write(
            st, setup, query_blocks[st.db_index - 1], positions,
            [v[st.db_index - 1] for v in values],
        )
    return SparseWriteResult(positions=positions, values=values, chosen_true=chosen)


def apply_sparse_write(
    state: DatabaseState,
    setup: PermutationSetup,
    query_block,
    positions: list[int],
    symbols: list[int],
) -> None:
    """Database side: rebuild the permuted update vector, un-permute it with
    the noisy reversing matrix, and add the per-subpacket increments."""
    if len(set(positions)) != len(positions):
        raise ProtocolError("duplicate permuted positions in write payload")
    if any(not 1 <= k <= setup.p_subpackets for k in positions):
        raise ProtocolError("permuted position out of range")
    fp = state.fp
    q = fp.q
    alpha = fp.alpha(state.db_index)
    t_vec = [0] * state.padded_length
    for v_perm, u in zip(positions, symbols):
        weights = column_weights(setup, state.db_index, v_perm)
        t_vec = [(t + w * u) % q for t, w in zip(t_vec, weights)]
    scales = [f - alpha for f in fp.fs[: setup.ell]] * state.subpackets
    fold(q, state.rows(0, state.padded_length), query_block * state.subpackets,
         [c * t % q for c, t in zip(scales, t_vec)])


@dataclass(frozen=True)
class TopRCosts:
    """Closed-form costs; ``read``/``write`` follow the per-case derivation,
    the ``alt`` pair is the alternative published normalization for case 2."""

    read: object
    write: object
    read_alt: object = None
    write_alt: object = None


def _log_term(p_subpackets: int, q: int):
    """log_q P as an exact Fraction when P is an integer power of q."""
    if p_subpackets == 1:
        return Fraction(0)
    k, span = 0, 1
    while span < p_subpackets:
        span *= q
        k += 1
    if span == p_subpackets:
        return Fraction(k)
    return math.log(p_subpackets, q)


def costs_topr(n: int, p_subpackets: int, q: int, r, r_prime, case: int) -> TopRCosts:
    ell = topr_subpacketization(n, case)
    lam = _log_term(p_subpackets, q)
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
