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
from .poly import apply_rows, combine_update, decode_inverse
from .storage import DatabaseState, TopRLayout, topr_subpacketization


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
    if not 1 <= theta <= m_count:
        raise DomainError(f"submodel index {theta} outside 1..{m_count}")
    q = fp.q
    masks = [
        [0] * m_count if disable_noise else seeded_uniform(rng, q, m_count)
        for _ in range(ell)
    ]
    blocks = []
    for n in range(1, fp.n_databases + 1):
        inv = [fp.field.inv(fp.fs[k] - fp.alpha(n)) for k in range(ell)]
        block = [
            [((inv[k] if (m + 1) == theta else 0) + masks[k][m]) % q for m in range(m_count)]
            for k in range(ell)
        ]
        blocks.append(block)
    return blocks


def build_query_case2(theta, fp, ell, m_count, rng, disable_noise=False):
    """Indicator query blocks masked by (f_k - alpha) times a shared vector."""
    if not 1 <= theta <= m_count:
        raise DomainError(f"submodel index {theta} outside 1..{m_count}")
    q = fp.q
    masks = [
        [0] * m_count if disable_noise else seeded_uniform(rng, q, m_count)
        for _ in range(ell)
    ]
    blocks = []
    for n in range(1, fp.n_databases + 1):
        alpha = fp.alpha(n)
        block = [
            [((1 if (m + 1) == theta else 0) + (fp.fs[k] - alpha) * masks[k][m]) % q for m in range(m_count)]
            for k in range(ell)
        ]
        blocks.append(block)
    return blocks


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


def answer_sparse(state: DatabaseState, setup: PermutationSetup, query_block, v_perm: int) -> int:
    """Database-side answer for one permuted subpacket index."""
    fp = state.fp
    q = fp.q
    ell = setup.ell
    rev = setup.reversing_matrix(state.db_index)
    acc = 0
    if setup.case == 1:
        col = v_perm - 1
        for p_i in range(state.subpackets):
            coef = rev[p_i][col]
            if coef == 0:
                continue
            cells = state.cells[p_i]
            for k in range(ell):
                row = cells[k]
                qv = query_block[k]
                inner = 0
                for m in range(state.m_count):
                    inner = (inner + row[m] * qv[m]) % q
                acc = (acc + coef * inner) % q
    else:
        size = state.subpackets * ell
        col0 = (v_perm - 1) * ell
        summed = [0] * size
        for rr in range(size):
            row = rev[rr]
            t = 0
            for j in range(ell):
                t += row[col0 + j]
            summed[rr] = t % q
        for p_i in range(state.subpackets):
            cells = state.cells[p_i]
            for k in range(ell):
                coef = summed[p_i * ell + k]
                if coef == 0:
                    continue
                row = cells[k]
                qv = query_block[k]
                inner = 0
                for m in range(state.m_count):
                    inner = (inner + row[m] * qv[m]) % q
                acc = (acc + coef * inner) % q
    return acc


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
    ell = setup.ell
    alpha = fp.alpha(state.db_index)
    rev = setup.reversing_matrix(state.db_index)
    p = state.subpackets
    if setup.case == 1:
        t_vec = [0] * p
        for k_pos, u in zip(positions, symbols):
            col = k_pos - 1
            for row in range(p):
                t_vec[row] = (t_vec[row] + rev[row][col] * u) % q
        for s in range(p):
            factor_base = t_vec[s]
            cells = state.cells[s]
            for k in range(ell):
                factor = (fp.fs[k] - alpha) * factor_base % q
                row = cells[k]
                qv = query_block[k]
                for m in range(state.m_count):
                    row[m] = (row[m] + factor * qv[m]) % q
    else:
        size = p * ell
        t_vec = [0] * size
        for k_pos, u in zip(positions, symbols):
            col0 = (k_pos - 1) * ell
            for row in range(size):
                rrow = rev[row]
                t = 0
                for j in range(ell):
                    t += rrow[col0 + j]
                t_vec[row] = (t_vec[row] + t * u) % q
        for s in range(p):
            cells = state.cells[s]
            for k in range(ell):
                factor = (fp.fs[k] - alpha) * t_vec[s * ell + k] % q
                row = cells[k]
                qv = query_block[k]
                for m in range(state.m_count):
                    row[m] = (row[m] + factor * qv[m]) % q


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
