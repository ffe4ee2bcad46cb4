"""Small exact integer maps: the unsplit kernel path and the oracle's
integer rows.

``mod_einsum`` sums a fixed operand unsplit when max|split| * (q - 1) *
terms < 2^63, and cuts it into 16-bit limbs otherwise.  Both paths are
checked against Python-int arithmetic, with signed operands at the bound
and a residue one past it.  The oracle's extrapolation weights and finite
differences are checked against the Lagrange-basis map they replaced: the
same parity space, the same plain symbol on codewords, and the same
IntegrityError texts on corrupted storage.
"""

import random
import sys

import numpy as np
import pytest

import pruw
from pruw import basic, storage
from pruw.errors import DomainError, IntegrityError
from pruw.field import CounterNoise, FieldParams, PrimeField, allocate_eval_points, mod_einsum
from pruw.poly import lagrange_basis
from pruw.storage import (
    Layout,
    draw_model,
    init_basic,
    init_random_sparse,
    init_topr,
    reconstruct_plain,
    topr_subpacketization,
)

Q64 = 3_037_000_493  # the largest prime whose residue products fit int64
PRIMES = (127, 2**31 - 1, Q64)


def unsplit_bound(q, terms):
    """The largest max|split| that the unsplit path takes over ``terms``."""
    return ((1 << 63) - 1) // ((q - 1) * terms)


def plain_reference(q, split, other):
    """``sum_i split[r, i] * other[p, i] mod q`` on Python ints."""
    return [[sum(a * b for a, b in zip(row, vec)) % q for vec in other] for row in split]


def count_einsums(monkeypatch):
    calls = []
    real = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *args, **kw: calls.append(1) or real(*args, **kw))
    return calls


# ---- the kernel guard

class TestUnsplitPath:
    @pytest.mark.parametrize("q", PRIMES)
    @pytest.mark.parametrize("terms", [1, 3, 7])
    def test_signed_operands_at_the_bound(self, q, terms, monkeypatch):
        rng = random.Random(q * terms)
        bound = unsplit_bound(q, terms)
        # signed entries up to the bound in magnitude, both extremes present
        split = [([bound, -bound] * terms)[:terms], [-bound] * terms]
        split += [[rng.randint(-bound, bound) for _ in range(terms)] for _ in range(3)]
        other = [[q - 1] * terms] + [[rng.randrange(q) for _ in range(terms)] for _ in range(4)]
        want = plain_reference(q, split, other)
        einsums = count_einsums(monkeypatch)
        got = mod_einsum(q, "ri,pi->rp", np.array(split, dtype=np.int64),
                         np.array(other, dtype=np.int64))
        assert len(einsums) == 1
        monkeypatch.undo()
        assert got.dtype == np.int64 and got.tolist() == want
        # the same map as residues: the limb path where they pass the bound
        residues = np.array(split, dtype=np.int64) % q
        limbs = mod_einsum(q, "ri,pi->rp", residues, np.array(other, dtype=np.int64))
        assert limbs.tolist() == want
        objects = mod_einsum(q, "ri,pi->rp", np.array(split, dtype=object),
                             np.array(other, dtype=object))
        assert objects.tolist() == want

    @pytest.mark.parametrize("q, terms", [(2**31 - 1, 3), (Q64, 2)])
    def test_one_past_the_bound_takes_the_limbs(self, q, terms, monkeypatch):
        bound = unsplit_bound(q, terms)
        assert bound + 1 < q  # still a residue, so the limb path is exact
        other = np.full((2, terms), q - 1, dtype=np.int64)
        for largest, einsums_wanted in ((bound, 1), (bound + 1, 2)):
            split = [[largest] * terms]
            einsums = count_einsums(monkeypatch)
            got = mod_einsum(q, "ri,pi->rp", np.array(split, dtype=np.int64), other)
            assert len(einsums) == einsums_wanted
            monkeypatch.undo()
            assert got.tolist() == plain_reference(q, split, other.tolist())


class TestOneEinsumPerCall:
    """Basic at N = 10: set-up and the oracle hand the kernel small exact maps,
    so each kernel call is one einsum, not a pair of limb einsums."""

    @staticmethod
    def count_kernel_calls(monkeypatch):
        original = pruw.field.mod_einsum
        calls = []

        def counted(*args):
            calls.append(1)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "pruw" and getattr(module, "mod_einsum", None) is original:
                monkeypatch.setattr(module, "mod_einsum", counted)
        return calls

    def test_setup_and_oracle(self, monkeypatch):
        params = basic.optimal_params(10)
        fp = allocate_eval_points(10, params.ell, 2**31 - 1)
        model = draw_model(2, 3 * storage.DRAW_CHUNK * params.ell + 1, fp.q, 1)
        kernels = self.count_kernel_calls(monkeypatch)
        einsums = count_einsums(monkeypatch)
        states = init_basic(model, fp, params.t_storage, params.t_query, CounterNoise(1))
        assert len(kernels) == 4 and len(einsums) == 4  # one per draw chunk
        kernels.clear()
        einsums.clear()
        assert np.array_equal(reconstruct_plain(states), model)
        assert len(kernels) == params.ell and len(einsums) == params.ell


# ---- the oracle's integer rows against the Lagrange-basis map

def lagrange_oracle_map(fp, layout, j):
    """The oracle map from the Lagrange basis over the database constants:
    the weights evaluate the interpolant at f_j and the parity rows are its
    coefficients above the mask degree."""
    q, f_j = fp.q, fp.fs[j]
    cols = lagrange_basis(fp.field, fp.alphas)
    if not layout.affine_mask:
        cols = [[c * (f_j - alpha) % q for c in col] for alpha, col in zip(fp.alphas, cols)]
    weights = tuple(fp.field.poly_eval(col, f_j) for col in cols)
    parity = tuple(tuple(col[k] for col in cols)
                   for k in range(layout.noise_terms + 1, fp.n_databases))
    return weights, parity


def rank_mod(q, rows):
    """The rank of ``rows`` over GF(q), by Gauss-Jordan elimination."""
    rows = [[v % q for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, q)
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] * inv % q
                rows[r] = [(a - f * b) % q for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def layouts(n):
    """(name, Layout) for basic, top-r cases 1 and 2 where N fits them, and
    both random cases over three bit constants."""
    params = basic.optimal_params(n)
    out = [("basic", Layout("basic", params.ell, params.t_storage, True, params.ell))]
    for case in (1, 2):
        try:
            ell = topr_subpacketization(n, case)
        except pruw.errors.ConfigError:
            continue
        terms = (2 * ell if case == 1 else ell + 1) + 1
        out.append((f"topr-{case}", Layout("topr", ell, terms, True, ell)))
    half = n // 2
    out.append(("random-1", Layout("random", 3, half, False, 6)))
    out.append(("random-2", Layout("random", 3, n - half, False, 6)))
    return out


@pytest.mark.parametrize("q", [127, 2**31 - 1])
@pytest.mark.parametrize("n", range(4, 15))
class TestOracleRows:
    def test_same_parity_space(self, n, q):
        for name, layout in layouts(n):
            fp = allocate_eval_points(n, layout.width, q)
            want = n - layout.noise_terms - 1
            for j in range(layout.width):
                _, parity = storage._oracle_map(fp, layout, j)
                _, ref = lagrange_oracle_map(fp, layout, j)
                assert len(parity) == len(ref) == want, name
                assert rank_mod(q, parity) == rank_mod(q, ref) == want, name
                assert rank_mod(q, parity + ref) == want, name

    def test_weights_read_codewords(self, n, q):
        rng = random.Random(n * q)
        for name, layout in layouts(n):
            fp = allocate_eval_points(n, layout.width, q)
            for j in range(layout.width):
                weights, parity = storage._oracle_map(fp, layout, j)
                f_j = fp.fs[j]
                for _ in range(3):
                    g = [rng.randrange(q) for _ in range(layout.noise_terms + 1)]
                    cells = [fp.field.poly_eval(g, alpha) for alpha in fp.alphas]
                    if not layout.affine_mask:
                        cells = [c * pow(f_j - alpha, -1, q) % q
                                 for c, alpha in zip(cells, fp.alphas)]
                    assert sum(w * c for w, c in zip(weights, cells)) % q == \
                        fp.field.poly_eval(g, f_j), name
                    assert all(sum(p * c for p, c in zip(row, cells)) % q == 0
                               for row in parity), name

    def test_integrity_errors_as_with_the_lagrange_map(self, n, q, monkeypatch):
        def both():
            """The oracle's outcome with the new rows and with the Lagrange map."""
            got = outcome(states)
            monkeypatch.setattr(storage, "_oracle_map", lagrange_oracle_map)
            want = outcome(states)
            monkeypatch.undo()
            return got, want

        rng = random.Random(n + q)
        for name, states in storages(n, q):
            fp, layout, first = states[0].fp, states[0].layout, states[0]
            got, want = both()
            assert np.array_equal(got, want), name
            i = rng.randrange(n)
            # one replica's cell off by one
            corruptions = [[(i, tuple(rng.randrange(size) for size in first.cells.shape), 1)]]
            if first.padded_length > first.length:
                s, j = divmod(first.padded_length - 1, layout.width)
                # one replica's padding cell set nonzero, and a consistent
                # nonzero padding symbol: every replica's share of w = 1
                corruptions.append([(i, (s, j, 0), 1)])
                corruptions.append([(k, (s, j, 0), 1 if layout.affine_mask
                                     else pow(fp.fs[j] - fp.alphas[k], -1, q))
                                    for k in range(n)])
            for corruption in corruptions:
                saved = [st.cells.copy() for st in states]
                for k, at, delta in corruption:
                    states[k].cells[at] = (int(states[k].cells[at]) + delta) % q
                got, want = both()
                assert isinstance(got, str) and got == want, name
                for st, cells in zip(states, saved):
                    st.cells[...] = cells


def outcome(states):
    """The decoded model, or the IntegrityError text."""
    try:
        return reconstruct_plain(states)
    except IntegrityError as exc:
        return str(exc)


def storages(n, q):
    """Real storage with a padded tail, one per layout of :func:`layouts`."""
    for name, layout in layouts(n):
        fp = allocate_eval_points(n, layout.width, q)
        noise = CounterNoise(n)
        if name == "basic":
            model = draw_model(2, 3 * layout.width + 1, q, n)
            yield name, init_basic(model, fp, layout.noise_terms, 1, noise)
        elif name.startswith("topr"):
            model = draw_model(2, 3 * layout.width - 1, q, n)
            yield name, init_topr(model, fp, int(name[-1]), noise)
        else:
            case = int(name[-1])
            ell_r, ell_w = (2, 3) if case == 1 else (3, 2)
            yield name, init_random_sparse(draw_model(2, 7, q, n), fp, case, ell_r, ell_w, noise)


def test_oracle_needs_consecutive_constants():
    fp = allocate_eval_points(6, 2, 127)
    gapped = FieldParams(field=PrimeField(127), fs=fp.fs, alphas=fp.alphas[:-1] + (40,))
    layout = Layout("basic", 2, 3, True, 2)
    with pytest.raises(DomainError, match="consecutive"):
        storage._oracle_map.__wrapped__(gapped, layout, 0)
