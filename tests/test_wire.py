"""Wire log: one frame per message, so the trace grows with the number of
messages and not with the model size, and no symbol is lost on the way."""

import hashlib
from fractions import Fraction

import pytest

from pruw.config import ExperimentConfig, parse_config_text
from pruw.harness import run_session
from test_golden_digests import CONFIGS

# sha256 of symbol_sums() for the golden configs, taken from the trace that
# logged every symbol-bearing subpacket as its own frame
SYMBOL_SUM_DIGESTS = {
    "basic-skip-set": "0649c19b19c2cd9f2867940f9c2ce799f10dccf1661894bef7b15b2a3cba92ad",
    "basic-t-overrides": "4623f56d66d7fbe08408566f1bbad041d165fd376e6a947c04cd5c5834e902d8",
    "topr-case1-fixture": "309eecf7806fdad20704d66c2aaf7f48040e636798881c7943de170bd4ed82f8",
    "topr-case2-3-iterations": "46b68befa2bf74e9ce387e40e2db5ead923cac71f80df298d6533e2f38c18f29",
    "random-odd-case1": "860eb55dbec5aba3fd395b85791e97ed2183ac73cb0f6b4715c6d8a819d7495e",
    "random-odd-case2": "d21464c7af0ed8d07c559479a182da3dab1c5e60981c7b0bc96202c136598a49",
    "random-overrun": "85187477425ed13bb107177ea0e7961ff467249792cce0070c0bfdc949559a58",
}


def symbol_sums(res) -> str:
    """Symbols per (iteration, kind, phase, direction, db, metered), one
    sorted line each."""
    sums = {}
    for f in res.log.frames:
        key = (f.session, f.kind, f.phase, f.direction, f.db, int(f.metered))
        sums[key] = sums.get(key, 0) + f.symbols
    return "".join(" ".join(map(str, key + (total,))) + "\n"
                   for key, total in sorted(sums.items()))


def frames_per_iteration(res) -> list[int]:
    return [sum(1 for f in res.log.frames if f.session == i) for i in range(len(res.iterations))]


def _basic(size):
    return ExperimentConfig(scheme="basic", n=10, m=1, l=size, q=127, seed=1, iterations=2)


def _topr(case):
    return lambda size: ExperimentConfig(scheme="topr", n=10, m=1, p=size, q=127, case=case,
                                         r=Fraction(2, 5), r_prime=Fraction(2, 5), seed=1,
                                         iterations=2)


def _random(size):
    # d_read = d_write = 1/10 at N=10 realizes two regions
    return ExperimentConfig(scheme="random", n=10, m=1, l=size, q=127, d_read=Fraction(1, 10),
                            d_write=Fraction(1, 10), seed=1, iterations=2)


@pytest.mark.parametrize("make, small, large", [
    (_basic, 20, 200),
    (_topr(1), 5, 20),
    (_topr(2), 5, 20),
    (_random, 20, 200),
], ids=["basic", "topr-case1", "topr-case2", "random"])
def test_frames_do_not_grow_with_model_size(make, small, large):
    small_res, large_res = run_session(make(small)), run_session(make(large))
    assert small_res.verdict and large_res.verdict
    assert frames_per_iteration(small_res) == frames_per_iteration(large_res)


def test_random_two_regions_one_frame_per_region_and_database():
    res = run_session(_random(20))
    assert len(res.iterations[0].detail["regions"]) == 2
    # first iteration: read and write queries, answers and updates
    assert frames_per_iteration(res) == [2 * 4 * 10, 2 * 2 * 10]


def test_basic_three_messages_per_database():
    res = run_session(_basic(200))
    assert frames_per_iteration(res) == [30, 30]
    # the answer carries one symbol per subpacket
    answers = [f for f in res.log.frames if f.kind == "READ_A"]
    assert {f.symbols for f in answers} == {200 // 4}  # ell = 4 at N=10
    assert res.trace().splitlines()[10] == (
        "000010 READ_A sess=0 phase=read dir=down db=1 sym=50 metered=1"
    )


@pytest.mark.parametrize("name", sorted(SYMBOL_SUM_DIGESTS))
def test_symbol_sums_unchanged(name):
    res = run_session(parse_config_text(CONFIGS[name]))
    digest = hashlib.sha256(symbol_sums(res).encode()).hexdigest()
    assert digest == SYMBOL_SUM_DIGESTS[name]
