"""Pinned output bytes: result JSON and frame trace digests.

Each digest is the sha256 of the bytes a run produces.  A refactor that is
meant to leave the outputs alone must keep every digest; a change that
alters the bytes on purpose (a new noise generator, say) updates them here
and says why in CHANGES.md.
"""

import hashlib

import pytest

from pruw.config import parse_config_text
from pruw.harness import run_session

CONFIGS = {
    "basic-skip-set": "scheme=basic\nn=5\nm=2\nl=4\nq=127\nseed=2\niterations=2\n",
    "basic-t-overrides": "scheme=basic\nn=10\nm=2\nl=9\nq=127\nseed=4\nt1=5\nt2=3\n",
    "topr-case1-fixture": (
        "scheme=topr\nn=10\nm=3\np=5\nq=127\ncase=1\nr=2/5\nr_prime=2/5\n"
        "perm=2,5,1,3,4\nv_tilde=2,3\nscores=10,0,0,9,0\nseed=3\n"
    ),
    "topr-case2-3-iterations": (
        "scheme=topr\nn=10\nm=2\np=5\nq=127\ncase=2\nr=2/5\nr_prime=2/5\nseed=9\niterations=3\n"
    ),
    "random-odd-case1": (
        "scheme=random\nn=9\nm=2\nl=40\nq=127\nd_read=0\nd_write=1/4\nseed=3\niterations=2\n"
    ),
    "random-odd-case2": (
        "scheme=random\nn=9\nm=2\nl=40\nq=127\nd_read=1/4\nd_write=0\nseed=3\niterations=2\n"
    ),
    # a single distortive region (ell 6/5) and a remainder of 20 bits: the
    # zero-distortion tail takes it, so read distortion 1/5 stays in budget
    "random-overrun": (
        "scheme=random\nn=10\nm=2\nl=50\nq=127\nd_read=1/3\nd_write=1/5\nseed=3\niterations=2\n"
    ),
    # q = 2^61 - 1: the object-array path of every kernel
    "basic-q61-padded": (
        "scheme=basic\nn=10\nm=2\nl=37\nq=2305843009213693951\nseed=5\niterations=2\n"
    ),
    "topr-case1-q61": (
        "scheme=topr\nn=10\nm=2\np=9\nq=2305843009213693951\ncase=1\nr=1/3\nr_prime=1/3\n"
        "seed=5\niterations=3\n"
    ),
    # two regions (ell 4 and 5), the first padded by 2 bits
    "random-q61-two-regions": (
        "scheme=random\nn=10\nm=2\nl=37\nq=2305843009213693951\nd_read=1/10\nd_write=1/10\n"
        "seed=5\niterations=2\n"
    ),
}
# noise off: the same protocol with every privacy-noise symbol zero.  The
# noise never reaches the outputs, so these differ from their noise-on
# configs only in config.disable_noise; a data draw zeroed by mistake (the
# deltas, top-r's scores) would change them.
NOISE_OFF = {
    "basic-noise-off": "basic-skip-set",
    "topr-case2-noise-off": "topr-case2-3-iterations",
    "random-noise-off": "random-odd-case1",
}
CONFIGS.update({name: CONFIGS[base] + "disable_noise=true\n" for name, base in NOISE_OFF.items()})

# name -> (sha256 of result_json(), sha256 of trace())
RUN_DIGESTS = {
    "basic-skip-set": (
        "9fb5f3981dcf63a695f93d8c88b91ef3b669b599de37c654da2efea09f57569d",
        "b7b63f6a6b551c8f8b4a48167f7e6200d3866a87ad8b318a6c51e795f1150327",
    ),
    "basic-t-overrides": (
        "60de0ab1aa6275a3c3dc29475bc638c70c8ab5507309451de3a4c71788f9b52a",
        "f4cec973ecae4922c71e72f5beeaa638649cde3774c9b9648e241aff3a33c69b",
    ),
    "topr-case1-fixture": (
        "8567754e067ce2b699a906e9a0b5da9552fbbd05c1b730921c204e9c22cd6aae",
        "c04fd8e3943f2cbe39ba9f4cfc9b2f9b169240ce8524e8c82785e2dc8d7b968a",
    ),
    "topr-case2-3-iterations": (
        "8387193ae9c26d1b1b6cf9029243b2dadef83b969c9e22ed9af5a99ec8d5524a",
        "4e55ef60658e4d8db8f87c5bc0f50a26cdd14afed6b1b24309d1fa5561e98648",
    ),
    "random-odd-case1": (
        "55d03a341f6d3bed143a5def281d1bf90e0d919400630cf7bfeb062a2ade3084",
        "1e8d4066f0ef3843eed916457f96173e55244a2c2c10521d7ad667490d0bd6aa",
    ),
    "random-odd-case2": (
        "b0221ed7b5da23a7080619a77a1bfa75cb959c3810b8051f0c52fccb66b41efc",
        "160ba70bdfe6236ebe1c74fae33b0c4c95d71e767110fbca2c6722c492645463",
    ),
    "random-overrun": (
        "a9738e4351a2504821d1ddbc632d268d36d6671ade458f4cc82b6114c8f39314",
        "1983cea2ddad2ddf676c38374f10450f8e1ef18530e8c4a96a03cbc4683e36fd",
    ),
    "basic-noise-off": (
        "9df83b36965bab70e32894af7b136bfa17cad99411aab9359f5ca3a7271681f4",
        "b7b63f6a6b551c8f8b4a48167f7e6200d3866a87ad8b318a6c51e795f1150327",
    ),
    "topr-case2-noise-off": (
        "731c2d35c625af87c5729dedc3ed745aadfceb9fde043636a505f8b3a16236bd",
        "4e55ef60658e4d8db8f87c5bc0f50a26cdd14afed6b1b24309d1fa5561e98648",
    ),
    "random-noise-off": (
        "65c18814dde8359f73144fd67c9c8fea6305647c957fe913f2934781aca13945",
        "1e8d4066f0ef3843eed916457f96173e55244a2c2c10521d7ad667490d0bd6aa",
    ),
    "basic-q61-padded": (
        "a906533e23a20c6ca335a6ad87a563aef2f1215a4c0ccb92982a70b04ad15ec6",
        "aa13beea8d7550cf2a03246050928e9b1603341121f9870de01aa7ca18632f73",
    ),
    "topr-case1-q61": (
        "9ca814f6d3d522fd813596e38364f99b4ddef20946789c5c1c9d6dec922aeae3",
        "81fb995aa63516bcfd21df8d83f1ec28d57ba36a8e67ad7b321f11c065db52cd",
    ),
    "random-q61-two-regions": (
        "9732050d30927003831f1907054e6290551f596dbb470413abd8f25db1cb57e0",
        "a6d182fd1454aa40c991b162badf5c920150d776e67c8db73c93aab1d7c21aec",
    ),
}

def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(RUN_DIGESTS))
def test_run_digests(name):
    res = run_session(parse_config_text(CONFIGS[name]))
    got = (_sha(res.result_json().encode()), _sha(res.trace().encode()))
    assert got == RUN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(NOISE_OFF))
def test_noise_off_iterations_match_noise_on(name):
    off = run_session(parse_config_text(CONFIGS[name])).as_dict()
    on = run_session(parse_config_text(CONFIGS[NOISE_OFF[name]])).as_dict()
    assert off["iterations"] == on["iterations"]


def test_overrun_config_stays_in_budget():
    res = run_session(parse_config_text(CONFIGS["random-overrun"]))
    assert res.verdict
    assert [(str(it.distortion.read_measured), str(it.distortion.write_measured))
            for it in res.iterations] == [("1/5", "3/25")] * 2
