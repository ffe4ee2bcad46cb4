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
    # read distortion 17/50 overruns the 1/3 budget: a failing verdict
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
        "5f1414bca76d848d045008cb71fbf657b440b5d235a7909247568e98c15e898e",
        "4e55ef60658e4d8db8f87c5bc0f50a26cdd14afed6b1b24309d1fa5561e98648",
    ),
    "random-odd-case1": (
        "04ac23bb08f7d34b8225d0ea1ad05f54b6100cdefec8c8c292dcee4924ddc398",
        "68afb4881d4a70ae891648b7cd42f126fe3a7190ad1d12e309ebc9c6ff311120",
    ),
    "random-odd-case2": (
        "9f5b024a396a56b75b36b6e2411cbe82c3fafcd54f3c0ffc7a80f031de580808",
        "73d08bb5420ce4af062bb6b25b018562330f210877dfd6a913e3068c91675cca",
    ),
    "random-overrun": (
        "f61f224b049fa198bafca4e0b1f6488c62859cb9e777153ac9f7d062e0a0778e",
        "ce22bd7e0eb071c8dc6451ed18fd8d3ad14dd1ee3d9b680c0a8df167130cd93e",
    ),
    "basic-noise-off": (
        "9df83b36965bab70e32894af7b136bfa17cad99411aab9359f5ca3a7271681f4",
        "b7b63f6a6b551c8f8b4a48167f7e6200d3866a87ad8b318a6c51e795f1150327",
    ),
    "topr-case2-noise-off": (
        "c8103cf7b2b56ec87add16fbc3add19897f669222340a4e1f0cd3eef62d1fd36",
        "4e55ef60658e4d8db8f87c5bc0f50a26cdd14afed6b1b24309d1fa5561e98648",
    ),
    "random-noise-off": (
        "88e8aca109bc4d2572db600aeb204f84b55e4eea198bac4515bd4fc6c4db3548",
        "68afb4881d4a70ae891648b7cd42f126fe3a7190ad1d12e309ebc9c6ff311120",
    ),
    "basic-q61-padded": (
        "a906533e23a20c6ca335a6ad87a563aef2f1215a4c0ccb92982a70b04ad15ec6",
        "aa13beea8d7550cf2a03246050928e9b1603341121f9870de01aa7ca18632f73",
    ),
    "topr-case1-q61": (
        "4f0b6bdfa1620e27517b40da7013cbb93f019966bf2b3eb1bd4046e4f3d4e512",
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


def test_overrun_verdict_fails():
    res = run_session(parse_config_text(CONFIGS["random-overrun"]))
    assert not res.verdict
    assert [str(it.distortion.read_measured) for it in res.iterations] == ["17/50", "17/50"]
