"""Pinned output bytes: result JSON, frame trace and snapshot digests.

Each digest is the sha256 of the bytes a run produces.  A refactor that is
meant to leave the outputs alone must keep every digest; a change that
alters the bytes on purpose (a new noise generator, a new snapshot format)
updates them here and says why in CHANGES.md.
"""

import hashlib

import pytest

from pruw.cli import main
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
}

# name -> (sha256 of result_json(), sha256 of trace())
RUN_DIGESTS = {
    "basic-skip-set": (
        "9fb5f3981dcf63a695f93d8c88b91ef3b669b599de37c654da2efea09f57569d",
        "ae4a146eca038886f2551caaffea6e3b11f0c37df6e90ff08a40bc5ad50e5525",
    ),
    "basic-t-overrides": (
        "60de0ab1aa6275a3c3dc29475bc638c70c8ab5507309451de3a4c71788f9b52a",
        "53ad309256dfe4f4b4325c6984c6d1fb3639384489d8d9859944eec1d4a28b5f",
    ),
    "topr-case1-fixture": (
        "8567754e067ce2b699a906e9a0b5da9552fbbd05c1b730921c204e9c22cd6aae",
        "af268663a964d2960b79d4b5e898597338ad84fab6a0cf5f57fb9853efdcd670",
    ),
    "topr-case2-3-iterations": (
        "50c112229c93ffc4dc72b4a3fcc6cc8223c3b3598a4b7da0eb758d6bf0190e40",
        "d1d564153b6b792b45f604e7d959c38b6ef144910a29905c485e4340d17a1608",
    ),
    "random-odd-case1": (
        "04ac23bb08f7d34b8225d0ea1ad05f54b6100cdefec8c8c292dcee4924ddc398",
        "bfaf4ab942a605016d3ab8dd7503d1a1455b4d17779caee6350f4716752c8b7c",
    ),
    "random-odd-case2": (
        "9f5b024a396a56b75b36b6e2411cbe82c3fafcd54f3c0ffc7a80f031de580808",
        "8c10de19b61efb671a289e8c5d097f9ea0e0a7737754629aa1bbaabab22ec811",
    ),
    "random-overrun": (
        "f61f224b049fa198bafca4e0b1f6488c62859cb9e777153ac9f7d062e0a0778e",
        "d1c64158577ac921e096c5116dd17567aea358333a01bb08717b0a8d283eea2c",
    ),
}

# one `pruw save-snapshot` per scheme: config name -> sha256 of the file
SNAPSHOT_DIGESTS = {
    "basic-skip-set": "28554a0b8a0c5e97cbee5a9b17a61f4226f49e0acb2c7915af661be9feaa2d08",
    "topr-case1-fixture": "7e15b8b9ca0d74877b6bf4ac0f54bd8c57f13cfb43e32a40cbe56dddbf4c3614",
    "random-odd-case2": "c63508f1cf1fd7198711561313154511611e7040356590aa22860b9d9917bf9f",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(RUN_DIGESTS))
def test_run_digests(name):
    res = run_session(parse_config_text(CONFIGS[name]))
    got = (_sha(res.result_json().encode()), _sha(res.trace().encode()))
    assert got == RUN_DIGESTS[name]


def test_overrun_verdict_fails():
    res = run_session(parse_config_text(CONFIGS["random-overrun"]))
    assert not res.verdict
    assert [str(it.distortion.read_measured) for it in res.iterations] == ["17/50", "17/50"]


@pytest.mark.parametrize("name", sorted(SNAPSHOT_DIGESTS))
def test_snapshot_digests(name, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text(CONFIGS[name])
    snap = tmp_path / "snap.bin"
    assert main(["save-snapshot", "--config", str(cfg), "--out", str(snap)]) == 0
    assert _sha(snap.read_bytes()) == SNAPSHOT_DIGESTS[name]
