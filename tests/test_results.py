"""The committed ``results/`` files are what the scripts write today.

The scripts run from a temporary copy of ``scripts/`` whose ``src`` links
to this checkout, so nothing in the checkout is rewritten; each file they
write must equal the committed one byte for byte.  ``worked_example.py``
writes no file, so its stdout is pinned by digest.
"""

import hashlib
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ("costs_basic.csv", "costs_random.csv", "costs_topr.csv", "privacy_audits.json")
SCRIPTS = ("cost_tables.py", "privacy_audits.py", "worked_example.py")
# sha256 of scripts/worked_example.py's stdout
WORKED_EXAMPLE_DIGEST = "399d08cd2df69e648b71a088507a694fd509477bd00560e18a4b8b091206ad53"


def test_scripts_reproduce_committed_results(tmp_path):
    shutil.copytree(ROOT / "scripts", tmp_path / "scripts")
    (tmp_path / "src").symlink_to(ROOT / "src")
    # the three run side by side
    runs = {name: subprocess.Popen([sys.executable, str(tmp_path / "scripts" / name)],
                                   cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for name in SCRIPTS}
    outputs = {name: run.communicate() for name, run in runs.items()}
    for name, run in runs.items():
        assert run.returncode == 0, (name, outputs[name][1].decode())
    assert sorted(path.name for path in (tmp_path / "results").iterdir()) == sorted(RESULTS)
    for name in RESULTS:
        assert (tmp_path / "results" / name).read_bytes() \
            == (ROOT / "results" / name).read_bytes(), name
    stdout = outputs["worked_example.py"][0]
    assert hashlib.sha256(stdout).hexdigest() == WORKED_EXAMPLE_DIGEST
