"""Command-line shell: exit codes, formats, snapshots, determinism."""

import json
import os
import subprocess
import sys

import pytest

from pruw.cli import main
from pruw.snapshot import load_snapshot, save_snapshot, SnapshotBundle

BASIC_CFG = """\
scheme=basic
n=10
m=2
l=64
q=2147483647
seed=7
"""

TOPR_CFG = """\
scheme=topr
n=10
m=3
p=5
q=127
case=1
r=2/5
r_prime=2/5
perm=2,5,1,3,4
v_tilde=2,3
scores=10,0,0,9,0
seed=7
"""


@pytest.fixture
def basic_cfg(tmp_path):
    path = tmp_path / "basic.cfg"
    path.write_text(BASIC_CFG)
    return str(path)


@pytest.fixture
def topr_cfg(tmp_path):
    path = tmp_path / "topr.cfg"
    path.write_text(TOPR_CFG)
    return str(path)


class TestRun:
    def test_basic_fixture(self, basic_cfg, tmp_path):
        out = tmp_path / "out.json"
        assert main(["run", "--config", basic_cfg, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["verdict"] == "pass"
        assert data["iterations"][0]["ledger"]["c_read"] == "5/2"
        assert data["iterations"][0]["ledger"]["c_write"] == "5/2"

    def test_topr_fixture_contains_pairs(self, topr_cfg, tmp_path):
        out = tmp_path / "out.json"
        assert main(["run", "--config", topr_cfg, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        detail = data["iterations"][0]["detail"]
        assert detail["write_positions"] == [3, 5]
        assert detail["v_true"] == [5, 1]

    def test_malformed_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("scheme=warp\n")
        assert main(["run", "--config", str(bad)]) == 2

    def test_field_too_small_exit_2(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("scheme=basic\nn=10\nq=11\nl=8\n")
        assert main(["run", "--config", str(cfg)]) == 2

    def test_insecure_banner(self, basic_cfg, tmp_path, capsys):
        out = tmp_path / "out.json"
        main(["run", "--config", basic_cfg, "--out", str(out), "--disable-noise"])
        assert "INSECURE" in capsys.readouterr().err

    def test_frame_trace_env(self, basic_cfg, tmp_path, monkeypatch):
        monkeypatch.setenv("PRUW_LOG", "frames")
        out = tmp_path / "out.json"
        main(["run", "--config", basic_cfg, "--out", str(out)])
        trace = (tmp_path / "out.json.frames").read_text()
        assert trace.splitlines()[0].startswith("000000 READ_Q")

    def test_determinism_byte_identical(self, basic_cfg, tmp_path, monkeypatch):
        monkeypatch.setenv("PRUW_LOG", "frames")
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        main(["run", "--config", basic_cfg, "--out", str(out_a)])
        main(["run", "--config", basic_cfg, "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.json.frames").read_bytes() == (tmp_path / "b.json.frames").read_bytes()


class TestCostTable:
    def test_empty_sweep_header_only(self, tmp_path):
        spec = tmp_path / "sweep.txt"
        spec.write_text("# nothing\n")
        out = tmp_path / "costs.csv"
        assert main(["cost-table", "--spec", str(spec), "--out", str(out)]) == 0
        assert out.read_text() == (
            "scheme,N,knobs,measured_CR,analytic_CR,measured_CW,analytic_CW,match\n"
        )

    def test_basic_rows_match(self, tmp_path):
        spec = tmp_path / "sweep.txt"
        spec.write_text("\n".join(f"scheme=basic n={n}" for n in range(4, 13)) + "\n")
        out = tmp_path / "costs.csv"
        assert main(["cost-table", "--spec", str(spec), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 10
        assert all(line.endswith(",true") for line in lines[1:])

    def test_random_sweep_rate_line(self, tmp_path):
        spec = tmp_path / "sweep.txt"
        spec.write_text(
            "scheme=random n=10 d=0\nscheme=random n=10 d=1/10\nscheme=random n=10 d=1/5\n"
        )
        out = tmp_path / "costs.csv"
        main(["cost-table", "--spec", str(spec), "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert [r[4] for r in rows] == ["5/2", "9/4", "2"]


class TestAuditCommand:
    def test_default_suite(self, tmp_path):
        out = tmp_path / "audits.json"
        assert main(["audit", "--scheme", "basic", "--samples", "20000",
                     "--tvd-threshold", "0.05", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert all(entry["passed"] for entry in data)

    def test_disable_noise_fails(self, tmp_path, capsys):
        out = tmp_path / "audits.json"
        code = main(["audit", "--scheme", "basic", "--samples", "20000",
                     "--tvd-threshold", "0.05", "--out", str(out), "--disable-noise"])
        assert code == 1
        assert "INSECURE" in capsys.readouterr().err

    def test_inconclusive_exit_3(self):
        assert main(["audit", "--scheme", "basic", "--samples", "200"]) == 3


class TestSnapshots:
    @pytest.mark.parametrize("scheme_cfg", [BASIC_CFG, TOPR_CFG])
    def test_cli_round_trip(self, tmp_path, scheme_cfg):
        cfg = tmp_path / "cfg"
        cfg.write_text(scheme_cfg)
        snap = tmp_path / "snap.bin"
        assert main(["save-snapshot", "--config", str(cfg), "--out", str(snap)]) == 0
        out = tmp_path / "summary.json"
        assert main(["load-snapshot", str(snap), "--verify", "--out", str(out)]) == 0
        summary = json.loads(out.read_text())
        assert summary["integrity"] == "ok"

    def test_library_round_trip_preserves_cells(self, tmp_path):
        from pruw.config import parse_config_text
        from pruw.harness import Session

        session = Session(parse_config_text(TOPR_CFG))
        bundle = SnapshotBundle(scheme="topr", fp=session.fp, seed=7,
                                regions=[session.states], perm_setup=session.setup)
        path = tmp_path / "s.bin"
        save_snapshot(str(path), bundle)
        loaded = load_snapshot(str(path))
        assert loaded.scheme == "topr"
        assert loaded.perm_setup.perm == (2, 5, 1, 3, 4)
        assert loaded.regions[0][0].cells == session.states[0].cells
        assert loaded.fp == session.fp

    def test_modulus_beyond_u64_exit_2(self, tmp_path, capsys):
        # 2^64 + 13 is the smallest prime above 2^64: a valid field whose
        # cells do not fit the snapshot's u64 words
        cfg = tmp_path / "cfg"
        cfg.write_text(f"scheme=basic\nn=4\nm=1\nl=2\nq={2**64 + 13}\n")
        snap = tmp_path / "snap.bin"
        assert main(["save-snapshot", "--config", str(cfg), "--out", str(snap)]) == 2
        assert "u64" in capsys.readouterr().err
        assert not snap.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_beyond_u64_exit_2(self, tmp_path, capsys, seed):
        # `pruw run` accepts any int seed; the snapshot stores it as a u64
        cfg = tmp_path / "cfg"
        cfg.write_text(f"scheme=basic\nn=4\nm=1\nl=2\nq=11\nseed={seed}\n")
        snap = tmp_path / "snap.bin"
        assert main(["save-snapshot", "--config", str(cfg), "--out", str(snap)]) == 2
        assert "u64" in capsys.readouterr().err
        assert not snap.exists()

    def test_truncated_snapshot_detected(self, tmp_path, basic_cfg):
        snap = tmp_path / "snap.bin"
        main(["save-snapshot", "--config", basic_cfg, "--out", str(snap)])
        data = snap.read_bytes()
        snap.write_bytes(data[:-4])
        from pruw.errors import IntegrityError

        with pytest.raises(IntegrityError):
            load_snapshot(str(snap))


class TestEntryPoint:
    def test_import_leaves_scipy_out(self):
        # only `pruw audit` needs scipy.stats; it is imported on that path alone
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, pruw.cli; sys.exit('scipy.stats' in sys.modules)"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == 0, proc.stderr

    def test_module_invocation(self, basic_cfg):
        proc = subprocess.run(
            [sys.executable, "-m", "pruw.cli", "run", "--config", basic_cfg],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "pass"

    def test_cli_matches_library(self, basic_cfg, tmp_path):
        from pruw.config import load_config
        from pruw.harness import run_session

        out = tmp_path / "cli.json"
        main(["run", "--config", basic_cfg, "--out", str(out)])
        lib = run_session(load_config(basic_cfg)).result_json()
        assert out.read_text() == lib
