"""Command-line shell: exit codes, formats, determinism."""

import json
import os
import subprocess
import sys

import pytest

from pruw.cli import main

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

    def test_oversized_topr_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("scheme=topr\nn=10\ncase=2\np=3000\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "largest p" in capsys.readouterr().err

    def test_oversized_random_queries_exit_2(self, tmp_path, capsys, monkeypatch):
        # valid budgets whose second region needs ~53.6M one-time query
        # symbols; the zero-distortion tail adds 160
        def no_query(*args, **kwargs):
            raise AssertionError("a query was built for a config over the bound")

        monkeypatch.setattr("pruw.random_sparse.build_query", no_query)
        cfg = tmp_path / "cfg"
        cfg.write_text("scheme=random\nn=10\nl=64\nd_read=999/1000\nd_write=997/1000\n")
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        assert "53600160" in err and str(1 << 21) in err and "d_read=999/1000" in err

    @pytest.mark.parametrize("command, text, message", [
        ("run", "scheme=random\nn=3\n", "the scheme needs at least 4 databases"),
        ("run", "scheme=basic\nn=10\nt1=0\n", "all noise-term counts must be >= 1"),
        ("run", "scheme=basic\nn=0\n", "n, m, and l must be positive"),
        ("run", "scheme=basic\niterations=0\n", "iterations must be positive"),
        ("run", "scheme=topr\ncase=3\n", "case must be 1 or 2"),
        ("cost-table", "scheme=foo n=4\n", "unknown scheme 'foo' in sweep"),
    ])
    def test_refusal_exit_2(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "input"
        path.write_text(text)
        flag = "--config" if command == "run" else "--spec"
        assert main([command, flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n"
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("line, named", [
        ("scheme=topr n=10", "'p'"),
        ("scheme=basic n=ten", "n='ten'"),
        ("scheme=topr n=10 p=0 q=5", "p must be positive"),
        ("scheme=topr n=10 p=5 q=1", "position_base must be at least 2"),
        ("scheme=random n=10 d_raed=1/5", "d_raed"),
    ])
    def test_malformed_sweep_line_is_config_error(self, tmp_path, capsys, line, named):
        spec = tmp_path / "sweep.txt"
        spec.write_text(line + "\n")
        assert main(["cost-table", "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert "Traceback" not in err


class TestAuditCommand:
    def test_default_suite(self, tmp_path):
        out = tmp_path / "audits.json"
        assert main(["audit", "--scheme", "basic", "--samples", "20000",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert all(entry["passed"] for entry in data)

    def test_disable_noise_fails(self, tmp_path, capsys):
        out = tmp_path / "audits.json"
        code = main(["audit", "--scheme", "basic", "--samples", "20000",
                     "--out", str(out), "--disable-noise"])
        assert code == 1
        assert "INSECURE" in capsys.readouterr().err

    def test_threshold_flag_is_gone(self, capsys):
        # the audits are exact, so there is no threshold to tune
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--scheme", "basic", "--tvd-threshold", "0.05"])
        assert exc.value.code == 2
        assert "--tvd-threshold" in capsys.readouterr().err

    def test_inconclusive_exit_3(self):
        assert main(["audit", "--scheme", "basic", "--samples", "200"]) == 3


class TestEntryPoint:
    def test_import_leaves_scipy_out(self):
        # the exact audits need no statistics package, so neither the command
        # line nor the audit module loads scipy.stats
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, pruw.cli, pruw.audit; sys.exit('scipy.stats' in sys.modules)"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == 0, proc.stderr

    def test_numpy_off_import_and_audit_paths(self):
        # numpy is loaded by storage set-up only: the command line's import
        # and the audits never load it, and set-up never loads numpy.random
        for code in (
            "import sys, pruw.cli; from pruw import audit; "
            "audit.default_audit_suite('topr', q=5); sys.exit('numpy' in sys.modules)",
            "import sys; from pruw import harness, config; "
            "assert harness.run_session(config.parse_config_text("
            "'scheme=basic\\nn=4\\nm=1\\nl=2\\nq=11\\n')).verdict; "
            "sys.exit('numpy' not in sys.modules or 'numpy.random' in sys.modules)",
        ):
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": "src"})
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
