import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dmcp.cli as cli
from dmcp.cli import EXIT_USAGE, EXIT_VERIFICATION, UsageError, main, parse_angle, parse_range


def run(*argv):
    return main(list(argv))


def test_parse_angle():
    assert parse_angle("pi") == pytest.approx(np.pi)
    assert parse_angle("pi/2") == pytest.approx(np.pi / 2)
    assert parse_angle("-pi/4") == pytest.approx(-np.pi / 4)
    assert parse_angle("2pi/3") == pytest.approx(2 * np.pi / 3)
    assert parse_angle("1.57") == pytest.approx(1.57)


@pytest.mark.parametrize("text", ["pi/0", "pi/x", "", "2/pi", "nan", "inf"])
def test_parse_angle_rejects_bad_text(text):
    with pytest.raises(UsageError, match="angle"):
        parse_angle(text)


@pytest.mark.parametrize("theta", ["pi/0", "pi/x"])
def test_bad_theta_is_usage_error(theta, capsys):
    assert run("derive", "--theta", theta, "--n", "4") == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_parse_range():
    vals = parse_range("0:0.3:0.1")
    assert np.allclose(vals, [0.0, 0.1, 0.2, 0.3])


def test_derive_recovers_table_one(tmp_path):
    out = tmp_path / "derive.json"
    assert run("derive", "--theta", "pi", "--n", "4", "--order", "1",
               "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert np.max(np.abs(np.array(doc["sequence_ratios"])
                         - np.array([5.52, 0.69, -0.69, -5.52]))) < 0.01
    assert doc["report"]["passed"] is True


def test_derive_from_perturbed_seed(tmp_path):
    out = tmp_path / "derive.json"
    assert run("derive", "--theta", "pi/2", "--n", "4",
               "--seed-ratios", "14.4,2.3", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert np.max(np.abs(np.array(doc["derived_half_ratios"])
                         - np.array([11.99, 1.94]))) < 0.01


def test_derive_usage_errors(tmp_path):
    assert run("derive", "--theta", "pi", "--n", "2") == 2       # too short
    assert run("derive", "--theta", "pi", "--n", "5") == 2       # odd
    assert run("derive", "--theta", "1.0", "--n", "4") == 2      # no bundled seed
    assert run("derive") == 2                                    # missing args


def test_derive_failed_verification_exit_code(tmp_path, monkeypatch):
    class FailingReport:
        passed = False
        gate_distance = 0.5

        def to_dict(self):
            return {"passed": False}

    monkeypatch.setattr(cli, "verify_sequence", lambda seq: FailingReport())
    out = tmp_path / "derive.json"
    assert run("derive", "--theta", "pi", "--n", "4", "--out", str(out)) == EXIT_VERIFICATION == 1
    assert json.loads(out.read_text())["report"]["passed"] is False


def test_derive_convergence_failure():
    # the all-resonant seed sits on a singular point of the conditions
    assert run("derive", "--theta", "pi", "--n", "4", "--seed-ratios", "0,0") == 3


def test_scan_area_resonant(tmp_path):
    out = tmp_path / "area.csv"
    assert run("scan", "area", "--single-resonant-pi", "--eps", "0:0.3:0.01",
               "--state", "1,0", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "state,area_error,fidelity"
    first = lines[1].split(",")
    assert float(first[1]) == 0.0
    assert float(first[2]) == pytest.approx(1.0, abs=1e-12)


def test_scan_area_table_json(tmp_path):
    out = tmp_path / "area.json"
    assert run("scan", "area", "--table", "pi-n4-o1", "--eps=-0.1:0.1:0.05",
               "--format", "json", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["metadata"]["sequence"] == "pi-n4-o1"
    assert np.array(doc["values"]).shape == (3, 5)


def test_scan_area_requires_one_source():
    assert run("scan", "area", "--eps", "0:0.1:0.05") == 2
    assert run("scan", "area", "--table", "pi-n4-o1", "--single-resonant-pi") == 2


def test_scan_area_custom_ratios(tmp_path):
    out = tmp_path / "area.csv"
    assert run("scan", "area", "--ratios", "5.52,0.69,-0.69,-5.52", "--theta", "pi",
               "--eps", "0:0.1:0.05", "--out", str(out)) == 0


def test_scan_grid2d(tmp_path):
    out = tmp_path / "grid.csv"
    assert run("scan", "grid2d", "--table", "pi-n4-o1", "--range", "1.0",
               "--steps", "21", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 21 * 21


def test_scan_radius_published_second_order(tmp_path, capsys):
    out = tmp_path / "radius.json"
    assert run("scan", "radius", "--table", "pi-n6-o2", "--threshold", "1e-4",
               "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["radius"] == pytest.approx(0.289, abs=0.01)
    assert "0.28" in capsys.readouterr().out


def test_scan_decoherence(tmp_path, capsys):
    out = tmp_path / "dec.csv"
    assert run("scan", "decoherence", "--table", "pi-n4-o1",
               "--gamma", "0:0.1:0.02", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "fidelity_metric,gamma,infidelity"
    raw0 = [ln for ln in lines if ln.startswith("raw,0,")]
    assert len(raw0) == 1
    assert float(raw0[0].split(",")[2]) < 1e-10
    assert "reported only" in capsys.readouterr().out


def test_scan_radius_defaults_to_ground_state_of_dimension(tmp_path):
    out = tmp_path / "radius3.json"
    assert run("scan", "radius", "--table", "pi-n4-o1", "--dimension", "3", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["dimension"] == 3
    assert 0.0 < doc["radius"] < 0.999


def test_scan_decoherence_defaults_to_ground_state_of_dimension(tmp_path):
    out = tmp_path / "dec3.csv"
    assert run("scan", "decoherence", "--table", "pi-n4-o1", "--gamma", "0:0.1:0.05",
               "--dimension", "3", "--out", str(out)) == 0
    rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
    assert len(rows) == 2 * 3
    assert all(float(v) < 1e-12 for _, g, v in rows if float(g) == 0.0)
    assert all(float(v) > 0.0 for metric, g, v in rows if metric == "raw" and float(g) > 0.0)


def test_scan_radius_at_fourteen_levels(tmp_path):
    """n = 14 is where the former factorial Wigner-d formula failed."""
    out = tmp_path / "radius14.json"
    assert run("scan", "radius", "--table", "pi-n4-o1", "--dimension", "14", "--threshold", "1e-3",
               "--out", str(out)) == 0
    assert 0.0 < json.loads(out.read_text())["radius"] < 0.999


@pytest.mark.parametrize("command", ["radius", "decoherence"])
@pytest.mark.parametrize("dimension", ["1", "0", "-3"])
def test_dimension_below_two_is_usage_error(command, dimension, capsys):
    assert run("scan", command, "--table", "pi-n4-o1", "--dimension", dimension) == EXIT_USAGE
    assert "--dimension" in capsys.readouterr().err


def test_nlevel_populations(tmp_path, capsys):
    out = tmp_path / "pops.csv"
    assert run("nlevel", "--n", "3", "--table", "pi-n4-o1", "--populations",
               "--out", str(out)) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape[1] == 4
    assert abs(rows[-1, 3] - 1.0) < 1e-3
    assert "final populations" in capsys.readouterr().out


def test_nlevel_norm_conserved_at_n5(tmp_path):
    out = tmp_path / "pops5.csv"
    assert run("nlevel", "--n", "5", "--table", "pi-n6-o2", "--populations",
               "--out", str(out)) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    # populations pass through 12-significant-digit CSV formatting
    assert np.max(np.abs(rows[:, 1:].sum(axis=1) - 1.0)) < 5e-12


def test_nlevel_two_matches_qubit_scan(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run("scan", "area", "--table", "pi-n4-o1", "--eps=-0.1:0.1:0.02",
               "--out", str(a)) == 0
    assert run("nlevel", "--n", "2", "--table", "pi-n4-o1", "--eps=-0.1:0.1:0.02",
               "--out", str(b)) == 0
    assert a.read_text() == b.read_text()


def test_waveguide_synthetic(tmp_path):
    prefix = tmp_path / "dev"
    assert run("waveguide", "--table", "pi-n4-o1", "--synthetic",
               "--out", str(prefix)) == 0
    layout = json.loads((tmp_path / "dev.layout.json").read_text())
    assert len(layout["segments"]) == 4
    rows = np.loadtxt(tmp_path / "dev.intensity.csv", delimiter=",", skiprows=1)
    assert rows[-1, 2] > 1 - 1e-3

    cross = tmp_path / "cross"
    assert run("waveguide", "--table", "pi-n4-o1", "--synthetic",
               "--input", "0,1", "--out", str(cross)) == 0
    rows = np.loadtxt(tmp_path / "cross.intensity.csv", delimiter=",", skiprows=1)
    assert rows[-1, 1] > 1 - 1e-3


def test_waveguide_missing_calibration(tmp_path):
    assert run("waveguide", "--table", "pi-n4-o1",
               "--coupling-csv", str(tmp_path / "nope.csv"),
               "--beta-csv", str(tmp_path / "nada.csv")) == 4


def test_waveguide_bad_header_is_data_error(tmp_path):
    c = tmp_path / "c.csv"
    c.write_text("gap,omega\n0.2,1.2\n0.4,0.8\n")
    b = tmp_path / "b.csv"
    b.write_text("w_um,beta_rad_per_um\n0.5,9\n1.5,11\n")
    assert run("waveguide", "--table", "pi-n4-o1",
               "--coupling-csv", str(c), "--beta-csv", str(b)) == 4


def test_waveguide_out_of_range_ratio_is_data_error(tmp_path):
    # pi2-n6-o2 needs |Delta| ~ 52 * Omega: far beyond the synthetic beta span
    assert run("waveguide", "--table", "pi2-n6-o2", "--synthetic",
               "--out", str(tmp_path / "x")) == 4


def test_determinism_same_command_same_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ("scan", "area", "--table", "pi2-n4-o1", "--eps=-0.2:0.2:0.01")
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_defaults_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"table": "pi-n4-o1", "threshold": 1e-4}))
    out = tmp_path / "r.json"
    assert run("scan", "radius", "--config", str(cfg), "--out", str(out)) == 0
    assert json.loads(out.read_text())["sequence"] == "pi-n4-o1"
    # explicit flag beats the config value
    out2 = tmp_path / "r2.json"
    assert run("scan", "radius", "--config", str(cfg), "--table", "pi2-n4-o1",
               "--out", str(out2)) == 0
    assert json.loads(out2.read_text())["sequence"] == "pi2-n4-o1"


def test_config_file_missing_is_data_error(tmp_path, capsys):
    assert run("scan", "radius", "--config", str(tmp_path / "absent.json"), "--table", "pi-n4-o1") == 4
    assert "data error" in capsys.readouterr().err


def test_config_file_bad_json_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"table": "pi-n4-o1",')
    assert run("scan", "radius", "--config", str(cfg)) == EXIT_USAGE
    assert "not valid JSON" in capsys.readouterr().err


def test_config_file_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"table": "pi-n4-o1", "jobs": 4, "seed": 3, "treshold": 0.5}))
    out = tmp_path / "r.json"
    assert run("scan", "radius", "--config", str(cfg), "--out", str(out)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "jobs" in err and "seed" in err and "treshold" in err
    assert not out.exists()


def test_cli_import_leaves_scipy_unloaded():
    """scipy is a test-only dependency: the runtime never imports it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, dmcp.cli; assert not any(m.startswith('scipy') for m in sys.modules)"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_out_dir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("DMCP_OUT_DIR", str(tmp_path))
    assert run("scan", "radius", "--table", "pi-n4-o1") == 0
    assert (tmp_path / "radius.json").exists()
