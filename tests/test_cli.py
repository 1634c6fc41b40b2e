"""End-to-end command-line interface checks."""

import json
import subprocess
import sys

import pytest

from conftest import collinear_config
from risdm import cli
from risdm.geometry import default_config


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "risdm", *args],
        capture_output=True, text=True, timeout=600,
    )


@pytest.fixture
def config_path(tmp_path):
    cfg = default_config(M=16)
    path = tmp_path / "scenario.json"
    path.write_text(cfg.to_json(indent=2))
    return str(path)


class TestSweepCommand:
    def test_writes_csv(self, config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli(
            "sweep", "--config", config_path, "--axis", "power_dbm",
            "--values", "7,17,27", "--ris", "gpg,none", "--seed", "5",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "axis,method,ris_mode,pa_mode,beta1,beta2,ssr_bits,trial,seed"
        assert len(lines) == 1 + 3 * 2

    def test_bad_values_rejected(self, config_path, tmp_path):
        proc = run_cli(
            "sweep", "--config", config_path, "--axis", "power_dbm",
            "--values", "27,7", "--out", str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 1
        assert "increasing" in proc.stderr

    def test_fractional_element_count_rejected(self, config_path, tmp_path):
        out = tmp_path / "x.csv"
        proc = run_cli(
            "sweep", "--config", config_path, "--axis", "elements_m",
            "--values", "100.2,100.7", "--out", str(out),
        )
        assert proc.returncode == 1
        assert "whole numbers" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("values", ["-80,80", "-200,-80"])
    def test_nonpositive_distance_rejected(self, config_path, tmp_path, values):
        out = tmp_path / "x.csv"
        proc = run_cli(
            "sweep", "--config", config_path, "--axis", "distance_ab",
            f"--values={values}", "--out", str(out),
        )
        assert proc.returncode == 1
        assert "distance_ab values must be finite and > 0" in proc.stderr
        assert not out.exists()

    def test_negative_values_in_equals_form(self, config_path, tmp_path):
        # argparse reads "--values -10,0" as an option; "--values=-10,0" is a value
        out = tmp_path / "neg.csv"
        proc = run_cli(
            "sweep", "--config", config_path, "--axis", "power_dbm",
            "--values=-10,0", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert [float(row[0]) for row in rows] == [-10.0, 0.0]

    def test_singular_leakage_pencil_fails_without_csv(self, tmp_path):
        out = tmp_path / "x.csv"
        proc = run_cli(
            "sweep", "--axis", "power_dbm", "--values", "200", "--methods", "leakage",
            "--out", str(out),
        )
        assert proc.returncode == 1
        assert "method=leakage" in proc.stderr and "singular" in proc.stderr
        assert not out.exists()

    def test_surface_on_the_alice_bob_line(self, tmp_path):
        path, out = tmp_path / "line.json", tmp_path / "x.csv"
        path.write_text(collinear_config().to_json())
        proc = run_cli(
            "sweep", "--config", str(path), "--axis", "power_dbm", "--values", "10,27",
            "--methods", "max-sv,leakage", "--ris", "gpg,random,ris2-only", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().strip().split("\n")) == 1 + 12

    def test_workers_flag_refused(self, config_path, tmp_path):
        # a sweep runs in one process, at the default grid steps and per-point seeds
        out = tmp_path / "x.csv"
        for flag, value in (("--workers", "2"), ("--grid-step", "0.1"), ("--pa-seed", "3")):
            proc = run_cli(
                "sweep", "--config", config_path, "--axis", "power_dbm", "--values", "27",
                flag, value, "--out", str(out),
            )
            assert proc.returncode == 2
            assert f"unrecognized arguments: {flag}" in proc.stderr
            assert not out.exists()

    @pytest.mark.parametrize("flag, field, kind", [
        ("--methods", "methods", "method"), ("--ris", "ris_modes", "reflection mode"),
        ("--pa", "pa_modes", "power-allocation mode"),
    ])
    def test_empty_mode_list_rejected(self, config_path, tmp_path, flag, field, kind):
        # --pa "" once computed every gain, then failed with "no records to emit"
        out = tmp_path / "x.csv"
        proc = run_cli(
            "sweep", "--config", config_path, "--axis", "power_dbm", "--values", "10,20",
            flag, "", "--out", str(out),
        )
        assert proc.returncode == 1
        assert f"{field} must list at least one {kind}" in proc.stderr
        assert not out.exists()

    def test_distance_sweep_on_coincident_alice_and_bob_rejected(self, tmp_path):
        # once failed with "float division by zero"
        doc = json.loads(default_config(M=8).to_json())
        doc["placement"]["positions"]["b"] = doc["placement"]["positions"]["a"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "x.csv"
        proc = run_cli(
            "sweep", "--config", str(bad), "--axis", "distance_ab", "--values", "40,80",
            "--out", str(out),
        )
        assert proc.returncode == 1
        assert "nodes 'a' and 'b' coincide" in proc.stderr
        assert not out.exists()

    def test_repeated_method_rejected(self, config_path, tmp_path):
        out = tmp_path / "x.csv"
        proc = run_cli(
            "sweep", "--config", config_path, "--axis", "power_dbm", "--values", "10",
            "--methods", "max-sv,max-sv", "--out", str(out),
        )
        assert proc.returncode == 1
        assert "methods lists 'max-sv' more than once" in proc.stderr
        assert not out.exists()

    def test_non_finite_config_rejected(self, tmp_path):
        # json.load accepts Infinity; an infinite exponent once wrote a CSV
        doc = json.loads(default_config(M=8).to_json())
        doc["pathloss_exp"]["ris"] = float("inf")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "x.csv"
        proc = run_cli(
            "sweep", "--config", str(bad), "--axis", "power_dbm",
            "--values", "27", "--out", str(out),
        )
        assert proc.returncode == 1
        assert "pathloss_exp['ris'] must be finite" in proc.stderr
        assert not out.exists()

    def test_non_finite_pinned_distance_rejected(self, tmp_path):
        # an infinite pinned distance once wrote a CSV with Eve's direct gain at 0
        doc = json.loads(default_config(M=8).to_json())
        doc["placement"]["pinned"] = {"a->e": {"distance": float("inf")}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "x.csv"
        proc = run_cli(
            "sweep", "--config", str(bad), "--axis", "power_dbm",
            "--values", "27", "--out", str(out),
        )
        assert proc.returncode == 1
        assert "pinned['a->e']['distance'] must be finite" in proc.stderr
        assert not out.exists()

    def test_fractional_surface_size_in_config_rejected(self, tmp_path):
        # "M": 100.7 once ran the sweep at M = 100
        doc = json.loads(default_config(M=8).to_json())
        doc["M"] = 100.7
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "x.csv"
        proc = run_cli(
            "sweep", "--config", str(bad), "--axis", "power_dbm",
            "--values", "27", "--out", str(out),
        )
        assert proc.returncode == 1
        assert "M must be a whole number, got 100.7" in proc.stderr
        assert not out.exists()

    def test_string_power_in_config_rejected(self, tmp_path):
        # "Pa_dbm": "27" once ran the sweep at 27 dBm
        doc = json.loads(default_config(M=8).to_json())
        doc["Pa_dbm"] = "27"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "x.csv"
        proc = run_cli(
            "sweep", "--config", str(bad), "--axis", "power_dbm",
            "--values", "27", "--out", str(out),
        )
        assert proc.returncode == 1
        assert "Pa_dbm must be finite and a real number, got '27'" in proc.stderr
        assert not out.exists()

    def test_unknown_config_field_rejected(self, tmp_path):
        doc = json.loads(default_config(M=8).to_json())
        doc["surprise"] = True
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli(
            "sweep", "--config", str(bad), "--axis", "power_dbm",
            "--values", "27", "--out", str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 1
        assert "surprise" in proc.stderr

    def test_power_whose_gains_overflow_hicf(self, tmp_path):
        # 3000 dBm once made hicf's rate quartics raise OverflowError
        out = tmp_path / "o.csv"
        proc = run_cli("sweep", "--axis", "power_dbm", "--values", "3000",
                       "--pa", "fixed,es2d,hicf", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 4

    def test_builtin_default_config(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli("sweep", "--axis", "elements_m", "--values", "8,16", "--out", str(out))
        assert proc.returncode == 0, proc.stderr

    def test_beta_axis_endpoints(self, tmp_path):
        # beta = 0 and beta = 1 are the limits of the leakage designs, not errors
        out = tmp_path / "beta.csv"
        proc = run_cli(
            "sweep", "--axis", "beta", "--values", "0,0.1,0.5,0.9,1",
            "--methods", "max-sv,leakage", "--ris", "gpg,random", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert len(rows) == 5 * 2 * 2
        assert {row[1] for row in rows} == {"max-sv", "leakage"}
        at_zero = [row for row in rows if float(row[0]) == 0.0]
        assert len(at_zero) == 4 and all(float(row[6]) == 0.0 for row in at_zero)


class TestPaSurfaceCommand:
    def test_writes_grid(self, config_path, tmp_path):
        out = tmp_path / "surface.csv"
        proc = run_cli("pa-surface", "--config", config_path, "--step", "0.1", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 11 * 11
        assert proc.stdout == f"wrote 121 records to {out}\n"

    def test_grid_of_thirds(self, config_path, tmp_path):
        out = tmp_path / "surface.csv"
        proc = run_cli("pa-surface", "--config", config_path, "--step", "0.3", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"wrote 16 records to {out}\n"
        assert len(out.read_text().splitlines()) == 17

    def test_oversized_grid_rejected(self, config_path, tmp_path):
        out = tmp_path / "surface.csv"
        proc = run_cli("pa-surface", "--config", config_path, "--step", "0.0001",
                       "--out", str(out))
        assert proc.returncode == 1
        assert "grid step 0.0001 gives 100020001 records" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("step", ["5e-324", "1e-300"])
    def test_step_finer_than_the_finest_rejected(self, config_path, tmp_path, step):
        out = tmp_path / "surface.csv"
        proc = run_cli("pa-surface", "--config", config_path, "--step", step, "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr == f"error: grid step {step} is finer than the finest grid step 1e-09\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ("sweep", "--axis", "power_dbm", "--values", "7"),
        ("pa-surface", "--step", "0.5"),
    ])
    def test_removed_literal_mode_rejected(self, config_path, tmp_path, command):
        # gpg-literal gave the gpg phases to rounding and is no longer a mode
        out = tmp_path / "x.csv"
        proc = run_cli(*command, "--config", config_path, "--ris", "gpg-literal",
                       "--out", str(out))
        assert proc.returncode != 0
        assert "gpg-literal" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("step", ["-0.1", "0", "0.7"])
    def test_bad_step_rejected(self, config_path, tmp_path, step):
        out = tmp_path / "surface.csv"
        proc = run_cli("pa-surface", "--config", config_path, "--step", step, "--out", str(out))
        assert proc.returncode == 1
        assert "grid step must lie in (0, 0.5]" in proc.stderr
        assert not out.exists()


class TestScenarioDump:
    def test_resolved_geometry_json(self, config_path):
        proc = run_cli("scenario", "dump", "--config", config_path)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert len(doc["links"]) == 14
        link = doc["links"]["a->i1"]
        assert set(link) == {"theta_t", "theta_r", "distance", "gain", "class"}
        assert link["distance"] == pytest.approx(30.0)

    def test_builtin_scenario(self):
        proc = run_cli("scenario", "dump")
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads(proc.stdout)["links"]) == 14

    def test_power_overflowing_in_mw_is_diagnosed(self, tmp_path):
        doc = json.loads(default_config().to_json())
        doc["Pa_dbm"] = 4000
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli("scenario", "dump", "--config", str(bad))
        assert proc.returncode == 1
        assert proc.stderr == "error: Pa_dbm = 4000.0 dBm overflows in mW\n"

    def test_malformed_json_names_the_file(self, tmp_path):
        # once printed only the decoder's message, with no file name
        bad = tmp_path / "bad.json"
        bad.write_text("{'Pa_dbm': 27}")
        proc = run_cli("scenario", "dump", "--config", str(bad))
        assert proc.returncode == 1
        assert proc.stderr == (f"error: {bad}: Expecting property name enclosed in double "
                               "quotes: line 1 column 2 (char 1)\n")

    def test_missing_file_is_diagnosed(self):
        proc = run_cli("scenario", "dump", "--config", "/nonexistent.json")
        assert proc.returncode == 1
        assert proc.stderr.strip().startswith("error:")


class TestMainInProcess:
    def test_repeated_calls_share_one_parser(self, config_path, tmp_path, capsys):
        surface = ["pa-surface", "--config", config_path, "--step", "0.5"]
        sweep = ["sweep", "--config", config_path, "--axis", "power_dbm", "--values", "7,27",
                 "--pa", "fixed,hicf"]
        assert cli.main([*surface, "--out", str(tmp_path / "s1.csv")]) == 0
        with pytest.raises(SystemExit) as rejected:
            cli.main(["sweep", "--axis", "power_dbm", "--values", "7", "--workers", "2",
                      "--out", str(tmp_path / "x.csv")])
        assert rejected.value.code == 2
        assert cli.main([*sweep, "--out", str(tmp_path / "w1.csv")]) == 0
        assert cli.main(["sweep", "--config", config_path, "--axis", "power_dbm",
                         "--values", "7", "--pa", "", "--out", str(tmp_path / "y.csv")]) == 1
        assert cli.main([*sweep, "--out", str(tmp_path / "w2.csv")]) == 0
        assert cli.main([*surface, "--out", str(tmp_path / "s2.csv")]) == 0
        assert cli.build_parser() is cli.build_parser()
        assert not (tmp_path / "x.csv").exists() and not (tmp_path / "y.csv").exists()
        assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()
        assert len((tmp_path / "s1.csv").read_text().split("\n")) == 1 + 9 + 1
        assert len((tmp_path / "w1.csv").read_text().split("\n")) == 1 + 4 + 1
        # the defaults of one call do not leak into the next
        assert cli.main(["sweep", "--config", config_path, "--axis", "power_dbm",
                         "--values", "7", "--out", str(tmp_path / "d.csv")]) == 0
        rows = (tmp_path / "d.csv").read_text().strip().split("\n")[1:]
        assert [row.split(",")[3] for row in rows] == ["fixed"]
        capsys.readouterr()
