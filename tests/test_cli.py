import csv
import json
import math
import os

import pytest

from spinmodel import cli
from spinmodel.orientation import ConvergenceError


class TestConfigParsing:
    def test_key_value_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("beta = 0.5  # tilt\nbins = 32\nstate = psi_plus\n")
        config = cli.load_config_file(str(path))
        assert config == {"beta": 0.5, "bins": 32, "state": "psi_plus"}

    def test_json_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"beta": 0.5, "bins": 32}')
        assert cli.load_config_file(str(path)) == {"beta": 0.5, "bins": 32}

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("beta 0.5\n")
        with pytest.raises(cli.ConfigError, match="bad.cfg:1"):
            cli.load_config_file(str(path))

    def test_missing_file(self):
        with pytest.raises(cli.ConfigError):
            cli.load_config_file("/nonexistent/path.cfg")

    def test_unknown_keys_rejected(self):
        with pytest.raises(cli.ConfigError, match="unknown config keys: gamma"):
            cli.merge_config({"beta": 1.0}, {"gamma": 2.0}, {})

    def test_flag_overrides_file(self):
        merged = cli.merge_config({"beta": 1.0}, {"beta": 2.0}, {"beta": 3.0})
        assert merged["beta"] == 3.0

    def test_physically_invalid_values_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.merge_config({"samples": 100}, {"samples": 0}, {})
        with pytest.raises(cli.ConfigError):
            cli.merge_config({"tau": 1.0}, {"tau": -2.0}, {})
        with pytest.raises(cli.ConfigError):
            cli.merge_config({"m": 1}, {"m": -1}, {})


class TestRun:
    def test_exit_code_on_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("no_such_key = 1\n")
        code = cli.run(["variational", "--config", str(path), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "no_such_key" in capsys.readouterr().err

    def test_exit_code_on_non_convergence(self, tmp_path, monkeypatch, capsys):
        def broken(config, seed, out_dir, fmt):
            raise ConvergenceError("stalled", 0.125)

        monkeypatch.setitem(cli.RUNNERS, "variational", broken)
        code = cli.run(["variational", "--out", str(tmp_path)])
        assert code == cli.EXIT_NUMERIC
        assert "residual" in capsys.readouterr().err

    def test_manifest_round_trips(self, tmp_path, capsys):
        code = cli.run(["variational", "--out", str(tmp_path), "--seed", "5"])
        assert code == cli.EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["subcommand"] == "variational"
        assert manifest["seed"] == 5
        for name in manifest["result_files"]:
            assert (tmp_path / name).exists()

    def test_json_format(self, tmp_path, capsys):
        code = cli.run(
            ["oracle-check", "--out", str(tmp_path), "--format", "json", "--pairs", "5"]
        )
        assert code == cli.EXIT_OK
        payload = json.loads((tmp_path / "oracle_check.json").read_text())
        assert len(payload["rows"]) == 5
        assert payload["max_abs_overlap_difference"] < 1e-12

    def test_environment_variable_sets_output_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv(cli.ENV_OUT, str(tmp_path / "envout"))
        code = cli.run(["variational"])
        assert code == cli.EXIT_OK
        assert (tmp_path / "envout" / "manifest.json").exists()

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["stern-gerlach", "--samples", "20000", "--seed", "9"]
        assert cli.run(args + ["--out", str(out1)]) == cli.EXIT_OK
        assert cli.run(args + ["--out", str(out2)]) == cli.EXIT_OK
        name = "displacement_histogram.csv"
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_csv_dialect(self, tmp_path, capsys):
        cli.run(["variational", "--out", str(tmp_path)])
        raw = (tmp_path / "variational.csv").read_bytes()
        assert b"\r" not in raw
        text = raw.decode()
        assert text.splitlines()[0] == "order_m,divergence,linf_error_or_min_density"

    def test_config_file_drives_run(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("orders = \"1\"\nnodes = 512\n")
        code = cli.run(
            ["variational", "--config", str(cfg), "--out", str(tmp_path)]
        )
        assert code == cli.EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["nodes"] == 512

    def test_oracle_check_cells_are_plain_floats(self, tmp_path, capsys):
        assert cli.run(["oracle-check", "--out", str(tmp_path), "--pairs", "5"]) == 0
        with open(tmp_path / "oracle_check.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 5
        for row in rows:
            for cell in row:
                float(cell)

    def test_bell_test_counts_carry_the_reported_expectation(self, tmp_path, capsys):
        args = ["bell-test", "--samples", "20000", "--seed", "3"]
        for out in ("r1", "r2"):
            assert cli.run(args + ["--out", str(tmp_path / out)]) == cli.EXIT_OK
        raw = (tmp_path / "r1" / "bell_test.csv").read_bytes()
        assert raw == (tmp_path / "r2" / "bell_test.csv").read_bytes()
        rows = list(csv.DictReader(raw.decode().splitlines()))
        assert len(rows) == 4
        for row in rows:
            pp, pm, mp, mm = (int(row[k]) for k in ("n_pp", "n_pm", "n_mp", "n_mm"))
            e = float(row["E"])
            assert pp + pm + mp + mm == 20000
            assert abs(2 * (pp + mm - pm - mp) / 20000 - e) < 1e-12
            assert float(row["stderr"]) == pytest.approx(
                2 * math.sqrt((1 - (e / 2) ** 2) / 20000), rel=1e-12
            )

    @pytest.mark.parametrize("flag", ["--mode", "--state"])
    @pytest.mark.parametrize("sub", ["bell-test", "bell-delay"])
    def test_unknown_mode_or_state_is_a_config_error(self, tmp_path, capsys, sub, flag):
        code = cli.run([sub, flag, "bogus", "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert flag[2:] in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()
