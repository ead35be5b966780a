import csv
import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinmodel import cli
from spinmodel import fluctuations as fl
from spinmodel import orientation as om
from spinmodel import stern_gerlach as sg
from spinmodel.pauli import ConvergenceError
from spinmodel.streams import stream

SG_KEYS = cli.SCHEMA["stern-gerlach"]


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

    def test_invalid_json_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"beta": 0.5,}')
        with pytest.raises(cli.ConfigError, match="invalid JSON"):
            cli.load_config_file(str(path))

    def test_missing_file(self):
        with pytest.raises(cli.ConfigError):
            cli.load_config_file("/nonexistent/path.cfg")

    def test_unknown_keys_rejected(self):
        with pytest.raises(cli.ConfigError, match="unknown config keys: gamma"):
            cli.merge_config(SG_KEYS, {"gamma": 2.0}, {})

    def test_flag_overrides_file(self):
        merged = cli.merge_config(SG_KEYS, {"beta": 2.0}, {"beta": 3.0})
        assert merged["beta"] == 3.0

    def test_physically_invalid_values_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.merge_config(SG_KEYS, {"samples": 0}, {})
        with pytest.raises(cli.ConfigError):
            cli.merge_config(cli.SCHEMA["bell-delay"], {"delays": -2.0}, {})
        with pytest.raises(cli.ConfigError):
            cli.merge_config(SG_KEYS, {"m": -1}, {})


# every subcommand at small sizes, and the other mode of each Bell run
SMALL_RUNS = [
    ["variational", "--orders", "1,2", "--nodes", "64"],
    ["stern-gerlach", "--samples", "2000", "--bins", "11"],
    ["bell-test", "--samples", "2000"],
    ["bell-test", "--mode", "analytic"],
    ["bell-delay", "--delays", "0,0.5"],
    ["bell-delay", "--mode", "monte_carlo", "--samples", "2000", "--delays", "0,0.5"],
    ["pauli", "--nodes", "64", "--steps", "10", "--stride", "4"],
    ["fluctuations", "--samples", "10000"],
    ["oracle-check", "--pairs", "5"],
]


def _small_config(argv):
    """(subcommand, merged config) of one SMALL_RUNS entry, parsed as run does."""
    args = cli.build_parser().parse_args(argv)
    keys = cli.SCHEMA[args.subcommand]
    overrides = {key: value for key, value in vars(args).items() if key in keys}
    return args.subcommand, cli.merge_config(keys, {}, overrides)


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


class TestRun:
    def test_exit_code_on_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("no_such_key = 1\n")
        code = cli.run(["variational", "--config", str(path), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "no_such_key" in capsys.readouterr().err

    def test_exit_code_on_non_convergence(self, tmp_path, monkeypatch, capsys):
        def broken(config, seed):
            raise ConvergenceError("stalled")

        monkeypatch.setitem(cli.RUNNERS, "variational", broken)
        code = cli.run(["variational", "--out", str(tmp_path)])
        assert code == cli.EXIT_NUMERIC
        assert "stalled" in capsys.readouterr().err

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", SMALL_RUNS, ids=" ".join)
    def test_reruns_are_byte_identical(self, tmp_path, capsys, argv, fmt):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert cli.run([*argv, "--format", fmt, "--out", str(out)]) == cli.EXIT_OK
        manifests = [json.loads((out / "manifest.json").read_text()) for out in outs]
        for manifest in manifests:
            del manifest["duration_seconds"]
        assert manifests[0] == manifests[1]
        files = manifests[0]["result_files"]
        for out in outs:
            written = sorted(p.name for p in out.iterdir())
            assert written == sorted([*files, "manifest.json"])
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "sub, name",
        [
            ("stern-gerlach", "measurement_summary.json"),
            ("bell-test", "bell_test_summary.json"),
        ],
    )
    def test_summary_file_in_either_format(self, tmp_path, capsys, sub, name, fmt):
        argv = [sub, "--samples", "2000", "--format", fmt, "--out", str(tmp_path)]
        assert cli.run(argv) == cli.EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["result_files"][-1] == name
        assert json.loads((tmp_path / name).read_text()) == manifest["summary"]

    @pytest.mark.parametrize("argv", SMALL_RUNS, ids=" ".join)
    def test_runner_returns_plain_tables_and_summary(self, argv):
        # a runner touches no file, so it runs here with no directory at all
        sub, config = _small_config(argv)
        tables, summary = cli.RUNNERS[sub](config, 42)
        assert json.loads(json.dumps(summary, allow_nan=False)) == summary
        assert tables
        for _, header, rows in tables:
            assert rows
            for row in rows:
                assert len(row) == len(header)
                # csv writes a numpy scalar by str(), which hides it
                assert all(type(cell) in (int, float, str) for cell in row)

    def test_stern_gerlach_draws_up_count_then_histogram(self):
        _, config = _small_config(SMALL_RUNS[1])
        [(_, _, rows)], summary = cli.run_stern_gerlach(config, 7)
        rng = stream(7, "stern-gerlach")
        p_up = sg.two_apparatus_up_probability(0.0, config["beta"])
        up = sg.up_count(om.TwoPointDensity(p_up, 1.0 - p_up), rng, 2000)
        assert summary["empirical_up_fraction"] == up / 2000
        edges, counts = sg.displacement_histogram(sg.ApparatusConfig(), 2000, rng, 11)
        assert rows == sg.histogram_rows(edges, counts)

    def test_fluctuations_product_is_one_gamma_draw(self):
        _, config = _small_config(SMALL_RUNS[7])
        summary = cli.run_fluctuations(config, 7)[1]
        # one Gamma draw of the run's stream, its first draw
        rng = stream(7, "fluctuations")
        expected = fl.expected_uncertainty_product(fl.TranslationParams(), 10000, rng)
        assert summary["uncertainty_product"] == expected

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_kl_rows_at_the_edges_of_the_admitted_band(self):
        # dt / 2 at each end of the band, 1e-13 and 4
        config = _small_config(SMALL_RUNS[7])[1]
        config.update(dt_sequence=[2 * v for v in cli._KL_VARIANCES])
        [(_, _, rows)], _ = cli.run_fluctuations(config, 7)
        kl = [estimate for q, estimate, _ in rows if q.startswith("kl_over_fisher_")]
        assert len(kl) == 2
        assert all(abs(ratio - 1.0) <= 1e-4 for ratio in kl)

    def test_fluctuations_kl_rows_do_not_depend_on_seed(self, tmp_path, capsys):
        tables = {}
        for seed, out in (("1", "a"), ("1", "b"), ("2", "c")):
            args = ["fluctuations", "--samples", "10000", "--seed", seed]
            assert cli.run(args + ["--out", str(tmp_path / out)]) == cli.EXIT_OK
            tables[out] = (tmp_path / out / "fluctuations.csv").read_bytes()
        assert tables["a"] == tables["b"]
        seed1, seed2 = (
            {r["quantity"]: float(r["estimate"])
             for r in csv.DictReader(tables[k].decode().splitlines())}
            for k in ("a", "c")
        )
        kl = [q for q in seed1 if q.startswith("kl_over_fisher_")]
        assert len(kl) == 3
        for q in seed1:
            if q in kl:
                assert seed1[q] == seed2[q]
                assert abs(seed1[q] - 1.0) < 1e-4
            else:
                assert seed1[q] != seed2[q]

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

    @pytest.mark.parametrize("argv", SMALL_RUNS, ids=" ".join)
    def test_csv_cells_are_numbers_or_words(self, tmp_path, capsys, argv):
        assert cli.run([*argv, "--out", str(tmp_path)]) == cli.EXIT_OK
        tables = sorted(tmp_path.glob("*.csv"))
        assert tables
        for table in tables:
            with open(table, newline="") as fh:
                cells = [cell for row in list(csv.reader(fh))[1:] for cell in row]
            assert cells
            for cell in cells:
                assert "np.float64(" not in cell
                assert _is_number(cell) or re.fullmatch(r"[A-Za-z][\w.]*", cell)

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


# "subcommand.key" -> the overrides of a perturbed small run: the key's new
# value and any setting under which the key applies, which the reference run
# keeps
_PERTURBED = {
    "variational.orders": {"orders": [2]},
    "variational.nodes": {"nodes": 128},
    "stern-gerlach.samples": {"samples": 3000},
    "stern-gerlach.beta": {"beta": 1.0},
    "stern-gerlach.m": {"m": 2},
    "stern-gerlach.eta": {"eta": 2.0},
    "stern-gerlach.bins": {"bins": 12},
    **{
        f"{sub}.{key}": {key: value}
        for sub in ("bell-test", "bell-delay")
        for key, value in (
            ("state", "psi_plus"), ("a", 0.1), ("a_prime", 1.0),
            ("b", 0.5), ("b_prime", 2.0),
        )
    },
    "bell-test.samples": {"samples": 3000},
    "bell-test.mode": {"mode": "analytic"},
    "bell-delay.samples": {"samples": 3000, "mode": "monte_carlo"},
    "bell-delay.delays": {"delays": [0.0, 1.0]},
    "bell-delay.mode": {"mode": "monte_carlo"},
    "bell-delay.degrade_y": {"degrade_y": True},
    "pauli.nodes": {"nodes": 128},
    "pauli.extent": {"extent": 10.0},
    "pauli.dt": {"dt": 0.002},
    "pauli.steps": {"steps": 20},
    "pauli.b_z": {"b_z": 2.0},
    "pauli.stride": {"stride": 2},
    "pauli.packet_width": {"packet_width": 0.5},
    "fluctuations.samples": {"samples": 20000},
    "fluctuations.dt_sequence": {"dt_sequence": [0.2]},
    "oracle-check.pairs": {"pairs": 6},
}


def _outputs(sub, overrides):
    """The tables and the summary of sub's first SMALL_RUNS entry with
    overrides, less the summary's echoes of config keys, which a key moves
    whether or not it moves a result."""
    small = _small_config(next(argv for argv in SMALL_RUNS if argv[0] == sub))[1]
    keys = cli.SCHEMA[sub]
    tables, summary = cli.RUNNERS[sub](cli.merge_config(keys, small, overrides), 42)
    return tables, {k: v for k, v in summary.items() if k not in keys}


@pytest.mark.parametrize("name", [f"{s}.{key}" for s, keys in cli.SCHEMA.items() for key in keys])
def test_every_key_moves_an_output(name):
    # a setting that moves no table cell or summary value is a second
    # statement of a scale another key sets, or no setting at all
    sub, key = name.split(".")
    perturbed = _PERTURBED.get(name)
    if perturbed is None:
        pytest.fail(f"{name} has no perturbation in _PERTURBED")
    reference = {k: v for k, v in perturbed.items() if k != key}
    assert _outputs(sub, perturbed) != _outputs(sub, reference)


@pytest.mark.parametrize("mode, loaded", [("analytic", False), ("monte_carlo", True)])
def test_bell_delay_loads_numpy_random_only_to_draw(tmp_path, mode, loaded):
    # analytic mode, the default, draws nothing, so it builds no stream
    src = os.path.dirname(os.path.dirname(cli.__file__))
    argv = ["bell-delay", "--mode", mode, "--samples", "2000", "--out", str(tmp_path)]
    code = (
        "import sys; from spinmodel import cli; "
        f"code = cli.run({argv!r}); print(code, 'numpy.random' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1].decode() == f"0 {loaded}"


def _exit_code(argv):
    try:
        return cli.run(argv)
    except SystemExit as exc:  # argparse rejects a flag the subcommand lacks
        return exc.code


# (subcommand, config file line or None, flags, key the error must name)
# Each row's id is the one pytest gave it by position when the table was
# first parameterized, kept literally so that inserting or deleting a row
# renames no other test; a new row takes the id <subcommand>-<key>-<case>.
MALFORMED = [
    pytest.param("stern-gerlach", "samples = abc", [], "samples",
                 id="stern-gerlach-samples = abc-flags0-samples"),
    pytest.param("bell-delay", "delays = 1,x", [], "delays",
                 id="bell-delay-delays = 1,x-flags1-delays"),
    pytest.param("variational", "orders = 1,x", [], "orders",
                 id="variational-orders = 1,x-flags2-orders"),
    pytest.param("pauli", "dt = Infinity", [], "dt",
                 id="pauli-dt = Infinity-flags3-dt"),
    pytest.param("pauli", None, ["--nodes", "100"], "nodes",
                 id="pauli-None-flags4-nodes"),
    pytest.param("pauli", None, ["--stride", "0"], "stride",
                 id="pauli-None-flags5-stride"),
    pytest.param("variational", None, ["--orders", "0"], "orders",
                 id="variational-None-flags6-orders"),
    pytest.param("fluctuations", None, ["--samples", "0"], "samples",
                 id="fluctuations-None-flags7-samples"),
    pytest.param("bell-delay", "tau = NaN", [], "tau",
                 id="bell-delay-tau = NaN-flags8-tau"),
    pytest.param("bell-test", "samples = 1.7", [], "samples",
                 id="bell-test-samples = 1.7-flags9-samples"),
    pytest.param("bell-delay", 'degrade_y = "no"', [], "degrade_y",
                 id='bell-delay-degrade_y = "no"-flags10-degrade_y'),
    pytest.param("variational", None, ["--samples", "5"], "samples",
                 id="variational-None-flags11-samples"),
    pytest.param("pauli", None, ["--samples", "5"], "samples",
                 id="pauli-None-flags12-samples"),
    pytest.param("oracle-check", None, ["--samples", "5"], "samples",
                 id="oracle-check-None-flags13-samples"),
    pytest.param("stern-gerlach", None, ["--bins", "1e300"], "bins",
                 id="stern-gerlach-None-flags14-bins"),
    pytest.param("stern-gerlach", "bins = 1000001", [], "bins",
                 id="stern-gerlach-bins = 1000001-flags15-bins"),
    pytest.param("variational", None, ["--nodes", "1"], "nodes",
                 id="variational-None-flags16-nodes"),
    pytest.param("stern-gerlach", None, ["--m", "4503599627370496", "--samples", "10"], "m must",
                 id="stern-gerlach-None-flags17-m must"),
    pytest.param("fluctuations", None, ["--omega", "5"], "omega",
                 id="fluctuations-None-flags18-omega"),
    pytest.param("variational", None, ["--orders", "1e8"], "orders",
                 id="variational-None-flags19-orders"),
    pytest.param("variational", None, ["--nodes", "1e15"], "nodes",
                 id="variational-None-flags20-nodes"),
    # one over the bound, 2**53; the float literal 9.007199254740993e15
    # would round to 2**53
    pytest.param("stern-gerlach", None, ["--samples", "9007199254740993"], "samples",
                 id="stern-gerlach-None-flags21-samples"),
    pytest.param("fluctuations", None, ["--samples", "9007199254740993"], "samples",
                 id="fluctuations-None-flags22-samples"),
    pytest.param("bell-test", None, ["--mode", "monte_carlo", "--samples", "1e300"], "samples",
                 id="bell-test-None-flags23-samples"),
    pytest.param("pauli", None, ["--steps", "0"], "steps",
                 id="pauli-None-flags24-steps"),
    pytest.param("oracle-check", "pairs = 1e6", [], "pairs",
                 id="oracle-check-pairs = 1e6-flags25-pairs"),
    pytest.param("bell-test", None, ["--samples", "9007199254740993"], "samples",
                 id="bell-test-None-flags26-samples"),
    pytest.param("bell-delay", "samples = 9007199254740993", [], "samples",
                 id="bell-delay-samples = 9007199254740993-flags27-samples"),
    # over 200 bins the displacement scale eta / (4 Z_m) gives bins of
    # subnormal or zero width; the flag overrides the file's eta
    pytest.param("stern-gerlach", "eta = 1e-300", ["--eta", "1e-306"], "eta",
                 id="stern-gerlach-eta = 1e-300-flags30-eta and transit_time"),
    pytest.param("stern-gerlach", "eta = 1e-300", ["--eta", "5e-324"], "eta",
                 id="stern-gerlach-eta = 1e-300-flags31-eta and transit_time"),
    # one over the bound, streams.BLOCK = 2**14
    pytest.param("stern-gerlach", None, ["--bins", "16385"], "bins",
                 id="stern-gerlach-None-flags32-bins"),
    # a KL row's dt / 2 outside [1e-13, 4]: ratios of -0.70 and 0.998
    pytest.param("fluctuations", None, ["--dt-sequence", "1e-18"], "dt_sequence",
                 id="fluctuations-None-flags37-dt_sequence and mass"),
    pytest.param("fluctuations", "dt_sequence = 0.1,16", [], "dt_sequence",
                 id="fluctuations-dt_sequence = 0.1,16-flags38-dt_sequence and mass"),
    # one ulp outside the admitted dt in [2e-13, 8], the band doubled
    pytest.param("fluctuations", None, ["--dt-sequence", "1.9999999999999998e-13"],
                 "dt_sequence", id="fluctuations-dt_sequence-ulp-below"),
    pytest.param("fluctuations", None, ["--dt-sequence", "8.000000000000002"],
                 "dt_sequence", id="fluctuations-dt_sequence-ulp-above"),
    # keys that set a unit scale twice: the outputs depend on dt / (2 mass),
    # eta T^2 and delay / tau alone, so only dt_sequence, eta and delays set
    # them (tau = NaN, row flags8, is the file case of bell-delay's)
    pytest.param("fluctuations", None, ["--mass", "2"], "mass",
                 id="fluctuations-mass-flag"),
    pytest.param("fluctuations", "mass = 2", [], "mass",
                 id="fluctuations-mass-file"),
    # not an abbreviation of --dt-sequence
    pytest.param("fluctuations", None, ["--dt", "2"], "dt",
                 id="fluctuations-dt-flag"),
    pytest.param("fluctuations", "dt = 2", [], "dt",
                 id="fluctuations-dt-file"),
    pytest.param("stern-gerlach", None, ["--transit-time", "3"], "--transit-time",
                 id="stern-gerlach-transit_time-flag"),
    pytest.param("stern-gerlach", "transit_time = 3", [], "transit_time",
                 id="stern-gerlach-transit_time-file"),
    pytest.param("bell-delay", None, ["--tau", "2"], "tau",
                 id="bell-delay-tau-flag"),
    # a node spacing of 4e-323, subnormal: the packet was not normalizable
    pytest.param("pauli", None, ["--extent", "1e-320"], "extent",
                 id="pauli-extent-subnormal-spacing"),
]


class TestMalformedInput:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sub, line, flags, key", MALFORMED)
    def test_exit_2_naming_the_key(self, tmp_path, capsys, sub, line, flags, key):
        argv = [sub, "--out", str(tmp_path / "out"), *flags]
        if line is not None:
            path = tmp_path / "run.cfg"
            path.write_text(line + "\n")
            argv += ["--config", str(path)]
        assert _exit_code(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_overflowing_displacement_scale_names_eta_alone(self, tmp_path, capsys):
        # at the unit transit time eta alone sets the scale, and the CLI has
        # no transit_time key
        argv = ["stern-gerlach", "--eta", "1e305", "--m", "4503599627370495",
                "--out", str(tmp_path / "out")]
        assert _exit_code(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: eta: ")
        assert "transit_time" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_unusable_out_is_a_config_error(self, tmp_path, capsys, out):
        (tmp_path / "afile").write_text("")
        argv = ["variational", "--nodes", "64", "--out", str(tmp_path / out)]
        assert _exit_code(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: out: ")
        assert "Traceback" not in err
        assert (tmp_path / "afile").read_text() == ""

    def test_non_finite_field_is_non_convergence(self, tmp_path, capsys):
        argv = ["pauli", "--dt", "1e307", "--steps", "2", "--out", str(tmp_path)]
        assert cli.run(argv) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "non-finite" in err
        assert "dt=1e+307, steps=2 " in err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_uniform_field_time_overflow_is_non_convergence(self, tmp_path, capsys):
        # a uniform field's steps are one step of dt x steps, which overflows
        # here; the error names the caller's dt and steps, not their product
        argv = ["pauli", "--dt", "1e303", "--steps", "1000000", "--out", str(tmp_path)]
        assert cli.run(argv) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "non-finite phase factors of dt=1e+303, steps=1000000 " in err
        assert "Traceback" not in err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("width", ["1e-300", "1e-6"])
    def test_narrow_packet_is_one_node(self, tmp_path, capsys, width):
        # 4 w^2 underflowed to 0 at 1e-300: a warning, then an unnormalized
        # field; now both widths give the packet of the one node at x = 0
        argv = ["pauli", "--packet-width", width, "--out", str(tmp_path)]
        assert cli.run(argv) == cli.EXIT_OK
        summary = json.loads((tmp_path / "manifest.json").read_text())["summary"]
        assert summary["norm"] == pytest.approx(1.0, abs=1e-12)

    def test_flags_and_file_values_parse_alike(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("orders = [1]\nnodes = 5.12e2\n")
        configs = []
        for extra in (["--config", str(cfg)], ["--orders", "1", "--nodes", "512"]):
            out = tmp_path / str(len(configs))
            assert cli.run(["variational", "--out", str(out), *extra]) == cli.EXIT_OK
            configs.append(json.loads((out / "manifest.json").read_text())["config"])
        assert configs[0] == configs[1] == {"orders": [1], "nodes": 512}


# the largest admitted sample count, 2**53: the counts are exact integers
MAX_SAMPLES = 2**53
PSI_MINUS_CHSH = 2 * math.sqrt(2)


def _json_run(tmp_path, argv):
    """Run argv in process as json into tmp_path: (summary, {table: rows})."""
    assert cli.run([*argv, "--format", "json", "--out", str(tmp_path)]) == cli.EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    tables = {}
    for name in manifest["result_files"]:
        payload = json.loads((tmp_path / name).read_text())
        if "rows" in payload:  # not a summary file
            tables[name.removesuffix(".json")] = payload["rows"]
    return manifest["summary"], tables


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestAdmittedExtremes:
    """Admitted runs at the ends of the size bounds, each judged against its
    closed form (within 5 sigma for a sampled value)."""

    def test_large_pauli_grid_at_many_steps(self, tmp_path, capsys):
        # the uniform b_z takes the 1000 steps as one: the run costs its nodes
        argv = ["pauli", "--nodes", "262144", "--steps", "1000"]
        summary, tables = _json_run(tmp_path, argv)
        assert abs(summary["norm"] - 1.0) <= 1e-10
        assert all(abs(p - 0.5) <= 1e-10 for p in summary["populations"])
        centre = max(tables["pauli_snapshot"], key=lambda r: r["rho_plus"])
        # b_z = 1, t = 1000 steps * 0.001: the relative phase b_z t is 1
        phase = centre["s_minus"] - centre["s_plus"]
        assert abs(math.remainder(phase - 1.0, 2 * math.pi)) <= 1e-6

    def test_fluctuations_from_one_sample(self, tmp_path, capsys):
        _, tables = _json_run(tmp_path, ["fluctuations", "--samples", "1"])
        rows = tables["fluctuations"]
        assert len(rows) == 7
        assert all(math.isfinite(row["estimate"]) for row in rows)

    def test_stern_gerlach_at_the_samples_bound(self, tmp_path, capsys):
        argv = ["stern-gerlach", "--samples", str(MAX_SAMPLES)]
        summary, tables = _json_run(tmp_path, argv)
        assert sum(row["count"] for row in tables["displacement_histogram"]) == MAX_SAMPLES
        p_up = math.cos(summary["beta"] / 2) ** 2
        sd = math.sqrt(p_up * (1 - p_up) / MAX_SAMPLES)
        assert abs(summary["empirical_up_fraction"] - p_up) <= 5 * sd

    def test_stern_gerlach_density_at_the_top_of_eta(self, tmp_path, capsys):
        # bins ~6e305 wide: samples x width passes the float range, and the
        # density column read 0 before it was formed as (n_i / n) / width
        summary, tables = _json_run(tmp_path, ["stern-gerlach", "--eta", "1.7e308"])
        rows = tables["displacement_histogram"]
        assert sum(row["count"] for row in rows) == summary["samples"]
        mass = math.fsum(r["density"] * (r["bin_right"] - r["bin_left"]) for r in rows)
        assert abs(mass - 1.0) <= 1e-12

    def test_bell_test_at_the_samples_bound(self, tmp_path, capsys):
        argv = ["bell-test", "--samples", str(MAX_SAMPLES)]
        summary, tables = _json_run(tmp_path, argv)
        rows = tables["bell_test"]
        for row in rows:
            total = sum(row[k] for k in ("n_pp", "n_pm", "n_mp", "n_mm"))
            assert total == MAX_SAMPLES
        sd = math.sqrt(sum(row["stderr"] ** 2 for row in rows))
        assert abs(summary["S"] - PSI_MINUS_CHSH) <= 5 * sd

    def test_bell_delay_at_the_samples_bound(self, tmp_path, capsys):
        _, exact = _json_run(tmp_path / "analytic", ["bell-delay"])
        argv = ["bell-delay", "--mode", "monte_carlo", "--samples", str(MAX_SAMPLES)]
        _, drawn = _json_run(tmp_path / "drawn", argv)
        # each of the four E terms has a standard error of at most 2 / sqrt(n)
        sd = 4 / math.sqrt(MAX_SAMPLES)
        assert exact["bell_delay"][0]["S"] == pytest.approx(PSI_MINUS_CHSH, abs=1e-12)
        for got, want in zip(drawn["bell_delay"], exact["bell_delay"], strict=True):
            assert got["delay"] == want["delay"]
            assert abs(got["S"] - want["S"]) <= 5 * sd

    def test_fluctuations_at_the_samples_bound(self, tmp_path, capsys):
        argv = ["fluctuations", "--samples", str(MAX_SAMPLES)]
        _, tables = _json_run(tmp_path, argv)
        for row in tables["fluctuations"]:
            q = row["quantity"]
            if q.startswith("kl_over_fisher_"):
                continue  # quadrature rows, which do not sample
            # (m / dt) w^2 and m omega u^2 are chi-square(1) / 2 per square
            squares = 3 * MAX_SAMPLES if q == "uncertainty_product" else MAX_SAMPLES
            sd = math.sqrt(0.5 / squares)
            assert abs(row["estimate"] - row["expected"]) <= 5 * sd


_NUMBERS = st.integers(0, 4) | st.floats(0.5, 4.0) | st.sampled_from(["1,2", "1e6"])
_SCALARS = (
    _NUMBERS
    | st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["0,x", "NaN", "-Infinity", "", ",", "analytic", "psi_plus"])
)
_VALUES = _NUMBERS | _SCALARS | st.lists(_SCALARS, max_size=3)


@settings(max_examples=500, deadline=None)
@given(sub=st.sampled_from(sorted(cli.SCHEMA)), data=st.data())
def test_merge_config_returns_declared_types_or_config_error(sub, data):
    keys = cli.SCHEMA[sub]
    typed = cli.merge_config(keys, {}, {})
    entries = st.dictionaries(st.sampled_from([*keys, "bogus"]), _VALUES, max_size=2)
    file_config, overrides = data.draw(entries), data.draw(entries)
    try:
        merged = cli.merge_config(keys, file_config, overrides)
    except cli.ConfigError:
        return
    assert merged.keys() == typed.keys()
    for key, value in merged.items():
        declared = typed[key]
        if isinstance(declared, list):
            assert isinstance(value, list) and value
            declared, items = declared[0], value
        else:
            items = [value]
        for item in items:
            assert type(item) is type(declared)
            if isinstance(item, float):
                assert math.isfinite(item)
