import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bgknet
from bgknet import coupling
from bgknet.cli import _COMMANDS, _build_parser, _parse_range, _settings, _write_csv, main
from bgknet.hermite import MAX_HALF_ORDER

README = Path(__file__).resolve().parents[1] / "README.md"


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.glob("*.csv"))}


def help_flags(command, capsys):
    """Every flag that ``bgknet <command> --help`` lists, but --help itself."""
    with pytest.raises(SystemExit):
        main([command, "--help"])
    options = capsys.readouterr().out.split("options:", 1)[1]
    return set(re.findall(r"(?<![\w-])--[\w-]+", options)) - {"--help"}


class TestDeltasCommand:
    def test_sweep_matches_library(self, tmp_path, coeff_factory):
        out = tmp_path / "d"
        assert main(["deltas", "--N", "10:12", "--n", "3", "--out", str(out)]) == 0
        header, rows = read_csv(out / "deltas.csv")
        assert header == ["N", "delta1", "delta2", "log10_err1", "log10_err2"]
        assert rows.shape == (3, 5)
        for row in rows:
            coeff = coeff_factory(int(row[0]), 3)
            assert row[1] == coeff.delta1
            assert row[2] == coeff.delta2
        assert np.all(np.isfinite(rows[:, 3:]))

    def test_infinite_degree(self, tmp_path):
        out = tmp_path / "di"
        assert main(["deltas", "--N", "10:11", "--n", "inf", "--out", str(out)]) == 0
        _, rows = read_csv(out / "deltas.csv")
        assert abs(rows[-1, 1] - 1.58) < 0.05

    def test_range_validation(self, tmp_path, capsys):
        for bad in ("3:9", f"5:{MAX_HALF_ORDER + 1}", "12:10"):
            code = main(["deltas", "--N", bad, "--out", str(tmp_path / "x")])
            assert code == 1
            err = capsys.readouterr().err
            assert "error:" in err and f"[5, {MAX_HALF_ORDER}]" in err
            assert not (tmp_path / "x" / "deltas.csv").exists()

    def test_range_reaches_the_rule_bound(self):
        assert _parse_range(f"1400:{MAX_HALF_ORDER}") == (1400, MAX_HALF_ORDER)

    def test_help_states_the_bound(self, capsys):
        with pytest.raises(SystemExit):
            main(["deltas", "--help"])
        assert f"[5, {MAX_HALF_ORDER}]" in " ".join(capsys.readouterr().out.split())

    def test_csv_independent_of_blas_threads(self, tmp_path):
        # OpenBLAS threads only the larger calls, so short sweeps cannot show
        # a thread-dependent rounding; from about N = 70 on they can
        src = str(Path(bgknet.__file__).resolve().parents[1])
        outputs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            for degree in ("3", "inf"):
                out = tmp_path / f"{degree}-{threads}"
                subprocess.run([sys.executable, "-m", "bgknet", "deltas", "--N", "70:80",
                                "--n", degree, "--out", str(out)],
                               env=env, check=True, capture_output=True)
                outputs[degree, threads] = (out / "deltas.csv").read_bytes()
        for degree in ("3", "inf"):
            assert outputs[degree, "1"] == outputs[degree, "2"]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["deltas", "--N", "10:12", "--n", "3", "--out", str(a)])
        main(["deltas", "--N", "10:12", "--n", "3", "--out", str(b)])
        assert tree_bytes(a) == tree_bytes(b)


class TestWriteCsv:
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=r"t\.csv.*'err'"):
            _write_csv(path, ["N", "err"], [(1, 0.5), (2, bad)])
        assert not path.exists()

    def test_writes_seventeen_digit_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        _write_csv(path, ["N", "x"], iter([(1, 0.1), (2, -2.5)]))
        assert path.read_text() == ("N,x\n1.0000000000000000e+00,1.0000000000000001e-01\n"
                                    "2.0000000000000000e+00,-2.5000000000000000e+00\n")


class TestNodeCommand:
    def test_summary_and_distributions(self, tmp_path, ops_factory, coeff_factory):
        out = tmp_path / "n"
        assert main(["node", "--case", "1", "--N", "30", "--out", str(out)]) == 0
        header, rows = read_csv(out / "node_case1_summary.csv")
        assert header == ["edge", "S_inf", "q_inf", "rho_inf", "rho_node", "rho_left"]
        assert rows.shape == (3, 6)
        assert abs(rows[:, 2].sum()) < 1e-10  # flux balance
        for i in (1, 2, 3):
            hdr, dist = read_csv(out / f"node_case1_edge{i}_distribution.csv")
            assert hdr == ["v", "f"]
            assert dist.shape == (1201, 2)

    def test_rejects_bad_case(self, tmp_path, capsys):
        assert main(["node", "--case", "9", "--out", str(tmp_path / "x")]) == 1
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["composite", "--t-end", "nan"],
    ["composite", "--length", "nan"],
    ["composite", "--cells", "0"],
    ["node", "--vpoints", "0"],
    ["node", "--vpoints", "-3"],
    ["node", "--vmax", "nan"],
    ["node", "--case", "9"],
    ["node", "--N", "2"],
    ["kinetic", "--case", "0"],
    ["compare", "--coeff-N", "3"],
    ["deltas", "--n", "1"],
    ["deltas", "--n", "2"],
    ["node", "--n", "4"],
    ["node", "--n", "inf"],
], ids=lambda argv: f"{argv[0]}{argv[1]}={argv[2]}")
def test_bad_input_fails_before_any_operator(tmp_path, capsys, monkeypatch, argv):
    key = argv[1][2:].replace("-", "_")
    built = []

    def build(cls, N):
        built.append(N)
        raise RuntimeError("operators were built")

    monkeypatch.setattr(coupling.NodeOperators, "build", classmethod(build))
    assert main([*argv, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ")
    assert not built
    assert not list(tmp_path.rglob("*.csv"))
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, key", [
    (["composite", "--eps", "-1"], "eps"),
    (["composite", "--length", "nan"], "length"),
    (["kinetic", "--cfl", "2"], "cfl"),
])
def test_network_errors_name_the_cli_key(tmp_path, capsys, argv, key):
    # kinetic.NetworkConfig names its own fields (epsilon, edge_length)
    assert main([*argv, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert not (tmp_path / "o").exists()


class TestKineticCommands:
    KIN = ["--case", "1", "--N", "8", "--cells", "60", "--length", "0.03",
           "--t-end", "0.004", "--coeff-N", "30"]

    def test_kinetic_files(self, tmp_path):
        out = tmp_path / "k"
        assert main(["kinetic", *self.KIN, "--out", str(out)]) == 0
        for field in ("rho", "q", "S"):
            for edge in (1, 2, 3):
                header, rows = read_csv(out / f"{field}_kinetic_{edge}.csv")
                assert header == ["x", field]
                assert rows.shape == (60, 2)
        hdr, fdist = read_csv(out / "f_kinetic_1.csv")
        assert hdr == ["v", "f"] and fdist.shape == (16, 2)

    def test_kinetic_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["kinetic", *self.KIN, "--out", str(a)])
        main(["kinetic", *self.KIN, "--out", str(b)])
        assert tree_bytes(a) == tree_bytes(b)

    def test_composite_files(self, tmp_path):
        out = tmp_path / "c"
        args = ["composite", "--case", "2", "--N", "8", "--cells", "40",
                "--length", "0.03", "--t-end", "0.004", "--coeff-N", "30",
                "--out", str(out)]
        assert main(args) == 0
        header, rows = read_csv(out / "rho_composite_2.csv")
        assert header == ["x", "rho"] and rows.shape == (40, 2)

    def test_compare_summary(self, tmp_path):
        out = tmp_path / "cmp"
        args = ["compare", *self.KIN, "--out", str(out)]
        assert main(args) == 0
        header, rows = read_csv(out / "compare_summary.csv")
        assert header == ["edge", "sup_error", "l1_error"]
        assert rows.shape == (9, 3)
        assert np.all(np.isfinite(rows))
        assert np.all(rows[:, 1:] >= 0)

    @pytest.mark.parametrize("window", ["1", "-1", "nan"])
    def test_compare_rejects_bad_window_before_running(self, tmp_path, capsys, window):
        # window 1 covers every cell centre of the 0.03-long edge
        out = tmp_path / "w"
        assert main(["compare", *self.KIN, "--window", window, "--out", str(out)]) == 1
        assert "error: window must" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_compare_flux_accuracy_case1(self, tmp_path):
        # q carries no wave and no layers in case 1: sup error stays below 1e-2
        out = tmp_path / "cmpq"
        args = ["compare", "--case", "1", "--N", "8", "--cells", "150",
                "--length", "0.15", "--t-end", "0.05", "--out", str(out)]
        assert main(args) == 0
        _, rows = read_csv(out / "compare_summary.csv")
        q_rows = rows[3:6]  # rho rows first, then q, then S
        assert np.all(q_rows[:, 1] < 1e-2)


class TestConfigFile:
    def test_section_values_and_cli_precedence(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[deltas]\nn = 3\nN = 10:11\n")
        out1 = tmp_path / "o1"
        assert main(["deltas", "--config", str(cfg), "--out", str(out1)]) == 0
        _, rows = read_csv(out1 / "deltas.csv")
        assert rows.shape[0] == 2
        out2 = tmp_path / "o2"
        assert main(["deltas", "--config", str(cfg), "--N", "12:12",
                     "--out", str(out2)]) == 0
        _, rows2 = read_csv(out2 / "deltas.csv")
        assert rows2.shape[0] == 1 and rows2[0, 0] == 12

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[deltas]\nbogus = 1\n")
        assert main(["deltas", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_malformed_value_names_its_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[kinetic]\ncells = abc\n")
        assert main(["kinetic", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert "error: cells: " in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_missing_config_rejected(self, tmp_path, capsys):
        assert main(["deltas", "--config", str(tmp_path / "none.ini"),
                     "--out", str(tmp_path / "x")]) == 1
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_flags_ini_keys_and_readme_agree(tmp_path, capsys, command):
    flags = help_flags(command, capsys)
    keys = {flag[2:].replace("-", "_") for flag in flags} - {"config", "out"}
    parser = _build_parser()
    assert set(_settings(command, parser.parse_args([command]))) == keys
    for i, key in enumerate(sorted(keys)):
        # a malformed value gets past the unknown-key check and is named
        ini = tmp_path / f"{i}.ini"
        ini.write_text(f"[{command}]\n{key} = abc\n")
        with pytest.raises(ValueError, match=f"^{key}: "):
            _settings(command, parser.parse_args([command, "--config", str(ini)]))
    section = README.read_text().split("## Command-line interface", 1)[1].split("\n## ", 1)[0]
    unnamed = [flag for flag in sorted(flags)
               if not re.search(re.escape(flag) + r"(?![\w-])", section)]
    assert not unnamed, f"README's CLI section does not name {unnamed}"
