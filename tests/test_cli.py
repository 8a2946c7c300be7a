"""Command-line behaviour: output, config files, exit codes."""

import os
import subprocess
import sys

import pytest

import qotto
from qotto import cli
from qotto.cli import main

# child interpreters import the same qotto source tree as this process
_CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
    os.path.dirname(os.path.dirname(qotto.__file__)), os.environ.get("PYTHONPATH")))))


def kv(capsys):
    out = capsys.readouterr().out
    pairs = {}
    for line in out.splitlines():
        for chunk in line.split():
            if "=" in chunk:
                key, value = chunk.split("=", 1)
                pairs[key] = value
    return pairs


def test_cycle_single_manybody_level_reports_zero_work(capsys):
    code = main(["cycle", "--spectrum", "box", "--stats", "fermion",
                 "--particles", "2", "--levels", "2", "--Th", "9"])
    assert code == 0
    got = kv(capsys)
    assert float(got["W"]) == 0.0
    assert got["positive_work"] == "false"


def test_cycle_at_threshold_is_flagged_not_engine(capsys):
    code = main(["cycle", "--levels", "3", "--Th", "4", "--R", "2"])
    assert code == 0
    got = kv(capsys)
    assert abs(float(got["W"])) <= 1e-10
    assert got["positive_work"] == "false"
    assert float(got["threshold_Th"]) == 4.0


def test_cycle_two_level_scenario(capsys):
    code = main(["cycle", "--levels", "2", "--Th", "8"])
    assert code == 0
    got = kv(capsys)
    assert float(got["U2"]) == pytest.approx(2.2220002001377903, rel=1e-9)
    assert float(got["Qh"]) == pytest.approx(0.25953629766396924, rel=1e-9)
    assert float(got["Qc"]) == pytest.approx(0.06488407441599231, rel=1e-9)
    assert float(got["W"]) == pytest.approx(0.19465222324797693, rel=1e-9)
    assert float(got["eta"]) == 0.75
    assert got["positive_work"] == "true"


def test_ratio_subcommand(capsys):
    code = main(["ratio", "--lambda", "1", "--stats", "boson",
                 "--particles", "2", "--levels", "3", "--Th", "8"])
    assert code == 0
    got = kv(capsys)
    assert float(got["ratio"]) == pytest.approx(2.11024988755, rel=1e-9)
    assert float(got["per_particle_ratio"]) == pytest.approx(1.055124944, rel=1e-9)
    assert float(got["W"]) == pytest.approx(float(got["Ws"]) * float(got["ratio"]),
                                            rel=1e-9)


def test_lambda_flag_fixes_units(capsys):
    code = main(["cycle", "--lambda", "20", "--levels", "3", "--Th", "4.2"])
    assert code == 0
    got = kv(capsys)
    assert float(got["scale"]) == 20.0
    assert float(got["L1"]) == 1.0
    assert float(got["Tc"]) == 1.0
    assert float(got["lambda"]) == 20.0


def test_lambda_conflicts_with_explicit_units(tmp_path):
    assert main(["cycle", "--lambda", "1", "--scale", "2"]) == 2
    assert main(["cycle", "--lambda", "1", "--L1", "2"]) == 2
    assert main(["cycle", "--lambda", "1", "--Tc", "2"]) == 2
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--lambda", "1", "--scale", "2", "--th-min", "5",
                 "--th-max", "9", "--output", str(out)]) == 2
    assert not out.exists()


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# cycle parameters\n"
        "spectrum = box\n"
        "stats = boson   # overridden below\n"
        "particles = 1\n"
        "levels = 2\n"
        "Th = 4.0\n"
        "\n")
    code = main(["cycle", "--config", str(config), "--Th", "8"])
    assert code == 0
    got = kv(capsys)
    assert got["Th"] == "8"
    assert got["N"] == "2"
    assert float(got["W"]) == pytest.approx(0.19465222324797693, rel=1e-9)


def test_config_file_lambda_key(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("lambda = 20\nlevels = 3\nTh = 4.2\n")
    assert main(["cycle", "--config", str(config)]) == 0
    assert float(kv(capsys)["lambda"]) == 20.0


def test_config_file_rejects_unknown_keys(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("voltage = 7\n")
    assert main(["cycle", "--config", str(config)]) == 2


def test_config_file_rejects_the_removed_method_key(tmp_path, capsys):
    # internal_energies picks the backend; no option selects one
    config = tmp_path / "run.cfg"
    config.write_text("method = enumeration\n")
    assert main(["cycle", "--config", str(config)]) == 2
    assert "unknown config keys: method" in capsys.readouterr().err


def test_config_file_rejects_malformed_lines(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("just some words\n")
    assert main(["cycle", "--config", str(config)]) == 2


@pytest.mark.parametrize("argv", [
    ["cycle", "--R", "0.5"],
    ["cycle", "--Th", "-3"],
    ["cycle", "--Tc", "1e-320", "--Th", "8"],
    ["cycle", "--Th", "inf"],
    ["cycle", "--Tc", "nan"],
    ["cycle", "--L1", "inf"],
    ["cycle", "--scale", "inf"],
    ["cycle", "--lambda", "inf"],
    ["sweep", "--th-min", "1e-320", "--th-max", "9", "--output", "x.csv"],
    ["sweep", "--figure", "2", "--threads", "1", "--output", "x.csv"],
    ["cycle", "--spectrum", "triangle"],
    ["cycle", "--method", "guess"],
    ["sweep", "--figure", "9", "--output", "x.csv"],
    ["sweep", "--th-min", "5", "--th-max", "5", "--th-steps", "2",
     "--output", "x.csv"],
    ["sweep", "--th-min", "5", "--th-max", "9", "--th-steps", "1",
     "--output", "x.csv"],
    ["sweep", "--output", "x.csv"],
    ["bogus-subcommand"],
    [],
    # a preset sweep takes no physics or grid key
    ["sweep", "--figure", "2", "--particles", "5", "--stats", "fermion",
     "--output", "x.csv"],
    ["sweep", "--figure", "2", "--method", "recursion", "--output", "x.csv"],
    ["sweep", "--figure", "2", "--th-min", "1", "--th-max", "3", "--output", "x.csv"],
    ["sweep", "--figure", "6", "--th-steps", "10", "--output", "x.csv"],
    ["sweep", "--figure", "4", "--lambda", "1", "--output", "x.csv"],
    # figure numbers outside the preset table, fig45's name run together among them
    ["sweep", "--figure", "1", "--output", "x.csv"],
    ["sweep", "--figure", "8", "--output", "x.csv"],
    ["sweep", "--figure", "45", "--output", "x.csv"],
])
def test_bad_arguments_exit_two(argv):
    assert main(argv) == 2


def test_figure_numbers_map_onto_the_preset_table(tmp_path, capsys, monkeypatch):
    # the map derives from the digits after "fig" in each preset name
    assert cli._FIGURES == {2: "fig2", 3: "fig3", 4: "fig45", 5: "fig45", 6: "fig67",
                            7: "fig67"}
    built = []
    for name in qotto.PRESETS:
        monkeypatch.setitem(qotto.PRESETS, name, lambda name=name: built.append(name) or [])
    for figure in range(2, 8):
        assert main(["sweep", "--figure", str(figure), "--output", str(tmp_path / "x.csv")]) == 0
    assert built == ["fig2", "fig3", "fig45", "fig45", "fig67", "fig67"]
    capsys.readouterr()
    for figure in (1, 8, 9, 45):
        assert main(["sweep", "--figure", str(figure), "--output", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == \
            f"error: --figure must be one of [2, 3, 4, 5, 6, 7], got {figure}\n"


# accepted inputs whose derived energies leave the float range printed NaN
# with exit 0 (one gave "float division by zero")
@pytest.mark.parametrize("argv, quantity", [
    (["cycle", "--scale", "1e308", "--levels", "5"], "largest many-body energy"),
    (["cycle", "--scale", "1e307", "--levels", "3", "--particles", "2"],
     "largest many-body energy"),
    # L1^p = 1e-320 is finite, 18/L1^p is not
    (["cycle", "--L1", "1e-160", "--particles", "2"], "largest many-body energy"),
    (["sweep", "--scale", "1e308", "--levels", "5", "--th-min", "5", "--th-max", "9"],
     "largest many-body energy"),
    (["cycle", "--L1", "1e-200"], "L and L^p must be"),
    (["cycle", "--L1", "1e200"], "L^p = inf"),  # was "(34, 'Numerical result out of range')"
    # c/(L1^p Tc) = 1e310 printed lambda=inf, and the sweep wrote inf in every lambda cell
    (["cycle", "--Tc", "1e-300", "--scale", "1e10"], "regime parameter lambda"),
    (["ratio", "--Tc", "1e-300", "--scale", "1e10"], "regime parameter lambda"),
    (["sweep", "--Tc", "1e-300", "--scale", "1e10", "--th-min", "5", "--th-max", "9"],
     "regime parameter lambda"),
    # the cold corner: beta_c/L2^p = 1e300/4e-10
    (["cycle", "--Tc", "1e-300", "--L1", "1e-5"], "beta/L^p"),
])
def test_energies_out_of_float_range_exit_two(tmp_path, capsys, argv, quantity):
    out = tmp_path / "sweep.csv"
    if argv[0] == "sweep":
        argv = argv + ["--output", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert quantity in captured.err
    assert "nan" not in captured.out
    assert not out.exists()


def test_an_engine_with_finite_corners_runs(capsys):
    # beta_c/L1^p = 1e300/1e-10 is no corner of this cycle: beta_c/L2^p = 1e300 and
    # beta_h/L1^p = 1e10. It exited 2 with "beta/L^p must be finite and nonzero"
    assert main(["cycle", "--Tc", "1e-300", "--L1", "1e-5", "--R", "1e5", "--scale", "1e-20",
                 "--Th", "1"]) == 0
    got = kv(capsys)
    assert float(got["W"]) == pytest.approx(3.66666666521e-10, rel=1e-9)
    assert got["positive_work"] == "true"


def test_fermion_top_levels_in_float_range_are_accepted(capsys):
    # 4e307 + 9e307 is finite; a boson pair's 2 * 9e307 is not
    assert main(["cycle", "--scale", "1e307", "--levels", "3", "--particles", "2",
                 "--stats", "fermion"]) == 0
    assert float(kv(capsys)["U2"]) == 5e307


def test_empty_fermion_space_exits_three():
    assert main(["cycle", "--stats", "fermion", "--particles", "3",
                 "--levels", "2"]) == 3


def test_unwritable_output_exits_four(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert main(["sweep", "--figure", "2",
                 "--output", str(blocker / "out.csv")]) == 4


@pytest.mark.parametrize("argv, target, message", [
    (["sweep", "--figure", "2", "--output"], "missing/fig2.csv",
     "[Errno 2] No such file or directory"),
    (["sweep", "--figure", "2", "--output"], "out", "[Errno 21] Is a directory"),
    (["cycle", "--config"], "missing.cfg", "[Errno 2] No such file or directory"),
], ids=["missing-directory", "directory-output", "missing-config"])
def test_io_errors_exit_four_naming_the_given_path(tmp_path, capsys, argv, target, message):
    (tmp_path / "out").mkdir()  # an empty directory, the output of the second case
    path = str(tmp_path / target)
    assert main([*argv, path]) == cli.EXIT_IO == 4
    assert capsys.readouterr().err == f"error: {message}: {path!r}\n"
    assert [p.name for p in tmp_path.rglob("*")] == ["out"]  # no temp file left behind


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "cycle" in capsys.readouterr().out


def test_sweep_preset_writes_rows(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    code = main(["sweep", "--figure", "3", "--output", str(out)])
    assert code == 0
    assert f"wrote 800 rows to {out}" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert len(lines) == 801
    assert lines[0].startswith("spectrum,statistics,")


def test_sweep_explicit_grid(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = main(["sweep", "--stats", "fermion", "--particles", "2",
                 "--levels", "4", "--th-min", "5", "--th-max", "9",
                 "--th-steps", "5", "--output", str(out)])
    assert code == 0
    assert "wrote 5 rows" in capsys.readouterr().out
    rows = out.read_text().splitlines()
    assert len(rows) == 6
    assert rows[1].split(",")[1] == "fermion"


def test_cli_import_loads_no_third_party_package_but_numpy():
    # numpy is the one runtime dependency; anything else qotto.cli pulls in
    # at import would be an undeclared one
    probe = ("import sys; before = set(sys.modules); import qotto.cli; "
             "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
             "print(','.join(sorted(new - set(sys.stdlib_module_names))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_CHILD_ENV)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "numpy,qotto"


def test_cli_import_leaves_the_check_suite_to_the_validate_command():
    # every sweep process imports qotto.cli; only `qotto validate` needs qotto.validate
    probe = "import sys, qotto.cli; print('qotto.validate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_CHILD_ENV)
    assert (proc.returncode, proc.stdout) == (0, "False\n")
    proc = subprocess.run([sys.executable, "-m", "qotto", "validate"], capture_output=True,
                          text=True, env=_CHILD_ENV)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "8/8 checks passed"


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qotto", "cycle", "--levels", "2", "--Th", "8"],
        capture_output=True, text=True, env=_CHILD_ENV)
    assert proc.returncode == 0
    assert "positive_work=true" in proc.stdout


@pytest.mark.parametrize("command", ["cycle", "ratio"])
def test_zero_boltzmann_weights_raise_no_warning(command):
    # beta*E past the float range is the exact weight 0; it warned "overflow
    # encountered in multiply", a traceback under -W error. lambda = 1e307 is
    # finite, but the cold corner's beta*E is about 2e311. Three bosons on 300
    # levels are 4.5M states, above the state cap: the particle recursion hands
    # them over to the level recursion, which warned as well.
    for extra in ([], ["--particles", "3"]):
        argv = ["-m", "qotto", command, "--Tc", "1e-300", "--scale", "1e7", "--levels", "300",
                *extra]
        runs = [subprocess.run([sys.executable, *flags, *argv], capture_output=True, text=True,
                               env=_CHILD_ENV) for flags in (["-W", "error"], [])]
        assert [(proc.returncode, proc.stderr) for proc in runs] == [(0, ""), (0, "")]
        assert runs[0].stdout == runs[1].stdout
        assert "W=0" in runs[0].stdout
