import json

import numpy as np
import pytest

from bicavity import read_csv
from bicavity.cli import main


def test_spectrum_command(tmp_path):
    out = tmp_path / "spec.csv"
    rc = main([
        "spectrum", "--kappa", "1", "--j", "6", "--min", "-12", "--max", "12",
        "--points", "961", "--out", str(out),
    ])
    assert rc == 0
    table = read_csv(out)
    assert table.columns == ["delta", "p_t", "p_r", "error"]
    delta = table.column("delta")
    p_r = table.column("p_r")
    half = len(delta) // 2
    step = delta[1] - delta[0]
    assert delta[np.argmax(p_r[:half])] == pytest.approx(-6.0, abs=1.5 * step)
    assert delta[half + np.argmax(p_r[half:])] == pytest.approx(6.0, abs=1.5 * step)


def test_figure_command(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["figure", "fig2", "--out", str(out)]) == 0
    table = read_csv(out)
    assert table.metadata["label"] == "fig2"
    assert len(table.rows) == 2 * 401
    assert np.all(table.column("error") == 0.0)


def test_sweep_command_with_config(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        "[base]\n"
        "kappa = 40\n"
        "g_a = 20\n"
        "g_b = 20\n"
        "drive = 1\n"
        "gamma_a = 1\n"
        "\n"
        "[axis1]\n"
        "name = delta\n"
        "min = -80\n"
        "max = 80\n"
        "count = 5\n"
        "\n"
        "[sweep]\n"
        "outputs = g2_ccw\n"
        "cutoff = 2\n"
        "tie_delta_a = true\n"
        "label = demo\n"
    )
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", str(cfg), "--out", str(out), "--log10"])
    assert rc == 0
    table = read_csv(out)
    assert table.columns == ["delta", "g2_ccw", "error", "log10_g2_ccw"]
    assert len(table.rows) == 5
    assert table.metadata["label"] == "demo"


def test_sweep_command_value_axis_and_overrides(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        "[base]\n"
        "kappa = 40\n"
        "g_a = 20\n"
        "g_b = 20\n"
        "drive = 1\n"
        "gamma_a = 1\n"
        "\n"
        "[axis1]\n"
        "name = j_coupling\n"
        "values = 0, 1200\n"
        "\n"
        "[sweep]\n"
        "outputs = g2_analytic\n"
        "engine = analytic\n"
    )
    out = tmp_path / "out.csv"
    assert main(["sweep", str(cfg), "--out", str(out)]) == 0
    g2 = read_csv(out).column("g2_analytic")
    assert g2[0] == pytest.approx(0.46970546250487405, rel=1e-12)
    assert g2[1] == pytest.approx(0.006557488258703919, rel=1e-12)


def test_figure_cutoff_and_engine_override(tmp_path):
    out = tmp_path / "fig7.csv"
    assert main(["figure", "fig7", "--out", str(out), "--cutoff", "2"]) == 0
    table = read_csv(out)
    assert table.metadata["engine"] == "analytic"
    assert table.metadata["cutoff_n_a"] == "2"


ONE_POINT_INI = (
    "[base]\nkappa = 40\ng_a = 20\ng_b = 20\ndrive = 1\ngamma_a = 1\n"
    "[axis1]\nname = j_coupling\nvalues = 0\n"
    "[sweep]\noutputs = g2_analytic\n"
)


@pytest.mark.parametrize("typo, named", [
    ("cutof = 2\n", "cutof"),
    ("[swep]\ncutoff = 2\n", "swep"),
    ("[axis2]\nname = g_a\nvalues = 1\nmin = 0\n", "[axis2]"),
], ids=["key", "section", "axis-values-and-min"])
def test_unknown_config_key_is_reported(tmp_path, capsys, typo, named):
    cfg = tmp_path / "typo.ini"
    cfg.write_text(ONE_POINT_INI + typo)
    out = tmp_path / "x.csv"
    assert main(["sweep", str(cfg), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert named in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("line, named", [
    ("label = first\n  second\n", "label must be one line"),
    ("outputs = g2_analytic, g2_analytic\n", "'g2_analytic' is requested twice"),
], ids=["multiline-label", "repeated-output"])
def test_rejected_sweep_setting_is_reported(tmp_path, capsys, line, named):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(ONE_POINT_INI.replace("outputs = g2_analytic\n", line))
    out = tmp_path / "x.csv"
    assert main(["sweep", str(cfg), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert named in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("text, named", [
    ("kappa = 40\n", "no section headers"),
    ("[base]\nkappa = 40\nkappa = 41\n", "option 'kappa' in section 'base' already exists"),
    ("[base]\ng_a = 20\n", "[base] needs kappa"),
    ("[base]\nkappa = 40\n[axis1]\nvalues = 0\n", "[axis1] needs name"),
    ("[base]\nkappa = 40\n[axis1]\nname = delta\nmin = 0\nmax = 1\n", "[axis1] needs count"),
], ids=["no-header", "repeated-key", "no-kappa", "no-name", "no-count"])
def test_bad_config_is_reported(tmp_path, capsys, text, named):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    out = tmp_path / "x.csv"
    assert main(["sweep", str(cfg), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert named in err["message"]
    assert not out.exists()


def test_legacy_engine_key_is_ignored(tmp_path):
    cfg = tmp_path / "legacy.ini"
    cfg.write_text(ONE_POINT_INI + "engine = master_equation\n")
    out = tmp_path / "x.csv"
    assert main(["sweep", str(cfg), "--out", str(out)]) == 0
    assert read_csv(out).metadata["engine"] == "analytic"


@pytest.mark.parametrize("name", ["fig3", "fig7"])
def test_zero_cutoff_is_reported(tmp_path, capsys, name):
    out = tmp_path / "x.csv"
    assert main(["figure", name, "--cutoff", "0", "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidTruncationError"
    assert not out.exists()


def test_missing_config_is_reported(tmp_path, capsys):
    rc = main(["sweep", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "error" in err and "message" in err


def test_bad_axis_name_is_reported(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(
        "[base]\nkappa = 40\n\n[axis1]\nname = bogus\nmin = 0\nmax = 1\ncount = 3\n"
    )
    rc = main(["sweep", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


def test_check_command(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out
