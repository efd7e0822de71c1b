import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nclab.cli import main

MULTIPLIER = """\
[symbol]
n = 1
main = <xi>^(-1)
order = -1
term_0 = -1 ; 1

[lattice]
M = 1500
"""

COSINE = """\
[symbol]
n = 1
main = (1+0.5*cos(2*pi*x1))*<xi>^(-1)
order = -1
term_0 = -1 ; 1+0.5*cos(2*pi*x1)

[lattice]
M = 24

[quadrature]
Q = 256
"""


# 4001^2 lattice points: the dense matrix would take 4 PB
OVERSIZE = """\
[symbol]
n = 2
main = (1+0.5*cos(2*pi*x1))*(1+|xi|^2)^(-1)
order = -2
term_0 = -2 ; 1+0.5*cos(2*pi*x1)

[lattice]
M = 2000
"""

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SCRIPTS = CONFIGS.parent / "scripts"


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_help_exits_zero_and_shows_grammar(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "expression grammar" in out
    assert "config format" in out


@pytest.mark.parametrize(
    "command",
    ["symbol-check", "quantize", "spectrum", "dixmier", "residue", "verify-identity", "connes"],
)
def test_subcommand_help(command, capsys):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert "expression grammar" in out


def test_connes_happy_path(tmp_path, capsys):
    cfg = write(tmp_path, MULTIPLIER)
    out = tmp_path / "r"
    assert main(["connes", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "connes.json").read_text())
    assert data["residue_lattice"] == pytest.approx(2.0)
    assert abs(data["spectral_estimate"] - 2.0) < 0.05
    assert (out / "spectrum.csv").exists()


def test_residue_convention_flag(tmp_path):
    cfg = write(tmp_path, MULTIPLIER)
    out = tmp_path / "r"
    assert main(["residue", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    lattice = json.loads((out / "residue.json").read_text())
    assert lattice["value"] == pytest.approx(2.0)
    assert main(["residue", "--config", cfg, "--out", str(out), "--convention", "paper", "--quiet"]) == 0
    paper = json.loads((out / "residue.json").read_text())
    assert paper["value"] == pytest.approx(2.0 / (2 * np.pi))


@pytest.mark.parametrize(
    "command", ["symbol-check", "quantize", "spectrum", "dixmier", "verify-identity", "connes"]
)
def test_convention_flag_is_residue_only(command, tmp_path, capsys):
    cfg = write(tmp_path, MULTIPLIER)
    args = [command, "--config", cfg, "--out", str(tmp_path / "r"), "--convention", "paper"]
    assert main(args) == 1
    assert "unrecognized arguments: --convention" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_unparsable_expression_exits_1(tmp_path, capsys):
    cfg = write(tmp_path, MULTIPLIER.replace("<xi>^(-1)", "cos("))
    code = main(["residue", "--config", cfg, "--out", str(tmp_path / "r")])
    assert code == 1
    err = capsys.readouterr().err
    assert "offset" in err


def test_unknown_config_key_exits_1(tmp_path, capsys):
    cfg = write(tmp_path, MULTIPLIER + "[lattice2]\nN = 5\n")
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "r")]) == 1


def test_missing_config_file_exits_3(tmp_path, capsys):
    assert main(["spectrum", "--config", str(tmp_path / "nope.cfg")]) == 3


def test_eval_error_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, MULTIPLIER.replace("<xi>^(-1)", "|xi|^(-1)"))
    code = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "r")])
    assert code == 2


def test_verify_identity_prints_deviations(tmp_path, capsys):
    cfg = write(tmp_path, COSINE)
    assert main(["verify-identity", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
    out = capsys.readouterr().out
    assert "full deviation" in out
    assert "interior deviation" in out
    data = json.loads((tmp_path / "r" / "identity.json").read_text())
    assert data["interior_deviation"] <= 1e-12


def test_quantize_exports(tmp_path):
    cfg = write(tmp_path, COSINE + "\n[output]\nmatrix_format = both\n")
    out = tmp_path / "r"
    assert main(["quantize", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert (out / "matrix.csv").exists()
    assert (out / "matrix.bin").read_bytes()[:4] == b"NCRM"


def test_symbol_check_runs(tmp_path):
    cfg = write(tmp_path, MULTIPLIER.replace("M = 1500", "M = 256"))
    out = tmp_path / "r"
    assert main(["symbol-check", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    data = json.loads((out / "symbol_check.json").read_text())
    exps = [r["fitted_exponent"] for r in data["reports"]]
    assert exps[0] == pytest.approx(-1.0, abs=0.1)


def test_dixmier_trace_class(tmp_path):
    cfg = write(tmp_path, MULTIPLIER.replace("<xi>^(-1)", "<xi>^(-2)").replace(
        "order = -1", "order = -2").replace("term_0 = -1 ; 1", "term_0 = -2 ; 1"))
    out = tmp_path / "r"
    assert main(["dixmier", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    data = json.loads((out / "dixmier.json").read_text())
    assert abs(data["trace_estimate"]) < 0.02


def test_byte_identical_reruns(tmp_path):
    cfg = write(tmp_path, COSINE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["connes", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["connes", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    for name in ("connes.json", "spectrum.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_config_output_dir_used_when_out_not_given(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, COSINE + "\n[output]\ndir = from_config\n")
    assert main(["spectrum", "--config", cfg, "--quiet"]) == 0
    assert (tmp_path / "from_config" / "spectrum.csv").exists()


def test_no_command_prints_help(capsys):
    assert main([]) == 0
    assert "COMMAND" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["quantize", "verify-identity", "connes"])
def test_oversize_matrix_exits_1_before_allocating(tmp_path, capsys, command):
    cfg = write(tmp_path, OVERSIZE)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    # connes keeps the band of half-width 1 + 4001 = 4002, never the dense matrix
    what = "a band of 16008001 x 8005 complex entries" if command == "connes" else (
        "a dense 16008001 x 16008001 complex matrix")
    assert err.startswith(f"error: {what} needs")
    assert err.endswith("of physical memory\n")
    assert err.count("\n") == 1


def test_banded_connes_is_sized_by_its_band(tmp_path, monkeypatch, capsys):
    # at M = 2048 the dense matrix takes 16 * 4097^2 B = 268.6 MB and
    # the band of half-width 1 takes 16 * 4097 * 3 B = 197 kB
    import nclab.quantize as quantize
    import nclab.spectral as spectral

    if spectral._zhbevd() is None:
        pytest.skip("numpy ships no LAPACKE zhbevd: connes would need the dense matrix")
    monkeypatch.setattr(quantize, "_physical_memory", lambda: 200 * 10**6)
    cfg = write(tmp_path, COSINE.replace("M = 24", "M = 2048").replace("Q = 256", "Q = 16384"))
    assert main(["connes", "--config", cfg, "--out", str(tmp_path / "c"), "--quiet"]) == 0
    data = json.loads((tmp_path / "c" / "connes.json").read_text())
    assert data["relative_deviation"] <= 1e-4
    assert main(["quantize", "--config", cfg, "--out", str(tmp_path / "q")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a dense 4097 x 4097 complex matrix needs 0.3 GiB, more than the 0.2 GiB")
    assert not (tmp_path / "q" / "matrix.csv").exists()


def test_identity_check_config_pinned_near_achieved_deviation(tmp_path):
    # achieved: full deviation 1.5e-17
    out = tmp_path / "r"
    cfg = str(CONFIGS / "identity_check.cfg")
    assert main(["verify-identity", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    data = json.loads((out / "identity.json").read_text())
    assert data["full_deviation"] <= 1e-15


def test_cosine_config_pinned_near_achieved_accuracy(tmp_path):
    # achieved at M = 1024: relative deviation 1.2136e-5, stability span 3.13e-5
    out = tmp_path / "r"
    cfg = str(CONFIGS / "cosine_1d.cfg")
    assert main(["connes", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    data = json.loads((out / "connes.json").read_text())
    assert data["relative_deviation"] <= 2e-5
    assert data["stability_span"] <= 5e-5


def test_truncation_sweep_uses_the_configured_sphere_rule(tmp_path):
    # sphere_order = 4 is too coarse for theta1^6: residue 4.7124
    # against 21*pi/16 = 4.1233 from the default rule, which the sweep
    # used to report; it must report what connes does
    cfg = write(
        tmp_path,
        "[symbol]\nn = 2\nmain = (1+|xi|^2)^(-1)\norder = -2\n"
        "term_0 = -2 ; 1+theta1^6\n[lattice]\nM = 10\n[quadrature]\nsphere_order = 4\n",
    )
    out = tmp_path / "r"
    assert main(["connes", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    want = json.loads((out / "connes.json").read_text())["residue_lattice"]
    sweep = tmp_path / "sweep.csv"
    subprocess.run(
        [sys.executable, str(SCRIPTS / "truncation_sweep.py"), "--config", cfg,
         "--m-values", "10", "--out", str(sweep)],
        check=True, capture_output=True,
    )
    header, row = sweep.read_text().splitlines()
    got = float(row.split(",")[header.split(",").index("residue_lattice")])
    assert got == want
    assert got == pytest.approx(4.712389, abs=1e-6)
