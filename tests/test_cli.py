import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nclab.cli import _COMMANDS, GRAMMAR_HELP, _write_json, main
from nclab.config import KEYS
from nclab.errors import NonConvergenceError
from nclab.quantize import read_matrix_binary

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

# a symbol of order -1 whose spectrum is half negative
NEGATIVE = """\
[symbol]
n = 1
main = -xi1*<xi>^(-2)
order = -1
term_0 = -1 ; -theta1

[lattice]
M = 400
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


# Command lines that the argv reader accepts or refuses: (argv, exit code,
# stream, phrase in that stream, whether residue.json is written).
# {cfg} is the config and {out} and {tmp} are directories under tmp_path.
ARGV_FORMS = {
    "config-equals": (["residue", "--config={cfg}", "--out", "{out}", "--quiet"], 0, "out", "", True),
    "abbreviations": (["residue", "--conf", "{cfg}", "--ou={out}", "--qu"], 0, "out", "", True),
    "one-letter-abbreviations": (["residue", "--c", "{cfg}", "--o", "{out}", "--q"], 0, "out", "", True),
    "repeated-out": (["residue", "--config", "{cfg}", "--out", "{tmp}/first", "--out", "{out}",
                      "--quiet"], 0, "out", "", True),
    "quiet-twice": (["residue", "--quiet", "--config", "{cfg}", "--out", "{out}", "--quiet"],
                    0, "out", "", True),
    "help-after-options": (["residue", "--config", "{cfg}", "--out", "{out}", "-h"],
                           0, "out", "expression grammar", False),
    "version": (["--version"], 0, "out", "nclab 0.1.0\n", False),
    "missing-config": (["residue", "--out", "{out}"], 1, "err",
                       "the following arguments are required: --config", False),
    "missing-value": (["residue", "--config", "{cfg}", "--out"], 1, "err",
                      "argument --out: expected one argument", False),
    "unknown-command": (["bogus", "--config", "{cfg}", "--out", "{out}"], 1, "err",
                        "invalid choice: 'bogus'", False),
    "unknown-flag": (["residue", "--config", "{cfg}", "--out", "{out}", "--bogus", "x"], 1, "err",
                     "unrecognized arguments: --bogus x", False),
}


@pytest.mark.parametrize("form", list(ARGV_FORMS))
def test_argv_forms(tmp_path, capsys, form):
    argv, code, stream, phrase, writes = ARGV_FORMS[form]
    cfg = write(tmp_path, MULTIPLIER)
    out = tmp_path / "r"
    argv = [word.format(cfg=cfg, out=out, tmp=tmp_path) for word in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert phrase in getattr(captured, stream)
    if code == 0:
        assert captured.err == ""
    else:
        assert captured.err.startswith("usage: nclab")
        assert "error: " in captured.err
    if writes:  # every writing form is --quiet
        assert captured.out == ""
    assert (out / "residue.json").exists() == writes
    assert out.exists() == writes
    assert not (tmp_path / "first").exists()


def test_cli_imports_no_argparse_gettext_or_locale(tmp_path):
    cfg = write(tmp_path, MULTIPLIER)
    argv = ["residue", "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"]
    code = (
        "import sys\n"
        "from nclab.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "sys.exit(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)) or None)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(CONFIGS.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_band_limited_runs_import_no_numpy_fft(tmp_path):
    # the band's tap product replaces the FFT; numpy 1.x loads numpy.fft
    # on `import numpy` itself, where there is nothing to check
    cfg = str(CONFIGS / "identity_check.cfg")
    out = str(tmp_path / "r")
    code = (
        "import sys\n"
        "import numpy\n"
        "eager = 'numpy.fft' in sys.modules\n"
        "from nclab.cli import main\n"
        "for command in ('connes', 'verify-identity', 'quantize'):\n"
        f"    assert main([command, '--config', {cfg!r}, '--out', {out!r}, '--quiet']) == 0\n"
        "    print(command, eager, 'numpy.fft' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(CONFIGS.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    if lines[0].split()[1] == "True":
        pytest.skip("import numpy already loads numpy.fft")
    # verify-identity prints its deviations to stdout even when quiet
    assert [line for line in lines if not line.startswith("conjugation")] == [
        "connes False False",
        "verify-identity False False",
        "quantize False False",
    ]


def test_connes_happy_path(tmp_path, capsys):
    cfg = write(tmp_path, MULTIPLIER)
    out = tmp_path / "r"
    assert main(["connes", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "connes.json").read_text())
    assert data["residue_lattice"] == pytest.approx(2.0)
    assert abs(data["spectral_estimate"] - 2.0) < 0.05
    assert (out / "spectrum.csv").exists()


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_convention_flag_is_residue_only(command, tmp_path, capsys):
    # every command refuses the flag: residue.json carries both conventions
    cfg = write(tmp_path, MULTIPLIER)
    args = [command, "--config", cfg, "--out", str(tmp_path / "r"), "--convention", "paper"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: nclab {command} ")
    assert err.endswith(f"nclab {command}: error: unrecognized arguments: --convention paper\n")
    assert not (tmp_path / "r").exists()


def test_unparsable_expression_exits_1(tmp_path, capsys):
    cfg = write(tmp_path, MULTIPLIER.replace("<xi>^(-1)", "cos("))
    code = main(["residue", "--config", cfg, "--out", str(tmp_path / "r")])
    assert code == 1
    err = capsys.readouterr().err
    assert "offset" in err
    assert not (tmp_path / "r").exists()


def test_grammar_help_lists_exactly_the_config_keys():
    config_help = GRAMMAR_HELP.split("config format", 1)[1]
    sections = dict(re.findall(r"^    \[(\w+)\]\s+(.*(?:\n {17}.*)*)", config_help, re.M))
    assert set(sections) == set(KEYS)
    for section, text in sections.items():
        text = re.sub(r"\(.*?\)|term_j = .*|term_\d+|\.\.\.", " ", text)
        assert set(re.findall(r"\w+", text)) == set(KEYS[section]), section


@pytest.mark.parametrize("command", ["residue", "connes"])
@pytest.mark.parametrize("setting", ["residue_q = 0", "residue_q = -2", "sphere_order = 0"])
def test_quadrature_sizes_below_one_exit_1_without_output(tmp_path, capsys, command, setting):
    cfg = write(tmp_path, COSINE + "[quadrature]\n" + setting + "\n")
    out = tmp_path / "r"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 1
    key, value = (part.strip() for part in setting.split("="))
    assert capsys.readouterr().err == f"error: line 10: {key} must be >= 1, got '{value}'\n"
    assert not out.exists()


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


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_identity_without_interior_writes_null(tmp_path, capsys):
    # b = 2 > M = 1: no index lies in the interior |index| <= M - b
    cfg = write(tmp_path, "[symbol]\nn = 1\nmain = (1+0.5*cos(2*pi*2*x1))*<xi>^(-1)\n"
                          "order = -1\n[lattice]\nM = 1\n")
    assert main(["verify-identity", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
    assert "interior deviation n/a (bandwidth 2)" in capsys.readouterr().out
    text = (tmp_path / "r" / "identity.json").read_text()
    data = json.loads(text, parse_constant=_refuse_constant)
    assert data["interior_deviation"] is None
    assert data["bandwidth"] == 2
    assert data["full_deviation"] <= 1e-15


def test_symbol_check_writes_null_for_an_exponent_without_decay(tmp_path, capsys):
    # a constant symbol's differences vanish: no shell carries a sup to fit
    cfg = write(tmp_path, "[symbol]\nn = 1\nmain = 1\norder = 0\n[lattice]\nM = 8\n")
    assert main(["symbol-check", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
    assert "alpha=[1] beta=[0]  sup_ratio=0  exponent=n/a  residual=n/a" in capsys.readouterr().out
    text = (tmp_path / "r" / "symbol_check.json").read_text()
    reports = json.loads(text, parse_constant=_refuse_constant)["reports"]
    assert [r["fitted_exponent"] for r in reports] == [0.0, None, None]
    assert [r["residual"] for r in reports] == [0.0, None, None]


def test_json_reports_refuse_non_finite_values(tmp_path):
    with pytest.raises(NonConvergenceError, match="report.json"):
        _write_json(tmp_path / "report.json", {"value": float("nan")})
    assert not (tmp_path / "report.json").exists()


def test_quantize_exports(tmp_path):
    cfg = write(tmp_path, COSINE + "\n[output]\nmatrix_format = both\n")
    out = tmp_path / "r"
    assert main(["quantize", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert (out / "matrix.bin").read_bytes()[:4] == b"NCRM"
    # every entry has its row, zeros included, and reads back as matrix.bin
    A = read_matrix_binary(out / "matrix.bin")
    S = A.box.size
    lines = (out / "matrix.csv").read_text().splitlines()
    assert lines[0] == "row,col,re,im" and len(lines) == 1 + S * S
    rows = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    index = np.arange(S)
    assert np.array_equal(rows[:, 0], np.repeat(index, S))
    assert np.array_equal(rows[:, 1], np.tile(index, S))
    assert np.array_equal(rows[:, 2] + 1j * rows[:, 3], A.entries.ravel())


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


@pytest.mark.parametrize("n, order", [(1, -0.75), (2, -1.75)])
def test_dixmier_refuses_an_order_above_minus_n(tmp_path, monkeypatch, capsys, n, order):
    # above -n the operator is not in L^(1,inf): the fitted estimate grows with M
    def refuse(*args, **kwargs):
        raise AssertionError("spectrum built")

    monkeypatch.setattr("nclab.cli.build_spectrum", refuse)
    text = f"[symbol]\nn = {n}\nmain = <xi>^({order})\norder = {order}\n\n[lattice]\nM = 8\n"
    cfg = write(tmp_path, text)
    out = tmp_path / "r"
    assert main(["dixmier", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: dixmier needs order at most -{n}, got {order}: "
        f"above -{n} the operator is not in L^(1,inf)\n"
    )
    assert not (out / "dixmier.json").exists()


@pytest.mark.parametrize("text", [MULTIPLIER, COSINE], ids=["diagonal", "assembled"])
def test_dixmier_and_connes_report_the_same_fit(tmp_path, text):
    cfg = write(tmp_path, text)
    out = tmp_path / "r"
    for command in ("dixmier", "connes"):
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
    dixmier = json.loads((out / "dixmier.json").read_text())
    connes = json.loads((out / "connes.json").read_text())
    assert dixmier["trace_estimate"] == connes["spectral_estimate"]
    for key in ("fit_window", "fit_rms", "stability_span", "min_eigenvalue"):
        assert dixmier[key] == connes[key], key


def test_positivity_warning_prints_once(tmp_path):
    # a fresh process, so a Python warning would reach stderr as it does for a user
    cfg = write(tmp_path, NEGATIVE)
    env = dict(os.environ, PYTHONPATH=str(CONFIGS.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "nclab.cli", "connes", "--config", cfg, "--out", str(tmp_path / "r")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    lines = [line for line in proc.stderr.splitlines() if "positivity" in line]
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("warning: minimum eigenvalue")


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
def test_oversize_matrix_exits_1_before_allocating(tmp_path, monkeypatch, capsys, command):
    import nclab.quantize as quantize

    def refuse(*args):
        raise AssertionError("assembly started")

    monkeypatch.setattr(quantize, "_coefficient_blocks", refuse)
    cfg = write(tmp_path, OVERSIZE)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    # connes and verify-identity keep bands of half-width 1 + 4001 = 4002,
    # never the dense matrix; quantize exports the dense matrix
    what = "a dense 16008001 x 16008001 complex matrix" if command == "quantize" else (
        "a band of 16008001 x 8005 complex entries")
    assert err.startswith(f"error: {what} needs")
    assert err.endswith("of physical memory\n")
    assert err.count("\n") == 1


def test_banded_connes_is_sized_by_its_band(tmp_path, monkeypatch, capsys):
    # at M = 2048 the dense matrix takes 16 * 4097^2 B = 268.6 MB and
    # the band of half-width 1 takes 16 * 4097 * 3 B = 197 kB
    import nclab.lattice as lattice
    import nclab.spectral as spectral

    if spectral._zhbevd() is None:
        pytest.skip("numpy ships no LAPACKE zhbevd: connes would need the dense matrix")
    monkeypatch.setattr(lattice, "_physical_memory", lambda: 200 * 10**6)
    cfg = write(tmp_path, COSINE.replace("M = 24", "M = 2048"))
    assert main(["connes", "--config", cfg, "--out", str(tmp_path / "c"), "--quiet"]) == 0
    data = json.loads((tmp_path / "c" / "connes.json").read_text())
    assert data["relative_deviation"] <= 1e-4
    assert main(["quantize", "--config", cfg, "--out", str(tmp_path / "q")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a dense 4097 x 4097 complex matrix needs 0.3 GiB, more than the 0.2 GiB")
    assert not (tmp_path / "q" / "matrix.csv").exists()


@pytest.mark.parametrize("command", list(_COMMANDS))
@pytest.mark.parametrize(
    "text",
    [MULTIPLIER + "\n[quadrature]\nQ = 7\n", COSINE + "\n[quadrature]\nQ = 7\n"],
    ids=["diagonal", "assembled"],
)
def test_odd_grid_size_is_fatal_with_its_line(tmp_path, capsys, command, text):
    # assembly picks its grid (quantize.sampling_grid): a Q line is an unknown key
    cfg = write(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: line 11: unknown key 'Q' in [quadrature]\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["spectrum", "dixmier", "connes"])
def test_oversize_diagonal_run_is_refused_before_enumeration(tmp_path, monkeypatch, capsys, command):
    # (2 * 10^9 + 1)^2 box points; enumerating any of them fails the test
    import nclab.lattice as lattice

    def refuse(*axes, **kwargs):
        raise AssertionError("box enumerated")

    monkeypatch.setattr(lattice, "_physical_memory", lambda: 4 * 2**30)
    monkeypatch.setattr(lattice.np, "meshgrid", refuse)
    text = MULTIPLIER.replace("n = 1", "n = 2").replace("-1", "-2").replace("M = 1500", "M = 1000000000")
    cfg = write(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"error: a box of 4000000004000000001 lattice points needs [\d.]+ GiB, "
        r"more than the 4\.0 GiB of physical memory\n",
        err,
    )


@pytest.mark.parametrize("command", ["spectrum", "dixmier", "quantize", "verify-identity", "symbol-check"])
def test_box_past_int64_indexing_exits_1(tmp_path, capsys, command):
    # 3^3000 points: the memory check's message overflowed a float, and
    # symbol-check failed inside numpy
    text = MULTIPLIER.replace("n = 1", "n = 3000").replace("-1", "-3000").replace("M = 1500", "M = 1")
    cfg = write(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: box [-1,1]^3000 has 2^63 or more lattice points, past int64 indexing\n"


@pytest.mark.parametrize("n, M, size", [(20, 1, 3**20), (2, 100_000, 200_001**2)])
def test_oversize_seminorm_window_is_refused_before_enumeration(tmp_path, monkeypatch, capsys, n, M, size):
    import nclab.lattice as lattice

    def refuse(*axes, **kwargs):
        raise AssertionError("box enumerated")

    monkeypatch.setattr(lattice, "_physical_memory", lambda: 4 * 2**30)
    monkeypatch.setattr(lattice.np, "meshgrid", refuse)
    text = MULTIPLIER.replace("n = 1", f"n = {n}").replace("-1", f"-{n}").replace("M = 1500", f"M = {M}")
    cfg = write(tmp_path, text)
    assert main(["symbol-check", "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"]) == 1
    assert re.fullmatch(
        rf"error: a box of {size} lattice points needs [\d.]+ GiB, "
        r"more than the 4\.0 GiB of physical memory\n",
        capsys.readouterr().err,
    )


def test_oversize_seminorm_torus_grid_is_refused_before_it_is_built(tmp_path, monkeypatch, capsys):
    # n = 8: a 6,561-point window, but 16^8 torus points for an x-dependent symbol
    import nclab.lattice as lattice
    import nclab.symbols as symbols

    def refuse(n, q):
        raise AssertionError("torus grid built")

    monkeypatch.setattr(lattice, "_physical_memory", lambda: 4 * 2**30)
    monkeypatch.setattr(symbols, "torus_grid", refuse)
    text = COSINE.replace("n = 1", "n = 8").replace("<xi>^(-1)", "(1+|xi|^2)^(-4)").replace("-1", "-8")
    cfg = write(tmp_path, text.replace("M = 24", "M = 1"))
    assert main(["symbol-check", "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"]) == 1
    assert re.fullmatch(
        r"error: a torus grid of 4294967296 points needs [\d.]+ GiB, "
        r"more than the 4\.0 GiB of physical memory\n",
        capsys.readouterr().err,
    )


@pytest.mark.parametrize("command", ["residue", "connes"])
def test_oversize_residue_torus_grid_is_refused_before_it_is_built(tmp_path, monkeypatch, capsys, command):
    # an x-dependent symbol at residue_q = 2^28: 2^28 torus points, 8 GiB
    import nclab.lattice as lattice
    import nclab.residue as residue

    def refuse(n, q):
        raise AssertionError("torus grid built")

    monkeypatch.setattr(lattice, "_physical_memory", lambda: 4 * 2**30)
    monkeypatch.setattr(residue, "torus_grid", refuse)
    cfg = write(tmp_path, COSINE + "[quadrature]\nresidue_q = 268435456\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"]) == 1
    assert re.fullmatch(
        r"error: a torus grid of 268435456 points needs 8\.0 GiB, "
        r"more than the 4\.0 GiB of physical memory\n",
        capsys.readouterr().err,
    )


def test_oversize_assembly_torus_grid_is_refused_before_it_is_built(tmp_path, monkeypatch, capsys):
    # no known band: assembly samples the default grid, 64^2 points and
    # 192 KiB of coordinates and samples, against 64 KiB
    import nclab.lattice as lattice
    import nclab.quantize as quantize

    def refuse(n, q):
        raise AssertionError("torus grid built")

    monkeypatch.setattr(lattice, "_physical_memory", lambda: 64 * 2**10)
    monkeypatch.setattr(quantize, "torus_grid", refuse)
    text = ("[symbol]\nn = 2\nmain = exp(cos(2*pi*x1))*(1+|xi|^2)^(-1)\norder = -2\n"
            "[lattice]\nM = 2\n")
    cfg = write(tmp_path, text)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"]) == 1
    assert re.fullmatch(
        r"error: a torus grid of 4096 points needs 0\.0 GiB, "
        r"more than the 0\.0 GiB of physical memory\n",
        capsys.readouterr().err,
    )


@pytest.mark.parametrize("expr", ["(" * 400 + "<xi>^(-1)" + ")" * 400, "cos(" * 300 + "xi1" + ")" * 300],
                         ids=["groups", "calls"])
def test_deep_nesting_exits_1_with_one_line(tmp_path, capsys, expr):
    cfg = write(tmp_path, MULTIPLIER.replace("<xi>^(-1)", expr))
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "at most 100 levels of nesting" in err
    assert err.count("\n") == 1


def test_identity_check_config_pinned_near_achieved_deviation(tmp_path):
    # achieved: full deviation 1.5e-17
    out = tmp_path / "r"
    cfg = str(CONFIGS / "identity_check.cfg")
    assert main(["verify-identity", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    data = json.loads((out / "identity.json").read_text())
    assert data["full_deviation"] <= 1e-15


def test_multiplier_config_verifies_in_band_storage(tmp_path):
    # S = 40001: two dense matrices would take 47.7 GiB, the two
    # diagonals 1.3 MB; the x-free symbol's identity holds exactly
    out = tmp_path / "r"
    cfg = str(CONFIGS / "multiplier_1d.cfg")
    assert main(["verify-identity", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    data = json.loads((out / "identity.json").read_text())
    assert data["full_deviation"] == 0
    assert data["bandwidth"] == 0


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


def test_truncation_sweep_prints_the_sharpness_table():
    # above -n the estimate rises with M, below it falls, and at -n it
    # holds near the residue (2 in 1-D, pi in 2-D)
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "truncation_sweep.py"), "--sharpness"],
        check=True, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    assert [line for line in lines if line.startswith("n = ")] == [
        "n = 1: <xi>^(order), trace estimate by M",
        "n = 2: <xi>^(order), trace estimate by M",
    ]
    rows = [line.split() for line in lines if not line.startswith(("n = ", "  order"))]
    assert [row[0] for row in rows] == ["-0.75", "-1.00", "-1.25", "-1.75", "-2.00", "-2.25"]
    estimates = [[float(v) for v in row[1:-2]] for row in rows]  # one column per M
    assert [len(row) for row in estimates] == [3, 3, 3, 2, 2, 2]
    for rising, holding, falling, residue in (estimates[0:3] + [2.0], estimates[3:6] + [np.pi]):
        assert rising[-1] > rising[0] > holding[0] > falling[0] > falling[-1]
        assert abs(holding[-1] - residue) < 0.01 * residue


@pytest.mark.parametrize("text, discard", [(MULTIPLIER, 0.0), (COSINE, 0.5)], ids=["diagonal", "assembled"])
def test_fit_window_study_reports_the_connes_fit(tmp_path, text, discard):
    # the f0 = 0.20 row in the column of the path's own discard is connes's fit
    cfg = write(tmp_path, text)
    out = tmp_path / "r"
    assert main(["connes", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    want = json.loads((out / "connes.json").read_text())["spectral_estimate"]
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "fit_window_study.py"), "--config", cfg],
        check=True, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    discards = lines[1].split()[3:]  # after "f0 \ discard"
    row = next(line for line in lines if line.startswith("0.20 "))
    cells = [row[13 + 12 * j : 25 + 12 * j] for j in range(len(discards))]
    assert cells[discards.index(f"{discard:.2f}")] == f"{want:>12.5f}"
