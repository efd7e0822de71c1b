"""Acceptance suite: each criterion runs at its stated tolerance and
prints one pass/fail line (run with `pytest -s tests/test_acceptance.py`
to see the lines).  End-to-end criteria drive the CLI through config
files; analytic expected values are closed-form oracles."""

import json
import math
import time

import numpy as np
import pytest

from nclab.cli import main
from nclab.dsl import ParseError, parse, to_symbol, unparse
from nclab.lattice import TruncationBox
from nclab.quantize import QuadratureGrid, adjoint, assemble_discrete, assemble_toroidal
from nclab.residue import noncommutative_residue
from nclab.spectral import l1inf_norm, matrix_sequence
from nclab.symbols import TOROIDAL, flip


def _report(name: str, ok: bool, detail: str, elapsed: float) -> None:
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail} [{elapsed:.2f}s]")


def _run_cli(tmp_path, command, cfg_text, out_name="out"):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / out_name
    code = main([command, "--config", str(cfg), "--out", str(out), "--quiet"])
    assert code == 0, f"CLI exited {code}"
    return out


def test_a1_multiplier_connes_equality(tmp_path):
    t0 = time.time()
    out = _run_cli(
        tmp_path,
        "connes",
        "[symbol]\nn = 1\nmain = <xi>^(-1)\norder = -1\nterm_0 = -1 ; 1\n"
        "[lattice]\nM = 20000\n",
    )
    data = json.loads((out / "connes.json").read_text())
    elapsed = time.time() - t0
    c, r = data["spectral_estimate"], 2.0
    ok = abs(c - r) / r <= 0.05 and data["residue_lattice"] == pytest.approx(2.0)
    ok = ok and elapsed < 5.0
    _report("A1", ok, f"c={c:.5f} vs r=2 (dev {abs(c - r) / r:.2e}), diagonal path", elapsed)
    assert abs(c - r) / r <= 0.05
    assert data["residue_lattice"] == pytest.approx(2.0, abs=1e-12)
    assert elapsed < 5.0


def test_a2_multiplier_2d(tmp_path):
    t0 = time.time()
    out = _run_cli(
        tmp_path,
        "connes",
        "[symbol]\nn = 2\nmain = (1+|xi|^2)^(-1)\norder = -2\nterm_0 = -2 ; 1\n"
        "[lattice]\nM = 200\n",
    )
    data = json.loads((out / "connes.json").read_text())
    elapsed = time.time() - t0
    c, r = data["spectral_estimate"], math.pi
    ok = abs(c - r) / r <= 0.05 and elapsed < 30.0
    _report("A2", ok, f"c={c:.5f} vs r=pi (dev {abs(c - r) / r:.2e}), 160801 eigenvalues", elapsed)
    assert data["residue_lattice"] == pytest.approx(math.pi, abs=1e-12)
    assert abs(c - r) / r <= 0.05
    assert elapsed < 30.0


def test_a3_residue_quadrature_exactness():
    t0 = time.time()
    a1 = to_symbol("<xi>^(-1)", n=1, order=-1, classical_terms=[(-1, "1")], side=TOROIDAL)
    v1 = noncommutative_residue(a1, 1).value
    a2 = to_symbol(
        "(1+0.5*cos(2*pi*x1))*<xi>^(-1)",
        n=1, order=-1,
        classical_terms=[(-1, "1+0.5*cos(2*pi*x1)")],
        side=TOROIDAL,
    )
    v2 = noncommutative_residue(a2, 1).value
    a3 = to_symbol(
        "xi1^2*(1+|xi|^2)^(-2)", n=2, order=-2,
        classical_terms=[(-2, "theta1^2")], side=TOROIDAL,
    )
    rep3 = noncommutative_residue(a3, 2)
    moment = 2.0 * float(np.real(rep3.value))  # undo the 1/n prefactor: sphere x torus moment
    elapsed = time.time() - t0
    ok = (
        abs(v1 - 2.0) <= 1e-10
        and abs(v2 - 2.0) <= 1e-10
        and abs(moment - math.pi) <= 1e-10
        and elapsed < 1.0
    )
    _report("A3", ok, f"values {v1:.12f}, {v2:.12f}, cos^2 moment {moment:.12f}", elapsed)
    assert abs(v1 - 2.0) <= 1e-10
    assert abs(v2 - 2.0) <= 1e-10
    assert abs(moment - math.pi) <= 1e-10
    assert elapsed < 1.0


COSINE_SYMBOL = (
    "[symbol]\nn = 1\nmain = (1+0.5*cos(2*pi*x1))*<xi>^(-1)\norder = -1\n"
    "term_0 = -1 ; 1+0.5*cos(2*pi*x1)\n"
)


def test_a4_x_dependent_connes(tmp_path):
    t0 = time.time()
    out = _run_cli(
        tmp_path,
        "connes",
        COSINE_SYMBOL + "[lattice]\nM = 1024\n[fit]\nsymmetrize = true\n",
    )
    data = json.loads((out / "connes.json").read_text())
    elapsed = time.time() - t0
    c, span = data["spectral_estimate"], data["stability_span"]
    ok = abs(c - 2.0) / 2.0 <= 0.10 and span <= 0.15 and elapsed < 60.0
    _report("A4", ok, f"c={c:.5f} vs r=2, span={span:.2e}, symmetrized 2049x2049", elapsed)
    assert data["symmetrized"] is True
    assert data["residue_lattice"] == pytest.approx(2.0, abs=1e-12)
    assert abs(c - 2.0) / 2.0 <= 0.10
    assert span <= 0.15
    assert elapsed < 60.0


def test_a5_conjugation_identity(tmp_path):
    t0 = time.time()
    out = _run_cli(
        tmp_path,
        "verify-identity",
        COSINE_SYMBOL + "[lattice]\nM = 64\n[quadrature]\nQ = 512\n",
    )
    data = json.loads((out / "identity.json").read_text())
    elapsed = time.time() - t0
    dev = data["interior_deviation"]
    ok = dev <= 1e-12 and elapsed < 10.0
    _report("A5", ok, f"interior deviation {dev:.2e} (full {data['full_deviation']:.2e})", elapsed)
    assert dev <= 1e-12
    assert elapsed < 10.0


def test_a6_unitary_invariance_of_spectra():
    t0 = time.time()
    sigma = to_symbol(
        "(1+0.5*cos(2*pi*x1))*<xi>^(-1)", n=1, order=-1,
        classical_terms=[(-1, "1+0.5*cos(2*pi*x1)")],
    )
    box = TruncationBox(1, 64)
    grid = QuadratureGrid(1, 512)
    s_direct, _, _ = matrix_sequence(assemble_discrete(sigma, box, grid), symmetrize=False)
    s_via, _, _ = matrix_sequence(adjoint(assemble_toroidal(flip(sigma), box, grid)), symmetrize=False)
    elapsed = time.time() - t0
    gap = float(np.max(np.abs(s_direct - s_via)))
    ok = gap <= 1e-10 * s_direct[0] and elapsed < 10.0
    _report("A6", ok, f"max singular-value gap {gap:.2e} vs tol {1e-10 * s_direct[0]:.2e}", elapsed)
    assert gap <= 1e-10 * s_direct[0]
    assert elapsed < 10.0


def test_a7_trace_class_vanishing(tmp_path):
    t0 = time.time()
    out = _run_cli(
        tmp_path,
        "dixmier",
        "[symbol]\nn = 1\nmain = <xi>^(-2)\norder = -2\nterm_0 = -2 ; 1\n"
        "[lattice]\nM = 20000\n",
    )
    data = json.loads((out / "dixmier.json").read_text())
    elapsed = time.time() - t0
    c = data["trace_estimate"]
    ok = abs(c) <= 0.02 and elapsed < 5.0
    _report("A7", ok, f"|c|={abs(c):.2e} for the order -2 multiplier", elapsed)
    assert abs(c) <= 0.02
    assert elapsed < 5.0


def test_a8_symbol_class_checker(tmp_path):
    t0 = time.time()
    out = _run_cli(
        tmp_path,
        "symbol-check",
        "[symbol]\nn = 1\nmain = <xi>^(-1)\norder = -1\n[lattice]\nM = 4096\n",
    )
    data = json.loads((out / "symbol_check.json").read_text())
    elapsed = time.time() - t0
    exps = {tuple(r["alpha"]): r["fitted_exponent"] for r in data["reports"]}
    want = {(0,): -1.0, (1,): -2.0, (2,): -3.0}
    ok = all(abs(exps[k] - v) <= 0.1 for k, v in want.items()) and elapsed < 5.0
    detail = ", ".join(f"alpha={k[0]}: {exps[k]:+.3f}" for k in sorted(exps))
    _report("A8", ok, detail + " (window [16, 4096])", elapsed)
    assert data["window"] == [16, 4096]
    for k, v in want.items():
        assert abs(exps[k] - v) <= 0.1
    assert elapsed < 5.0


def test_a9_dixmier_ideal_norm():
    t0 = time.time()
    s_harmonic = 1.0 / np.arange(1, 10001)
    got1 = l1inf_norm(s_harmonic)
    want1 = 1.5 / math.log(2)  # scan oracle: D_N decreasing, sup at N=2
    rank_one = np.zeros(100)
    rank_one[0] = 1.0
    got2 = l1inf_norm(rank_one)
    want2 = 1.0 / math.log(2)
    elapsed = time.time() - t0
    ok = abs(got1 - want1) <= 1e-6 and abs(got2 - want2) <= 1e-12
    _report("A9", ok, f"harmonic {got1:.10f} (H2/ln2), rank-one {got2:.12f} (1/ln2)", elapsed)
    assert abs(got1 - want1) <= 1e-6
    assert abs(got2 - want2) <= 1e-12


def test_a10_parser_robustness():
    from expr_corpus import CORPUS

    t0 = time.time()
    assert len(CORPUS) >= 50
    for text in CORPUS:
        assert parse(unparse(parse(text, 2)), 2) == parse(text, 2)

    rng = np.random.default_rng(20260811)
    survived = 0
    for _ in range(100_000):
        length = int(rng.integers(0, 24))
        data = rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
        text = data.decode("utf-8", errors="replace")
        try:
            parse(text, 2)
        except ParseError:
            pass
        survived += 1
    elapsed = time.time() - t0
    ok = survived == 100_000 and elapsed < 10.0
    _report("A10", ok, f"50-expression round-trip + {survived} fuzz cases, no aborts", elapsed)
    assert survived == 100_000
    assert elapsed < 10.0
