"""Command-line frontend: config-driven, reproducible runs.

Subcommands:

    symbol-check     decay/seminorm report        -> symbol_check.json
    quantize         assemble + export the matrix -> matrix.csv / matrix.bin
    spectrum         singular values              -> spectrum.csv
    dixmier          trace estimate               -> dixmier.json
    residue          residue formula              -> residue.json
    verify-identity  conjugation-identity check   -> identity.json (+ stdout)
    connes           full comparison              -> connes.json + spectrum.csv

Exit codes: 0 success, 1 config/usage error, 2 numerical failure,
3 I/O error.  Outputs are byte-identical for identical config and
binary: fixed field order, %.17g floats, no timestamps.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, build_symbol, load_config
from .dsl import EvalError, ParseError
from .errors import ConfigError, NonConvergenceError, UsageError
from .lattice import TruncationBox
from .pipeline import build_spectrum, connes_report_json, run_connes_check
from .quantize import (
    QuadratureGrid,
    assemble_discrete,
    verify_identity,
    write_matrix_binary,
    write_matrix_csv,
)
from .residue import (
    CONVENTIONS_STANZA,
    dixmier_trace_formula,
    residue_report_json,
    sphere_rule,
)
from .spectral import write_spectrum_csv
from .symbols import Symbol, seminorm_estimate

GRAMMAR_HELP = """\
expression grammar (in `main`, `main_im` and classical terms):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-'? atom ('^' factor)?     # '^' right-assoc, tighter than '-'
    atom   := number | 'pi' | x1..xn | xi1..xin | theta1..thetan
            | cos(e) | sin(e) | exp(e) | abs(e) | '(' e ')' | '|xi|' | '<xi>'

    -x1^2 means -(x1^2); no implicit multiplication; expressions are
    real valued (complex symbols: give `main` and `main_im`).

config format (strict: unknown keys are fatal):

    [symbol]     n, main, order          (mandatory)
                 main_im, rho, delta, term_0, term_1, ...
                 term_j = degree ; angular-expression   (theta1.., x1..)
    [lattice]    M                       (mandatory)
    [quadrature] Q, sphere_order, residue_q
    [fit]        symmetrize
    [output]     dir, matrix_format (csv|binary|both)
"""

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nclab",
        description=__doc__,
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"nclab {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name in _COMMANDS:
        p = sub.add_parser(
            name,
            epilog=GRAMMAR_HELP,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("--config", required=True, help="path to the run config file")
        p.add_argument("--out", help="output directory (default: [output] dir, else ./out)")
        if name == "residue":
            p.add_argument(
                "--convention",
                choices=("lattice", "paper"),
                default="lattice",
                help="residue prefactor convention (default lattice)",
            )
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_help()
        return 0
    try:
        return _dispatch(args)
    except (ConfigError, UsageError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NonConvergenceError, EvalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out or cfg.dir or "./out")
    out_dir.mkdir(parents=True, exist_ok=True)
    sigma = build_symbol(cfg)
    say = (lambda *a, **k: None) if args.quiet else print
    return _COMMANDS[args.command](cfg, sigma, args, out_dir, say)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _cmd_symbol_check(cfg: RunConfig, sigma: Symbol, args, out_dir: Path, say) -> int:
    n, M = cfg.symbol.n, cfg.M
    r_min = 16 if M >= 64 else 0
    combos = [np.zeros(n, dtype=int)]
    for k in (1, 2):
        a = np.zeros(n, dtype=int)
        a[0] = k
        combos.append(a)
    beta = np.zeros(n, dtype=int)
    reports = []
    for alpha in combos:
        rep = seminorm_estimate(sigma, alpha, beta, (r_min, M))
        reports.append(rep)
        say(
            f"alpha={list(rep.alpha)} beta={list(rep.beta)}  "
            f"sup_ratio={rep.sup_ratio:.6g}  exponent={rep.fitted_exponent:+.4f}  "
            f"residual={rep.residual:.3g}"
        )
    payload = {
        "n": n,
        "order": cfg.symbol.order,
        "rho": cfg.symbol.rho,
        "delta": cfg.symbol.delta,
        "window": [r_min, M],
        "reports": [
            {
                "alpha": list(r.alpha),
                "beta": list(r.beta),
                "sup_ratio": r.sup_ratio,
                "fitted_exponent": r.fitted_exponent,
                "residual": r.residual,
            }
            for r in reports
        ],
        "conventions": CONVENTIONS_STANZA,
    }
    _write_json(out_dir / "symbol_check.json", payload)
    say(f"wrote {out_dir / 'symbol_check.json'}")
    return 0


def _cmd_quantize(cfg: RunConfig, sigma: Symbol, args, out_dir: Path, say) -> int:
    box = TruncationBox(cfg.symbol.n, cfg.M)
    A = assemble_discrete(sigma, box, QuadratureGrid.for_box(box, cfg.Q))
    if cfg.matrix_format in ("csv", "both"):
        write_matrix_csv(out_dir / "matrix.csv", A)
        say(f"wrote {out_dir / 'matrix.csv'}")
    if cfg.matrix_format in ("binary", "both"):
        write_matrix_binary(out_dir / "matrix.bin", A)
        say(f"wrote {out_dir / 'matrix.bin'}")
    return 0


def _cmd_spectrum(cfg: RunConfig, sigma: Symbol, args, out_dir: Path, say) -> int:
    run = build_spectrum(sigma, cfg.symbol.n, cfg.M, Q=cfg.Q, symmetrize=cfg.symmetrize)
    write_spectrum_csv(out_dir / "spectrum.csv", run.sequence)
    say(f"wrote {out_dir / 'spectrum.csv'} ({len(run.sequence)} values, "
        f"{'diagonal path' if run.diagonal_path else 'assembled'})")
    return 0


def _cmd_dixmier(cfg: RunConfig, sigma: Symbol, args, out_dir: Path, say) -> int:
    run = build_spectrum(sigma, cfg.symbol.n, cfg.M, Q=cfg.Q, symmetrize=cfg.symmetrize)
    summary = run.fit()
    payload = {
        "n": cfg.symbol.n,
        "M": cfg.M,
        "Q": run.Q,
        "symmetrized": run.symmetrized,
        "diagonal_path": run.diagonal_path,
        "trace_estimate": summary.trace_estimate,
        "intercept": summary.intercept,
        "l1inf_norm": summary.l1inf,
        "fit_window": list(summary.fit_window),
        "fit_rms": summary.fit_rms,
        "stability_span": summary.stability_span,
        "min_eigenvalue": run.min_eigenvalue,
        "conventions": CONVENTIONS_STANZA,
    }
    _write_json(out_dir / "dixmier.json", payload)
    say(f"trace estimate {summary.trace_estimate:.6g} "
        f"(window {summary.fit_window}, rms {summary.fit_rms:.3g})")
    say(f"wrote {out_dir / 'dixmier.json'}")
    return 0


def _cmd_residue(cfg: RunConfig, sigma: Symbol, args, out_dir: Path, say) -> int:
    n = cfg.symbol.n
    rule = sphere_rule(n, cfg.sphere_order)
    rep = dixmier_trace_formula(
        sigma, n, rule=rule, torus_q=cfg.residue_q, convention=args.convention
    )
    write_json_path = out_dir / "residue.json"
    _write_json(write_json_path, residue_report_json(rep))
    say(f"residue ({rep.convention} convention): {rep.value}")
    say(f"wrote {write_json_path}")
    return 0


def _cmd_verify_identity(cfg: RunConfig, sigma: Symbol, args, out_dir: Path, say) -> int:
    box = TruncationBox(cfg.symbol.n, cfg.M)
    rep = verify_identity(sigma, box, QuadratureGrid.for_box(box, cfg.Q))
    print(
        f"conjugation identity at M={cfg.M}, Q={rep.grid_q}: "
        f"full deviation {rep.full_deviation:.6e}, "
        f"interior deviation {rep.interior_deviation:.6e} "
        f"(bandwidth {rep.bandwidth})"
    )
    payload = {
        "n": cfg.symbol.n,
        "M": cfg.M,
        "Q": rep.grid_q,
        "full_deviation": rep.full_deviation,
        "interior_deviation": rep.interior_deviation,
        "bandwidth": rep.bandwidth,
        "conventions": CONVENTIONS_STANZA,
    }
    _write_json(out_dir / "identity.json", payload)
    say(f"wrote {out_dir / 'identity.json'}")
    return 0


def _cmd_connes(cfg: RunConfig, sigma: Symbol, args, out_dir: Path, say) -> int:
    n = cfg.symbol.n
    rule = sphere_rule(n, cfg.sphere_order)
    rep = run_connes_check(
        sigma,
        n,
        cfg.M,
        Q=cfg.Q,
        symmetrize=cfg.symmetrize,
        sphere_rule_=rule,
        residue_q=cfg.residue_q,
    )
    write_spectrum_csv(out_dir / "spectrum.csv", rep.run.sequence)
    _write_json(out_dir / "connes.json", connes_report_json(rep))
    say(
        f"spectral estimate {rep.summary.trace_estimate:.6g} vs residue "
        f"{rep.residue_lattice:.6g} (lattice convention): relative deviation "
        f"{rep.relative_deviation:.3%} ({rep.run.solver} solver)"
    )
    if rep.positivity_warning:
        print(
            f"warning: minimum eigenvalue {rep.run.min_eigenvalue:.3e} is materially "
            "negative; positivity hypothesis violated",
            file=sys.stderr,
        )
    say(f"wrote {out_dir / 'connes.json'} and {out_dir / 'spectrum.csv'}")
    return 0


# subcommand name -> handler, in the order of the help text
_COMMANDS = {
    "symbol-check": _cmd_symbol_check,
    "quantize": _cmd_quantize,
    "spectrum": _cmd_spectrum,
    "dixmier": _cmd_dixmier,
    "residue": _cmd_residue,
    "verify-identity": _cmd_verify_identity,
    "connes": _cmd_connes,
}


if __name__ == "__main__":
    sys.exit(main())
