"""Command-line frontend: config-driven, reproducible runs.

    nclab COMMAND --config PATH [--out DIR] [--quiet]

Commands:

    symbol-check     decay/seminorm report        -> symbol_check.json
    quantize         assemble + export the matrix -> matrix.csv / matrix.bin
    spectrum         singular values              -> spectrum.csv
    dixmier          trace estimate               -> dixmier.json
    residue          residue formula              -> residue.json
    verify-identity  conjugation-identity check   -> identity.json (+ stdout)
    connes           full comparison              -> connes.json + spectrum.csv

Options follow the command in any order, as `--opt VALUE` or
`--opt=VALUE`, and may be shortened to any prefix (`--c`); a
repeated option keeps its last value.  `-h`/`--help`, alone or after
a command, prints help; `--version` prints the version.

Exit codes: 0 success (and help), 1 config/usage error, 2 numerical
failure, 3 I/O error.  Outputs are byte-identical for identical config
and binary: fixed field order, no timestamps; JSON floats are Python's
shortest round-trip repr, and the CSV files use %.17g.
"""

from __future__ import annotations

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
    assemble_discrete,
    check_dense,
    sampling_grid,
    verify_identity,
    write_matrix_binary,
    write_matrix_csv,
)
from .residue import (
    CONVENTIONS_STANZA,
    check_dixmier_order,
    dixmier_trace_formula,
    residue_report_json,
    sphere_rule,
)
from .spectral import l1inf_norm, write_spectrum_csv
from .symbols import Symbol, seminorm_estimate

GRAMMAR_HELP = """\
expression grammar (in `main`, `main_im` and classical terms):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-'? atom ('^' factor)?     # '^' right-assoc, tighter than '-'
    atom   := number | 'pi' | x1..xn | xi1..xin | theta1..thetan
            | cos(e) | sin(e) | exp(e) | abs(e) | '(' e ')' | '|xi|' | '<xi>'

    -x1^2 means -(x1^2); no implicit multiplication; expressions are
    real valued (complex symbols: give `main` and `main_im`); at most
    100 levels of nesting (groups, calls, minus signs and operators).

config format (strict: unknown keys are fatal):

    [symbol]     n, main, order          (mandatory)
                 main_im, rho, term_0, term_1, ...
                 term_j = degree ; angular-expression   (theta1.., x1..)
    [lattice]    M                       (mandatory)
    [quadrature] sphere_order, residue_q
    [fit]        symmetrize
    [output]     dir, matrix_format (csv|binary|both)
"""

_PROG = "nclab"

# option -> (name of its value, None for a flag; help); --config is required.
# Each of these, --help and --version starts with its own letter: a prefix matches one.
_OPTIONS = {
    "--config": ("PATH", "path to the run config file"),
    "--out": ("DIR", "output directory (default: [output] dir, else ./out)"),
    "--quiet": (None, "suppress progress output"),
}


class _ArgvError(Exception):
    """A malformed command line: the command it names (or None) and what is wrong."""

    def __init__(self, command, message):
        super().__init__(message)
        self.command = command


def _spelled(name: str) -> str:
    """An option as usage and help show it: `--out DIR`, `--quiet`."""
    metavar = _OPTIONS[name][0]
    return f"{name} {metavar}" if metavar else name


def _usage(command) -> str:
    if command is None:
        return f"usage: {_PROG} [-h] [--version] COMMAND ..."
    words = [_spelled(name) if name == "--config" else f"[{_spelled(name)}]" for name in _OPTIONS]
    return f"usage: {_PROG} {command} [-h] {' '.join(words)}"


def _help(command) -> str:
    if command is None:
        return f"{_usage(None)}\n\n{__doc__}\n{GRAMMAR_HELP}"
    rows = [("-h, --help", "show this help and exit")] + [
        (_spelled(name), text) for name, (_, text) in _OPTIONS.items()
    ]
    width = max(len(flag) for flag, _ in rows) + 2
    table = "".join(f"  {flag:<{width}}{text}\n" for flag, text in rows)
    return f"{_usage(command)}\n\noptions:\n{table}\n{GRAMMAR_HELP}"


def _match(word: str, names) -> str | None:
    """The name in `names` that `word` spells or abbreviates, or None;
    `-h` spells `--help`."""
    if word == "-h":
        word = "--help"
    if not word.startswith("--") or word == "--":
        return None
    return next((name for name in names if name.startswith(word)), None)


def _read_argv(argv: list):
    """(command, option -> value) of a command line, or the text that
    -h/--help or --version asks for; raises _ArgvError."""
    if not argv:
        return _help(None)
    command = argv[0]
    if command.startswith("-"):
        name = _match(command, ("--help", "--version"))
        if name == "--help":
            return _help(None)
        if name == "--version":
            return f"{_PROG} {__version__}"
        raise _ArgvError(None, f"unrecognized arguments: {' '.join(argv)}")
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise _ArgvError(None, f"argument COMMAND: invalid choice: {command!r} (choose from {choices})")
    values = dict.fromkeys(_OPTIONS)
    extras = []
    words = iter(argv[1:])
    for word in words:
        key, eq, value = word.partition("=") if word.startswith("--") else (word, "", "")
        name = _match(key, [*_OPTIONS, "--help"])
        if name is None:
            extras.append(word)
            continue
        if name == "--help":
            return _help(command)
        if _OPTIONS[name][0] is None:
            if eq:
                raise _ArgvError(command, f"argument {name}: ignored explicit argument {value!r}")
            value = True
        elif not eq:
            value = next(words, None)
            if value is None or (value.startswith("-") and value != "-"):
                raise _ArgvError(command, f"argument {name}: expected one argument")
        values[name] = value
    if values["--config"] is None:
        raise _ArgvError(command, "the following arguments are required: --config")
    if extras:
        raise _ArgvError(command, f"unrecognized arguments: {' '.join(extras)}")
    return command, values


def main(argv=None) -> int:
    try:
        parsed = _read_argv(sys.argv[1:] if argv is None else argv)
    except _ArgvError as exc:
        prog = _PROG if exc.command is None else f"{_PROG} {exc.command}"
        print(f"{_usage(exc.command)}\n{prog}: error: {exc}", file=sys.stderr)
        return 1
    if isinstance(parsed, str):
        sys.stdout.write(parsed + "\n")  # one write: a reader such as `head` may close early
        return 0
    try:
        return _dispatch(*parsed)
    except (ConfigError, UsageError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NonConvergenceError, EvalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def _dispatch(command: str, opts: dict) -> int:
    cfg = load_config(opts["--config"])
    sigma = build_symbol(cfg)  # before mkdir: a config error leaves no output directory
    out_dir = Path(opts["--out"] or cfg.dir or "./out")
    out_dir.mkdir(parents=True, exist_ok=True)
    say = (lambda *a, **k: None) if opts["--quiet"] else print
    return _COMMANDS[command](cfg, sigma, out_dir, say)


def _write_json(path: Path, payload: dict) -> None:
    try:  # strict JSON: a NaN or infinity is refused before the file is opened
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonConvergenceError(f"{path.name}: {exc}") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _fmt(value: float | None, spec: str) -> str:  # a report's null prints as n/a
    return "n/a" if value is None else format(value, spec)


def _cmd_symbol_check(cfg: RunConfig, sigma: Symbol, out_dir: Path, say) -> int:
    n, M = cfg.symbol.n, cfg.M
    r_min = 16 if M >= 64 else 0
    combos = [np.zeros(n, dtype=int)]
    for k in (1, 2):
        a = np.zeros(n, dtype=int)
        a[0] = k
        combos.append(a)
    beta = [0] * n  # the x-derivative half of the seminorms is not estimated
    reports = []
    for alpha in combos:
        rep = seminorm_estimate(sigma, alpha, (r_min, M))
        reports.append(rep)
        say(
            f"alpha={list(rep.alpha)} beta={beta}  "
            f"sup_ratio={rep.sup_ratio:.6g}  exponent={_fmt(rep.fitted_exponent, '+.4f')}  "
            f"residual={_fmt(rep.residual, '.3g')}"
        )
    payload = {
        "n": n,
        "order": cfg.symbol.order,
        "rho": cfg.symbol.rho,
        "window": [r_min, M],
        "reports": [
            {
                "alpha": list(r.alpha),
                "beta": beta,
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


def _cmd_quantize(cfg: RunConfig, sigma: Symbol, out_dir: Path, say) -> int:
    box = TruncationBox(cfg.symbol.n, cfg.M)
    check_dense(box)  # the exported files outgrow the dense matrix, even for a band
    A = assemble_discrete(sigma, box, sampling_grid(sigma, box))
    if cfg.matrix_format in ("csv", "both"):
        write_matrix_csv(out_dir / "matrix.csv", A)
        say(f"wrote {out_dir / 'matrix.csv'}")
    if cfg.matrix_format in ("binary", "both"):
        write_matrix_binary(out_dir / "matrix.bin", A)
        say(f"wrote {out_dir / 'matrix.bin'}")
    return 0


def _cmd_spectrum(cfg: RunConfig, sigma: Symbol, out_dir: Path, say) -> int:
    run = build_spectrum(sigma, cfg.symbol.n, cfg.M, symmetrize=cfg.symmetrize)
    write_spectrum_csv(out_dir / "spectrum.csv", run.sequence)
    say(f"wrote {out_dir / 'spectrum.csv'} ({len(run.sequence)} values, "
        f"{'diagonal path' if run.diagonal_path else 'assembled'})")
    return 0


def _cmd_dixmier(cfg: RunConfig, sigma: Symbol, out_dir: Path, say) -> int:
    check_dixmier_order(sigma, cfg.symbol.n)
    run = build_spectrum(sigma, cfg.symbol.n, cfg.M, symmetrize=cfg.symmetrize)
    summary = run.fit()
    payload = {
        "n": cfg.symbol.n,
        "M": cfg.M,
        "Q": run.Q,
        "symmetrized": run.symmetrized,
        "diagonal_path": run.diagonal_path,
        "trace_estimate": summary.trace_estimate,
        "intercept": summary.intercept,
        "l1inf_norm": l1inf_norm(run.sequence),
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


def _cmd_residue(cfg: RunConfig, sigma: Symbol, out_dir: Path, say) -> int:
    n = cfg.symbol.n
    rule = sphere_rule(n, cfg.sphere_order)
    rep = dixmier_trace_formula(sigma, n, rule=rule, torus_q=cfg.residue_q)
    write_json_path = out_dir / "residue.json"
    _write_json(write_json_path, residue_report_json(rep))
    say(f"residue: {rep.value} (lattice convention), {rep.paper_value} (paper convention)")
    say(f"wrote {write_json_path}")
    return 0


def _cmd_verify_identity(cfg: RunConfig, sigma: Symbol, out_dir: Path, say) -> int:
    box = TruncationBox(cfg.symbol.n, cfg.M)
    rep = verify_identity(sigma, box)
    print(
        f"conjugation identity at M={cfg.M}, Q={rep.grid_q}: "
        f"full deviation {rep.full_deviation:.6e}, "
        f"interior deviation {_fmt(rep.interior_deviation, '.6e')} "
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


def _cmd_connes(cfg: RunConfig, sigma: Symbol, out_dir: Path, say) -> int:
    n = cfg.symbol.n
    rule = sphere_rule(n, cfg.sphere_order)
    rep = run_connes_check(
        sigma,
        n,
        cfg.M,
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
    if rep.run.positivity_warning:
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
