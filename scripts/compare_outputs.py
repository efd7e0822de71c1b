#!/usr/bin/env python3
"""Run every nclab command on every config against two source trees
and report where their outputs differ.

Usage:
    python scripts/compare_outputs.py SRC_A SRC_B

SRC_A and SRC_B are nclab checkouts (each holding src/nclab).  Every
CLI command runs on every configs/*.cfg of the checkout that holds
this script, on the config of every benchmark workload
(perfbench/workloads.py) at seed WORKLOAD_SEED and on the
BRANCH_CONFIGS, once per tree, as a fresh
`python -m nclab.cli COMMAND --config CFG --out DIR --quiet`.
Runs go one at a time, with BLAS and OpenMP pinned to one thread and
the address space capped at ADDRESS_SPACE bytes, so an oversize run
fails instead of exhausting the machine.  Outputs go to a temporary directory (under $TMPDIR).

One line per run gives both exit codes, both wall times in seconds
(process start to exit) and both peak resident set sizes in MB (the
child's ru_maxrss), so a slowdown or a memory change shows next to
identical outputs; a failed run adds the last line of its stderr.  Every
output file that is missing on one side or not byte-identical is
listed.  For each differing .csv or .json pair
one more line gives the largest difference between paired numbers,
scaled by the largest magnitude in the pair of files and unscaled, and
names every other token that differs: JSON keys, strings, booleans and
integers (such as Q or fit_window), and CSV headers, row counts and
integer columns (a column is numeric when any of its cells is not an
integer literal).  JSON objects pair the keys both files hold, so an
added or removed key is named (`added key torus_Q`) and hides no
number; a changed token is named by its key path (`Q: 16384 -> 4`).
Round-off moves thus read apart from real changes.
The FRONT_END command lines (help, version and usage errors) then run
once per tree, and only their exit codes are compared.  Exits 0 when
every run has the same exit code and byte-identical outputs on both
trees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from nclab.cli import _COMMANDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ADDRESS_SPACE = 4 * 2**30
TIMEOUT_S = 900
WORKLOAD_SEED = 7
THREAD_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Configs for the assembly and residue branches that no shipped config
# reaches: name -> (n, factor, M, declared[, main_im]) of (factor) *
# <xi>^(-n) (for n = 1) or (factor) * (1+|xi|^2)^(-1) (for n = 2), with
# the factor as term_0 when declared is true and main_im as the
# imaginary part when given.  In turn: no known band
# (b = inf) in 1-D and in 2-D, both gathered through the reach-2M stencil
# on the Q^n grid; a band as wide as the box (b >= 2M, the same gather);
# a band on the dense side of quantize.BAND_RATIO (b = M/4); a 2-D band;
# a 2-D product across the axes (degree 1 in each axis, so b = 1); and a
# dense export (b = inf at M = 256): 259,881 of its 263,169 matrix
# entries are not exact zeros, so quantize.write_matrix_csv formats
# nearly every entry and the quantize wall times show its dense case.
# Then a 2-D x-dependent symbol without term_0, whose residue is
# extracted numerically over the full residue_q^n torus grid.  Last, a
# complex x-free multiplier, exp(0.3 i) <xi>^(-1): the diagonal path
# with imaginary parts, symmetrized to its real parts by default.  Then
# the two bands whose tap products (quantize._stencil_taps) differ most
# from an FFT: b = 40 on the q = 82 grid in 1-D, on the dense side of
# quantize.BAND_RATIO, and a 2-D product of degree 3 per axis (q = 8).
# Last, an odd real multiplier, xi1 <xi>^(-2): its value at the origin
# is +0.0, and a diagonal read through sigma(-0.0) would write -0 into
# spectrum.csv.  Then a factor written in every lexical form that no
# other config uses: trailing-dot and leading-dot numbers, tabs, the
# unicode minus as an operator and inside an exponent, and a signed
# exponent (b = 1, banded).  Then a factor that uses every binary
# operator, with a unary minus after '+' and after '*', so that the
# parser's precedence and associativity decide its value (b = 1,
# banded, values in [1, 1.5]).
BRANCH_CONFIGS = {
    "band_inf_1d": (1, "exp(0.3*cos(2*pi*x1))", 64, True),
    "band_inf_2d": (2, "exp(0.3*cos(2*pi*x1))", 6, True),
    "band_wide_1d": (1, "1+0.5*cos(2*pi*100*x1)", 32, True),
    "band_dense_1d": (1, "1+0.5*cos(2*pi*16*x1)", 64, True),
    "band_2d": (2, "1+0.5*cos(2*pi*x1)", 12, True),
    "band_2d_cross": (2, "1+0.5*cos(2*pi*x1)*cos(2*pi*x2)", 12, True),
    "dense_export_1d": (1, "exp(0.3*cos(2*pi*x1))", 256, True),
    "no_term_2d": (2, "1+0.5*cos(2*pi*x1)", 8, False),
    "complex_diag_1d": (1, "cos(0.3)", 64, False, "sin(0.3)*<xi>^(-1)"),
    "band_taps_1d": (1, "1+0.5*cos(2*pi*40*x1)", 100, True),
    "band_taps_2d": (2, "1+0.5*cos(2*pi*3*x1)*cos(2*pi*3*x2)", 8, True),
    "odd_diag_1d": (1, "xi1*<xi>^(-1)", 64, False),
    "lexer_forms_1d": (1, "1.\t\u2212\t2.5e\u22121*cos(2*pi*x1)+.0e+0", 64, True),
    "ops_forms_1d": (1, "1-0.5*cos(2*pi*x1)/2^1+-0.5^2*-1", 64, True),
}
# label -> command line of a front-end run, made once per tree with
# {cfg} a shipped config and {out} a fresh directory; only the exit
# codes are compared, since help text may be laid out differently
FRONT_END = {
    "help": ["--help"],
    "version": ["--version"],
    "missing-config": ["residue", "--out", "{out}"],
    "unknown-flag": ["residue", "--config", "{cfg}", "--out", "{out}", "--bogus"],
    "residue-convention": ["residue", "--config", "{cfg}", "--out", "{out}", "--convention", "paper"],
}


def branch_config(n: int, factor: str, M: int, declared: bool, main_im: str | None = None) -> str:
    """The config text of one BRANCH_CONFIGS entry."""
    decay = "<xi>^(-1)" if n == 1 else "(1+|xi|^2)^(-1)"
    term = f"term_0 = {-n} ; {factor}\n" if declared else ""
    im = f"main_im = {main_im}\n" if main_im is not None else ""
    return (f"[symbol]\nn = {n}\nmain = ({factor})*{decay}\n{im}order = {-n}\n"
            f"{term}[lattice]\nM = {M}\n")


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run(tree: Path, argv: list[str]) -> tuple[str, str, float, float]:
    """Exit code (or 'timeout'), the last stderr line, the wall seconds
    and the peak RSS in MB of one `nclab` run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **THREAD_PIN)
    args = [sys.executable, "-m", "nclab.cli", *argv]
    # stderr goes to a file, so the child never blocks on a full pipe
    # while this process waits in wait4 for its resource usage
    with tempfile.TemporaryFile("w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, env=env, stdout=subprocess.DEVNULL, stderr=err,
                                preexec_fn=_cap_address_space)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        err.seek(0)
        lines = err.read().strip().splitlines()
    code = "timeout" if wall >= TIMEOUT_S else str(proc.returncode)
    return code, lines[-1] if lines else "", wall, usage.ru_maxrss / 1024


def differing_files(a: Path, b: Path) -> list[str]:
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    return [
        name for name in names
        if not ((a / name).is_file() and (b / name).is_file()
                and (a / name).read_bytes() == (b / name).read_bytes())
    ]


INTEGER = re.compile(r"-?\d+")
# numeric_summary names at most this many differing non-float tokens
SHOWN_CHANGES = 5


def _float(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _json_pairs(a, b, path=""):
    """Yield (x, y) for paired JSON floats and, for each other
    difference, a text naming it by its key path: `Q: 16384 -> 4`,
    `added key torus_Q`, `removed key value`.  Objects pair the keys
    both hold, in a's order."""
    if isinstance(a, float) and isinstance(b, float):
        yield a, b
    elif isinstance(a, dict) and isinstance(b, dict):
        def at(key):
            return f"{path}.{key}" if path else key

        if [key for key in a if key in b] != [key for key in b if key in a]:
            yield f"key order of {path or 'the top level'} differs"
        for key in a:
            if key in b:
                yield from _json_pairs(a[key], b[key], at(key))
            else:
                yield f"removed key {at(key)}"
        for key in b:
            if key not in a:
                yield f"added key {at(key)}"
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_pairs(x, y, f"{path}[{i}]")
    elif type(a) is not type(b) or a != b:
        yield f"{path or 'top level'}: {json.dumps(a)} -> {json.dumps(b)}"


def _csv_pairs(a: Path, b: Path):
    """As _json_pairs, for the cells of numeric columns, with other
    differences named by line and column; streams both files, so a
    matrix of millions of rows stays small in memory."""
    numeric = set()
    for path in (a, b):
        with open(path) as fh:
            next(fh, None)  # header
            for line in fh:
                numeric.update(j for j, cell in enumerate(line.rstrip("\n").split(","))
                               if not INTEGER.fullmatch(cell))
    with open(a) as fa, open(b) as fb:
        for line, (la, lb) in enumerate(itertools.zip_longest(fa, fb), 1):
            if la is None or lb is None:
                yield f"row counts differ from line {line}"
                return
            ca, cb = la.rstrip("\n").split(","), lb.rstrip("\n").split(",")
            if len(ca) != len(cb):
                yield f"line {line}: {len(ca)} -> {len(cb)} cells"
            for j, (x, y) in enumerate(zip(ca, cb)):
                fx, fy = _float(x), _float(y)
                if j in numeric and fx is not None and fy is not None:
                    yield fx, fy
                elif x != y:
                    yield f"line {line} column {j}: {x} -> {y}"


def numeric_summary(a: Path, b: Path) -> str:
    """The largest paired difference over the largest magnitude, the
    largest difference itself (round-off next to values near 0 reads
    small there, large scaled), and the first SHOWN_CHANGES other
    tokens that differ, of two .csv or .json files."""
    if a.suffix == ".json":
        pairs = _json_pairs(json.loads(a.read_text()), json.loads(b.read_text()))
    else:
        pairs = _csv_pairs(a, b)
    diff = scale = 0.0
    shown, hidden = [], 0  # other differences, the first SHOWN_CHANGES by name
    for pair in pairs:
        if isinstance(pair, str):
            if len(shown) < SHOWN_CHANGES:
                shown.append(pair)
            else:
                hidden += 1
            continue
        x, y = pair
        if not (x == y or (math.isnan(x) and math.isnan(y))):
            d = abs(x - y)
            diff = max(diff, d if math.isfinite(d) else math.inf)
        scale = max(scale, *(abs(v) for v in pair if math.isfinite(v)), 0.0)
    scaled = diff / scale if scale else diff
    others = "identical"
    if shown:
        others = "DIFFER: " + "; ".join(shown) + (f"; and {hidden} more" if hidden else "")
    return (f"largest numeric difference {scaled:.2e} of max |value| {scale:.6g} "
            f"({diff:.2e} absolute), other tokens {others}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("src_a", type=Path)
    ap.add_argument("src_b", type=Path)
    args = ap.parse_args()
    trees = (args.src_a.resolve(), args.src_b.resolve())
    for tree in trees:
        if not (tree / "src" / "nclab").is_dir():
            ap.error(f"{tree} holds no src/nclab")

    mismatches = 0
    with tempfile.TemporaryDirectory(prefix="nclab-compare-") as tmp:
        configs = sorted((ROOT / "configs").glob("*.cfg"))
        written = [(name, workload.config(WORKLOAD_SEED)) for name, workload in WORKLOADS.items()]
        written += [(name, branch_config(*spec)) for name, spec in BRANCH_CONFIGS.items()]
        for name, text in written:
            config = Path(tmp) / "generated" / f"{name}.cfg"
            config.parent.mkdir(exist_ok=True)
            config.write_text(text, encoding="utf-8")  # as load_config reads it
            configs.append(config)
        for config in configs:
            for command in _COMMANDS:
                outs = [Path(tmp) / side / config.stem / command for side in "ab"]
                for out in outs:
                    out.mkdir(parents=True)
                (code_a, err_a, wall_a, rss_a), (code_b, err_b, wall_b, rss_b) = (
                    run(tree, [command, "--config", str(config), "--out", str(out), "--quiet"])
                    for tree, out in zip(trees, outs)
                )
                diff = differing_files(*outs)
                same = code_a == code_b and not diff
                mismatches += not same
                line = (f"{'same' if same else 'DIFF'}  {config.name} {command}: "
                        f"exit {code_a}/{code_b}, {wall_a:.2f}/{wall_b:.2f} s, "
                        f"{rss_a:.1f}/{rss_b:.1f} MB peak RSS")
                if diff:
                    line += f", files differ: {', '.join(diff)}"
                print(line, flush=True)
                for name in diff:
                    pair = [out / name for out in outs]
                    if pair[0].suffix in (".csv", ".json") and all(p.is_file() for p in pair):
                        print(f"      {name}: {numeric_summary(*pair)}", flush=True)
                for side, code, err in (("a", code_a, err_a), ("b", code_b, err_b)):
                    if code != "0":
                        print(f"      {side}: {err}", flush=True)
        for label, argv in FRONT_END.items():
            codes = [
                run(tree, [word.format(cfg=configs[0], out=Path(tmp) / side / "front-end" / label)
                           for word in argv])[0]
                for side, tree in zip("ab", trees)
            ]
            same = codes[0] == codes[1]
            mismatches += not same
            print(f"{'same' if same else 'DIFF'}  front-end {label}: exit {codes[0]}/{codes[1]}",
                  flush=True)
    print(f"{mismatches} run(s) differ")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
