#!/usr/bin/env python3
"""Sweep the truncation half-width M and track how the spectral trace
estimate converges to the residue.

Usage:
    python scripts/truncation_sweep.py --config configs/multiplier_1d.cfg \
        --m-values 250,500,1000,2000,4000 --out sweep.csv
    python scripts/truncation_sweep.py --sharpness

Writes one CSV row per M with the estimate, the residue, the relative
deviation, the fit diagnostics, the solver that ran and the seconds
the run took.

--sharpness prints instead the trace estimate of build_spectrum(...).fit()
for the multipliers <xi>^(order) at orders -n and -n +- 1/4, n = 1 and 2,
over the half-widths of SHARPNESS_M (M = 10^3, 10^4, 10^5 in 1-D and
50, 200 in 2-D): the paper's boundary, where the estimate grows with M
above -n (the operator is not in L^(1,inf)), settles at -n and decays
towards the trace-class value 0 below it.  Each row ends with the relative change of the estimate from
the first to the last M and the relative stability span at the last M.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nclab.config import build_symbol, load_config
from nclab.dsl import to_symbol
from nclab.pipeline import build_spectrum, run_connes_check
from nclab.residue import sphere_rule

SHARPNESS_OFFSETS = (0.25, 0.0, -0.25)  # orders -n + 1/4, -n, -n - 1/4
SHARPNESS_M = {1: (1_000, 10_000, 100_000), 2: (50, 200)}  # half-widths by n


def sharpness() -> None:
    """Print the trace estimate of <xi>^(order) at orders -n and
    -n +- 1/4 over each n's half-widths, one block per n."""
    for n, ms in SHARPNESS_M.items():
        print(f"n = {n}: <xi>^(order), trace estimate by M")
        print(f"{'order':>7}" + "".join(f"{'M=' + str(M):>12}" for M in ms)
              + f"{'rel. change':>13}{'rel. span':>11}")
        for offset in SHARPNESS_OFFSETS:
            order = -n + offset
            sigma = to_symbol(f"<xi>^({order})", n=n, order=order)
            fits = [build_spectrum(sigma, n, M).fit() for M in ms]
            c = [fit.trace_estimate for fit in fits]
            print(f"{order:>7.2f}" + "".join(f"{v:>12.6f}" for v in c)
                  + f"{(c[-1] - c[0]) / abs(c[0]):>+13.2e}"
                  + f"{fits[-1].stability_span / abs(c[-1]):>11.1e}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config")
    ap.add_argument("--m-values", default="125,250,500,1000,2000",
                    help="comma-separated truncation half-widths")
    ap.add_argument("--out", default="sweep.csv")
    ap.add_argument("--sharpness", action="store_true",
                    help="print the estimate at orders -n, -n +- 1/4 for n = 1, 2 instead")
    args = ap.parse_args()

    if args.sharpness:
        sharpness()
        return 0
    if args.config is None:
        ap.error("--config is required unless --sharpness is given")
    cfg = load_config(args.config)
    sigma = build_symbol(cfg)
    n = cfg.symbol.n
    rule = sphere_rule(n, cfg.sphere_order)
    ms = [int(v) for v in args.m_values.split(",")]

    rows = []
    for M in ms:
        t0 = time.time()
        rep = run_connes_check(
            sigma, n, M,
            symmetrize=cfg.symmetrize,
            sphere_rule_=rule,
            residue_q=cfg.residue_q,
        )
        dt = time.time() - t0
        fit = rep.summary
        rows.append((M, fit.trace_estimate, rep.residue_lattice,
                     rep.relative_deviation, fit.fit_rms, fit.stability_span, rep.run.solver, dt))
        print(f"M={M:>6}  c={fit.trace_estimate:+.6f}  r={rep.residue_lattice:+.6f}"
              f"  dev={rep.relative_deviation:.3e}  span={fit.stability_span:.2e}"
              f"  {rep.run.solver}  [{dt:.1f}s]")

    with open(args.out, "w") as fh:
        fh.write("M,spectral_estimate,residue_lattice,relative_deviation,fit_rms,stability_span,"
                 "solver,seconds\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
