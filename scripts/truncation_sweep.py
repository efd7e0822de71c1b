#!/usr/bin/env python3
"""Sweep the truncation half-width M and track how the spectral trace
estimate converges to the residue.

Usage:
    python scripts/truncation_sweep.py --config configs/multiplier_1d.cfg \
        --m-values 250,500,1000,2000,4000 --out sweep.csv

Writes one CSV row per M with the estimate, the residue, the relative
deviation, the fit diagnostics, the solver that ran and the seconds
the run took.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nclab.config import build_symbol, load_config
from nclab.pipeline import run_connes_check
from nclab.residue import sphere_rule


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", required=True)
    ap.add_argument("--m-values", default="125,250,500,1000,2000",
                    help="comma-separated truncation half-widths")
    ap.add_argument("--out", default="sweep.csv")
    args = ap.parse_args()

    cfg = load_config(args.config)
    sigma = build_symbol(cfg)
    n = cfg.symbol.n
    rule = sphere_rule(n, cfg.sphere_order or 0)
    ms = [int(v) for v in args.m_values.split(",")]

    rows = []
    for M in ms:
        t0 = time.time()
        rep = run_connes_check(
            sigma, n, M,
            Q=cfg.Q,
            window_fraction=(cfg.f0, cfg.f1),
            discard_fraction=cfg.discard,
            symmetrize=cfg.symmetrize,
            sphere_rule_=rule,
            residue_q=cfg.residue_q,
        )
        dt = time.time() - t0
        rows.append((M, rep.spectral_estimate, rep.residue_lattice,
                     rep.relative_deviation, rep.fit_rms, rep.stability_span, rep.solver, dt))
        print(f"M={M:>6}  c={rep.spectral_estimate:+.6f}  r={rep.residue_lattice:+.6f}"
              f"  dev={rep.relative_deviation:.3e}  span={rep.stability_span:.2e}"
              f"  {rep.solver}  [{dt:.1f}s]")

    with open(args.out, "w") as fh:
        fh.write("M,spectral_estimate,residue_lattice,relative_deviation,fit_rms,stability_span,"
                 "solver,seconds\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
