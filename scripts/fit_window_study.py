#!/usr/bin/env python3
"""How sensitive is the trace estimate to the fit-window choices?

Builds the spectrum once for the configured symbol, then re-fits it
over a grid of (f0, discard) pairs and prints the estimate for each.
A flat table is evidence that the logarithmic regime is reached; a
drifting one says the truncation is too small.

Usage:
    python scripts/fit_window_study.py --config configs/cosine_1d.cfg
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nclab.config import build_symbol, load_config
from nclab.errors import UsageError
from nclab.pipeline import build_spectrum
from nclab.spectral import trace_estimate

F0_GRID = (0.05, 0.1, 0.2, 0.4)
DISCARD_GRID = (0.0, 0.25, 0.5, 0.75)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", required=True)
    args = ap.parse_args()

    cfg = load_config(args.config)
    sigma = build_symbol(cfg)
    run = build_spectrum(sigma, cfg.symbol.n, cfg.M, symmetrize=cfg.symmetrize)
    print(f"spectrum: {len(run.sequence)} values "
          f"({'diagonal path' if run.diagonal_path else 'assembled'}, "
          f"{'symmetrized' if run.symmetrized else 'singular values'})")

    header = "f0 \\ discard" + "".join(f"{d:>12.2f}" for d in DISCARD_GRID)
    print(header)
    for f0 in F0_GRID:
        cells = []
        for d in DISCARD_GRID:
            try:
                c = trace_estimate(run.sequence, d, (f0, 1.0)).trace_estimate
                cells.append(f"{c:>12.5f}")
            except UsageError:
                cells.append(f"{'n/a':>12}")
        print(f"{f0:<13.2f}" + "".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
