"""Seeded workloads of the nclab benchmark.

Sizes, Q and the x-bandwidth are fixed per workload; the seed varies
only an amplitude, a phase or a mass.  Every seed therefore does the
same work and has a known analytic residue.  Sizes keep one CLI call
between 0.15 and 0.3 s, so a run holds over a hundred samples.  Why each workload exists
is written down in README.md next to this file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "diagonal", "banded" or "identity": which layers it calls
    n: int
    M: int
    commands: tuple[str, ...]
    residue: float | None = None  # analytic residue, lattice convention
    rel_dev_max: float | None = None  # bounds of tests/test_acceptance.py
    span_max: float | None = None

    @property
    def size(self) -> int:
        return (2 * self.M + 1) ** self.n

    def config(self, seed: int) -> str:
        rng = random.Random(f"{self.name}:{seed}")
        if self.kind == "diagonal":
            c = 0.5 + 1.5 * rng.random()
            main, order, term = f"({c!r}+|xi|^2)^(-1)", -2, None
        else:
            a = 0.25 + 0.5 * rng.random()
            p = 2.0 * math.pi * rng.random()
            x_part = f"1+{a!r}*cos(2*pi*x1+{p!r})"
            decay = "<xi>^(-1)" if self.n == 1 else "(1+|xi|^2)^(-1)"
            main, order, term = f"({x_part})*{decay}", -self.n, x_part
        lines = ["[symbol]", f"n = {self.n}", f"main = {main}", f"order = {order}"]
        if term is not None:
            lines.append(f"term_0 = {order} ; {term}")
        lines += ["[lattice]", f"M = {self.M}"]
        return "\n".join(lines) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("diag-2d", "diagonal", 2, 100, ("connes",), math.pi, 0.05),
        Workload("band-1d", "banded", 1, 256, ("connes",), 2.0, 0.10, 0.15),
        Workload("identity-export", "identity", 1, 128, ("verify-identity", "quantize")),
    )
}

RESIDUE_TOL = 1e-12
IDENTITY_DEV_MAX = 1e-12
