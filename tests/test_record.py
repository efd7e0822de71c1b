"""Value semantics of Record, the base of every nclab value class."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from nclab.config import RunConfig, SymbolConfig
from nclab.dsl import FreqNorm, Num, Pi, Var
from nclab.errors import UsageError
from nclab.lattice import TruncationBox
from nclab.record import replace

SRC = Path(__file__).resolve().parent.parent / "src"


def test_equality_within_a_type_and_not_across_types():
    assert Num(1.0) == Num(1.0)
    assert Num(1.0) != Num(2.0)
    assert Pi() == Pi()
    assert Pi() != FreqNorm()
    assert Num(1.0) != Var("x", 1)
    assert Num(1.0) != 1.0
    assert Num(1.0).__eq__(1.0) is NotImplemented


def test_hash_and_repr():
    assert hash(Var("xi", 2)) == hash(Var("xi", 2))
    assert len({Num(1.0), Num(1.0), Pi(), Pi()}) == 2
    assert repr(Num(1.0)) == "Num(value=1.0)"
    assert repr(Pi()) == "Pi()"
    assert repr(TruncationBox(2, 3)) == "TruncationBox(n=2, M=3)"


def test_positional_keyword_and_default_arguments():
    assert TruncationBox(2, 3) == TruncationBox(M=3, n=2) == TruncationBox(2, M=3)
    assert Num(value=0.5) == Num(0.5)
    cfg = RunConfig(SymbolConfig(1, "|xi|", -1.0), 4, residue_q=64)
    assert (cfg.M, cfg.sphere_order, cfg.residue_q, cfg.matrix_format) == (4, None, 64, "both")
    assert (cfg.symbol.rho, cfg.symbol.terms) == (1.0, ())


def test_frozen():
    box = TruncationBox(1, 2)
    with pytest.raises(AttributeError):
        box.M = 3
    with pytest.raises(AttributeError):
        box.extra = 3
    with pytest.raises(AttributeError):
        del box.M
    assert box == TruncationBox(1, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: TruncationBox(1),  # missing
        lambda: TruncationBox(1, 2, 3),  # too many
        lambda: TruncationBox(1, 2, K=3),  # unknown
        lambda: TruncationBox(1, n=1),  # repeated
        lambda: Pi(1.0),
    ],
)
def test_bad_arguments_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_post_init_validates():
    with pytest.raises(UsageError):
        TruncationBox(0, 3)


def test_replace_validates_again():
    box = TruncationBox(2, 3)
    assert replace(box, M=4) == TruncationBox(2, 4)
    assert box == TruncationBox(2, 3)
    with pytest.raises(UsageError):
        replace(box, M=-1)
    with pytest.raises(TypeError):
        replace(box, K=1)


def test_cli_import_generates_no_dataclass_code():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, nclab.cli; sys.exit('dataclasses' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
