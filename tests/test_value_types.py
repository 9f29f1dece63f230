"""The slot value types and the NamedTuple records behave as the frozen
dataclasses they replaced: the same hashes, equality, reprs, validation
errors and defaults; and importing the CLI loads neither dataclasses nor
concurrent.futures."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from graded_leibniz import QQ, AbelianGroup, Field
from graded_leibniz.algebras import LeibnizReport
from graded_leibniz.catalog import catalog
from graded_leibniz.fields import Scalar
from graded_leibniz.gradings import GradingReport
from graded_leibniz.groups import GroupElem
from graded_leibniz.torus import FAMILY_SEARCH_NOTE, NormalizerReport

F5 = Field(5)
SRC = Path(__file__).resolve().parent.parent / "src"


def test_hashes_follow_the_dataclass_formula():
    # a frozen dataclass hashed the tuple of its fields; set and dict orders,
    # and so every pinned digest, depend on it
    z2 = AbelianGroup(1, (2,))
    assert hash(QQ) == hash((None,))
    assert hash(F5) == hash((5,))
    assert hash(F5.scalar(3)) == hash((F5, 3))
    assert hash(QQ.scalar("1/2")) == hash((QQ, Fraction(1, 2)))
    assert hash(z2) == hash((1, (2,)))
    assert hash(AbelianGroup()) == hash((0, ()))
    assert hash(z2.element((4, 3))) == hash((z2, (4, 1)))


def test_equality_needs_the_same_class_and_fields():
    assert Field(5) == F5 and Field() == QQ and F5 != Field(7) and F5 != QQ
    assert F5 != 5 and QQ != None  # noqa: E711
    assert F5.scalar(1) == Scalar(Field(5), 1)
    assert F5.scalar(1) != QQ.scalar(1)
    assert F5.scalar(1) != 1
    assert AbelianGroup(1, [2]) == AbelianGroup(1, (2,))
    assert AbelianGroup(1) != AbelianGroup(0, (2,)) and AbelianGroup(2) != (2, ())
    z2, z4 = AbelianGroup(0, (2,)), AbelianGroup(0, (4,))
    assert z2.element((1,)) == AbelianGroup(0, (2,)).element((3,))
    assert z2.element((1,)) != z4.element((1,))
    assert z2.element((1,)) != GroupElem(z2, [1])
    assert len({z2.element((1,)), AbelianGroup(0, (2,)).element((1,)), z4.element((1,))}) == 2


def test_reprs():
    assert repr(QQ) == "Q" and repr(F5) == "F5"
    assert repr(F5.scalar(-1)) == "4" and repr(QQ.scalar("-2/4")) == "-1/2"
    assert repr(AbelianGroup()) == "AbelianGroup(free_rank=0, torsion=())"
    assert repr(AbelianGroup(1, [2, 4])) == "AbelianGroup(free_rank=1, torsion=(2, 4))"
    zxz2 = AbelianGroup(1, (2,))
    assert repr(zxz2.element((-3, 1))) == "(-3, 1)"
    assert repr(AbelianGroup(1).element((7,))) == "7"
    assert repr(LeibnizReport(True)) == "LeibnizReport(ok=True, first_violation=None)"


@pytest.mark.parametrize("make, message", [
    (lambda: Field(4), "modulus 4 is not prime"),
    (lambda: Field(5.0), "modulus 5.0 is not an integer"),
    (lambda: AbelianGroup(-1), "negative free rank"),
    (lambda: AbelianGroup(True), "free rank True is not an int"),
    (lambda: AbelianGroup(0, 2), "torsion 2 is not a tuple of invariant factors"),
    (lambda: AbelianGroup(0, (4, 2)), "invariant factors 4, 2 violate the divisibility chain"),
    (lambda: AbelianGroup(0, (2, 4.0)), "invariant factor 4.0 is not an int"),
    (lambda: AbelianGroup(0, (1,)), "invariant factor 1 < 2"),
], ids=["composite", "float-modulus", "negative-rank", "bool-rank", "int-torsion",
        "broken-chain", "float-factor", "unit-factor"])
def test_validation_errors(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_record_defaults_and_methods():
    assert LeibnizReport(True).first_violation is None
    assert GradingReport(False, (1, 1, 2)).first_violation == (1, 1, 2)
    assert GradingReport(True) == GradingReport(True, None)
    held = NormalizerReport(True, 4, 4, 0, 10)
    assert held.note == FAMILY_SEARCH_NOTE and bool(held)
    # a record is a tuple, and a non-empty tuple is true: __bool__ must win
    assert not NormalizerReport(False, 5, 4, 0, 10)
    assert NormalizerReport(True, 4, 4, 0, 10, note="other").note == "other"
    entry = catalog("nf", 3)[0]
    assert entry.params == () and entry.family == "nf"


def test_cli_import_loads_neither_dataclasses_nor_the_pool():
    # -S: no site hooks, so the modules listed are the package's own doing
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import graded_leibniz.cli; "
            "print(*[m for m in ('dataclasses', 'concurrent.futures') if m in sys.modules])")
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
