"""The result records: the immutable value types every layer returns.

Each of the 13 record classes must compare and hash by its field tuple, spell
its repr as a frozen dataclass does, refuse assignment and deletion, pickle,
and keep its cached properties.  The package's start-up import must not pull
in `dataclasses` or `inspect`.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import respfd
from respfd.chains import Chain, ChainBasis, extract_column_chains, select_chain_basis
from respfd.exponential import (
    BasisFunction,
    ClosedFormExp,
    GeneralSolution,
    IVPSolution,
    decompose,
    general_solution,
    matrix_exponential,
    solve_ivp,
)
from respfd.linalg import Matrix, PolyMatrix, faddeev_leverrier
from respfd.pfd import CheckResult, EigenvalueTerm, QuadraticTerm, ResolventPFD
from respfd.polynomials import FactoredCharPoly, Poly, factor_charpoly, integral_coeffs
from respfd.verify import verification_report
from tests.conftest import GOLDEN_3X3_CHAINS, GOLDEN_3X3_SPIRAL

FIELDS = {
    Chain: ("eigenvalue", "vectors", "column"),
    ChainBasis: ("eigenvalue", "chains"),
    BasisFunction: ("kind", "lam", "k", "a", "d", "inv_scale"),
    ClosedFormExp: ("matrix", "terms"),
    IVPSolution: ("matrix", "y0", "components"),
    GeneralSolution: ("matrix", "fundamental"),
    PolyMatrix: ("size", "coeff_matrices"),
    EigenvalueTerm: ("eigenvalue", "multiplicity", "coefficients"),
    QuadraticTerm: ("a", "d", "p_matrix", "q_matrix"),
    ResolventPFD: ("matrix", "mode", "linear", "quadratic"),
    CheckResult: ("name", "passed", "detail"),
    Poly: ("coeffs",),
    FactoredCharPoly: ("mode", "poly", "linear", "quadratic"),
}


def _samples() -> dict:
    """One record of each class, built by the pipeline on the golden matrices."""
    charpoly, adjugate = faddeev_leverrier(GOLDEN_3X3_CHAINS)
    complex_pfd = decompose(GOLDEN_3X3_CHAINS, "complex")
    real_pfd = decompose(GOLDEN_3X3_SPIRAL, "real")
    cf = matrix_exponential(GOLDEN_3X3_SPIRAL, "real")
    index = max(range(len(complex_pfd.linear)), key=lambda i: complex_pfd.linear[i].multiplicity)
    return {
        Chain: extract_column_chains(complex_pfd, index)[0],
        ChainBasis: select_chain_basis(complex_pfd, index),
        BasisFunction: next(basis for basis, _ in cf.terms if basis.kind == "sin"),
        ClosedFormExp: cf,
        IVPSolution: solve_ivp(GOLDEN_3X3_CHAINS, (1, 0, 0)),
        GeneralSolution: general_solution(GOLDEN_3X3_CHAINS),
        PolyMatrix: adjugate,
        EigenvalueTerm: complex_pfd.linear[index],
        QuadraticTerm: real_pfd.quadratic[0],
        ResolventPFD: real_pfd,
        CheckResult: verification_report(GOLDEN_3X3_CHAINS, "complex")[0],
        Poly: charpoly,
        FactoredCharPoly: factor_charpoly(charpoly, "complex"),
    }


SAMPLES = _samples()
CLASSES = list(FIELDS)


def _values(record, cls=None) -> tuple:
    return tuple(getattr(record, name) for name in FIELDS[cls or type(record)])


def _copy(record, cls=None):
    return (cls or type(record))(**dict(zip(FIELDS[type(record)], _values(record))))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_record_equality_and_hash_follow_the_field_tuple(cls):
    record = SAMPLES[cls]
    assert type(record) is cls
    copy = _copy(record)
    assert copy is not record and copy == record and not copy != record
    assert hash(copy) == hash(record) == hash(_values(record))
    assert record != _values(record)

    class Other(cls):
        pass

    other = _copy(record, Other)
    assert _values(other, cls) == _values(record)
    assert other != record and record != other


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_record_repr_is_the_dataclass_format(cls):
    record = SAMPLES[cls]
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(FIELDS[cls], _values(record)))
    assert repr(record) == f"{cls.__qualname__}({fields})"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_record_refuses_assignment_and_deletion(cls):
    record = SAMPLES[cls]
    name = FIELDS[cls][0]
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, name) is value


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_record_pickles(cls):
    record = SAMPLES[cls]
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is cls and again == record and hash(again) == hash(record)


def test_record_defaults_and_post_init():
    assert Poly().coeffs == () and Poly((1, 0, 0)).coeffs == (1,)
    assert CheckResult("name", True) == CheckResult("name", True, "")
    basis = BasisFunction("exp")
    assert (basis.lam, basis.k, basis.a, basis.d, basis.inv_scale) == (0, 0, 0, 0, False)
    assert BasisFunction("exp", k=2) == BasisFunction("exp", Fraction(0), 2)
    assert PolyMatrix(1, (Matrix.zeros(1, 1),)).coeff_matrices == ()
    assert FactoredCharPoly("complex", Poly((-2, 1)), [(2, 1)]).linear == ((2, 1),)


def test_record_arguments_are_checked():
    with pytest.raises(TypeError):
        CheckResult("name")
    with pytest.raises(TypeError):
        CheckResult("name", True, "", "extra")
    with pytest.raises(TypeError):
        CheckResult("name", True, bogus=1)
    with pytest.raises(TypeError):
        CheckResult("name", True, name="again")


def test_cached_properties_survive_on_records():
    factored = SAMPLES[FactoredCharPoly]
    assert factored.integral == integral_coeffs(factored.poly)
    assert factored.integral is factored.integral
    cf = SAMPLES[ClosedFormExp]
    assert len(cf.float_coefficients) == len(cf.terms)
    assert cf.float_coefficients is cf.float_coefficients
    assert pickle.loads(pickle.dumps(cf)).float_coefficients == cf.float_coefficients


def test_start_up_imports_neither_dataclasses_nor_inspect():
    code = (
        "import sys; before = set(sys.modules); import respfd, respfd.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    src = str(Path(respfd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
