"""The value types keep the semantics of ``@dataclass(frozen=True)`` without
the package importing ``dataclasses``: keyword construction, field-wise
equality within one class, hashing and repr as the field tuple, and no
assignment."""

import ast
import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import toricdm
from toricdm import (ConditionBVerdict, FgAbelianGroup, FiniteGroupTable,
                     IntegerMatrix, MorphismData, PicardPresentation, PicClass,
                     QuotientGroupDesc, SimplicialFan, SnfDecomposition,
                     SparsePolynomial, StackyData, StackyFan, TwoIsoVerdict,
                     ValidationReport, Value, Violation, close_under_faces,
                     picard_group)

FAN = SimplicialFan(lattice_rank=1, rays=((-1,), (1,)), cones=close_under_faces([[0], [1]]))
GROUP = FgAbelianGroup(free_rank=1, invariant_factors=(2, 4))
P1 = StackyData(fan=FAN)
PRESENTATION = picard_group(P1)
LINE = SparsePolynomial(num_vars=2, terms=((Fraction(1), (1, 0)), (Fraction(-1, 2), (0, 1))))

# Keyword arguments of one instance of each value type, in parameter order.
KWARGS = {
    Violation: dict(code="c", message="m", witness=(1, 2)),
    ValidationReport: dict(violations=(Violation("c", "m"),)),
    IntegerMatrix: dict(rows=1, cols=2, entries=((1, 2),)),
    SnfDecomposition: dict(u=IntegerMatrix.identity(1), d=IntegerMatrix.diagonal([3]),
                           v=IntegerMatrix.identity(1), u_inv=IntegerMatrix.identity(1),
                           v_inv=IntegerMatrix.identity(1)),
    FgAbelianGroup: dict(free_rank=1, invariant_factors=(2, 4)),
    SimplicialFan: dict(lattice_rank=1, rays=((-1,), (1,)), cones=FAN.cones),
    StackyData: dict(fan=FAN, r=(2,), b=IntegerMatrix.from_rows([[0, 1]])),
    QuotientGroupDesc: dict(torus_rank=1, finite_part=GROUP, character_classes=((0, 1),)),
    StackyFan: dict(extended_group=GROUP, fan=FAN, lifted_rays=((-1, 0), (1, 1))),
    PicardPresentation: dict(n=PRESENTATION.n, relation_matrix=PRESENTATION.relation_matrix,
                             group=PRESENTATION.group, project=PRESENTATION.project),
    PicClass: dict(representative=(1, 0), presentation=PRESENTATION),
    SparsePolynomial: dict(num_vars=2, terms=LINE.terms),
    MorphismData: dict(source=P1, target=P1, polys=(LINE, LINE), chi=()),
    ConditionBVerdict: dict(status="refuted", witness_pattern=frozenset({0}),
                            witness_point=None),
    TwoIsoVerdict: dict(status="yes", ratios=(Fraction(1), Fraction(-1))),
    FiniteGroupTable: dict(elements=((0,), (1,)), table=((0, 1), (1, 0))),
}


def twin(value):
    """An instance of another value class with the same fields and values."""
    other = object.__new__(type("Twin", (Value,), {"_fields": type(value)._fields}))
    other.__dict__.update(vars(value))
    return other


def test_every_value_type_is_covered():
    assert set(Value.__subclasses__()) == set(KWARGS)
    assert len(KWARGS) == 16


@pytest.mark.parametrize("cls", list(KWARGS), ids=lambda cls: cls.__name__)
def test_value_type_contract(cls):
    kwargs = KWARGS[cls]
    value, again = cls(**kwargs), cls(**kwargs)
    assert value is not again
    assert value == again and not value != again
    assert hash(value) == hash(again)
    assert value != twin(value) and twin(value) != value
    first = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(value, first, getattr(again, first))
    with pytest.raises(AttributeError):
        delattr(value, first)
    assert value == again
    if cls is not PicClass:  # it compares, hashes and prints by coordinates
        reference = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
        frozen = reference(**{name: getattr(value, name) for name in cls._fields})
        assert hash(value) == hash(frozen)
        assert repr(value) == repr(frozen)


def test_subclass_instances_are_not_equal():
    subclass = type("Square", (IntegerMatrix,), {})
    assert subclass(1, 1, ((1,),)) != IntegerMatrix(1, 1, ((1,),))


def test_presentation_equality_ignores_project():
    other = PicardPresentation(PRESENTATION.n, PRESENTATION.relation_matrix,
                               PRESENTATION.group, lambda vector: (0,))
    assert other == PRESENTATION and hash(other) == hash(PRESENTATION)
    assert "project" not in repr(PRESENTATION)


def _modules_after(code, *args):
    """The modules a fresh interpreter has loaded after running ``code``;
    -S keeps the site hooks of the environment out of the list."""
    src = str(Path(toricdm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = code + "\nimport sys; print(sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-S", "-c", probe, *args], env=env,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    return set(ast.literal_eval(out.splitlines()[-1]))


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    loaded = _modules_after("import toricdm.cli")
    assert "toricdm.cli" in loaded
    assert {"dataclasses", "inspect"} & loaded == set()


def test_cli_import_leaves_hashlib_and_fractions_unloaded():
    loaded = _modules_after("import toricdm.cli")
    assert "toricdm.cli" in loaded
    assert {"hashlib", "_hashlib", "fractions", "decimal", "numbers"} & loaded == set()


def test_validate_run_leaves_fractions_unloaded(tmp_path):
    path = tmp_path / "p1.json"
    path.write_text(json.dumps({"schema_version": "1", "lattice_rank": 1, "rays": [[-1], [1]],
                                "cones": [[0], [1]], "r": [], "b": []}))
    code = "import sys, toricdm.cli as c\nassert c.run(['validate', sys.argv[1]])[0] == 0"
    loaded = _modules_after(code, str(path))
    assert "toricdm.fans" in loaded
    assert {"hashlib", "fractions", "argparse", "gettext", "locale"} & loaded == set()
