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
                     ValidationReport, Value, Violation, picard_group)

FAN = SimplicialFan(lattice_rank=1, rays=((-1,), (1,)), cones=[[0], [1]])
GROUP = FgAbelianGroup(free_rank=1, invariant_factors=(2, 4))
P1 = StackyData(fan=FAN)
PRESENTATION = picard_group(P1)
LINE = SparsePolynomial(num_vars=2, terms=((Fraction(1), (1, 0)), (Fraction(-1, 2), (0, 1))))

# Keyword arguments of one instance of each value type, in parameter order.
KWARGS = {
    Violation: dict(code="c", message="m", witness=(1, 2)),
    ValidationReport: dict(violations=(Violation("c", "m"),)),
    IntegerMatrix: dict(rows=1, cols=2, entries=((1, 2),)),
    SnfDecomposition: dict(d=IntegerMatrix.diagonal([3]), row_ops=(("neg", 0),), col_ops=()),
    FgAbelianGroup: dict(free_rank=1, invariant_factors=(2, 4)),
    SimplicialFan: dict(lattice_rank=1, rays=((-1,), (1,)), cones=FAN.cones),
    StackyData: dict(fan=FAN, r=(2,), b=IntegerMatrix.from_rows([[0, 1]])),
    QuotientGroupDesc: dict(torus_rank=1, finite_part=GROUP),
    StackyFan: dict(extended_group=GROUP, fan=FAN, lifted_rays=((-1, 0), (1, 1))),
    PicardPresentation: dict(n=PRESENTATION.n, relation_matrix=PRESENTATION.relation_matrix,
                             group=PRESENTATION.group, project=PRESENTATION.project),
    PicClass: dict(representative=(1, 0), presentation=PRESENTATION),
    SparsePolynomial: dict(num_vars=2, terms=LINE.terms, denominator=LINE.denominator),
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


@pytest.mark.parametrize("cls", list(KWARGS), ids=lambda cls: cls.__name__)
def test_hash_is_computed_once(cls, monkeypatch):
    value, again = cls(**KWARGS[cls]), cls(**KWARGS[cls])
    first = hash(value)
    assert value == again
    if cls is not PicClass:  # it hashes its coordinates, fixed at construction
        monkeypatch.setattr(cls, "_astuple", lambda self: pytest.fail("field tuple rebuilt"))
    assert hash(value) == first
    monkeypatch.undo()
    assert hash(again) == first and hash(value) == hash(again)
    assert value == again and value != twin(value)


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


def test_commands_leave_typing_and_random_unloaded(tmp_path):
    # annotations are postponed, and only the sampler and the oracle's
    # large group tables draw random numbers
    p1 = {"schema_version": "1", "lattice_rank": 1, "rays": [[-1], [1]],
          "cones": [[0], [1]], "r": [2], "b": [[0, 1]]}
    target = dict(p1, r=[], b=[])
    duple = {"schema_version": "1", "source": target, "target": target, "chi": [],
             "polynomials": [[{"coefficient": "1", "exponents": [2, 0]}],
                             [{"coefficient": "1", "exponents": [0, 2]}]]}
    paths = [tmp_path / "p1.json", tmp_path / "duple.json"]
    for path, doc in zip(paths, (p1, duple)):
        path.write_text(json.dumps(doc))
    code = ("import sys, toricdm.cli as c\n"
            "assert c.run(['validate', sys.argv[1]])[0] == 0\n"
            "assert c.run(['build', sys.argv[1]])[0] == 0\n"
            "assert c.run(['morphism', 'check', sys.argv[2]])[0] == 0")
    loaded = _modules_after(code, *map(str, paths))
    assert {"toricdm.stacky", "toricdm.morphisms"} <= loaded
    assert {"typing", "random"} & loaded == set()
    # a request loads only what it runs: documents are read and reports
    # written without ``json`` or ``re``, and the oracle only under --verify
    written = ("\nfor text in (c.documents.dumps_indented(report), c._render_text(report)):"
               "\n    assert text")
    loaded = _modules_after("import sys, toricdm.cli as c\n"
                            "code, report = c.run(['--json', 'validate', sys.argv[1]])\n"
                            "assert code == 0" + written, str(paths[0]))
    assert "toricdm.stacky" in loaded
    assert {"json", "re", "toricdm.gerbes", "toricdm.morphisms", "toricdm.oracle"} & loaded == set()
    assert {"functools", "collections", "types"} & loaded == set()  # the fan caches are dicts
    loaded = _modules_after("import sys, toricdm.cli as c\n"
                            "code, report = c.run(['--json', 'morphism', 'check', sys.argv[1]])\n"
                            "assert code == 0" + written, str(paths[1]))
    assert "toricdm.morphisms" in loaded
    assert {"json", "toricdm.oracle"} & loaded == set()
    loaded = _modules_after("import sys, toricdm.cli as c\n"
                            "code, report = c.run(['--verify', 'stabilizer', '--cone', '0', "
                            "sys.argv[1]])\n"
                            "assert code == 0 and report['verify']['agrees'] is True" + written,
                            str(paths[0]))
    assert "toricdm.oracle" in loaded


def test_public_names_load_on_first_use():
    assert {m for m in _modules_after("import toricdm") if m.startswith("toricdm")} == {"toricdm"}
    assert len(toricdm._MODULE_OF) == 66 and toricdm.__all__ == list(toricdm._MODULE_OF)
    for name, module in toricdm._MODULE_OF.items():
        home = getattr(toricdm, module)
        assert home.__name__ == f"toricdm.{module}"
        assert getattr(toricdm, name) is getattr(home, name)
        assert getattr(home, name).__module__ in (home.__name__, "builtins")  # ZeroPattern = frozenset
        assert name in dir(toricdm)
    with pytest.raises(AttributeError):
        toricdm.no_such_name


def test_morphism_runs_leave_fractions_unloaded(tmp_path):
    # rational coefficients, a check the charts prove and an iso "no": no
    # answer is a non-integer rational, so ``fractions`` never loads
    p1 = {"schema_version": "1", "lattice_rank": 1, "rays": [[-1], [1]],
          "cones": [[0], [1]], "r": [], "b": []}

    def document(scale):
        return {"schema_version": "1", "source": p1, "target": p1, "chi": [], "polynomials": [
            [{"coefficient": "1/2", "exponents": [1, 0]},
             {"coefficient": "-2/3", "exponents": [0, 1]}],
            [{"coefficient": f"-2/{3 * scale}", "exponents": [0, 1]}]]}

    paths = []
    for scale in (1, 2):
        paths.append(tmp_path / f"m{scale}.json")
        paths[-1].write_text(json.dumps(document(scale)))
    code = ("import sys, toricdm.cli as c\n"
            "assert c.run(['morphism', 'check', sys.argv[1]])[0] == 0\n"
            "assert c.run(['morphism', 'iso', sys.argv[1], sys.argv[2]])[0] == 2")
    loaded = _modules_after(code, *map(str, paths))
    assert "toricdm.morphisms" in loaded
    assert {"fractions", "decimal", "numbers"} & loaded == set()
