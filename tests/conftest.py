"""Shared fixture builders: standard fans and stack data used across tests,
plus the JSON-schema oracle for documents and reports."""

from __future__ import annotations

import argparse
import json
import random
import sys
from functools import lru_cache
from importlib import resources

import jsonschema
import pytest

from toricdm import (IntegerMatrix, SimplicialFan, StackyData, close_under_faces, documents,
                     fans, lattice, morphisms, smith_normal_form)
from toricdm.morphisms import DEFAULT_SAMPLE_BUDGET


@lru_cache(maxsize=None)
def _schema_validator(schema_name):
    text = resources.files("toricdm").joinpath("schemas", schema_name).read_text()
    return jsonschema.Draft202012Validator(json.loads(text))


def schema_errors(document, schema_name):
    """Violations of a shipped schema found by ``jsonschema``, the independent
    oracle for the decoder and for every report; empty when it conforms."""
    return [f"/{'/'.join(str(p) for p in err.absolute_path)}: {err.message}"
            for err in _schema_validator(schema_name).iter_errors(document)]


# Four cones in Z^4 that do not form a fan: cones [1, 2, 3, 4] and
# [2, 3, 4, 5] meet outside their common face, through ray 1.  Eliminating
# variables pair by pair explodes on it (past 5 GB); the cone-membership
# checks need no size limit and decide it in milliseconds.
EXPLODING_RAYS = [(-1, 0, -1, 2), (-2, 3, 0, 1), (-2, 3, 0, -1), (-2, -1, -3, 0),
                  (3, 1, 2, 3), (-2, -1, -3, 3)]
EXPLODING_CONES = [[0, 1], [0, 4, 5], [1, 2, 3, 4], [2, 3, 4, 5]]


def make_fan(rank, rays, max_cones):
    return SimplicialFan(rank, tuple(tuple(r) for r in rays), close_under_faces(max_cones))


def projective_line_fan():
    return make_fan(1, [(-1,), (1,)], [[0], [1]])


def projective_plane_fan():
    return make_fan(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [0, 2]])


def projective_fan(d):
    """The fan of d-dimensional projective space."""
    rays = [tuple(1 if i == k else 0 for i in range(d)) for k in range(d)]
    rays.append(tuple(-1 for _ in range(d)))
    cones = [[i for i in range(d + 1) if i != skip] for skip in range(d + 1)]
    return make_fan(d, rays, cones)


def affine_fan(d):
    """A single full-dimensional simplicial cone with all its faces."""
    rays = [tuple(1 if i == k else 0 for i in range(d)) for k in range(d)]
    return make_fan(d, rays, [list(range(d))])


def product_fan(fan_a, fan_b):
    da, db = fan_a.lattice_rank, fan_b.lattice_rank
    rays = [ray + (0,) * db for ray in fan_a.rays]
    rays += [(0,) * da + ray for ray in fan_b.rays]
    shift = len(fan_a.rays)
    cones = []
    from toricdm import maximal_cones
    for ca in maximal_cones(fan_a):
        for cb in maximal_cones(fan_b):
            cones.append(sorted(ca) + [shift + i for i in sorted(cb)])
    return make_fan(da + db, rays, cones)


def line_fan(a_neg, a_pos):
    """Complete rank-1 fan with chosen ray points on each side."""
    return make_fan(1, [(-abs(a_neg),), (abs(a_pos),)], [[0], [1]])


def affine_quotient_data(a):
    """One ray in Z with ray point a: the basic cyclic-quotient fixture."""
    return StackyData(make_fan(1, [(a,)], [[0]]))


def weighted_line_root_data():
    """Rays -3 and 2 on the line, one square root with twists (0, 1)."""
    return StackyData(line_fan(3, 2), r=(2,), b=IntegerMatrix.from_rows([[0, 1]]))


def p1_root_data(k, r=2):
    """The projective line with one root of order r and twists (0, k)."""
    return StackyData(projective_line_fan(), r=(r,),
                      b=IntegerMatrix.from_rows([[0, k]]))


def solve_linear(a: IntegerMatrix, b):
    """Solve a x = b over the integers.

    Returns ``(solution, kernel_basis)`` where ``solution`` is one integer
    solution or None when none exists, and ``kernel_basis`` is a tuple of
    integer vectors spanning the kernel of ``a`` (returned in either case).
    """
    b = tuple(int(x) for x in b)
    if len(b) != a.rows:
        raise ValueError(f"right-hand side has length {len(b)}, expected {a.rows}")
    snf = smith_normal_form(a)
    diag = snf.diagonal()
    c = snf.u_inv.apply(b)

    kernel_cols = [j for j in range(a.cols) if j >= len(diag) or diag[j] == 0]
    kernel = tuple(snf.v_inv.column(j) for j in kernel_cols)

    y = [0] * a.cols
    for i in range(a.rows):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if c[i] != 0:
                return None, kernel
        else:
            if c[i] % di:
                return None, kernel
            y[i] = c[i] // di
    return snf.v_inv.apply(y), kernel


def serialize_morphism_data(md) -> dict:
    """The document form of a :class:`MorphismData`, for round trips."""
    return {
        "schema_version": documents.SCHEMA_VERSION,
        "source": documents.serialize_stacky_data(md.source),
        "target": documents.serialize_stacky_data(md.target),
        "polynomials": [
            [{"coefficient": str(coeff), "exponents": [documents.encode_int(e) for e in exps]}
             for coeff, exps in poly.terms]
            for poly in md.polys
        ],
        "chi": [[documents.encode_int(x) for x in cls.representative] for cls in md.chi],
    }


def random_spanning_data(rng: random.Random) -> StackyData:
    """Random valid data whose rays span, with at least one top cone.

    Either a single full-dimensional simplicial cone or a complete fan with
    d+1 rays (positive axis points plus one ray in the negative orthant).
    """
    d = rng.randint(1, 3)
    if rng.random() < 0.5:
        while True:
            rays = [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(d)]
            if smith_normal_form(IntegerMatrix.column_stack(rays, d)).rank == d:
                break
        prims = set()
        ok = True
        from math import gcd
        for ray in rays:
            g = 0
            for x in ray:
                g = gcd(g, abs(x))
            prim = tuple(x // g for x in ray)
            if prim in prims:
                ok = False
            prims.add(prim)
        if not ok:
            return random_spanning_data(rng)
        fan = make_fan(d, rays, [list(range(d))])
    else:
        scale = [rng.randint(1, 5) for _ in range(d)]
        rays = [tuple(scale[k] if i == k else 0 for i in range(d)) for k in range(d)]
        rays.append(tuple(-rng.randint(1, 5) for _ in range(d)))
        cones = [[i for i in range(d + 1) if i != skip] for skip in range(d + 1)]
        fan = make_fan(d, rays, cones)
    big_r = rng.randint(0, 2)
    r = tuple(rng.randint(1, 4) for _ in range(big_r))
    b = IntegerMatrix.from_rows(
        [[rng.randint(-4, 4) for _ in range(len(fan.rays))] for _ in range(big_r)],
        len(fan.rays))
    return StackyData(fan, r=r, b=b)


@pytest.fixture(autouse=True)
def fresh_fan_caches():
    """Empty the per-fan caches before each test, so that a test counting
    work or patching a helper does not depend on which fans ran before."""
    for cached in (fans.validate_fan, fans._certifies_complete, fans.rays_span,
                   fans.maximal_cones, fans._maximal_normals, fans.primitive_collections,
                   morphisms._source_presentation):
        cached.cache_clear()


@pytest.fixture
def certificates(monkeypatch):
    """Fans whose completeness certificate is computed: each run of the
    certificate pairs facets exactly once, in ``fans._facet_owners``."""
    computed = []
    spy(monkeypatch, fans._facet_owners, computed.append)
    return computed


@pytest.fixture
def rng():
    return random.Random(20260809)


def spy(monkeypatch, original, on_call):
    """Make every package module that binds ``original`` call ``on_call``
    with the arguments before each call of it."""
    def wrapped(*args, **kwargs):
        on_call(*args, **kwargs)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("toricdm") and getattr(module, original.__name__, None) is original:
            monkeypatch.setattr(module, original.__name__, wrapped)


@pytest.fixture
def snf_calls(monkeypatch):
    """Shapes of the matrices handed to ``lattice.smith_normal_form``, from
    every module of the package that binds it."""
    calls = []
    spy(monkeypatch, lattice.smith_normal_form, lambda a: calls.append((a.rows, a.cols)))
    return calls


# ---------------------------------------------------------------------------
# The argparse parser the command line had before its grammar became a table:
# the reference of the differential test of ``cli._parse``, which follows how
# argparse read arguments on Python 3.11
# ---------------------------------------------------------------------------

class ReferenceUsageError(Exception):
    """Raised where the reference parser rejects its arguments."""


class _ArgumentParser(argparse.ArgumentParser):
    """Raises :class:`ReferenceUsageError` where argparse would exit 2."""

    def error(self, message):
        raise ReferenceUsageError(message)

    def print_help(self, file=None):
        pass  # help is recorded by its SystemExit(0); the text is the CLI's own


def _nonnegative_int(text):
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def build_reference_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="toricdm",
        description="Exact computations with toric stack data given as JSON documents.")
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    parser.add_argument("--sample-budget", type=_nonnegative_int, default=DEFAULT_SAMPLE_BUDGET,
                        metavar="N", help="evaluation budget of the search for a rational witness")
    parser.add_argument("--seed", type=int, default=0, metavar="S",
                        help="seed of the search for a rational witness")
    parser.add_argument("--verify", action="store_true",
                        help="cross-check results with the brute-force verifiers")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("validate", "build", "pic", "rigidify", "split", "canonicalize"):
        p = sub.add_parser(name)
        p.add_argument("path")
    p = sub.add_parser("stabilizer")
    p.add_argument("path")
    p.add_argument("--cone", default="", metavar="i,j,k",
                   help="ray indices of the cone (empty for the zero cone)")
    p = sub.add_parser("classify")
    p.add_argument("paths", nargs="+", metavar="PATH",
                   help="two or more documents; the first is compared to the rest")
    p = sub.add_parser("morphism")
    p.add_argument("mode", choices=("check", "iso"))
    p.add_argument("paths", nargs="+", metavar="PATH")
    return parser


def reference_parse(argv):
    """The reading of ``argv`` by the reference parser followed by the checks
    its command handlers made of the document counts and of ``--cone``:
    ("help", None), ("usage", the command named or None), or ("ok", the
    values as a dict, one document given as a one-element ``paths`` and the
    cone as a set of ray indices)."""
    args = argparse.Namespace()
    try:
        build_reference_parser().parse_args(argv, args)
    except SystemExit as exc:
        assert exc.code == 0
        return "help", None
    except ReferenceUsageError:
        return "usage", args.command
    if args.command == "classify" and len(args.paths) < 2:
        return "usage", args.command
    if args.command == "morphism" and len(args.paths) != (1 if args.mode == "check" else 2):
        return "usage", args.command
    values = vars(args)
    if "path" in values:
        values["paths"] = [values.pop("path")]
    if "cone" in values:
        text = values["cone"].strip()
        try:
            values["cone"] = frozenset(int(part) for part in text.split(",")) if text else frozenset()
        except ValueError:
            return "usage", args.command
    return "ok", values
