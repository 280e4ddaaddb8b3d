"""Simplicial fan combinatorics over the rationals, exactly.

A fan is given by its ray vectors and a list of cones (as sets of ray
indices) that generates it: every face of a listed cone is a cone.  Only the
maximal cones are stored, with an index from each ray to the maximal cones
that contain it, so a set of rays is a cone exactly when one maximal cone
holds them all, and the faces are generated only when they are walked.
Validation covers simpliciality, duplicate ray directions and the
intersection condition.  When every maximal cone is full-dimensional the
intersection condition is first certified in near-linear time by facet
pairing (each facet in exactly two maximal cones, on opposite sides of its
hyperplane) plus one generic vector covered exactly once; fans that
certificate does not accept are decided pair by pair by exact cone-membership
tests, phase one of the simplex method, with no size limit.
:func:`is_complete` means valid and certified complete.  All eliminations
and pivots run in integers, with fraction-free row steps.

A fan hashes as its value, so :func:`validate_fan`, the certificate,
:func:`ray_smith_form`, the facet normals of the maximal cones and
:func:`primitive_collections` keep their answers for the last
``FAN_CACHE_SIZE`` fans, the most one command meets (two morphism documents,
each with a source and a target): one command certifies each distinct fan
once, eliminates each maximal cone's ray matrix once for both simpliciality
and the certificate, runs one Smith form of its ray matrix and computes its
primitive collections once.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from .errors import ValidationReport, Value, Violation
from .lattice import IntegerMatrix, SnfDecomposition, smith_normal_form

ZeroPattern = frozenset  # subset of ray indices whose coordinates vanish

FAN_CACHE_SIZE = 4  # distinct fans one command validates, at most


def fan_cache(function):
    """``function`` of one argument, with its answers for the last
    ``FAN_CACHE_SIZE`` distinct arguments kept, least recently used first
    out, as ``functools.lru_cache`` keeps them.  Importing ``functools``,
    with the ``collections`` it loads, would cost a command about 3 ms."""
    answers = {}

    def cached(argument):
        if argument in answers:
            answers[argument] = answers.pop(argument)  # now the most recent
        else:
            value = function(argument)
            if len(answers) == FAN_CACHE_SIZE:
                del answers[next(iter(answers))]
            answers[argument] = value
        return answers[argument]

    cached.__module__ = function.__module__  # where the function is defined, not here
    cached.__name__, cached.__qualname__ = function.__name__, function.__qualname__
    cached.__doc__, cached.__wrapped__ = function.__doc__, function
    cached.cache_clear = answers.clear
    return cached


class SimplicialFan(Value):
    """A simplicial fan: ray vectors in Z^d plus its maximal cones.

    ``cones`` may list any cones that generate the fan: the maximal ones,
    all faces, or a mix with repeats.  Construction keeps the maximal ones,
    ordered by size and then by their sorted rays, and indexes them by ray;
    a fan with no nonempty cone keeps the zero cone alone.  Run
    :func:`validate_fan` to check the geometric invariants.
    """

    _fields = ("lattice_rank", "rays", "cones")

    def __init__(self, lattice_rank: int, rays: Iterable[Iterable[int]],
                 cones: Iterable[Iterable[int]]):
        rays = tuple(tuple(int(x) for x in ray) for ray in rays)
        self.__dict__.update(lattice_rank=lattice_rank, rays=rays, _containing={})
        maximal = []
        # largest first: a listed set in no cone kept so far is maximal
        for cone in sorted({frozenset(int(i) for i in c) for c in cones}, key=len, reverse=True):
            if cone and not self.cones_containing(cone):
                maximal.append(cone)
                for i in cone:
                    self._containing.setdefault(i, []).append(cone)
        self.__dict__["cones"] = (tuple(sorted(maximal, key=lambda c: (len(c), sorted(c))))
                                  or (frozenset(),))

    @property
    def ray_count(self) -> int:
        return len(self.rays)

    def cones_containing(self, rays: frozenset[int]) -> list[frozenset[int]]:
        """The maximal cones that hold every ray of ``rays``, found among
        those of its ray with the fewest; all of them for the empty set."""
        if not rays:
            return list(self.cones)
        fewest = min((self._containing.get(i, ()) for i in rays), key=len)
        return [cone for cone in fewest if rays <= cone]

    def is_cone(self, rays: frozenset[int]) -> bool:
        """Do the rays lie together in one maximal cone?  The empty set is
        the zero cone; a ray index no cone lists lies in no cone."""
        return bool(self.cones_containing(rays))

    def faces(self) -> Iterator[frozenset[int]]:
        """Every cone, by size and then by its sorted rays, the zero cone
        first; the faces of one size are listed when they are reached."""
        tops = [sorted(cone) for cone in self.cones]
        for size in range(len(tops[-1]) + 1):
            for face in sorted({face for top in tops for face in combinations(top, size)}):
                yield frozenset(face)

    def ray_matrix(self) -> IntegerMatrix:
        """The d x n matrix whose columns are the ray vectors."""
        return IntegerMatrix.column_stack(self.rays, self.lattice_rank)


def primitive(vector: Sequence[int]) -> tuple[int, ...]:
    """The vector divided by the gcd of its entries; zero stays zero."""
    g = gcd(*vector)
    return tuple(x // g for x in vector) if g else tuple(vector)


# ---------------------------------------------------------------------------
# Cone membership
# ---------------------------------------------------------------------------

def _in_cone(generators: Sequence[Sequence[int]], target: Sequence[int]) -> bool:
    """Is ``target`` a nonnegative rational combination of ``generators``?

    Phase one of the simplex method on ``sum x_j g_j = target``, ``x >= 0``:
    one artificial variable per coordinate, whose sum is minimized; the
    target lies in the cone exactly when the minimum is 0.  Bland's rule
    (smallest entering column, then smallest leaving basic variable)
    guarantees termination.  Each row is kept integral and primitive, with a
    positive coefficient on its basic variable, so the ratio test compares
    right-hand side over entry by cross-multiplication.  An artificial that
    leaves the basis stays at 0, so its column is never stored.
    """
    n = len(generators)
    rows = []
    for l, t in enumerate(target):
        sign = -1 if t < 0 else 1
        rows.append([sign * g[l] for g in generators] + [sign * t])
    basis = [n + l for l in range(len(rows))]  # the artificials come after x
    objective = [sum(column) for column in zip(*rows)]  # w + sum o_j x_j = o_rhs
    while objective[-1]:
        col = next((j for j in range(n) if objective[j] > 0), None)
        if col is None:
            return False
        pivot = None
        for r, row in enumerate(rows):
            if row[col] <= 0:
                continue
            if pivot is None or (row[-1] * top[col], basis[r]) < (top[-1] * row[col], basis[pivot]):
                pivot, top = r, row
        for r, row in enumerate(rows):
            if r != pivot and row[col]:
                rows[r] = primitive([top[col] * x - row[col] * y for x, y in zip(row, top)])
        objective = primitive([top[col] * x - objective[col] * y for x, y in zip(objective, top)])
        basis[pivot] = col
    return True


def _cone_pair_violation(fan: SimplicialFan, cone_a: frozenset[int], cone_b: frozenset[int]):
    """A ray index witnessing cone(a) and cone(b) meeting outside their common
    face, or None when the pair is compatible.

    The rays outside the shared face are probed in order, those of ``cone_a``
    first.  A ray p of one cone is a witness exactly when some point of the
    intersection has a positive coefficient on p, that is (Farkas' lemma, as
    in the separation lemma of Fulton, *Introduction to Toric Varieties*,
    section 1.2) when p lies in the cone spanned by the other cone's rays and
    the negated remaining rays of its own cone.
    """
    shared = cone_a & cone_b
    for own, other in ((cone_a, cone_b), (cone_b, cone_a)):
        for p in sorted(own - shared):
            generators = [fan.rays[j] for j in other]
            generators += [[-x for x in fan.rays[i]] for i in own - {p}]
            if _in_cone(generators, fan.rays[p]):
                return p
    return None


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@fan_cache
def validate_fan(fan: SimplicialFan) -> ValidationReport:
    """Check every fan invariant, reporting the first violation with a witness.

    The checks run in dependency order: ray sanity, duplicate directions, cone
    index ranges, simpliciality, and finally intersection compatibility of
    the maximal cones, which implies it for all their faces.

    Simpliciality is checked on the maximal cones only, since a face of an
    independent set is independent; the witness is the first dependent
    maximal cone.  When every maximal cone is full-dimensional the
    completeness certificate of :func:`_certifies_complete` is tried first;
    it can only accept.  Fans it does not certify, complete or not, get the
    pairwise check of :func:`_cone_pair_violation`, which also supplies the
    ``bad_intersection`` witness.  Every fan gets a verdict.
    """
    d = fan.lattice_rank
    if d < 0:
        return ValidationReport((Violation("bad_rank", "lattice rank is negative", d),))
    for idx, ray in enumerate(fan.rays):
        if len(ray) != d:
            return ValidationReport((Violation(
                "bad_ray_length", f"ray {idx} has {len(ray)} coordinates, expected {d}", idx),))
        if not any(ray):
            return ValidationReport((Violation("zero_ray", f"ray {idx} is the zero vector", idx),))

    directions: dict[tuple[int, ...], int] = {}
    for idx, ray in enumerate(fan.rays):
        prim = primitive(ray)
        if prim in directions:
            return ValidationReport((Violation(
                "duplicate_ray_direction",
                f"rays {directions[prim]} and {idx} span the same ray",
                (directions[prim], idx)),))
        directions[prim] = idx

    maximal = fan.cones
    n = fan.ray_count
    for cone in maximal:
        for i in cone:
            if not 0 <= i < n:
                return ValidationReport((Violation(
                    "cone_index_out_of_range", f"cone {sorted(cone)} uses unknown ray {i}",
                    sorted(cone)),))

    for cone, normals in zip(maximal, _maximal_normals(fan)):
        if normals is None:
            return ValidationReport((Violation(
                "dependent_cone", f"rays of cone {sorted(cone)} are linearly dependent",
                sorted(cone)),))

    if _certifies_complete(fan):
        return ValidationReport()

    for a in range(len(maximal)):
        for b in range(a + 1, len(maximal)):
            witness = _cone_pair_violation(fan, maximal[a], maximal[b])
            if witness is not None:
                return ValidationReport((Violation(
                    "bad_intersection",
                    f"cones {sorted(maximal[a])} and {sorted(maximal[b])} meet outside "
                    f"their common face (ray {witness} is involved)",
                    (sorted(maximal[a]), sorted(maximal[b]), witness)),))

    return ValidationReport()


def _facet_owners(maximal: Sequence[frozenset[int]]) -> dict[int, list[tuple[int, int]]]:
    """Each facet of a maximal cone, keyed by the bitmask of its rays, mapped
    to its owners: the pairs (index into ``maximal``, ray opposite the
    facet).  An int key holds a facet of ``P^128`` in a few words, where a
    ``frozenset`` of its 127 rays took kilobytes."""
    owners: dict[int, list[tuple[int, int]]] = {}
    for index, cone in enumerate(maximal):
        mask = sum(1 << i for i in cone)
        for i in cone:
            owners.setdefault(mask ^ (1 << i), []).append((index, i))
    return owners


def _facet_normals(fan: SimplicialFan, cone: frozenset[int]) -> Optional[dict[int, tuple[int, ...]]]:
    """For each ray i of an independent cone, a primitive integer functional
    that vanishes on the cone's other rays and is positive on ray i; None
    when the rays are linearly dependent.

    For a full-dimensional cone these are the normals of its facets, the
    rows of the inverse ray matrix up to positive scaling (the cofactor
    normals).  They come from fraction-free Gauss-Jordan elimination of
    [B | I] with the cone's rays as the columns of B; the rays are
    independent exactly when every column of B gets a pivot, so the one
    elimination serves both the simpliciality check and the certificate.
    """
    order = sorted(cone)
    k, d = len(order), fan.lattice_rank
    rows = [[fan.rays[j][l] for j in order] + [int(l == m) for m in range(d)] for l in range(d)]
    for col in range(k):
        pivot = next((r for r in range(col, d) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        for r in range(d):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = primitive([top[col] * x - factor * y for x, y in zip(rows[r], top)])
    # row c now reads (0..a_c..0 | a_c times row c of a left inverse of B)
    return {order[c]: primitive([x if rows[c][c] > 0 else -x for x in rows[c][k:]])
            for c in range(k)}


@fan_cache
def _maximal_normals(fan: SimplicialFan) -> tuple[Optional[dict[int, tuple[int, ...]]], ...]:
    """:func:`_facet_normals` of each maximal cone, in ``fan.cones`` order."""
    return tuple(_facet_normals(fan, cone) for cone in fan.cones)


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(u, v))


@fan_cache
def _certifies_complete(fan: SimplicialFan) -> bool:
    """Certificate that independent maximal cones with distinct ray
    directions form a complete fan; False when a maximal cone is not
    full-dimensional.

    The cone form of the triangulation criterion in De Loera, Rambau and
    Santos, *Triangulations* (2010), section 4.5: every facet lies in exactly
    two maximal cones, which lie strictly on opposite sides of its hyperplane,
    and one generic vector lies in exactly one maximal cone.  Crossing a facet
    then never changes how many cones cover a generic vector, so every generic
    vector is covered once, and the cones meet along common faces.  The
    vector is (1, t, ..., t^(d-1)) with t = 2 + the largest normal entry: by
    the Cauchy root bound no facet normal vanishes on it.  False means only
    "not certified", never "invalid".
    """
    maximal = fan.cones
    if any(len(cone) != fan.lattice_rank for cone in maximal):
        return False
    owners = _facet_owners(maximal)
    if any(len(pair) != 2 for pair in owners.values()):
        return False
    normals = _maximal_normals(fan)
    for (a, i), (_, j) in owners.values():
        if _dot(normals[a][i], fan.rays[j]) >= 0:
            return False
    t = 2 + max((abs(x) for by_ray in normals for u in by_ray.values() for x in u), default=0)
    point = [t ** k for k in range(fan.lattice_rank)]
    covering = sum(all(_dot(u, point) > 0 for u in by_ray.values()) for by_ray in normals)
    return covering == 1


@fan_cache
def primitive_collections(fan: SimplicialFan) -> tuple[frozenset[int], ...]:
    """The minimal sets of rays that lie in no cone, in sorted order.

    A zero pattern is admissible exactly when it contains none of them.
    Every proper subset of a primitive collection is a cone, so each one is
    a face F plus a ray i above the rays of F that is off the star of F (the
    rays of the maximal cones that contain F) and on the star of every facet
    of F.  The faces are walked by size, keeping the stars of the size
    below, and the collections come out in sorted order.
    """
    found = []
    size, stars, below = 0, {}, {}
    everything = frozenset(range(fan.ray_count))
    for face in fan.faces():
        if len(face) > size:
            size, below, stars = len(face), stars, {}
        star = stars[face] = frozenset().union(*fan.cones_containing(face))
        outside = everything - star
        if outside:  # then the rays on the stars of all facets
            outside = outside.intersection(*(below[face - {j}] for j in face))
            top = max(face, default=-1)
            found += [face | {i} for i in sorted(outside) if i > top]
    return tuple(found)


def is_complete(fan: SimplicialFan) -> bool:
    """Is the fan valid, with maximal cones covering the rational vector
    space exactly once?

    True exactly when :func:`validate_fan` accepts and
    :func:`_certifies_complete` does.  A fan that winds twice, or whose
    cones overlap, gets False.
    """
    return validate_fan(fan).valid and _certifies_complete(fan)


@fan_cache
def ray_smith_form(fan: SimplicialFan) -> SnfDecomposition:
    """The Smith form of the ray matrix, computed once per fan: its rank
    answers :func:`rays_span`, and its row log carries the rays into the
    span when they are split off."""
    return smith_normal_form(fan.ray_matrix())


def rays_span(fan: SimplicialFan) -> bool:
    """Do the rays span the whole lattice rationally?"""
    return ray_smith_form(fan).rank == fan.lattice_rank


def is_admissible_zero_pattern(fan: SimplicialFan, pattern: Iterable[int]) -> bool:
    """May the coordinates indexed by ``pattern`` vanish simultaneously?

    True exactly when some maximal cone contains every ray in the pattern,
    that is when the pattern is a cone of the fan; such patterns are the
    ones realized on the quotient-construction locus.
    """
    pattern = frozenset(int(i) for i in pattern)
    for i in pattern:
        if not 0 <= i < fan.ray_count:
            raise ValueError(f"ray index {i} out of range")
    return fan.is_cone(pattern)
