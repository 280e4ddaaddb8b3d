"""Homogeneous polynomial maps between toric stack data.

A morphism candidate is a tuple of polynomials in the source ray variables,
one per target ray, plus one source divisor class per target root index.
Three verdicts are computed: the degree condition on the classes, the
nondegeneracy condition on where the polynomials may vanish, and whether two
tuples differ by the group action (a scalar per coordinate satisfying the
exponent relations of the target rays).  Every class lives on one source
Picard presentation, ``gerbes.picard_group(source)``, which is cached per
datum: the twist classes must share it, and the degrees of both conditions
are read in it.  The degree condition (condition A) is the target's
exponent matrix applied to the source classes of the paper's line bundles:
one per target ray, with its polynomial as a section, and one per root.

The nondegeneracy condition (condition B) is decided exactly, chart by
chart, as in Cox's description of morphisms by homogeneous polynomials
("The homogeneous coordinate ring of a toric variety", 1995).  A
homogeneous tuple has a zero set stable under the group, and on the chart of
a maximal source cone every orbit meets the slice where the coordinates off
the cone are 1; the image leaves the target locus exactly where the
polynomials of a primitive collection of the target fan vanish together.
So the condition holds exactly when 1 lies in every ideal those polynomials
generate on every slice, which Buchberger's algorithm decides.

A polynomial is integer terms over one positive denominator, and every
verdict is computed in integers: a zero set does not change when the
polynomial is multiplied by a nonzero constant.  ``fractions`` is imported
only to return a rational answer, a witness point or the ratios of a ``yes``
(and by ``SparsePolynomial.evaluate``, which no verdict calls).
"""

from __future__ import annotations

import itertools
from math import gcd, lcm

from .errors import (MismatchedSourceTargetError, NotHomogeneousError,
                     SourceNotCompleteError, SourceNotRigidError,
                     TargetRaysNotSpanningError, Value, ZeroPolynomialError)
from .fans import is_admissible_zero_pattern, is_complete, primitive_collections, rays_span
from .documents import DEFAULT_SAMPLE_BUDGET
from .gerbes import PicClass, picard_group
from .lattice import IntegerMatrix, coprime_base, split_power
from .stacky import StackyData, psi_exponents

# The values the refutation search samples, 1, -1, 2, -2, 3, -3, 1/2 and
# -1/2, each times their common denominator.  None is 0, so the zero set of
# a sample is the pattern it was drawn for, a cone of the source.
SAMPLE_DENOMINATOR = 2
SAMPLE_VALUES = (2, -2, 4, -4, 6, -6, 1, -1)
# Units the chart check of one tuple may spend (see ``_Work``), and apart from
# it the sampler: at most about 0.1-0.2 s each, where no tuple of the
# benchmark's morphism workload needs 200 on the charts or 500 in the sampler.
CHART_WORK_LIMIT = 50_000


class SparsePolynomial(Value):
    """A polynomial with exact rational coefficients in sparse form: integer
    ``terms``, (coefficient, exponent vector) pairs with nonnegative
    exponents, over a positive integer ``denominator``, with value
    ``sum(c * x**e) / denominator``.

    A coefficient passed in is an int or carries ``numerator`` and
    ``denominator`` (a ``Fraction``); ``denominator`` is a positive int.
    Construction brings the terms to one denominator, merges duplicate
    exponent vectors, drops zero coefficients, sorts, and divides by the gcd
    of the coefficients and the denominator (the zero polynomial has
    denominator 1), so equal polynomials compare and hash equal.
    """

    _fields = ("num_vars", "terms", "denominator")

    def __init__(self, num_vars: int, terms: Iterable[tuple[int, Sequence[int]]],
                 denominator: int = 1):
        if denominator < 1:
            raise ValueError(f"denominator {denominator} is not positive")
        rational = []
        for coeff, exponents in terms:
            exponents = tuple(int(e) for e in exponents)
            if len(exponents) != num_vars:
                raise ValueError(f"exponent vector {exponents} has wrong length")
            if any(e < 0 for e in exponents):
                raise ValueError(f"negative exponent in {exponents}")
            rational.append((coeff.numerator, coeff.denominator, exponents))
        common = lcm(*(q for _, q, _ in rational))
        merged: dict[tuple[int, ...], int] = {}
        for p, q, exponents in rational:
            merged[exponents] = merged.get(exponents, 0) + p * (common // q)
        denominator *= common
        content = gcd(denominator, *merged.values())
        cleaned = tuple(sorted(((c // content, e) for e, c in merged.items() if c),
                               key=lambda t: t[1]))
        self.__dict__.update(num_vars=num_vars, terms=cleaned,
                             denominator=denominator // content)

    @classmethod
    def zero(cls, num_vars: int) -> "SparsePolynomial":
        return cls(num_vars, ())

    @classmethod
    def monomial(cls, num_vars: int, coefficient, exponents: Sequence[int]) -> "SparsePolynomial":
        return cls(num_vars, ((coefficient, tuple(exponents)),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support_vars(self) -> frozenset[int]:
        """Variables that occur with a positive exponent in some term."""
        return frozenset(k for _, exps in self.terms for k, e in enumerate(exps) if e)

    def evaluate(self, values: Sequence[Fraction]) -> Fraction:
        """The value at ``values`` (ints or ``Fraction``s), as a ``Fraction``."""
        from fractions import Fraction

        total = 0
        for coeff, exps in self.terms:
            term = coeff
            for v, e in zip(values, exps):
                if e:
                    term *= v ** e
            total += term
        return Fraction(total, self.denominator)

    def scale(self, factor) -> "SparsePolynomial":
        """``factor`` times the polynomial; ``factor`` is an int or a ``Fraction``."""
        return SparsePolynomial(self.num_vars,
                                tuple((factor.numerator * c, e) for c, e in self.terms),
                                self.denominator * factor.denominator)

    def __mul__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        terms = [(ca * cb, tuple(x + y for x, y in zip(ea, eb)))
                 for ca, ea in self.terms for cb, eb in other.terms]
        return SparsePolynomial(self.num_vars, tuple(terms),
                                self.denominator * other.denominator)


class MorphismData(Value):
    """Source and target data, one polynomial per target ray, one source
    divisor class per target root index."""

    _fields = ("source", "target", "polys", "chi")

    def __init__(self, source: StackyData, target: StackyData,
                 polys: Iterable[SparsePolynomial], chi: Iterable[PicClass]):
        self.__dict__.update(source=source, target=target, polys=tuple(polys), chi=tuple(chi))


class ConditionBVerdict(Value):
    """Outcome of the vanishing-locus check: proven, refuted, or unknown.

    A refutation carries either an explicit rational point of the source
    locus whose image leaves the target locus, or a maximal source cone
    whose chart holds such a point: the worst-case zero pattern of a
    monomial tuple, or a chart whose ideal misses 1.
    """

    _fields = ("status", "witness_pattern", "witness_point")

    def __init__(self, status: str, witness_pattern: Optional[frozenset[int]] = None,
                 witness_point: Optional[tuple[Fraction, ...]] = None):
        self.__dict__.update(status=status, witness_pattern=witness_pattern,
                             witness_point=witness_point)

    @classmethod
    def proven(cls):
        return cls("proven")

    @classmethod
    def refuted_pattern(cls, pattern: Iterable[int]):
        return cls("refuted", witness_pattern=frozenset(pattern))

    @classmethod
    def refuted_point(cls, point: Sequence[Fraction]):
        return cls("refuted", witness_point=tuple(point))

    @classmethod
    def unknown(cls):
        return cls("unknown")

    @property
    def is_proven(self) -> bool:
        return self.status == "proven"

    @property
    def is_refuted(self) -> bool:
        return self.status == "refuted"


class TwoIsoVerdict(Value):
    """Outcome of the group-action comparison of two polynomial tuples:
    ``status`` is "yes" (with the coordinate ``ratios``), "no" or "unknown"."""

    _fields = ("status", "ratios")

    def __init__(self, status: str, ratios: Optional[tuple[Fraction, ...]] = None):
        self.__dict__.update(status=status, ratios=ratios)

    @classmethod
    def yes(cls, ratios: Sequence[Fraction]):
        return cls("yes", tuple(ratios))

    @classmethod
    def no(cls):
        return cls("no")

    @classmethod
    def unknown(cls):
        return cls("unknown")


def validate_morphism_data(md: MorphismData) -> None:
    """Enforce the structural preconditions, raising a typed error on failure."""
    if not md.source.is_rigid:
        raise SourceNotRigidError("morphism sources must carry no root data")
    if len(md.polys) != md.target.ray_count:
        raise MismatchedSourceTargetError(
            f"{len(md.polys)} polynomials for {md.target.ray_count} target rays")
    if len(md.chi) != md.target.root_count:
        raise MismatchedSourceTargetError(
            f"{len(md.chi)} twist classes for {md.target.root_count} root indices")
    if any(p.num_vars != md.source.ray_count for p in md.polys):
        raise MismatchedSourceTargetError("polynomial variable count differs from source rays")
    if md.chi:
        presentation = picard_group(md.source)
        if any(cls.presentation != presentation for cls in md.chi):
            raise MismatchedSourceTargetError(
                "twist classes do not live on the source Picard presentation")
    if not is_complete(md.source.fan):
        raise SourceNotCompleteError("the source fan must be complete")
    if not rays_span(md.target.fan):
        raise TargetRaysNotSpanningError("the target rays must span the target lattice")


def degree(p: SparsePolynomial, source: StackyData) -> PicClass:
    """The common divisor class of all terms of ``p`` in the source grading.

    A monomial's class is the class of its exponent vector in
    ``picard_group(source)``, which is cached per datum, so grading several
    polynomials of one source takes one Smith form.  Raises when the
    polynomial is zero or mixes classes.
    """
    if not source.is_rigid:
        raise SourceNotRigidError("grading is defined for rigid data only")
    if p.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no degree")
    presentation = picard_group(source)
    first = presentation.class_of(p.terms[0][1])
    for _, exponents in p.terms[1:]:
        if presentation.class_of(exponents) != first:
            raise NotHomogeneousError(
                f"terms {p.terms[0][1]} and {exponents} have different classes")
    return first


def check_condition_a(md: MorphismData) -> bool:
    """The degree condition: the target's exponent matrix applied to the
    source classes vanishes.

    The polynomial at target ray rho is a section of a line bundle of class
    chi_rho, and root i carries the twist class chi_i.  Each row of
    ``psi_exponents(md.target)`` combines the representatives of the
    chi_rho, then of the chi_i, and the class of the sum must be zero in
    the source Picard presentation, ``picard_group(md.source)``, which the
    twist classes must share.  The data go through
    :func:`validate_morphism_data` first; its fan checks are cached by fan,
    so a second check of the same data does not certify again.
    """
    validate_morphism_data(md)
    presentation = picard_group(md.source)
    classes = [degree(p, md.source) for p in md.polys] + list(md.chi)
    combine = IntegerMatrix.column_stack([cls.representative for cls in classes],
                                         md.source.ray_count)
    return all(presentation.class_of(combine.apply(row)).is_zero
               for row in psi_exponents(md.target).entries)


def check_condition_b(md: MorphismData, sample_budget: int = DEFAULT_SAMPLE_BUDGET,
                      seed: int = 0) -> ConditionBVerdict:
    """Does the polynomial tuple map the source locus into the target locus?

    For tuples in which every polynomial is a single monomial or zero, the
    worst case for a maximal source cone is the point vanishing exactly on
    its rays, whose image vanishes on the target rays whose polynomial meets
    the cone (or is zero); the verdict is proven when each such image
    pattern is admissible on the target, refuted with the failing cone
    otherwise.

    Other tuples are decided by :func:`chart_verdict`.  When the charts do
    not prove the tuple, :func:`sample_witness` searches for a rational
    point with ``sample_budget`` and ``seed``; a point found refutes and is
    the witness.  Otherwise the charts' verdict stands: refuted with the
    first chart cone whose ideal misses 1, or unknown when the charts spent
    ``CHART_WORK_LIMIT`` before one missed 1.  The data are validated as in
    :func:`check_condition_a`.
    """
    validate_morphism_data(md)
    if all(len(p.terms) <= 1 for p in md.polys):
        for cone in md.source.fan.cones:
            image_pattern = frozenset(
                k for k, p in enumerate(md.polys)
                if p.is_zero or (p.support_vars() & cone))
            if not is_admissible_zero_pattern(md.target.fan, image_pattern):
                return ConditionBVerdict.refuted_pattern(cone)
        return ConditionBVerdict.proven()

    verdict = chart_verdict(md)
    if verdict.is_proven:
        return verdict
    witness = sample_witness(md, sample_budget, seed)
    return witness if witness.is_refuted else verdict


def chart_verdict(md: MorphismData) -> ConditionBVerdict:
    """Condition B decided on the charts of the maximal source cones.

    The tuple must be homogeneous in the source grading, graded as in
    :func:`check_condition_a`; :class:`NotHomogeneousError` is raised
    otherwise, since only then is its zero set stable under the group.  For
    each maximal source cone, in ``fan.cones`` order,
    and each primitive collection of the target fan, the coordinates off the
    cone are set to 1 in the collection's polynomials, and Buchberger's
    algorithm decides whether 1 lies in the ideal they generate (see the
    module docstring); the ideal of a chart of one variable (a source of
    lattice rank 1) is first tried by :func:`_coprime_mod_p`, which may
    prove that it holds 1.  Proven when 1 lies in every ideal; refuted with
    the first cone where it does not; unknown when the ideals, taken in that
    order, spend ``CHART_WORK_LIMIT`` units of work (see :class:`_Work`)
    before one of them misses 1.  The data are expected to have passed
    :func:`validate_morphism_data`.
    """
    for p in md.polys:
        if not p.is_zero:
            degree(p, md.source)
    collections = primitive_collections(md.target.fan)
    work = _Work(CHART_WORK_LIMIT)
    try:
        for cone in md.source.fan.cones:
            chart = sorted(cone)
            restricted = [_dehomogenize(p.terms, chart) for p in md.polys]
            for collection in collections:
                generators = [restricted[k] for k in collection if restricted[k]]
                if len(chart) == 1 and _coprime_mod_p(generators, work):
                    continue
                if not _contains_one(generators, work):
                    return ConditionBVerdict.refuted_pattern(cone)
    except _OutOfWork:
        return ConditionBVerdict.unknown()
    return ConditionBVerdict.proven()


def sample_witness(md: MorphismData, sample_budget: int = DEFAULT_SAMPLE_BUDGET,
                   seed: int = 0) -> ConditionBVerdict:
    """Search for a rational point of the source locus whose image leaves the
    target locus: refuted with that point, or unknown.

    For every admissible source zero pattern, smallest first, the free
    coordinates run over the values of ``SAMPLE_VALUES``: all combinations
    when they fit in what is left of ``sample_budget``, otherwise the rest
    of the budget as samples drawn one coordinate at a time by
    ``random.Random(seed).choice``.  The first sample whose image pattern is
    inadmissible is returned as a point of ``Fraction`` coordinates.

    The samples are evaluated in integers.  ``SAMPLE_VALUES`` holds each
    value times ``D = SAMPLE_DENOMINATOR``, and each polynomial's integer
    terms are compiled once per call: a term of total degree ``deg`` is
    multiplied by ``D**(top - deg)``, ``top`` the polynomial's largest total
    degree.  At the scaled point the compiled polynomial is the original
    value times a nonzero integer, so every zero test, and with it every
    witness, is the one exact rational evaluation gives.  The tuple need not
    be homogeneous and the data are not validated here.

    The search pays each sample from a :class:`_Work` of ``CHART_WORK_LIMIT``
    units of its own: one unit per term evaluated, plus the multiplications
    that build a term's value, charged as one product of two numbers of the
    largest term value's bit length.  Running out of work ends the search as
    an exhausted ``sample_budget`` does.
    """
    target_fan = md.target.fan
    compiled = [_integer_terms(p, SAMPLE_DENOMINATOR) for p in md.polys]
    value_bits = max(v.bit_length() for v in SAMPLE_VALUES)
    import random  # only the sampler draws
    rng = random.Random(seed)
    remaining = sample_budget
    work = _Work(CHART_WORK_LIMIT)
    n_source = md.source.ray_count
    try:
        for pattern in md.source.fan.faces():
            if remaining <= 0:
                break
            free = [k for k in range(n_source) if k not in pattern]
            space = len(SAMPLE_VALUES) ** len(free)
            if space <= remaining:
                assignments = itertools.product(SAMPLE_VALUES, repeat=len(free))
                remaining -= space
            else:
                count = remaining
                assignments = (tuple(map(rng.choice, itertools.repeat(SAMPLE_VALUES, len(free))))
                               for _ in range(count))
                remaining = 0
            # Terms through a coordinate of the pattern vanish; the others read
            # the sample by position in ``free``.
            position = {k: j for j, k in enumerate(free)}
            restricted = [[(c, tuple((position[k], e) for k, e in enumerate(exps) if e))
                           for c, exps in terms if not any(exps[k] for k in pattern)]
                          for terms in compiled]
            size = sum(map(len, restricted))
            bits = max((c.bit_length() + value_bits * sum(e for _, e in factors)
                        for terms in restricted for c, factors in terms), default=0)
            for assignment in assignments:
                work.spend(size, bits, bits)
                image_pattern = frozenset(
                    k for k, terms in enumerate(restricted)
                    if not _integer_value(terms, assignment))
                if not is_admissible_zero_pattern(target_fan, image_pattern):
                    from fractions import Fraction

                    point = [Fraction(0)] * n_source
                    for k, value in zip(free, assignment):
                        point[k] = Fraction(value, SAMPLE_DENOMINATOR)
                    return ConditionBVerdict.refuted_point(point)
    except _OutOfWork:
        pass
    return ConditionBVerdict.unknown()


def _integer_terms(p: SparsePolynomial, denominator: int) -> list:
    """``p`` as (integer coefficient, exponents) terms whose value at ``V`` is
    ``p.denominator * denominator**top * p(V / denominator)``, ``top`` the
    largest total degree."""
    degrees = [sum(exps) for _, exps in p.terms]
    top = max(degrees, default=0)
    return [(c * denominator ** (top - deg), exps) for (c, exps), deg in zip(p.terms, degrees)]


def _integer_value(terms, values) -> int:
    """Sum of ``c * prod(values[j] ** e)`` over (c, ((j, e), ...)) terms."""
    total = 0
    for c, factors in terms:
        for j, e in factors:
            c *= values[j] ** e
        total += c
    return total


# ---------------------------------------------------------------------------
# Chart ideals: integer polynomials as {exponents: coefficient} dictionaries
# ---------------------------------------------------------------------------

def _dehomogenize(terms, chart: Sequence[int]) -> dict:
    """The (coefficient, exponents) terms with every variable outside
    ``chart`` set to 1, in the variables of ``chart``."""
    poly: dict[tuple[int, ...], int] = {}
    for c, exps in terms:
        key = tuple(exps[k] for k in chart)
        poly[key] = poly.get(key, 0) + c
    return {e: c for e, c in poly.items() if c}


def _grevlex(exponents: tuple[int, ...]):
    """Sort key of a monomial in graded reverse lexicographic order."""
    return sum(exponents), tuple(-e for e in reversed(exponents))


def _descending(exponents: tuple[int, ...]):
    """Sort key that puts the grevlex-largest monomial first."""
    return -sum(exponents), exponents[::-1]


class _OutOfWork(Exception):
    """The chart check or the sampler of one tuple has spent
    ``CHART_WORK_LIMIT``."""


class _Work:
    """What the chart check or the sampler of one tuple may still spend, in
    units.

    A step over ``terms`` terms costs one unit per term, and when it
    multiplies coefficients of about ``a_bits`` and ``b_bits`` bits, one
    more per 2**20 bit pairs: the interpreter spends about as long on one
    term as on multiplying 256 pairs of 64-bit words.  A unit then takes
    2-4 microseconds on a 2-core x86 machine.  Buchberger's algorithm has
    no useful bound of its own, and the coefficients of fraction-free
    remainders can grow by digits at every step, so the count bounds time,
    not only S-pairs.
    """

    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def spend(self, terms: int, a_bits: int = 0, b_bits: int = 0) -> None:
        self.left -= terms * (1 + (a_bits * b_bits >> 20))
        if self.left < 0:
            raise _OutOfWork


def _contains_one(generators: Sequence[dict], work: _Work) -> bool:
    """Does 1 lie in the ideal over Q of these nonzero integer polynomials?

    Buchberger's algorithm in grevlex order, the pair of least lcm first,
    with the pair criteria of Gebauer and Moller ("On an installation of
    Buchberger's algorithm", 1988) as in Becker and Weispfenning,
    *Groebner Bases*, section 5.5.  True as soon as a nonzero constant turns
    up; False when the basis is complete without one.  Every step is paid
    from ``work``, which raises :class:`_OutOfWork` when it runs out.
    """
    # (leading exponents, leading coefficient, poly, largest coefficient bits)
    polys: list[tuple] = []
    active: list[int] = []
    pairs: list[tuple[int, int, tuple[int, ...]]] = []  # (i, j, lcm of leads)

    def add(poly: dict) -> bool:
        """Put ``poly`` in the basis and update the pairs; True when it is
        a nonzero constant."""
        work.spend(len(poly) + len(pairs) + len(active) ** 2)
        lead = max(poly, key=_grevlex)
        if not any(lead):
            return True
        new = len(polys)
        polys.append((lead, poly[lead], poly, max(c.bit_length() for c in poly.values())))
        candidates = [(i, tuple(map(max, polys[i][0], lead))) for i in active]
        kept = []
        for index, (i, top) in enumerate(candidates):
            if _coprime(polys[i][0], lead) or not any(
                    _divides(other, top) for _, other in candidates[index + 1:] + kept):
                kept.append((i, top))
        pairs[:] = [(i, j, top) for i, j, top in pairs
                    if not (_divides(lead, top)
                            and tuple(map(max, polys[i][0], lead)) != top
                            and tuple(map(max, polys[j][0], lead)) != top)]
        pairs.extend((i, new, top) for i, top in kept if not _coprime(polys[i][0], lead))
        active[:] = [i for i in active if not _divides(lead, polys[i][0])] + [new]
        return False

    for g in generators:
        if add(g):
            return True
    while pairs:
        work.spend(len(pairs))
        index = min(range(len(pairs)), key=lambda k: _grevlex(pairs[k][2]))
        i, j, top = pairs.pop(index)
        (lead_i, coeff_i, poly_i, bits_i), (lead_j, coeff_j, poly_j, bits_j) = polys[i], polys[j]
        work.spend(len(poly_i), bits_i, coeff_j.bit_length())
        work.spend(len(poly_j), bits_j, coeff_i.bit_length())
        k = gcd(coeff_i, coeff_j)
        s_poly = _combine({}, coeff_j // k, _shifted(poly_i, top, lead_i))
        s_poly = _combine(s_poly, -(coeff_i // k), _shifted(poly_j, top, lead_j))
        remainder = _reduce(s_poly, [polys[m] for m in active], work)
        if remainder and add(remainder):
            return True
    return False


# The modular gcd test of univariate charts: the Mersenne prime p = 2**61 - 1,
# the bits of one coefficient slot of a polynomial packed into one int, and
# the largest degree the slots have room for (see ``_coprime_mod_p``).
_PRIME = (1 << 61) - 1
_SLOT = 144
_SLOT_MASK = (1 << _SLOT) - 1
_MAX_DEGREE = 1 << 20
# What one step of the modular gcd costs in units of ``_Work``: a base, and
# one more unit per ``_SLOTS_PER_UNIT`` slots it touches.  Fitted to the
# time of Buchberger units in the same process, on the two charts of random
# 5-term binary forms of degree 300 (1,150 steps over 116,018 slots, 5,316
# units' time) and 1,000 (4,098 steps over 1,406,546 slots, 37,749 units).
_STEP_UNITS = 3
_SLOTS_PER_UNIT = 48


def _coprime_mod_p(generators: Sequence[dict], work: _Work) -> bool:
    """Is the gcd over Q of these nonzero univariate integer polynomials 1,
    as shown modulo p = 2**61 - 1?

    True when p divides no leading coefficient and the gcd of the images
    modulo p is a nonzero constant: a common factor over Q of positive
    degree has a primitive integer form whose leading coefficient divides
    every leading coefficient (Gauss's lemma), so its image keeps its degree
    and divides every image (Collins, "The calculation of multivariate
    polynomial resultants", 1971).  False proves nothing.

    Euclid's algorithm runs on polynomials packed into one int, coefficient
    ``k`` in slot ``k`` of ``_SLOT`` bits, so that one elimination step is
    a few big-integer operations.  Slots hold nonnegative representatives:
    a step adds ``(-q) mod p`` times the divisor, whose slots are below
    2**62, so a remainder's slots stay below 2**62 + n * 2**123 < 2**144
    for degree n < 2**20, and no slot carries into the next.  Each remainder
    is then folded back below 2**62 with 2**61 = 1 (mod p).  Each step is
    paid from ``work`` by the slots it touches.
    """
    if not generators:
        return False
    size = 1 + max(max(poly)[0] for poly in generators)
    if size > _MAX_DEGREE or any(poly[max(poly)] % _PRIME == 0 for poly in generators):
        return False
    ones = int.from_bytes((b"\1" + bytes(_SLOT // 8 - 1)) * size, "little")
    low, high = ones * _PRIME, ones * ((1 << (_SLOT - 61)) - 1)

    def slot(a: int, k: int) -> int:
        return (a >> (_SLOT * k) & _SLOT_MASK) % _PRIME

    def degree(a: int, top: int) -> int:
        """The largest k <= top whose slot of ``a`` is nonzero mod p, or -1."""
        while top >= 0 and not slot(a, top):
            top -= 1
        return top

    gcd_poly, gcd_degree = 0, -1
    for poly in generators:
        a, da = _pack(poly), max(poly)[0]
        b, db = gcd_poly, gcd_degree
        if da < db:
            a, da, b, db = b, db, a, da
        while db >= 0:
            minus_inverse = _PRIME - pow(slot(b, db), -1, _PRIME)
            while da >= db:
                work.spend(_STEP_UNITS + db // _SLOTS_PER_UNIT)
                a += (slot(a, da) * minus_inverse % _PRIME * b) << (_SLOT * (da - db))
                da = degree(a, da - 1)
            work.spend(_STEP_UNITS + da // _SLOTS_PER_UNIT)
            a &= (1 << (_SLOT * (da + 1))) - 1
            for _ in range(2):  # below 2**144, then 2**84 and 2**62
                a = (a & low) + (a >> 61 & high)
            a, da, b, db = b, db, a, da
        gcd_poly, gcd_degree = a, da
        if gcd_degree == 0:
            return True
    return False


def _pack(poly: dict) -> int:
    """A univariate ``{(e,): c}`` polynomial as one int, ``c mod p`` in slot ``e``."""
    slots = [0] * (1 + max(poly)[0])
    for (e,), c in poly.items():
        slots[e] = c % _PRIME
    return int.from_bytes(b"".join(c.to_bytes(_SLOT // 8, "little") for c in slots), "little")


def _divides(small: tuple[int, ...], big: tuple[int, ...]) -> bool:
    return all(a <= b for a, b in zip(small, big))


def _coprime(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return not any(x and y for x, y in zip(a, b))


def _shifted(poly: dict, top: tuple[int, ...], lead: tuple[int, ...]) -> dict:
    """``poly`` times the monomial ``top / lead``."""
    shift = [t - e for t, e in zip(top, lead)]
    return {tuple(map(sum, zip(e, shift))): c for e, c in poly.items()}


def _combine(poly: dict, factor: int, other: dict) -> dict:
    """``poly + factor * other``, dropping cancelled terms, in place."""
    for e, c in other.items():
        value = poly.get(e, 0) + factor * c
        if value:
            poly[e] = value
        else:
            poly.pop(e, None)
    return poly


def _reduce(poly: dict, basis: Sequence[tuple], work: _Work) -> dict:
    """A nonzero integer multiple of the remainder of ``poly`` on full
    division by ``basis``, divided by the gcd of its coefficients.

    The terms are visited largest first, from a heap, and each one divisible
    by a leading monomial of the basis is cancelled: the whole polynomial is
    scaled by the integer that makes the cancellation exact, and the terms
    it adds lie below the cancelled one.  The terms kept lie above every
    term still to reduce, so they never meet again; each is scaled once at
    the end by the product of the scales that came after it.  Each step is
    paid from ``work`` at the sizes of the coefficients it multiplies.
    """
    from heapq import heapify, heappop, heappush

    poly = dict(poly)
    order = [(_descending(e), e) for e in poly]
    heapify(order)
    kept: dict[tuple[int, ...], tuple[int, int]] = {}  # (coefficient, scale so far)
    total_scale, kept_bits = 1, 0
    bits = max((c.bit_length() for c in poly.values()), default=0)
    work.spend(len(poly))
    while order:
        lead = heappop(order)[1]
        coeff = poly.pop(lead, 0)
        if not coeff:  # cancelled since it was pushed, or visited already
            continue
        work.spend(len(basis))
        divisor = next((g for g in basis if _divides(g[0], lead)), None)
        if divisor is None:
            kept[lead] = coeff, total_scale
            kept_bits = max(kept_bits, coeff.bit_length())
            continue
        g_lead, g_coeff, g, g_bits = divisor
        k = gcd(coeff, g_coeff)
        scale, factor = g_coeff // k, coeff // k
        if scale != 1:
            work.spend(len(poly), bits, scale.bit_length())
            poly = {e: scale * c for e, c in poly.items()}
            total_scale *= scale
            bits = max((c.bit_length() for c in poly.values()), default=0)
        shifted = _shifted(g, lead, g_lead)
        del shifted[lead]  # cancels the visited term exactly
        work.spend(len(g), factor.bit_length(), g_bits)
        bits = max(bits, factor.bit_length() + g_bits)
        for e in shifted:
            if e not in poly:
                heappush(order, (_descending(e), e))
        poly = _combine(poly, -factor, shifted)
    work.spend(len(kept), kept_bits, total_scale.bit_length())
    remainder = {e: c * (total_scale // scale) for e, (c, scale) in kept.items()}
    content = gcd(*remainder.values())
    return {e: c // content for e, c in remainder.items()}


def _scalar_ratio(new: SparsePolynomial, old: SparsePolynomial) -> Optional[tuple[int, int]]:
    """The constant lambda with new = lambda * old, as a reduced pair (p, q)
    of ints with q > 0, or None; decided by cross-multiplication."""
    if new.is_zero and old.is_zero:
        return 1, 1
    if len(new.terms) != len(old.terms):
        return None
    if any(en != eo for (_, en), (_, eo) in zip(new.terms, old.terms)):
        return None
    first_new, first_old = new.terms[0][0], old.terms[0][0]
    if any(cn * first_old != co * first_new
           for (cn, _), (co, _) in zip(new.terms[1:], old.terms[1:])):
        return None
    p, q = first_new * old.denominator, first_old * new.denominator
    k = gcd(p, q) if q > 0 else -gcd(p, q)
    return p // k, q // k


def _relations_hold(ratios: Sequence[tuple[int, int]], rays, rank: int) -> bool:
    """Is prod_k (p_k / q_k) ** rays[k][l] = 1 for every l < rank?  Decided
    over a coprime base of the |p_k| and q_k, with no power taken."""
    base = coprime_base([abs(p) for p, _ in ratios] + [q for _, q in ratios])
    exponents = [[split_power(abs(p), b)[0] - split_power(q, b)[0] for p, q in ratios]
                 for b in base]
    for l in range(rank):
        column = [ray[l] for ray in rays]
        if sum(a for a, (p, _) in zip(column, ratios) if p < 0) % 2:
            return False
        if any(sum(a * e for a, e in zip(column, row)) for row in exponents):
            return False
    return True


def check_two_isomorphic(md1: MorphismData, md2: MorphismData) -> TwoIsoVerdict:
    """Do two tuples define the same morphism up to the group action?

    The tuples must be proportional coordinatewise; the ratios must then
    satisfy, for every lattice coordinate l of the target, the multiplicative
    relation prod_k lambda_k ** a_kl = 1 given by the target ray entries
    a_kl.  The root components of a witness always exist over the complex
    numbers, so only these relations decide.  No power is taken: every
    |lambda_k| is a product of powers b ** e_kb of one coprime base b, so
    the relation holds exactly when sum_k a_kl * e_kb = 0 for each b and
    sum_k a_kl over the negative lambda_k is even.  The ratios of a ``yes``
    are ``Fraction``s.
    """
    if md1.source != md2.source or md1.target != md2.target or md1.chi != md2.chi:
        raise MismatchedSourceTargetError(
            "comparison requires identical source, target and twist classes")
    validate_morphism_data(md1)
    ratios = []
    for p_new, p_old in zip(md2.polys, md1.polys):
        ratio = _scalar_ratio(p_new, p_old)
        if ratio is None:
            return TwoIsoVerdict.no()
        ratios.append(ratio)
    if not _relations_hold(ratios, md1.target.fan.rays, md1.target.lattice_rank):
        return TwoIsoVerdict.no()
    from fractions import Fraction

    return TwoIsoVerdict.yes([Fraction(p, q) for p, q in ratios])
