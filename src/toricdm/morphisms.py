"""Homogeneous polynomial maps between toric stack data.

A morphism candidate is a tuple of polynomials in the source ray variables,
one per target ray, plus one source divisor class per target root index.
Three verdicts are computed: the degree condition on the classes, the
nondegeneracy condition on where the polynomials may vanish, and whether two
tuples differ by the group action (a scalar per coordinate satisfying the
exponent relations of the target rays).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from .errors import (MismatchedSourceTargetError, NotHomogeneousError,
                     SourceNotCompleteError, SourceNotRigidError,
                     TargetRaysNotSpanningError, Value, ZeroPolynomialError)
from .fans import is_admissible_zero_pattern, is_complete, maximal_cones, rays_span
from .gerbes import PicardPresentation, PicClass, picard_group
from .stacky import StackyData

DEFAULT_SAMPLE_VALUES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
                         Fraction(3), Fraction(-3), Fraction(1, 2), Fraction(-1, 2))
DEFAULT_SAMPLE_BUDGET = 2000


class SparsePolynomial(Value):
    """A polynomial with exact rational coefficients in sparse form.

    Terms are (coefficient, exponent vector) pairs with nonnegative exponents;
    construction merges duplicate exponent vectors, drops zero coefficients
    and sorts, so equal polynomials compare equal.
    """

    _fields = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Iterable[tuple[Fraction, Sequence[int]]]):
        merged: dict[tuple[int, ...], Fraction] = {}
        for coeff, exponents in terms:
            exponents = tuple(int(e) for e in exponents)
            if len(exponents) != num_vars:
                raise ValueError(f"exponent vector {exponents} has wrong length")
            if any(e < 0 for e in exponents):
                raise ValueError(f"negative exponent in {exponents}")
            merged[exponents] = merged.get(exponents, Fraction(0)) + Fraction(coeff)
        cleaned = tuple(sorted(((c, e) for e, c in merged.items() if c), key=lambda t: t[1]))
        self.__dict__.update(num_vars=num_vars, terms=cleaned)

    @classmethod
    def zero(cls, num_vars: int) -> "SparsePolynomial":
        return cls(num_vars, ())

    @classmethod
    def monomial(cls, num_vars: int, coefficient, exponents: Sequence[int]) -> "SparsePolynomial":
        return cls(num_vars, ((Fraction(coefficient), tuple(exponents)),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def support_vars(self) -> frozenset[int]:
        """Variables that occur with a positive exponent in some term."""
        return frozenset(k for _, exps in self.terms for k, e in enumerate(exps) if e)

    def evaluate(self, values: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for coeff, exps in self.terms:
            term = coeff
            for v, e in zip(values, exps):
                if e:
                    term *= v ** e
            total += term
        return total

    def scale(self, factor) -> "SparsePolynomial":
        factor = Fraction(factor)
        return SparsePolynomial(self.num_vars,
                                tuple((factor * c, e) for c, e in self.terms))

    def __mul__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        terms = [(ca * cb, tuple(x + y for x, y in zip(ea, eb)))
                 for ca, ea in self.terms for cb, eb in other.terms]
        return SparsePolynomial(self.num_vars, tuple(terms))


class MorphismData(Value):
    """Source and target data, one polynomial per target ray, one source
    divisor class per target root index."""

    _fields = ("source", "target", "polys", "chi")

    def __init__(self, source: StackyData, target: StackyData,
                 polys: Iterable[SparsePolynomial], chi: Iterable[PicClass]):
        self.__dict__.update(source=source, target=target, polys=tuple(polys), chi=tuple(chi))


class ConditionBVerdict(Value):
    """Outcome of the vanishing-locus check: proven, refuted, or unknown.

    A refutation carries either the failing maximal source cone (worst-case
    zero pattern) or an explicit rational point of the source locus whose
    image leaves the target locus.
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
        # A presentation is fixed by its relation matrix, whose rows are the
        # source rays; comparing those needs no second Smith form.
        relations = md.source.fan.ray_matrix().transpose()
        if any(cls.presentation.n != md.source.ray_count
               or cls.presentation.relation_matrix != relations for cls in md.chi):
            raise MismatchedSourceTargetError(
                "twist classes do not live on the source Picard presentation")
    if not is_complete(md.source.fan):
        raise SourceNotCompleteError("the source fan must be complete")
    if not rays_span(md.target.fan)[0]:
        raise TargetRaysNotSpanningError("the target rays must span the target lattice")


def degree(p: SparsePolynomial, source: StackyData,
           presentation: Optional[PicardPresentation] = None) -> PicClass:
    """The common divisor class of all terms of ``p`` in the source grading.

    A monomial's class is the class of its exponent vector.  Raises when the
    polynomial is zero or mixes classes.  ``presentation`` defaults to
    ``picard_group(source)``; pass it to grade several polynomials against
    one presentation.
    """
    if not source.is_rigid:
        raise SourceNotRigidError("grading is defined for rigid data only")
    if p.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no degree")
    if presentation is None:
        presentation = picard_group(source)
    first = presentation.class_of(p.terms[0][1])
    for _, exponents in p.terms[1:]:
        if presentation.class_of(exponents) != first:
            raise NotHomogeneousError(
                f"terms {p.terms[0][1]} and {exponents} have different classes")
    return first


def check_condition_a(md: MorphismData) -> bool:
    """The degree condition on the polynomial classes.

    Writing chi_rho for the class of the polynomial at target ray rho, this
    checks that the sum of a_rho-weighted classes vanishes coordinatewise and
    that for each root index i the b-weighted class sum plus r_i times the
    chosen twist class vanishes.  Every class lives on one source Picard
    presentation: the twist classes' own, or one built here.  The data go
    through :func:`validate_morphism_data` first; its fan checks are cached
    by fan, so a second check of the same data does not certify again.
    """
    validate_morphism_data(md)
    presentation = md.chi[0].presentation if md.chi else picard_group(md.source)
    classes = [degree(p, md.source, presentation) for p in md.polys]
    d = md.target.lattice_rank
    for l in range(d):
        total = presentation.zero_class()
        for k, cls in enumerate(classes):
            total = total + md.target.fan.rays[k][l] * cls
        if not total.is_zero:
            return False
    for i in range(md.target.root_count):
        total = md.target.r[i] * md.chi[i]
        for k, cls in enumerate(classes):
            total = total + md.target.b[i, k] * cls
        if not total.is_zero:
            return False
    return True


def check_condition_b(md: MorphismData,
                      sample_values: Sequence[Fraction] = DEFAULT_SAMPLE_VALUES,
                      sample_budget: int = DEFAULT_SAMPLE_BUDGET,
                      seed: int = 0) -> ConditionBVerdict:
    """Does the polynomial tuple map the source locus into the target locus?

    For tuples in which every polynomial is a single monomial or zero the
    question is decided exactly: the worst case for a maximal source cone is
    the point vanishing exactly on its rays, whose image vanishes on the
    target rays whose polynomial meets the cone (or is zero); the verdict is
    proven when each such image pattern is admissible on the target, refuted
    with the failing cone otherwise.

    General tuples are only searched for refutations: for every admissible
    source zero pattern, smallest first, the free coordinates run over the
    nonzero ``sample_values``: all combinations when they fit in what is left
    of ``sample_budget``, otherwise the rest of the budget as samples drawn
    one coordinate at a time by ``random.Random(seed).choice``.  Any sample whose
    image pattern is inadmissible refutes, and the verdict carries it as a
    point of ``Fraction`` coordinates.  With the budget exhausted or the
    search clean the verdict is unknown, never proven.

    The samples are evaluated in integers.  With ``D`` the lcm of the sample
    denominators, each value ``v`` becomes the integer ``v * D``, and each
    polynomial is compiled once per call to integer coefficients: it is
    multiplied by the lcm of its coefficient denominators, and a term of
    total degree ``deg`` by ``D**(top - deg)``, ``top`` the polynomial's
    largest total degree.  At the scaled point the compiled polynomial is the
    original value times a nonzero integer, so every zero test, and with it
    every verdict and witness, is the one exact rational evaluation gives.
    The data are validated as in :func:`check_condition_a`.
    """
    validate_morphism_data(md)
    target_fan = md.target.fan

    if all(len(p.terms) <= 1 for p in md.polys):
        for cone in maximal_cones(md.source.fan):
            image_pattern = frozenset(
                k for k, p in enumerate(md.polys)
                if p.is_zero or (p.support_vars() & cone))
            if not is_admissible_zero_pattern(target_fan, image_pattern):
                return ConditionBVerdict.refuted_pattern(cone)
        return ConditionBVerdict.proven()

    # Free coordinates take nonzero values only: the zero set of a sample must
    # be a source cone, and every cone is searched as a pattern of its own.
    sample_values = [v for v in sample_values if v]
    denominator = lcm(*(v.denominator for v in sample_values))
    scaled_values = [v.numerator * (denominator // v.denominator) for v in sample_values]
    compiled = [_integer_terms(p, denominator) for p in md.polys]
    rng = random.Random(seed)
    remaining = sample_budget
    n_source = md.source.ray_count
    for pattern in md.source.fan.sorted_cones():
        if remaining <= 0:
            break
        free = [k for k in range(n_source) if k not in pattern]
        space = len(sample_values) ** len(free)
        if space <= remaining:
            assignments = itertools.product(scaled_values, repeat=len(free))
            remaining -= space
        else:
            count = remaining
            assignments = (tuple(map(rng.choice, itertools.repeat(scaled_values, len(free))))
                           for _ in range(count))
            remaining = 0
        # Terms through a coordinate of the pattern vanish; the others read
        # the sample by position in ``free``.
        position = {k: j for j, k in enumerate(free)}
        restricted = [[(c, tuple((position[k], e) for k, e in enumerate(exps) if e))
                       for c, exps in terms if not any(exps[k] for k in pattern)]
                      for terms in compiled]
        for assignment in assignments:
            image_pattern = frozenset(
                k for k, terms in enumerate(restricted)
                if not _integer_value(terms, assignment))
            if not is_admissible_zero_pattern(target_fan, image_pattern):
                point = [Fraction(0)] * n_source
                for k, value in zip(free, assignment):
                    point[k] = Fraction(value, denominator)
                return ConditionBVerdict.refuted_point(point)
    return ConditionBVerdict.unknown()


def _integer_terms(p: SparsePolynomial, denominator: int) -> list:
    """``p`` as (integer coefficient, exponents) terms whose value at ``V`` is
    ``scale * denominator**top * p(V / denominator)``, ``scale`` the lcm of
    the coefficient denominators and ``top`` the largest total degree."""
    scale = lcm(*(c.denominator for c, _ in p.terms))
    degrees = [sum(exps) for _, exps in p.terms]
    top = max(degrees, default=0)
    return [(c.numerator * (scale // c.denominator) * denominator ** (top - deg), exps)
            for (c, exps), deg in zip(p.terms, degrees)]


def _integer_value(terms, values) -> int:
    """Sum of ``c * prod(values[j] ** e)`` over (c, ((j, e), ...)) terms."""
    total = 0
    for c, factors in terms:
        for j, e in factors:
            c *= values[j] ** e
        total += c
    return total


def _scalar_ratio(new: SparsePolynomial, old: SparsePolynomial) -> Optional[Fraction]:
    """The constant lambda with new = lambda * old, or None."""
    if new.is_zero and old.is_zero:
        return Fraction(1)
    if len(new.terms) != len(old.terms):
        return None
    if any(en != eo for (_, en), (_, eo) in zip(new.terms, old.terms)):
        return None
    ratio = new.terms[0][0] / old.terms[0][0]
    for (cn, _), (co, _) in zip(new.terms[1:], old.terms[1:]):
        if cn / co != ratio:
            return None
    return ratio


def check_two_isomorphic(md1: MorphismData, md2: MorphismData) -> TwoIsoVerdict:
    """Do two tuples define the same morphism up to the group action?

    The tuples must be proportional coordinatewise; the ratios must then
    satisfy, for every lattice coordinate of the target, the multiplicative
    relation given by the target ray exponents.  The root components of a
    witness always exist over the complex numbers, so only these relations
    decide.  All checks are exact over the rationals.
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
    for l in range(md1.target.lattice_rank):
        product = Fraction(1)
        for k, ratio in enumerate(ratios):
            exponent = md1.target.fan.rays[k][l]
            if exponent:
                product *= ratio ** exponent
        if product != 1:
            return TwoIsoVerdict.no()
    return TwoIsoVerdict.yes(ratios)
