import itertools
import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, find, given, settings
from hypothesis import strategies as st

from toricdm import (IntegerMatrix, MismatchedSourceTargetError, MorphismData,
                     NotHomogeneousError, SimplicialFan, SourceNotCompleteError,
                     SparsePolynomial, StackyData, TargetRaysNotSpanningError,
                     ZeroPolynomialError, check_condition_a, check_condition_b,
                     check_two_isomorphic, degree, is_admissible_zero_pattern,
                     picard_group)
from toricdm import morphisms
from toricdm.morphisms import (CHART_WORK_LIMIT, DEFAULT_SAMPLE_BUDGET, ConditionBVerdict,
                               chart_verdict, sample_witness)

from conftest import (affine_fan, close_under_faces, condition_a_reference, line_fan,
                      make_fan, product_fan, projective_fan, projective_line_fan,
                      projective_plane_fan, weighted_line_root_data)

P1 = StackyData(projective_line_fan())
P2 = StackyData(projective_plane_fan())
P1_CUBED = StackyData(product_fan(projective_line_fan(),
                                  product_fan(projective_line_fan(), projective_line_fan())))


def mono(num_vars, coeff, exps):
    return SparsePolynomial.monomial(num_vars, coeff, exps)


def duple_map(d):
    return MorphismData(P1, P1, (mono(2, 1, (d, 0)), mono(2, 1, (0, d))), ())


class TestSparsePolynomial:
    def test_canonical_form(self):
        p = SparsePolynomial(2, ((Fraction(1), (1, 0)), (Fraction(2), (1, 0)),
                                 (Fraction(0), (0, 1))))
        assert p.terms == ((Fraction(3), (1, 0)),)
        assert p.denominator == 1

    def test_integer_terms_over_one_denominator(self):
        p = SparsePolynomial(2, ((Fraction(1, 2), (1, 0)), (Fraction(-2, 3), (0, 1))))
        assert p.terms == ((-4, (0, 1)), (3, (1, 0))) and p.denominator == 6
        assert all(type(c) is int for c, _ in p.terms)
        assert p == SparsePolynomial(2, ((6, (1, 0)), (-8, (0, 1))), 12)
        assert p.scale(Fraction(-3, 2)) == SparsePolynomial(2, ((-3, (1, 0)), (4, (0, 1))), 4)
        cancelled = SparsePolynomial(2, ((Fraction(1, 2), (1, 0)), (Fraction(-1, 2), (1, 0))), 5)
        assert cancelled == SparsePolynomial.zero(2) and cancelled.denominator == 1
        with pytest.raises(ValueError):
            SparsePolynomial(2, (), 0)

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            SparsePolynomial(1, ((Fraction(1), (-1,)),))

    def test_evaluate(self):
        p = SparsePolynomial(2, ((Fraction(1), (2, 0)), (Fraction(-1, 2), (0, 1))))
        assert p.evaluate((Fraction(3), Fraction(4))) == 9 - 2

    def test_product_support(self):
        p = mono(2, 2, (1, 0)) * mono(2, 3, (0, 2))
        assert p.terms == ((Fraction(6), (1, 2)),)
        assert p.support_vars() == {0, 1}


class TestDegree:
    def test_power_of_one_variable(self):
        pres = picard_group(P1)
        for d in (1, 2, 5):
            cls = degree(mono(2, 1, (d, 0)), P1)
            assert cls == pres.class_of((d, 0))
            assert cls == pres.class_of((0, d))

    def test_constant_is_zero_class(self):
        assert degree(mono(2, 7, (0, 0)), P1).is_zero

    def test_binomial_homogeneous(self):
        p = SparsePolynomial(2, ((Fraction(1), (1, 0)), (Fraction(1), (0, 1))))
        pres = picard_group(P1)
        assert degree(p, P1) == pres.class_of((1, 0))

    def test_inhomogeneous(self):
        p = SparsePolynomial(2, ((Fraction(1), (1, 0)), (Fraction(1), (2, 0))))
        with pytest.raises(NotHomogeneousError):
            degree(p, P1)

    def test_zero_polynomial(self):
        with pytest.raises(ZeroPolynomialError):
            degree(SparsePolynomial.zero(2), P1)

    def test_multiplicativity(self, rng):
        pres = picard_group(P1)
        for _ in range(20):
            p = mono(2, rng.randint(1, 5), (rng.randint(0, 3), 0))
            exp = rng.randint(0, 3)
            q = SparsePolynomial(2, ((Fraction(1), (exp, 0)), (Fraction(2), (0, exp))))
            assert degree(p * q, P1) == degree(p, P1) + degree(q, P1)


class TestConditionA:
    def test_duple_maps(self):
        for d in range(1, 6):
            assert check_condition_a(duple_map(d))

    def test_unbalanced_degrees(self):
        md = MorphismData(P1, P1, (mono(2, 1, (2, 0)), mono(2, 1, (0, 3))), ())
        assert not check_condition_a(md)

    def test_root_target_fixture(self):
        # classes 4g and 6g with twist class -3g satisfy both parts
        target = weighted_line_root_data()
        pres = picard_group(P1)
        md = MorphismData(P1, target,
                          (mono(2, 1, (2, 2)), mono(2, 1, (3, 3))),
                          (pres.class_of((-3, 0)),))
        assert check_condition_a(md)

    def test_root_target_wrong_twist(self):
        target = weighted_line_root_data()
        pres = picard_group(P1)
        md = MorphismData(P1, target,
                          (mono(2, 1, (2, 2)), mono(2, 1, (3, 3))),
                          (pres.class_of((-2, 0)),))
        assert not check_condition_a(md)

    def test_scaling_invariance(self, rng):
        # multiplying coordinates by admissible ratios never changes the verdict
        md = duple_map(3)
        scaled = MorphismData(P1, P1, (md.polys[0].scale(-5), md.polys[1].scale(Fraction(-1, 5))), ())
        assert check_condition_a(md) == check_condition_a(scaled)


# complete rigid sources, one with torsion in its Picard group, and spanning
# targets among which the sources recur
SOURCE_FANS = [projective_line_fan(), line_fan(3, 2), projective_plane_fan(),
               make_fan(2, [(2, -1), (-1, 2), (-1, -1)], [[0, 1], [1, 2], [0, 2]]),
               product_fan(projective_line_fan(), projective_line_fan())]
TARGET_FANS = SOURCE_FANS + [affine_fan(2), make_fan(1, [(3,)], [[0]])]


@st.composite
def rooted_morphisms(draw):
    """Morphism data into targets with up to three roots and twist classes
    drawn at random.  Half of them are self-maps of the source fan that
    raise each variable to one power m, with b = r c and twist classes -m c,
    so condition A holds unless a twist class is moved off that value."""
    source = StackyData(draw(st.sampled_from(SOURCE_FANS)))
    n, presentation = source.ray_count, picard_group(source)
    r = draw(st.lists(st.integers(1, 6), max_size=3))
    vectors = lambda size: st.lists(st.integers(-3, 3), min_size=size, max_size=size)
    if draw(st.booleans()):
        fan, m = source.fan, draw(st.integers(1, 3))
        polys = [mono(n, 1, tuple(m * (j == k) for j in range(n))) for k in range(n)]
        c = [draw(vectors(n)) for _ in r]
        b = [[order * x for x in row] for order, row in zip(r, c)]
        chi = [[-m * x for x in row] for row in c]
        if chi and draw(st.booleans()):
            chi[0][draw(st.integers(0, n - 1))] += draw(st.integers(1, 3))
    else:
        fan = draw(st.sampled_from(TARGET_FANS))
        exponents = st.lists(st.integers(0, 3), min_size=n, max_size=n)
        polys = []
        for _ in fan.rays:
            # a second term joins only when it has the first term's class
            first, second = draw(exponents), draw(exponents)
            same = presentation.class_of(first) == presentation.class_of(second)
            polys.append(SparsePolynomial(n, [(1, first)] + [(2, second)] * same))
        b = [draw(vectors(fan.ray_count)) for _ in r]
        chi = [draw(vectors(n)) for _ in r]
    target = StackyData(fan, r, IntegerMatrix.from_rows(b, fan.ray_count))
    return MorphismData(source, target, polys, [presentation.class_of(v) for v in chi])


class TestConditionAReference:
    @settings(max_examples=300, deadline=None)
    @given(rooted_morphisms())
    def test_agrees_with_the_class_by_class_sum(self, md):
        assert check_condition_a(md) == condition_a_reference(md)

    def test_draws_both_verdicts_with_roots_and_twists(self):
        # the property above is not vacuous: it meets rooted targets with
        # nonzero twist classes on both sides of the condition
        for verdict in (True, False):
            find(rooted_morphisms(),
                 lambda md: any(not cls.is_zero for cls in md.chi)
                 and condition_a_reference(md) is verdict,
                 settings=settings(database=None, derandomize=True, max_examples=500))


class TestConditionB:
    def test_duple_maps_proven(self):
        for d in range(1, 6):
            assert check_condition_b(duple_map(d)).is_proven

    def test_duplicated_coordinate_refuted(self):
        md = MorphismData(P1, P1, (mono(2, 1, (1, 0)), mono(2, 1, (1, 0))), ())
        verdict = check_condition_b(md)
        assert verdict.is_refuted
        assert verdict.witness_pattern == frozenset({0})

    def test_zero_polynomial_refuted(self):
        md = MorphismData(P1, P1, (SparsePolynomial.zero(2), mono(2, 1, (0, 1))), ())
        assert check_condition_b(md).is_refuted

    def test_monomial_image_patterns_admissible(self, rng):
        # whenever the verdict is proven, every admissible source pattern maps
        # to an admissible target pattern
        md = duple_map(2)
        assert check_condition_b(md).is_proven
        for pattern in ({0}, {1}, set()):
            image = {k for k, p in enumerate(md.polys)
                     if p.support_vars() & pattern or p.is_zero}
            assert is_admissible_zero_pattern(P1.fan, image)

    def test_general_tuples_are_never_proven(self):
        # a genuine common zero (1, -1, 0) exists, so proven would be wrong;
        # the exhaustive default sample set finds it and refutes
        md = MorphismData(P2, P1,
                          (SparsePolynomial(3, ((Fraction(1), (1, 0, 0)),
                                                (Fraction(1), (0, 1, 0)))),
                           mono(3, 1, (0, 0, 1))), ())
        verdict = check_condition_b(md)
        assert not verdict.is_proven
        if verdict.is_refuted:
            point = verdict.witness_point
            source_pattern = {k for k, x in enumerate(point) if x == 0}
            assert is_admissible_zero_pattern(P2.fan, source_pattern)
            image = [p.evaluate(point) for p in md.polys]
            image_pattern = {k for k, value in enumerate(image) if value == 0}
            assert not is_admissible_zero_pattern(P1.fan, image_pattern)

    def test_sound_unknown_for_rational_nonvanishing(self):
        # z-^2 + z+^2 has no rational zero on the source locus, so the sampler
        # cannot refute and answers unknown; the two vanish together only
        # where z- = z+ = 0, so the charts prove the tuple
        md = MorphismData(P1, P1,
                          (SparsePolynomial(2, ((Fraction(1), (2, 0)),
                                                (Fraction(1), (0, 2)))),
                           mono(2, 1, (0, 2))), ())
        assert sample_witness(md).status == "unknown"
        assert check_condition_b(md).is_proven

    def test_budget_zero_is_unknown(self, monkeypatch):
        md = MorphismData(P1, P1,
                          (SparsePolynomial(2, ((Fraction(1), (1, 0)),
                                                (Fraction(1), (0, 1)))),
                           mono(2, 1, (0, 1))), ())
        # the sample budget bounds only the search for a witness
        assert check_condition_b(md, sample_budget=0).is_proven
        monkeypatch.setattr(morphisms, "CHART_WORK_LIMIT", 0)
        assert check_condition_b(md, sample_budget=0).status == "unknown"

    def test_scaling_one_coordinate_keeps_verdict(self):
        base = duple_map(2)
        scaled = MorphismData(P1, P1, (base.polys[0].scale(7), base.polys[1]), ())
        assert check_condition_b(base).status == check_condition_b(scaled).status

    def test_monomial_verdict_matches_pointwise_bruteforce(self, rng):
        # re-derive the exact monomial verdict by evaluating at one point per
        # admissible source pattern (free coordinates set to nonzero values,
        # which is the worst case for monomials)
        import itertools
        targets = [P1, P2]
        sources = [P1, P2]
        for _ in range(60):
            source = sources[rng.randrange(len(sources))]
            target = targets[rng.randrange(len(targets))]
            n_src, n_tgt = source.ray_count, target.ray_count
            polys = []
            for _ in range(n_tgt):
                if rng.random() < 0.15:
                    polys.append(SparsePolynomial.zero(n_src))
                else:
                    exps = tuple(rng.randint(0, 2) for _ in range(n_src))
                    polys.append(SparsePolynomial.monomial(n_src, rng.choice((1, -2)), exps))
            md = MorphismData(source, target, tuple(polys), ())
            verdict = check_condition_b(md)
            assert verdict.status in ("proven", "refuted")

            patterns = set()
            for cone in source.fan.cones:
                cone = tuple(sorted(cone))
                for size in range(len(cone) + 1):
                    patterns.update(frozenset(c) for c in itertools.combinations(cone, size))
            violated = False
            for pattern in patterns:
                point = [Fraction(0) if k in pattern else Fraction(rng.choice((1, 2, 3)))
                         for k in range(n_src)]
                image_pattern = {k for k, p in enumerate(md.polys)
                                 if p.evaluate(point) == 0}
                if not is_admissible_zero_pattern(target.fan, image_pattern):
                    violated = True
                    break
            assert verdict.is_refuted == violated

    def test_source_must_be_complete(self):
        half = StackyData(affine_fan(1))
        md = MorphismData(half, P1, (mono(1, 1, (1,)), mono(1, 1, (1,))), ())
        with pytest.raises(SourceNotCompleteError):
            check_condition_b(md)

    def test_target_rays_must_span(self):
        skinny = StackyData(make_fan(2, [(1, 0)], [[0]]))
        md = MorphismData(P1, skinny, (mono(2, 1, (1, 0)),), ())
        with pytest.raises(TargetRaysNotSpanningError):
            check_condition_b(md)


class TestOneValidationOnePresentation:
    def squaring_map(self, data):
        n = data.ray_count
        return MorphismData(data, data, tuple(
            mono(n, 1, tuple(2 if j == k else 0 for j in range(n))) for k in range(n)), ())

    def test_condition_a_runs_one_picard_smith_form(self, snf_calls):
        md = self.squaring_map(P1_CUBED)
        snf_calls.clear()
        assert check_condition_a(md)
        # rays_span on the 3 x 6 target ray matrix, then the one 6 x 3
        # Picard presentation that grades all six polynomials
        assert snf_calls == [(3, 6), (6, 3)]

    def test_twist_classes_lend_their_presentation(self, snf_calls):
        pres = picard_group(P1)
        md = MorphismData(P1, weighted_line_root_data(),
                          (mono(2, 1, (2, 2)), mono(2, 1, (3, 3))),
                          (pres.class_of((-3, 0)),))
        snf_calls.clear()
        assert check_condition_a(md)
        # only rays_span (1 x 2): the validation compares the classes'
        # presentation with the source's, which is cached, not built again
        assert snf_calls == [(1, 2)]

    def test_twist_classes_of_another_fan_are_rejected(self):
        # same ray count, different rays: a presentation of another fan
        foreign = picard_group(StackyData(line_fan(3, 2))).class_of((-3, 0))
        md = MorphismData(P1, weighted_line_root_data(),
                          (mono(2, 1, (2, 2)), mono(2, 1, (3, 3))), (foreign,))
        with pytest.raises(MismatchedSourceTargetError):
            check_condition_a(md)

    def test_degree_takes_a_presentation(self, snf_calls):
        # the presentation is cached per datum: degree reuses it, with no
        # Smith form of its own
        pres = picard_group(P1)
        snf_calls.clear()
        cls = degree(mono(2, 1, (3, 0)), P1)
        assert cls == pres.class_of((0, 3)) and cls.presentation is pres
        assert snf_calls == []

    def test_both_conditions_certify_the_source_once(self, certificates, snf_calls):
        md = MorphismData(P1, P1, (binomial_line(), mono(2, 1, (0, 1))), ())
        assert check_condition_a(md)
        assert check_condition_b(md, sample_budget=50, seed=3).is_proven
        assert certificates == [P1.fan.cones]
        # the second validation reads the cached rays_span: one target Smith
        # form, then the Picard presentation condition A grades with
        assert snf_calls == [(1, 2), (2, 1)]

    def test_a_source_missing_a_face_is_rejected(self):
        # a listed face that is missing is implied by a cone that contains
        # it, so the face missing here is a maximal cone
        fan = projective_plane_fan()
        source = StackyData(SimplicialFan(2, fan.rays, fan.cones[1:]))
        md = MorphismData(source, P1, (mono(3, 1, (1, 0, 0)), mono(3, 1, (0, 1, 0))), ())
        with pytest.raises(SourceNotCompleteError):
            check_condition_a(md)


def binomial_line():
    return SparsePolynomial(2, ((Fraction(1), (1, 0)), (Fraction(1), (0, 1))))


def fraction_reference(terms):
    """The coefficients of (coefficient, exponents) terms merged as
    ``Fraction``s by exponent vector, zeros dropped: what a
    :class:`SparsePolynomial` of those terms means."""
    merged = {}
    for coeff, exps in terms:
        merged[tuple(exps)] = merged.get(tuple(exps), Fraction(0)) + Fraction(coeff)
    return {exps: c for exps, c in merged.items() if c}


def reference_of(p):
    """The ``Fraction`` coefficients of ``p`` by exponent vector."""
    return {exps: Fraction(c, p.denominator) for c, exps in p.terms}


def fraction_value(reference, point):
    """The value of a ``Fraction`` reference polynomial at ``point``."""
    total = Fraction(0)
    for exps, c in reference.items():
        for v, e in zip(point, exps):
            c *= Fraction(v) ** e
        total += c
    return total


# The values the sampler draws, in its order, as ``Fraction``s.
SAMPLES = tuple(map(Fraction, ("1", "-1", "2", "-2", "3", "-3", "1/2", "-1/2")))


def fraction_condition_b(md, sample_budget, seed, references=None):
    """The general-tuple sampler evaluated with ``Fraction`` arithmetic over
    ``SAMPLES``, as it was written before samples were evaluated in
    integers: the reference for the integer path.  It evaluates
    ``references``, the ``Fraction`` reference of each polynomial (by
    default read off ``md``)."""
    if references is None:
        references = [reference_of(p) for p in md.polys]
    rng = random.Random(seed)
    remaining = sample_budget
    n_source = md.source.ray_count
    for pattern in md.source.fan.faces():
        if remaining <= 0:
            break
        free = [k for k in range(n_source) if k not in pattern]
        space = len(SAMPLES) ** len(free)
        if space <= remaining:
            assignments = itertools.product(SAMPLES, repeat=len(free))
            remaining -= space
        else:
            count = remaining
            assignments = (tuple(rng.choice(SAMPLES) for _ in free)
                           for _ in range(count))
            remaining = 0
        for assignment in assignments:
            point = [Fraction(0)] * n_source
            for k, value in zip(free, assignment):
                point[k] = value
            image_pattern = frozenset(
                k for k, ref in enumerate(references) if fraction_value(ref, point) == 0)
            if not is_admissible_zero_pattern(md.target.fan, image_pattern):
                return ConditionBVerdict.refuted_point(point)
    return ConditionBVerdict.unknown()


COEFFICIENTS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2),
                Fraction(-2, 3), Fraction(5, 6), Fraction(-7, 4), Fraction(3, 5))
SPACES = (P1, P2, StackyData(projective_fan(3)),
          StackyData(product_fan(projective_line_fan(), projective_line_fan())), P1_CUBED)


@st.composite
def general_tuples(draw):
    """A tuple with some polynomial of two or more terms, not necessarily
    homogeneous, whose terms often cancel at sample points: products of a
    monomial with factors ``x_i^a - s x_j^b``, ``s = u^a / w^b`` for sample
    values ``u`` and ``w`` of ``SAMPLES``, so that the factor vanishes where
    ``x_i = u`` and ``x_j = w``.  Also the budget and seed to search it with."""
    source, target = draw(st.sampled_from(SPACES)), draw(st.sampled_from(SPACES))
    n = source.ray_count
    exponent = st.integers(0, 2)

    def monomial():
        return SparsePolynomial.monomial(
            n, draw(st.sampled_from(COEFFICIENTS)), [draw(exponent) for _ in range(n)])

    def factor():
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        a, b = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        u, w = draw(st.sampled_from(SAMPLES)), draw(st.sampled_from(SAMPLES))
        s = u ** a / w ** b
        return SparsePolynomial(n, (
            (Fraction(1), tuple(a if k == i else 0 for k in range(n))),
            (-s, tuple(b if k == j else 0 for k in range(n)))))

    polys = []
    for _ in range(target.ray_count):
        poly = monomial()
        for _ in range(draw(st.integers(0, 2))):
            poly = poly * factor()
        if draw(st.integers(0, 3)) == 0:
            poly = SparsePolynomial(n, poly.terms + monomial().terms)
        polys.append(poly)
    assume(any(len(p.terms) > 1 for p in polys))
    budget = draw(st.sampled_from((0, 1, 9, 70, 300)))
    seed = draw(st.integers(0, 2 ** 32))
    return MorphismData(source, target, tuple(polys), ()), budget, seed


class TestIntegerSampler:
    @settings(max_examples=200, deadline=None)
    @given(general_tuples())
    def test_matches_fraction_evaluation(self, case):
        md, budget, seed = case
        verdict = sample_witness(md, budget, seed)
        assert verdict == fraction_condition_b(md, budget, seed)
        assert verdict.status in ("refuted", "unknown")
        if verdict.is_refuted:
            point = verdict.witness_point
            assert all(type(x) is Fraction for x in point)
            zeros = {k for k, x in enumerate(point) if x == 0}
            assert is_admissible_zero_pattern(md.source.fan, zeros)
            image = {k for k, p in enumerate(md.polys) if p.evaluate(point) == 0}
            assert not is_admissible_zero_pattern(md.target.fan, image)

    def test_terms_of_different_degrees_cancel(self):
        # x0^2 - x0/2 and x1 (x0 - 1/2) both vanish at x0 = 1/2; the terms
        # of each have degrees 2 and 1, so the integer path must scale the
        # lower one by the sample denominator to see the cancellation
        p0 = SparsePolynomial(2, ((Fraction(1), (2, 0)), (Fraction(-1, 2), (1, 0))))
        p1 = SparsePolynomial(2, ((Fraction(1), (1, 1)), (Fraction(-1, 2), (0, 1))))
        md = MorphismData(P1, P1, (p0, p1), ())
        verdict = sample_witness(md, 100, 0)
        assert verdict == ConditionBVerdict.refuted_point((Fraction(1, 2), Fraction(1)))
        assert verdict == fraction_condition_b(md, 100, 0)

    def test_zero_sample_value_stays_on_the_source_locus(self):
        # (x0 + x1, x1) is a morphism of P^1: x0 = x1 = 0 is not a point of
        # the source, and no sample may put both coordinates there
        md = MorphismData(P1, P1, (binomial_line(), mono(2, 1, (0, 1))), ())
        assert sample_witness(md, 100, 0).status == "unknown"
        assert fraction_condition_b(md, 100, 0).status == "unknown"
        assert check_condition_b(md, 100, 0).is_proven

    def test_default_search_matches_fraction_evaluation(self):
        # the full default budget, drawn at random on (P1)^2, for seeds 0-2
        space = SPACES[3]
        polys = []
        for i in range(2):
            lo, hi = 2 * i, 2 * i + 1
            polys.append(mono(4, Fraction(2, 3), tuple(2 if v == lo else 0 for v in range(4))))
            polys.append(SparsePolynomial(4, (
                (Fraction(-5, 2), tuple(2 if v == hi else 0 for v in range(4))),
                (Fraction(7, 3), tuple(2 if v == lo else 0 for v in range(4))))))
        md = MorphismData(space, space, tuple(polys), ())
        for seed in range(3):
            verdict = sample_witness(md, seed=seed)
            assert verdict.status == "unknown"
            assert verdict == fraction_condition_b(md, DEFAULT_SAMPLE_BUDGET, seed)


def binomial_self_map(k, m, coefficients):
    """The true two-term map of (P1)^k the benchmark draws: factor i goes to
    (a x_-^m, b x_+^m + c x_-^m), zero only where x_- = x_+ = 0."""
    space = StackyData(projective_line_fan()) if k == 1 else P1_POWERS[k]
    n = 2 * k
    polys = []
    for i, (a, b, c) in zip(range(k), coefficients):
        lo = tuple(m if v == 2 * i else 0 for v in range(n))
        hi = tuple(m if v == 2 * i + 1 else 0 for v in range(n))
        polys.append(SparsePolynomial(n, ((a, lo),)))
        polys.append(SparsePolynomial(n, ((b, hi), (c, lo))))
    return MorphismData(space, space, tuple(polys), ())


P1_SQUARED = StackyData(product_fan(projective_line_fan(), projective_line_fan()))
P1_POWERS = {2: P1_SQUARED, 3: P1_CUBED}
EXACT_SPACES = (P1, P2, StackyData(projective_fan(3)), P1_SQUARED)
EXACT_COEFFICIENTS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2),
                      Fraction(3))
_MONOMIALS_BY_CLASS = {}


def monomials_by_class(space):
    """Exponent vectors with entries at most 2, grouped by their class."""
    if space not in _MONOMIALS_BY_CLASS:
        presentation = picard_group(space)
        groups = {}
        for exps in itertools.product(range(3), repeat=space.ray_count):
            groups.setdefault(presentation.class_of(exps), []).append(exps)
        _MONOMIALS_BY_CLASS[space] = list(groups.values())
    return _MONOMIALS_BY_CLASS[space]


@st.composite
def homogeneous_tuples(draw, sources=EXACT_SPACES):
    """A homogeneous tuple with some polynomial of two or more terms: each
    polynomial is a random form, often times a form shared by the tuple, so
    that common zeros are frequent."""
    source = draw(st.sampled_from(sources))
    target = draw(st.sampled_from(EXACT_SPACES))
    n = source.ray_count
    groups = monomials_by_class(source)

    def form():
        monomials = draw(st.lists(st.sampled_from(draw(st.sampled_from(groups))),
                                  min_size=1, max_size=3, unique=True))
        return SparsePolynomial(n, [(draw(st.sampled_from(EXACT_COEFFICIENTS)), e)
                                    for e in monomials])

    shared = form()
    polys = [form() * shared if draw(st.booleans()) else form()
             for _ in range(target.ray_count)]
    assume(any(len(p.terms) > 1 for p in polys))
    return MorphismData(source, target, tuple(polys), ())


def univariate(p, var):
    """``p`` with the variable other than ``var`` set to 1, as a coefficient
    list in ``var``, lowest degree first, without trailing zeros."""
    coefficients = [Fraction(0)] * (1 + max((e[var] for _, e in p.terms), default=0))
    for c, e in p.terms:
        coefficients[e[var]] += c
    while coefficients and not coefficients[-1]:
        coefficients.pop()
    return coefficients


def polynomial_gcd(a, b):
    """Greatest common divisor of two coefficient lists over Q, by Euclid."""
    while b:
        a = list(a)
        while len(a) >= len(b):
            factor = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= factor * c
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return a


def p1_chart_reference(md):
    """Condition B for a source P^1, from gcds: on the chart of cone {v} the
    other coordinate is 1, and the polynomials of a minimal non-face of the
    target vanish together there exactly when their gcd is not a nonzero
    constant.  The verdict of the first failing chart, or proven."""
    rays = range(md.target.ray_count)
    cones = close_under_faces(md.target.fan.cones)
    non_faces = [frozenset(c) for size in range(1, len(rays) + 1)
                 for c in itertools.combinations(rays, size) if frozenset(c) not in cones]
    minimal = [c for c in non_faces if not any(other < c for other in non_faces)]
    for var in (0, 1):
        for collection in minimal:
            common = []
            for k in sorted(collection):
                common = polynomial_gcd(common, univariate(md.polys[k], var))
            if len(common) != 1:
                return ConditionBVerdict.refuted_pattern({var})
    return ConditionBVerdict.proven()


class TestExactConditionB:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_workload_binomial_maps_are_proven(self, k, rng):
        for m in (1, 2, 3):
            coefficients = [[rng.choice(EXACT_COEFFICIENTS) for _ in range(3)]
                            for _ in range(k)]
            md = binomial_self_map(k, m, coefficients)
            assert check_condition_a(md)
            assert check_condition_b(md).is_proven

    def test_sum_of_squares_is_proven(self):
        md = MorphismData(P1, P1, (SparsePolynomial(2, ((1, (2, 0)), (1, (0, 2)))),
                                   mono(2, 1, (0, 2))), ())
        assert check_condition_b(md) == ConditionBVerdict.proven()

    def test_irrational_bad_points_refute_with_a_pattern(self):
        # x-^2 - 2 x+^2 vanishes only where x- / x+ = +-sqrt(2): no rational
        # sample refutes, the chart of cone {0} does
        p = SparsePolynomial(2, ((1, (2, 0)), (-2, (0, 2))))
        md = MorphismData(P1, P1, (p, p), ())
        assert sample_witness(md).status == "unknown"
        verdict = check_condition_b(md)
        assert verdict == ConditionBVerdict.refuted_pattern({0})
        assert verdict.witness_point is None

    def test_a_rational_witness_is_kept(self):
        # (x- - x+) x-, (x- - x+) x+: the sampler finds (1, 1) first
        md = MorphismData(P1, P1, (SparsePolynomial(2, ((1, (2, 0)), (-1, (1, 1)))),
                                   SparsePolynomial(2, ((1, (1, 1)), (-1, (0, 2))))), ())
        assert chart_verdict(md) == ConditionBVerdict.refuted_pattern({0})
        assert check_condition_b(md) == ConditionBVerdict.refuted_point((1, 1))

    def test_high_degree_samples_are_bounded_by_work(self):
        # two random forms of degree 1,000 with 60 terms each on P^3: the
        # charts run out of work, and 2,000 unbounded samples took over 1 s
        rng = random.Random(1000)

        def form():
            terms = []
            for _ in range(60):
                cuts = sorted(rng.randint(0, 1000) for _ in range(3))
                exponents = [b - a for a, b in zip([0] + cuts, cuts + [1000])]
                terms.append((rng.choice(EXACT_COEFFICIENTS), exponents))
            return SparsePolynomial(4, terms)

        md = MorphismData(StackyData(projective_fan(3)), P1, (form(), form()), ())
        start = time.perf_counter()
        verdict = check_condition_b(md)
        assert time.perf_counter() - start < 0.5
        assert verdict.status == "unknown"

    def test_inhomogeneous_tuple_is_rejected(self):
        md = MorphismData(P1, P1, (SparsePolynomial(2, ((1, (2, 0)), (1, (0, 1)))),
                                   mono(2, 1, (0, 2))), ())
        with pytest.raises(NotHomogeneousError):
            check_condition_b(md)

    @settings(max_examples=150, deadline=None)
    @given(homogeneous_tuples(), st.integers(0, 2 ** 16))
    def test_sampler_never_refutes_a_proven_tuple(self, md, seed):
        verdict = check_condition_b(md, sample_budget=300, seed=seed)
        witness = sample_witness(md, 300, seed)
        assert verdict.status in ("proven", "refuted")
        if verdict.is_proven:
            assert not witness.is_refuted
        elif witness.is_refuted:
            assert verdict == witness
        else:
            assert verdict == chart_verdict(md)

    @settings(max_examples=150, deadline=None)
    @given(homogeneous_tuples(sources=(P1,)))
    def test_p1_charts_match_polynomial_gcds(self, md):
        assert chart_verdict(md) == p1_chart_reference(md)

    def test_charts_agree_with_the_monomial_branch(self, rng):
        spaces = (P1, P2, P1_SQUARED)
        for _ in range(80):
            source, target = rng.choice(spaces), rng.choice(spaces)
            n = source.ray_count
            polys = tuple(
                SparsePolynomial.zero(n) if rng.random() < 0.1 else
                mono(n, rng.choice((1, -2)), [rng.randint(0, 2) for _ in range(n)])
                for _ in range(target.ray_count))
            md = MorphismData(source, target, polys, ())
            assert chart_verdict(md) == check_condition_b(md)


def binary_form(rng, d, terms=5):
    """A random binary form of degree ``d`` with ``terms`` terms (or all
    d + 1), among them x-^d and x+^d, coefficients in +-1..5."""
    exponents = {0, d}
    while len(exponents) < min(terms, d + 1):
        exponents.add(rng.randint(1, d - 1))
    return SparsePolynomial(2, [(rng.choice((1, -1, 2, -2, 3, -3, 4, -4, 5, -5)), (e, d - e))
                                for e in sorted(exponents)])


def charts(md):
    """The generators of each chart ideal of a tuple on the projective line."""
    return [[morphisms._dehomogenize(p.terms, chart) for p in md.polys if not p.is_zero]
            for chart in ([0], [1])]


def coprime_mod_p(generators):
    return morphisms._coprime_mod_p(generators, morphisms._Work(10 ** 9))


def as_coefficients(poly):
    """A univariate ``{(e,): c}`` polynomial as a coefficient list, lowest first."""
    coefficients = [Fraction(0)] * (1 + max(poly)[0])
    for (e,), c in poly.items():
        coefficients[e] = Fraction(c)
    return coefficients


class TestRankOneCharts:
    """On a source of lattice rank 1 every chart ideal is univariate, and a
    gcd modulo 2**61 - 1 proves a chart whose generators are coprime."""

    @pytest.mark.parametrize("d", [3, 40, 300])
    def test_planted_coprime_pairs_are_proven(self, d):
        rng = random.Random(d)
        for _ in range(3):
            f = binary_form(rng, d)
            g = SparsePolynomial(2, f.terms + ((rng.choice((1, -2, 3)), (0, d)),))
            md = MorphismData(P1, P1, (f, g), ())
            assert all(coprime_mod_p(generators) for generators in charts(md))
            assert chart_verdict(md) == ConditionBVerdict.proven()

    @pytest.mark.parametrize("d", [3, 12])
    def test_planted_common_factors_are_not_proven(self, d):
        rng = random.Random(d)
        h = SparsePolynomial(2, ((1, (1, 0)), (-2, (0, 1))))
        for _ in range(3):
            md = MorphismData(P1, P1, (binary_form(rng, d) * h, binary_form(rng, d) * h), ())
            assert not any(coprime_mod_p(generators) for generators in charts(md))
            assert chart_verdict(md).is_refuted
            assert check_condition_b(md).is_refuted

    def test_a_leading_coefficient_divisible_by_p_falls_through(self):
        # coprime, but the modular image of the first form loses its degree
        p = morphisms._PRIME
        md = MorphismData(P1, P1, (SparsePolynomial(2, ((p, (2, 0)), (1, (0, 2)))),
                                   SparsePolynomial(2, ((1, (2, 0)), (1, (1, 1))))), ())
        assert not coprime_mod_p(charts(md)[0])
        assert chart_verdict(md) == ConditionBVerdict.proven()

    @pytest.mark.parametrize("d", [300, 1000])
    def test_random_binary_forms_are_proven_within_the_work_limit(self, d, monkeypatch):
        # the Buchberger path ran out of work on both before the modular gcd;
        # the gcd leaves a tenth of the limit unspent
        rng = random.Random(d)
        md = MorphismData(P1, P1, (binary_form(rng, d), binary_form(rng, d)), ())
        monkeypatch.setattr(morphisms, "CHART_WORK_LIMIT", CHART_WORK_LIMIT * 9 // 10)
        start = time.perf_counter()
        assert check_condition_b(md).is_proven
        assert time.perf_counter() - start < 0.5

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.integers(-5, 5), min_size=1, max_size=6), min_size=1, max_size=3),
           st.sampled_from(([1], [-1, 1], [2, 0, 1], [1, 1, 1])))
    def test_agrees_with_the_gcd_over_q(self, coefficient_lists, factor):
        # small coefficients keep every resultant below p, so the modular gcd
        # has the degree of the rational one
        generators = []
        for coefficients in coefficient_lists:
            product = [0] * (len(coefficients) + len(factor) - 1)
            for i, a in enumerate(coefficients):
                for j, b in enumerate(factor):
                    product[i + j] += a * b
            poly = {(e,): c for e, c in enumerate(product) if c}
            if poly:
                generators.append(poly)
        common = []
        for poly in generators:
            common = polynomial_gcd(common, as_coefficients(poly))
        assert coprime_mod_p(generators) == (len(common) == 1)


RATIONALS = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-6, 6),
                                                    st.integers(1, 6)))
NONZERO_RATIONALS = st.builds(Fraction, st.integers(1, 3) | st.integers(-3, -1),
                              st.integers(1, 3))


@st.composite
def rational_terms(draw):
    """A variable count and rational (coefficient, exponents) terms, with
    repeated exponent vectors and cancellations."""
    n = draw(st.integers(1, 3))
    return n, draw(st.lists(st.tuples(RATIONALS, st.tuples(*[st.integers(0, 2)] * n)),
                            max_size=6))


@st.composite
def rational_tuples(draw):
    """A homogeneous tuple with rational coefficients, often a zero
    polynomial among them, and the ``Fraction`` reference of each
    polynomial, merged from the drawn terms."""
    source = draw(st.sampled_from(EXACT_SPACES))
    target = draw(st.sampled_from(EXACT_SPACES))
    groups = monomials_by_class(source)

    def form():
        monomials = draw(st.lists(st.sampled_from(draw(st.sampled_from(groups))),
                                  min_size=1, max_size=3))
        return [(draw(RATIONALS), e) for e in monomials]

    shared = form()
    raw = []
    for _ in range(target.ray_count):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            raw.append([])
        elif kind == 1:
            raw.append([(a * b, tuple(x + y for x, y in zip(e, f)))
                        for a, e in form() for b, f in shared])
        else:
            raw.append(form())
    polys = tuple(SparsePolynomial(source.ray_count, terms) for terms in raw)
    return MorphismData(source, target, polys, ()), [fraction_reference(t) for t in raw]


def fraction_two_isomorphic(md, first, second):
    """The status and ratios of :func:`check_two_isomorphic`, from the
    ``Fraction`` references of the two tuples."""
    ratios = []
    for old, new in zip(first, second):
        if old.keys() != new.keys():
            return "no", None
        found = {new[e] / old[e] for e in old} or {Fraction(1)}
        if len(found) > 1:
            return "no", None
        ratios.append(found.pop())
    for l in range(md.target.lattice_rank):
        product = Fraction(1)
        for k, ratio in enumerate(ratios):
            product *= ratio ** md.target.fan.rays[k][l]
        if product != 1:
            return "no", None
    return "yes", tuple(ratios)


class TestFractionReference:
    """Integer terms over one denominator against ``Fraction`` coefficients."""

    @settings(max_examples=200, deadline=None)
    @given(rational_terms(), st.integers(1, 12), st.randoms(use_true_random=False))
    def test_normal_form_equality_and_hash(self, case, k, rnd):
        n, terms = case
        p = SparsePolynomial(n, terms)
        reference = fraction_reference(terms)
        assert reference_of(p) == reference
        assert [e for _, e in p.terms] == sorted(reference)
        assert p.denominator >= 1 and gcd(p.denominator, *(c for c, _ in p.terms)) == 1
        assert reference or p.denominator == 1
        # the same polynomial with halved, shuffled terms over the denominator k
        halves = [(Fraction(c) * k / 2, e) for c, e in terms for _ in range(2)]
        rnd.shuffle(halves)
        other = SparsePolynomial(n, halves, k)
        assert other == p and hash(other) == hash(p)
        more = terms + [(Fraction(1, k), (1,) * n)]
        assert (SparsePolynomial(n, more) == p) == (fraction_reference(more) == reference)

    @settings(max_examples=100, deadline=None)
    @given(rational_tuples(), st.lists(NONZERO_RATIONALS, min_size=6, max_size=6),
           st.integers(0, 2 ** 16))
    def test_condition_b_verdict_and_witness(self, case, factors, seed):
        md, references = case
        verdict = check_condition_b(md, sample_budget=300, seed=seed)
        assert verdict.status in ("proven", "refuted")
        sampled = fraction_condition_b(md, 300, seed, references)
        if any(len(p.terms) > 1 for p in md.polys):
            # the sampler runs unless the charts prove, and then cannot refute
            assert (verdict.witness_point is not None) == sampled.is_refuted
        assert not (verdict.is_proven and sampled.is_refuted)
        if verdict.witness_point is not None:
            assert verdict == sampled
            assert all(type(x) is Fraction for x in verdict.witness_point)
        # a nonzero factor per polynomial changes no zero set
        scaled = MorphismData(md.source, md.target, tuple(
            SparsePolynomial(md.source.ray_count, [(c * factor, e) for e, c in ref.items()])
            for ref, factor in zip(references, factors)), ())
        assert check_condition_b(scaled, sample_budget=300, seed=seed) == verdict

    @settings(max_examples=150, deadline=None)
    @given(rational_tuples(), st.lists(NONZERO_RATIONALS, min_size=6, max_size=6),
           st.booleans(), st.integers(0, 5))
    def test_two_isomorphic_status_and_ratios(self, case, ratios, uniform, changed):
        md, first = case
        if uniform:  # the same ratio on every coordinate satisfies the relations
            ratios = [ratios[0]] * len(ratios)
        second = [{e: c * ratio for e, c in ref.items()} for ref, ratio in zip(first, ratios)]
        if changed < len(second):  # one more term, or 1 added to a coefficient
            exps = next(iter(first[changed]), (0,) * md.source.ray_count)
            second[changed] = fraction_reference(
                [(c, e) for e, c in second[changed].items()] + [(1, exps)])
        md2 = MorphismData(md.source, md.target, tuple(
            SparsePolynomial(md.source.ray_count, [(c, e) for e, c in ref.items()])
            for ref in second), ())
        verdict = check_two_isomorphic(md, md2)
        assert (verdict.status, verdict.ratios) == fraction_two_isomorphic(md, first, second)
        if verdict.ratios is not None:
            assert all(type(x) is Fraction for x in verdict.ratios)


class TestTwoIsomorphic:
    def test_sign_flip(self):
        base = duple_map(3)
        flipped = MorphismData(P1, P1, (mono(2, -1, (3, 0)), mono(2, -1, (0, 3))), ())
        verdict = check_two_isomorphic(base, flipped)
        assert verdict.status == "yes"
        assert verdict.ratios == (Fraction(-1), Fraction(-1))

    def test_incompatible_scaling(self):
        base = duple_map(3)
        scaled = MorphismData(P1, P1, (mono(2, 2, (3, 0)),
                                       mono(2, Fraction(1, 2), (0, 3))), ())
        assert check_two_isomorphic(base, scaled).status == "no"

    def test_reflexive(self):
        base = duple_map(2)
        verdict = check_two_isomorphic(base, base)
        assert verdict.status == "yes"
        assert verdict.ratios == (Fraction(1), Fraction(1))

    def test_different_supports(self):
        base = duple_map(1)
        other = MorphismData(P1, P1, (mono(2, 1, (0, 1)), mono(2, 1, (0, 1))), ())
        assert check_two_isomorphic(base, other).status == "no"

    def test_transitive_on_yes(self):
        base = duple_map(2)
        second = MorphismData(P1, P1, (mono(2, -1, (2, 0)), mono(2, -1, (0, 2))), ())
        third = MorphismData(P1, P1, (mono(2, 4, (2, 0)), mono(2, 4, (0, 2))), ())
        assert check_two_isomorphic(base, second).status == "yes"
        assert check_two_isomorphic(second, third).status == "yes"
        assert check_two_isomorphic(base, third).status == "yes"

    def test_mismatched_inputs(self):
        other_target = MorphismData(P1, P2, (mono(2, 1, (1, 0)),) * 3, ())
        with pytest.raises(MismatchedSourceTargetError):
            check_two_isomorphic(duple_map(1), other_target)

    # ratios built from a few shared primes, so that the coprime base splits them
    SIGNED_RATIOS = st.tuples(st.sampled_from((1, -1)),
                              st.lists(st.integers(-3, 3), min_size=4, max_size=4))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(SIGNED_RATIOS, min_size=1, max_size=4), st.integers(0, 3), st.data())
    def test_relations_without_powers(self, drawn, rank, data):
        # the coprime-base test against the powers themselves
        primes = (2, 3, 6, 35)  # 6 and 35 share factors with the others
        ratios = []
        for sign, exponents in drawn:
            value = Fraction(sign)
            for prime, e in zip(primes, exponents):
                value *= Fraction(prime) ** e
            ratios.append(value)
        rays = [tuple(data.draw(st.integers(-4, 4)) for _ in range(rank)) for _ in ratios]
        expected = all(prod_of_powers(ratios, [ray[l] for ray in rays]) == 1
                       for l in range(rank))
        pairs = [(r.numerator, r.denominator) for r in ratios]
        assert morphisms._relations_hold(pairs, rays, rank) == expected

    def test_target_entries_of_a_billion(self):
        # the relation lambda_0 ** (-10^9) * lambda_1 = 1 is decided with no power
        for entry in (-10 ** 8, -10 ** 9):
            target = StackyData(fan=make_fan(1, [(entry,), (1,)], [[0], [1]]))
            base = MorphismData(P1, target, (mono(2, 1, (1, 0)), mono(2, 1, (0, 1))), ())
            scaled = MorphismData(P1, target, (mono(2, 2, (1, 0)), mono(2, 1, (0, 1))), ())
            flipped = MorphismData(P1, target, (mono(2, -1, (1, 0)), mono(2, 1, (0, 1))), ())
            start = time.perf_counter()
            assert check_two_isomorphic(base, scaled).status == "no"
            assert check_two_isomorphic(base, flipped).ratios == (Fraction(-1), Fraction(1))
            assert time.perf_counter() - start < 0.1


def prod_of_powers(ratios, exponents):
    product = Fraction(1)
    for ratio, e in zip(ratios, exponents):
        product *= ratio ** e
    return product


class TestEquivarianceOfVerdicts:
    def test_group_scaling_preserves_checks(self):
        # ratios (-1, -1) satisfy the exponent relations on the line
        base = duple_map(4)
        moved = MorphismData(P1, P1, (base.polys[0].scale(-1),
                                      base.polys[1].scale(-1)), ())
        assert check_two_isomorphic(base, moved).status == "yes"
        assert check_condition_a(base) == check_condition_a(moved)
        assert check_condition_b(base).status == check_condition_b(moved).status


class TestIrrelevantPatterns:
    def test_line(self):
        assert P1.fan.cones == (frozenset({0}), frozenset({1}))

    def test_plane(self):
        patterns = P2.fan.cones
        assert sorted(sorted(p) for p in patterns) == [[0, 1], [0, 2], [1, 2]]

    def test_half_line(self):
        assert affine_fan(1).cones == (frozenset({0}),)
