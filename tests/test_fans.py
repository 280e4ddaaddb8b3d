import itertools
import json
import time
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from toricdm import (SimplicialFan, is_admissible_zero_pattern, is_complete, rays_span,
                     validate_fan)
from toricdm import Violation, cli, fans
from toricdm.documents import parse_stacky_document
from toricdm.fans import _certifies_complete, _cone_pair_violation
from toricdm.oracle import oracle_cones_meet_along_common_face

from conftest import (EXPLODING_CONES, EXPLODING_RAYS, affine_fan, close_under_faces, make_fan,
                      product_fan, projective_fan, projective_line_fan, projective_plane_fan,
                      schema_errors)


class TestValidateFan:
    def test_projective_line(self):
        assert validate_fan(projective_line_fan()).valid

    def test_duplicate_ray_direction(self):
        report = validate_fan(make_fan(2, [(1, 0), (2, 0)], [[0], [1]]))
        assert not report.valid
        assert report.first().code == "duplicate_ray_direction"

    def test_projective_plane(self):
        assert validate_fan(projective_plane_fan()).valid

    def test_zero_ray(self):
        report = validate_fan(make_fan(2, [(0, 0)], [[0]]))
        assert report.first().code == "zero_ray"

    def test_dependent_cone(self):
        report = validate_fan(make_fan(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1, 2]]))
        assert report.first().code == "dependent_cone"

    def test_missing_face(self):
        # the listed cone [0, 1] implies its face [0]: the fan is the same
        cones = set(close_under_faces([[0, 1]]))
        cones.remove(frozenset({0}))
        fan = SimplicialFan(2, ((1, 0), (0, 1)), frozenset(cones))
        assert fan == make_fan(2, ((1, 0), (0, 1)), [[0, 1]])
        assert fan.is_cone(frozenset({0})) and validate_fan(fan).valid

    def test_dependent_cone_of_an_unclosed_fan(self):
        # the list is no closed fan; its one maximal cone is the witness
        cones = frozenset(map(frozenset, ([], [0], [0, 1, 2])))
        fan = SimplicialFan(2, ((1, 0), (0, 1), (-1, -1)), cones)
        assert validate_fan(fan).first() == Violation(
            "dependent_cone", "rays of cone [0, 1, 2] are linearly dependent", [0, 1, 2])

    def test_overlapping_cones(self):
        # the diagonal ray lies inside the first-quadrant cone
        report = validate_fan(make_fan(2, [(1, 0), (0, 1), (1, 1)], [[0, 1], [2]]))
        assert report.first().code == "bad_intersection"
        witness = report.first().witness
        assert witness[2] in (0, 1, 2)

    def test_dependent_face_of_a_maximal_cone(self):
        # rays 0, 1 and 2 are dependent, a face of the dependent maximal cone
        rays = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
        assert validate_fan(make_fan(3, rays, [[0, 1, 2, 3]])).first() == Violation(
            "dependent_cone", "rays of cone [0, 1, 2, 3] are linearly dependent", [0, 1, 2, 3])

    def test_cone_index_out_of_range(self):
        # construction keeps the unknown index for validation to report
        fan = SimplicialFan(1, ((1,),), [[0], [0, 3]])
        assert validate_fan(fan).first() == Violation(
            "cone_index_out_of_range", "cone [0, 3] uses unknown ray 3", [0, 3])

    def test_missing_zero_cone(self):
        # every list generates the zero cone, listed or not
        fan = SimplicialFan(1, ((1,),), frozenset({frozenset({0})}))
        assert fan.is_cone(frozenset()) and validate_fan(fan).valid
        assert SimplicialFan(1, ((1,),), []).cones == (frozenset(),)

    def test_fixture_generators_pass(self):
        fixtures = [projective_fan(1), projective_fan(2), projective_fan(3),
                    affine_fan(1), affine_fan(2), affine_fan(3),
                    product_fan(projective_line_fan(), projective_line_fan()),
                    product_fan(projective_line_fan(), projective_plane_fan())]
        for fan in fixtures:
            assert validate_fan(fan).valid, fan

    def test_mutated_fixtures_fail(self):
        for fan in (projective_fan(2), product_fan(projective_line_fan(),
                                                   projective_line_fan())):
            # adding the all-rays cone breaks simpliciality or the dimension
            cones = set(fan.cones) | {frozenset(range(len(fan.rays)))}
            mutated = SimplicialFan(fan.lattice_rank, fan.rays, frozenset(cones))
            assert not validate_fan(mutated).valid


class TestIntersectionChecker:
    def test_elimination_agrees_with_vertex_enumeration(self, rng):
        def rank_q(vectors):
            grid = [[Fraction(x) for x in v] for v in vectors]
            rank = 0
            width = len(grid[0]) if grid else 0
            for col in range(width):
                pivot = next((i for i in range(rank, len(grid)) if grid[i][col]), None)
                if pivot is None:
                    continue
                grid[rank], grid[pivot] = grid[pivot], grid[rank]
                inv = 1 / grid[rank][col]
                for i in range(len(grid)):
                    if i != rank and grid[i][col]:
                        factor = grid[i][col] * inv
                        for k in range(col, width):
                            grid[i][k] -= factor * grid[rank][k]
                rank += 1
            return rank

        def primitive(v):
            g = 0
            for x in v:
                g = gcd(g, abs(x))
            return tuple(x // g for x in v)

        checked = 0
        while checked < 240:
            d = rng.randint(1, 4)
            n = rng.randint(2, 6) if d > 1 else 2  # Z^1 has two ray directions
            rays, prims = [], set()
            while len(rays) < n:
                v = tuple(rng.randint(-3, 3) for _ in range(d))
                if not any(v) or primitive(v) in prims:
                    continue
                prims.add(primitive(v))
                rays.append(v)

            def random_cone():
                while True:
                    cone = frozenset(rng.sample(range(n), rng.randint(1, min(d, n))))
                    if rank_q([rays[i] for i in sorted(cone)]) == len(cone):
                        return cone

            cone_a, cone_b = random_cone(), random_cone()
            if cone_a == cone_b:
                continue
            fan = SimplicialFan(d, tuple(rays), [sorted(cone_a), sorted(cone_b)])
            by_membership = _cone_pair_violation(fan, cone_a, cone_b) is None
            by_vertices = oracle_cones_meet_along_common_face(rays, d, cone_a, cone_b)
            assert by_membership == by_vertices, (rays, sorted(cone_a), sorted(cone_b))
            checked += 1


def _angle_order(vectors):
    """Indices of plane vectors sorted counterclockwise from the positive x-axis."""
    def half(v):
        return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1

    def compare(i, j):
        u, v = vectors[i], vectors[j]
        if half(u) != half(v):
            return half(u) - half(v)
        return -(u[0] * v[1] - u[1] * v[0])

    return sorted(range(len(vectors)), key=cmp_to_key(compare))


def _cycle_fan(rays, order):
    n = len(order)
    return make_fan(2, rays, [[order[k], order[(k + 1) % n]] for k in range(n)])


def _rank2_fan(count):
    """A complete rank-2 fan on ``count`` <= 32 primitive rays of norm at most 3."""
    rays = [(x, y) for x in range(-3, 4) for y in range(-3, 4)
            if (x, y) != (0, 0) and gcd(x, y) == 1]
    rays = [rays[i] for i in _angle_order(rays)][:count]
    return _cycle_fan(rays, range(count))


vectors2 = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(any)
vectors3 = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)).filter(any)


@st.composite
def rank2_cycles(draw):
    """Rank-2 cycles: by angle (complete), winding twice, or in random order."""
    rays = draw(st.lists(vectors2, min_size=3, max_size=8))
    how = draw(st.sampled_from(("angle", "twice", "random")))
    if how == "random":
        order = draw(st.permutations(range(len(rays))))
    else:
        order = _angle_order(rays)
        if how == "twice" and len(rays) % 2:
            order = [order[(2 * k) % len(rays)] for k in range(len(rays))]
    return _cycle_fan(rays, order)


@st.composite
def complete_patterns_in_rank3(draw):
    """P^3 and (P1)^3 cone patterns on random rays in Z^3, often near the
    standard ones."""
    if draw(st.booleans()):
        base = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
        cones = [[i for i in range(4) if i != skip] for skip in range(4)]
    else:
        base = [(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)]
        cones = [[a, 2 + b, 4 + c] for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    rays = []
    for ray in base:
        if draw(st.booleans()):
            ray = draw(vectors3)
        rays.append(ray)
    return make_fan(3, rays, cones)


def _assert_agrees_with_all_pairs(fan):
    report = validate_fan(fan)
    assume(report.valid or report.first().code == "bad_intersection")
    maximal = fan.cones
    pairs = [(a, b) for k, a in enumerate(maximal) for b in maximal[k + 1:]]
    by_oracle = all(oracle_cones_meet_along_common_face(fan.rays, fan.lattice_rank, a, b)
                    for a, b in pairs)
    first_bad = next(((sorted(a), sorted(b), witness) for a, b in pairs
                      for witness in [_cone_pair_violation(fan, a, b)] if witness is not None),
                     None)
    assert report.valid == by_oracle == (first_bad is None)
    if first_bad is not None:
        assert report.first().code == "bad_intersection"
        assert report.first().witness == first_bad


@st.composite
def small_fan_documents(draw):
    """A fan document in Z^1..Z^4 with distinct ray directions and two to
    four random cones of at most d rays each, valid or not."""
    d = draw(st.integers(1, 4))
    vectors = st.tuples(*[st.integers(-2, 2)] * d).filter(any)
    rays = draw(st.lists(vectors, min_size=2, max_size=6, unique_by=fans.primitive))
    cones = draw(st.lists(st.sets(st.integers(0, len(rays) - 1), min_size=1, max_size=d),
                          min_size=2, max_size=4))
    return {"schema_version": "1", "lattice_rank": d, "rays": [list(ray) for ray in rays],
            "cones": [sorted(cone) for cone in cones], "r": [], "b": []}


class TestCompletenessCertificate:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(rank2_cycles())
    def test_rank2_cycles_agree_with_all_pairs(self, fan):
        _assert_agrees_with_all_pairs(fan)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(complete_patterns_in_rank3())
    def test_rank3_patterns_agree_with_all_pairs(self, fan):
        _assert_agrees_with_all_pairs(fan)

    def test_pentagram_is_rejected_by_the_generic_point(self):
        # five cones winding twice around the origin: every facet has two
        # owners on opposite sides, but a generic vector is covered twice
        rays = [(1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)]
        fan = make_fan(2, rays, [[i, (i + 1) % 5] for i in range(5)])
        maximal = fan.cones
        owners = fans._facet_owners(maximal)
        assert all(len(pair) == 2 for pair in owners.values())
        normals = [fans._facet_normals(fan, cone) for cone in maximal]
        assert all(fans._dot(normals[a][i], rays[j]) < 0 for (a, i), (_, j) in owners.values())
        assert not _certifies_complete(fan)
        report = validate_fan(fan)
        assert report.first().code == "bad_intersection"
        assert report.first().witness == ([0, 1], [2, 3], 0)

    def test_complete_fans_skip_the_pairwise_check(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("pairwise check called")

        p1_fourth = projective_line_fan()
        for _ in range(3):
            p1_fourth = product_fan(p1_fourth, projective_line_fan())
        monkeypatch.setattr(fans, "_cone_pair_violation", refuse)
        for fan in (p1_fourth, _rank2_fan(31)):
            assert validate_fan(fan).valid
            assert is_complete(fan)

    def test_incomplete_fans_fall_back(self):
        fan = _rank2_fan(31)
        punctured = SimplicialFan(2, fan.rays, fan.cones[1:])
        assert not _certifies_complete(punctured)
        assert validate_fan(punctured).valid
        assert not is_complete(punctured)


class TestConeMembership:
    def test_exploding_fan_gets_a_verdict(self):
        fan = make_fan(4, EXPLODING_RAYS, EXPLODING_CONES)
        start = time.perf_counter()
        report = validate_fan(fan)
        assert time.perf_counter() - start < 0.1
        assert report.first().code == "bad_intersection"
        assert report.first().witness == ([1, 2, 3, 4], [2, 3, 4, 5], 1)
        maximal = fan.cones
        for k, a in enumerate(maximal):
            for b in maximal[k + 1:]:
                assert ((_cone_pair_violation(fan, a, b) is None)
                        == oracle_cones_meet_along_common_face(fan.rays, 4, a, b))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much,
                                     HealthCheck.function_scoped_fixture])
    @given(doc=small_fan_documents())
    def test_validate_command_agrees_with_the_oracle(self, tmp_path, doc):
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(doc))
        code, report = cli.run(["--json", "validate", str(path)])
        assert code in (0, 1)
        assert schema_errors(report, "report.schema.json") == []
        assert "error" not in report  # in particular, never too_large
        violations = report["violations"]
        assume(not violations or violations[0]["code"] == "bad_intersection")
        listed = {frozenset(cone) for cone in doc["cones"]}
        maximal = sorted((c for c in listed if not any(c < other for other in listed)),
                         key=lambda c: (len(c), sorted(c)))
        bad = [[sorted(a), sorted(b)] for k, a in enumerate(maximal) for b in maximal[k + 1:]
               if not oracle_cones_meet_along_common_face(doc["rays"], doc["lattice_rank"], a, b)]
        assert report["valid"] == (code == 0) == (not bad)
        if bad:
            assert violations[0]["witness"][:2] == bad[0]


class TestCloseUnderFaces:
    @given(st.lists(st.lists(st.integers(0, 7), max_size=6), max_size=6))
    def test_equals_all_subsets(self, cones):
        brute = {frozenset(face) for cone in cones
                 for size in range(len(set(cone)) + 1)
                 for face in itertools.combinations(sorted(set(cone)), size)}
        assert close_under_faces(cones) == brute | {frozenset()}


def _in_order(cones):
    return sorted(cones, key=lambda c: (len(c), sorted(c)))


@st.composite
def generating_lists(draw):
    """A ray count up to 7, a cone list on those rays and the cones it
    generates.  The list holds the maximal cones alone, all faces, the
    maximal cones and some faces shuffled with repeats, or nothing."""
    n = draw(st.integers(1, 7))
    tops = draw(st.lists(st.frozensets(st.integers(0, n - 1), max_size=4), max_size=6))
    closed = close_under_faces(tops)
    maximal = [c for c in closed if not any(c < other for other in closed)]
    how = draw(st.sampled_from(("maximal", "faces", "shuffled", "empty")))
    if how == "maximal":
        listed = maximal
    elif how == "faces":
        listed = _in_order(closed)
    elif how == "shuffled":
        faces = draw(st.lists(st.sampled_from(_in_order(closed)), max_size=8))
        listed = draw(st.permutations(maximal + faces + maximal[:1]))
    else:
        listed, closed = [], frozenset({frozenset()})
    return n, [list(cone)[::-1] for cone in listed], closed


def _case(fan):
    """A fixture fan as :func:`generating_lists` draws one."""
    return fan.ray_count, [sorted(cone) for cone in fan.cones], close_under_faces(fan.cones)


class TestGeneratingLists:
    @settings(max_examples=200, deadline=None)
    @given(generating_lists())
    def test_agrees_with_the_closure(self, case):
        n, listed, closed = case
        fan = SimplicialFan(1, [(1,)] * n, listed)
        for size in range(n + 1):
            for rays in itertools.combinations(range(n), size):
                assert fan.is_cone(frozenset(rays)) == (frozenset(rays) in closed)
        assert not fan.is_cone(frozenset({n}))
        assert list(fan.faces()) == _in_order(closed)
        # the maximal cones of a closed list are the cones that are no facet
        facets = {cone - {i} for cone in closed for i in cone}
        assert fan.cones == tuple(_in_order(closed - facets))
        again = SimplicialFan(1, [(1,)] * n, closed)
        assert fan == again and hash(fan) == hash(again)


class TestMaximalCones:
    def test_projective_line(self):
        assert projective_line_fan().cones == (frozenset({0}), frozenset({1}))

    def test_half_line(self):
        assert affine_fan(1).cones == (frozenset({0}),)

    def test_projective_plane(self):
        tops = projective_plane_fan().cones
        assert sorted(sorted(c) for c in tops) == [[0, 1], [0, 2], [1, 2]]

    def test_equal_fans_share_one_answer(self):
        fan = projective_plane_fan()
        closed = SimplicialFan(2, fan.rays, close_under_faces(fan.cones))
        assert closed == fan and closed.cones == fan.cones
        assert validate_fan(closed) is validate_fan(fan)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.frozensets(st.integers(0, 6), max_size=4), max_size=8))
    def test_agrees_with_inclusion_on_face_closed_fans(self, tops):
        closed = close_under_faces(tops)
        fan = SimplicialFan(1, [(1,)] * 7, closed)
        expected = [c for c in closed if not any(c < other for other in closed)]
        assert fan.cones == tuple(_in_order(expected))


class TestPrimitiveCollections:
    def test_fixtures(self):
        square = product_fan(projective_line_fan(), projective_line_fan())
        assert fans.primitive_collections(projective_plane_fan()) == (frozenset({0, 1, 2}),)
        assert fans.primitive_collections(square) == (frozenset({0, 1}), frozenset({2, 3}))
        assert fans.primitive_collections(affine_fan(3)) == ()
        # a ray in no cone is a primitive collection on its own
        assert fans.primitive_collections(make_fan(1, [(1,), (-1,)], [[0]])) == (frozenset({1}),)

    @settings(max_examples=150, deadline=None)
    @given(generating_lists())
    @example(_case(projective_fan(3)))
    @example(_case(product_fan(projective_line_fan(), projective_plane_fan())))
    @example(_case(_rank2_fan(9)))
    @example(_case(affine_fan(2)))
    def test_minimal_non_faces_by_brute_force(self, case):
        n, listed, closed = case
        fan = SimplicialFan(1, [(1,)] * n, listed)
        patterns = [frozenset(c) for size in range(n + 1)
                    for c in itertools.combinations(range(n), size)]
        non_faces = [c for c in patterns if c not in closed]
        minimal = [c for c in non_faces if not any(o < c for o in non_faces)]
        found = fans.primitive_collections(fan)
        assert found == tuple(_in_order(minimal))
        for pattern in patterns:
            admissible = not any(c <= pattern for c in found)
            assert admissible == is_admissible_zero_pattern(fan, pattern)

    def test_equal_fans_share_one_answer(self):
        assert (fans.primitive_collections(projective_plane_fan())
                is fans.primitive_collections(projective_plane_fan()))


class TestIsComplete:
    def test_complete_fixtures(self):
        assert is_complete(projective_line_fan())
        assert is_complete(projective_plane_fan())
        assert is_complete(projective_fan(3))
        assert is_complete(product_fan(projective_line_fan(), projective_line_fan()))
        triple = product_fan(product_fan(projective_line_fan(), projective_line_fan()),
                             projective_line_fan())
        assert validate_fan(triple).valid
        assert is_complete(triple)
        assert is_complete(product_fan(projective_plane_fan(), projective_line_fan()))

    def test_incomplete_fixtures(self):
        assert not is_complete(affine_fan(1))
        assert not is_complete(affine_fan(2))
        # puncture a complete fan by removing one top cone
        fan = projective_plane_fan()
        cones = set(fan.cones) - {frozenset({0, 1})}
        assert not is_complete(SimplicialFan(2, fan.rays, frozenset(cones)))

    def test_pentagram_is_not_complete(self):
        # every facet has two owners, but the cones wind twice around 0
        rays = [(1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)]
        assert not is_complete(make_fan(2, rays, [[i, (i + 1) % 5] for i in range(5)]))

    def test_dependent_maximal_cone_is_not_complete(self):
        fan = make_fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)],
                       [[0, 1], [1, 2], [2, 3], [3, 0]])
        assert not validate_fan(fan).valid
        assert not is_complete(fan)

    def test_singletons_admissible_on_complete_fans(self):
        for fan in (projective_line_fan(), projective_plane_fan(), projective_fan(3)):
            for i in range(len(fan.rays)):
                assert is_admissible_zero_pattern(fan, {i})


class TestFanCaches:
    def test_equal_fans_share_one_report(self):
        document = {"schema_version": "1", "lattice_rank": 2,
                    "rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [1, 2], [0, 2]],
                    "r": [], "b": []}
        first, second = parse_stacky_document(document), parse_stacky_document(document)
        assert first.fan is not second.fan
        assert validate_fan(first.fan) is validate_fan(second.fan)

    def test_each_fan_is_certified_once(self, certificates):
        for fan, complete in ((projective_plane_fan(), True), (projective_plane_fan(), True),
                              (affine_fan(2), False)):
            assert validate_fan(fan).valid
            assert is_complete(fan) == complete
        assert certificates == [projective_plane_fan().cones, (frozenset({0, 1}),)]

    def test_the_last_answers_are_kept_least_recently_used_out_first(self):
        computed = []

        @fans.fan_cache
        def square(x):
            """The square of x."""
            computed.append(x)
            return x * x

        assert fans.FAN_CACHE_SIZE == 4
        assert [square(x) for x in (1, 2, 3, 4, 1, 5, 1, 2)] == [1, 4, 9, 16, 1, 25, 1, 4]
        assert computed == [1, 2, 3, 4, 5, 2]  # 1 was used again, so 2 left first
        square.cache_clear()
        square(1)
        assert computed[-1] == 1
        assert (square.__name__, square.__doc__) == ("square", "The square of x.")
        assert square.__wrapped__(3) == 9


class TestRaysSpan:
    def test_projective_line(self):
        assert rays_span(projective_line_fan())

    def test_single_ray_in_plane(self):
        assert not rays_span(make_fan(2, [(1, 0)], [[0]]))

    def test_saturation_of_multiple(self):
        assert not rays_span(make_fan(2, [(2, 4)], [[0]]))

    def test_scaled_axes_span(self):
        assert rays_span(make_fan(2, [(2, 0), (0, 3)], [[0], [1]]))


class TestAdmissibleZeroPatterns:
    def test_inside_a_top_cone(self):
        assert is_admissible_zero_pattern(projective_plane_fan(), {0, 1})

    def test_not_contained_anywhere(self):
        assert not is_admissible_zero_pattern(projective_line_fan(), {0, 1})

    def test_empty_pattern(self):
        for fan in (projective_line_fan(), affine_fan(2), projective_plane_fan()):
            assert is_admissible_zero_pattern(fan, frozenset())

    def test_monotone(self, rng):
        fan = projective_fan(3)
        patterns = list(fan.cones)
        for pattern in patterns:
            for i in pattern:
                smaller = pattern - {i}
                assert is_admissible_zero_pattern(fan, smaller)

    def test_index_range(self):
        with pytest.raises(ValueError):
            is_admissible_zero_pattern(projective_line_fan(), {7})
