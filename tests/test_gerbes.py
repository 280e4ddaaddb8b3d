import pytest

from toricdm import (FgAbelianGroup, IntegerMatrix, MismatchedUnderlyingDataError,
                     NotInChainFormError, StackyData, canonicalize, gerbe_class,
                     generic_stabilizer,
                     is_isomorphic_banded, picard_group, rigidify)
from toricdm.gerbes import twist_divisibility
from toricdm.oracle import (oracle_banded_isomorphic, oracle_divisibility,
                            oracle_element_order_census, oracle_is_group_isomorphism)

from conftest import (affine_fan, chain_by_smith_form, line_fan, make_fan, p1_root_data,
                      product_fan, projective_fan, projective_line_fan, projective_plane_fan,
                      solve_linear, weighted_line_root_data)

# P^2 modulo Z/3: Pic is Z + Z/3
P2_MOD_3 = make_fan(2, [(2, -1), (-1, 2), (-1, -1)], [[0, 1], [1, 2], [0, 2]])

CLASS_FANS = [projective_line_fan(), line_fan(3, 2), projective_plane_fan(), P2_MOD_3,
              projective_fan(3), affine_fan(2), make_fan(1, [(6,)], [[0]]),
              make_fan(2, [(1, 0), (1, 2)], [[0, 1]]),
              product_fan(line_fan(2, 4), P2_MOD_3)]


class TestPicardGroup:
    def test_weighted_line(self):
        pres = picard_group(StackyData(line_fan(3, 2)))
        assert pres.group == FgAbelianGroup(1)
        assert pres.relation_matrix.to_rows() == [[-3], [2]]
        g = pres.class_of((0, 1)) - pres.class_of((1, 0))
        assert 2 * g == pres.class_of((1, 0))
        assert 3 * g == pres.class_of((0, 1))

    def test_projective_line(self):
        pres = picard_group(StackyData(projective_line_fan()))
        assert pres.group == FgAbelianGroup(1)
        assert pres.class_of((1, 0)) == pres.class_of((0, 1))

    def test_half_line_trivial(self):
        pres = picard_group(StackyData(make_fan(1, [(1,)], [[0]])))
        assert pres.group.is_trivial
        assert pres.class_of((1,)).is_zero

    def test_free_rank_counts_rays(self):
        data = StackyData(make_fan(2, [(1, 0), (0, 1), (-1, -1), (0, -1)],
                                   [[0, 1], [1, 2], [2, 3], [3, 0]]))
        assert picard_group(data).group.free_rank == 2

    def test_requires_rigid_data(self):
        with pytest.raises(ValueError):
            picard_group(weighted_line_root_data())


class TestNormalizedClasses:
    def test_equal_classes_hash_equal(self):
        pres = picard_group(StackyData(projective_line_fan()))
        a, b = pres.class_of((1, 0)), pres.class_of((0, 1))
        assert a == b and hash(a) == hash(b)
        assert {a, b, pres.class_of((2, -1)), 2 * a} == {a, 2 * b}
        assert pres.zero_class() in {a - b}

    def test_torsion_classes_in_sets(self):
        pres = picard_group(StackyData(P2_MOD_3))
        assert pres.group == FgAbelianGroup(1, (3,))
        assert len({pres.class_of((k, 0, 0)) for k in range(-6, 7)}) == 13
        torsion = pres.class_of((1, 0, -1))
        assert not torsion.is_zero and (3 * torsion).is_zero
        assert len({k * torsion for k in range(12)}) == 3

    def test_equality_and_zero_agree_with_solve_linear(self, rng):
        for fan in CLASS_FANS:
            pres = picard_group(StackyData(fan))
            for _ in range(30):
                v = tuple(rng.randint(-6, 6) for _ in range(pres.n))
                w = tuple(rng.randint(-6, 6) for _ in range(pres.n))
                diff = tuple(x - y for x, y in zip(v, w))
                same = solve_linear(pres.relation_matrix, diff)[0] is not None
                cv, cw = pres.class_of(v), pres.class_of(w)
                assert (cv == cw) == same
                assert same <= (hash(cv) == hash(cw))
                assert cv.is_zero == (solve_linear(pres.relation_matrix, v)[0] is not None)
                assert (cv - cw).is_zero == same

    def test_divisible_by_agrees_with_oracle(self, rng):
        for fan in CLASS_FANS:
            pres = picard_group(StackyData(fan))
            for _ in range(30):
                v = tuple(rng.randint(-8, 8) for _ in range(pres.n))
                r = rng.randint(1, 12)
                assert pres.class_of(v).divisible_by(r) == \
                    oracle_divisibility(v, r, pres.relation_matrix)

    def test_divisible_by_rejects_nonpositive(self):
        pres = picard_group(StackyData(projective_line_fan()))
        with pytest.raises(ValueError):
            pres.class_of((1, 0)).divisible_by(0)

    def test_class_operations_run_no_smith_form(self, snf_calls, rng):
        pres = picard_group(StackyData(P2_MOD_3))
        snf_calls.clear()
        outcomes = []
        for _ in range(20):
            a = pres.class_of(tuple(rng.randint(-9, 9) for _ in range(3)))
            b = pres.class_of(tuple(rng.randint(-9, 9) for _ in range(3)))
            outcomes.append((a == b, a.is_zero, (a - b).is_zero,
                             a.divisible_by(rng.randint(1, 9)), hash(a)))
        assert len(outcomes) == 20
        assert snf_calls == []

    def test_twist_divisibility_runs_one_smith_form(self, snf_calls, rng):
        r = (2, 4, 12, 24)
        rows = [[[rng.randint(-9, 9) for _ in range(3)] for _ in r] for _ in range(2)]
        data1, data2 = (StackyData(P2_MOD_3, r, IntegerMatrix.from_rows(b)) for b in rows)
        snf_calls.clear()
        result = twist_divisibility(data1, data2)
        assert snf_calls == [(3, 2)]
        relation = picard_group(StackyData(P2_MOD_3)).relation_matrix
        for (diff, divisible), order in zip(result, r):
            assert divisible == oracle_divisibility(diff, order, relation)


class TestGerbeClass:
    def test_weighted_line_twist(self):
        data = weighted_line_root_data()
        pres = picard_group(rigidify(data))
        g = pres.class_of((0, 1)) - pres.class_of((1, 0))
        assert gerbe_class(data, 1) == 3 * g

    def test_zero_row(self):
        data = StackyData(projective_line_fan(), r=(2,), b=IntegerMatrix.zeros(1, 2))
        assert gerbe_class(data, 1).is_zero

    def test_relation_row_is_zero_class(self):
        # the b row equals the pairing of a character with the rays
        data = StackyData(projective_line_fan(), r=(3,),
                          b=IntegerMatrix.from_rows([[-1, 1]]))
        assert gerbe_class(data, 1).is_zero

    def test_index_bounds(self):
        data = weighted_line_root_data()
        with pytest.raises(IndexError):
            gerbe_class(data, 0)
        with pytest.raises(IndexError):
            gerbe_class(data, 2)

    def test_relation_shift_preserves_class(self):
        base = p1_root_data(3)
        shifted = StackyData(base.fan, base.r,
                             IntegerMatrix.from_rows([[0 - 1, 3 + 1]]))
        assert gerbe_class(base, 1) == gerbe_class(shifted, 1)
        # a shift by r times a vector moves the class but keeps the gerbe
        doubled = StackyData(base.fan, base.r, IntegerMatrix.from_rows([[2, 3]]))
        assert gerbe_class(base, 1) != gerbe_class(doubled, 1)
        assert is_isomorphic_banded(base, doubled)


class TestIsIsomorphicBanded:
    def test_parity(self):
        pres = picard_group(StackyData(projective_line_fan()))
        for k in range(-4, 5):
            for k2 in range(-4, 5):
                verdict = is_isomorphic_banded(p1_root_data(k), p1_root_data(k2))
                assert verdict == ((k - k2) % 2 == 0)
                assert verdict == oracle_divisibility(
                    (0, k - k2), 2, pres.relation_matrix)

    def test_reflexive_and_symmetric(self):
        a, b = p1_root_data(3), p1_root_data(5)
        assert is_isomorphic_banded(a, a)
        assert is_isomorphic_banded(a, b) == is_isomorphic_banded(b, a)

    def test_shift_by_r_and_relations(self):
        base = p1_root_data(1)
        shifted = StackyData(base.fan, base.r, IntegerMatrix.from_rows([[2, 1]]))
        assert is_isomorphic_banded(base, shifted)
        relation_shift = StackyData(base.fan, base.r,
                                    IntegerMatrix.from_rows([[-1, 2]]))
        assert is_isomorphic_banded(base, relation_shift)

    def test_different_chains(self):
        a = p1_root_data(0, r=2)
        b = p1_root_data(0, r=4)
        assert not is_isomorphic_banded(a, b)

    def test_mismatched_fan(self):
        with pytest.raises(MismatchedUnderlyingDataError):
            is_isomorphic_banded(p1_root_data(0), StackyData(
                line_fan(1, 2), r=(2,), b=IntegerMatrix.from_rows([[0, 0]])))

    def test_requires_chain_form(self):
        loose = StackyData(projective_line_fan(), r=(4, 6),
                           b=IntegerMatrix.zeros(2, 2))
        with pytest.raises(NotInChainFormError):
            is_isomorphic_banded(loose, loose)


class TestCanonicalize:
    def test_already_chained(self):
        data = StackyData(projective_line_fan(), r=(2, 4),
                          b=IntegerMatrix.from_rows([[0, 1], [1, 0]]))
        canonical, certificate = canonicalize(data)
        assert canonical == data
        assert certificate == IntegerMatrix.identity(2)

    def test_rigid_untouched(self):
        data = StackyData(projective_line_fan())
        canonical, certificate = canonicalize(data)
        assert canonical == data
        assert certificate.rows == certificate.cols == 0

    def test_coprime_pair_transport(self):
        data = StackyData(projective_line_fan(), r=(2, 3),
                          b=IntegerMatrix.from_rows([[1, 0], [0, 1]]))
        canonical, certificate = canonicalize(data)
        assert canonical.r == (6,)
        assert oracle_is_group_isomorphism(certificate, (2, 3), canonical.r)
        assert canonical.b == certificate @ data.b
        assert generic_stabilizer(canonical) == generic_stabilizer(data)
        again, _ = canonicalize(canonical)
        assert again.r == canonical.r
        assert is_isomorphic_banded(again, canonical)

    def test_certificate_rows_reduced_modulo_the_chain(self, rng):
        fan = projective_line_fan()
        for _ in range(60):
            big_r = rng.randint(1, 4)
            r = tuple(rng.randint(1, 12) for _ in range(big_r))
            b = IntegerMatrix.from_rows(
                [[rng.randint(-50, 50) for _ in range(2)] for _ in range(big_r)], 2)
            data = StackyData(fan, r, b)
            canonical, certificate = canonicalize(data)
            for j, c in enumerate(canonical.r):
                assert all(0 <= x < c for x in certificate.row(j))
            assert canonical.b == certificate @ data.b
            assert oracle_is_group_isomorphism(certificate, r, canonical.r)

    def test_random_properties(self, rng):
        fan = projective_line_fan()
        for _ in range(50):
            big_r = rng.randint(0, 4)
            r = tuple(rng.randint(1, 12) for _ in range(big_r))
            b = IntegerMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(2)] for _ in range(big_r)], 2)
            data = StackyData(fan, r, b)
            canonical, certificate = canonicalize(data)
            assert canonical.r == chain_by_smith_form(r)
            assert oracle_element_order_census(r) == \
                oracle_element_order_census(canonical.r)
            assert generic_stabilizer(canonical) == generic_stabilizer(data)
            if big_r:
                assert oracle_is_group_isomorphism(certificate, r, canonical.r)
            again, _ = canonicalize(canonical)
            assert again.r == canonical.r
            assert is_isomorphic_banded(again, canonical)


def random_twists(rng, rows, fan, spread=9):
    return IntegerMatrix.from_rows(
        [[rng.randint(-spread, spread) for _ in fan.rays] for _ in range(rows)], len(fan.rays))


def banded_verdict(data1, data2):
    """The main path's verdict on two data sets in any root-order form."""
    return is_isomorphic_banded(canonicalize(data1)[0], canonicalize(data2)[0])


class TestBandIdentification:
    COPRIME = [(2, 3), (3, 2), (4, 3), (2, 5), (5, 3), (4, 9), (3, 1)]

    def test_fibre_product_law(self, rng):
        # the mn-th root of a line bundle is the fibre product of its m-th and
        # n-th roots, with bands matched by the Chinese-remainder map
        for fan in CLASS_FANS:
            for m, n in self.COPRIME:
                beta = random_twists(rng, 1, fan).row(0)
                whole = StackyData(fan, (m * n,), IntegerMatrix.from_rows([beta]))
                parts = StackyData(fan, (m, n), IntegerMatrix.from_rows([beta, beta]))
                assert banded_verdict(whole, parts)
                assert oracle_banded_isomorphic(whole, parts)

    def test_fibre_product_law_detects_a_changed_part(self):
        # (6; beta) against (2, 3; beta + e_0, beta) on P^1: the square root
        # part moves by a class not divisible by 2
        fan = projective_line_fan()
        whole = StackyData(fan, (6,), IntegerMatrix.from_rows([[1, 0]]))
        moved = StackyData(fan, (2, 3), IntegerMatrix.from_rows([[2, 0], [1, 0]]))
        assert not banded_verdict(whole, moved)
        assert not oracle_banded_isomorphic(whole, moved)

    def test_data_is_isomorphic_to_its_canonical_form(self, rng):
        for fan in CLASS_FANS:
            for _ in range(8):
                r = tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 4)))
                data = StackyData(fan, r, random_twists(rng, len(r), fan))
                canonical, _ = canonicalize(data)
                assert banded_verdict(data, canonical)
                assert oracle_banded_isomorphic(data, canonical)

    def test_main_path_agrees_with_the_prime_by_prime_oracle(self, rng):
        fan = projective_line_fan()
        verdicts = []
        for _ in range(300):
            r1 = tuple(rng.choice((1, 2, 3, 4, 6, 8, 9, 12)) for _ in range(rng.randint(1, 3)))
            data1 = StackyData(fan, r1, random_twists(rng, len(r1), fan, 3))
            if rng.random() < 0.5:  # the same roots in another order
                order = rng.sample(range(len(r1)), len(r1))
                data2 = StackyData(fan, [r1[i] for i in order],
                                   IntegerMatrix.from_rows([data1.b.row(i) for i in order], 2))
            else:
                r2 = tuple(rng.choice((2, 3, 4, 6, 12)) for _ in range(rng.randint(1, 3)))
                data2 = StackyData(fan, r2, random_twists(rng, len(r2), fan, 3))
            verdicts.append(banded_verdict(data1, data2))
            assert verdicts[-1] == oracle_banded_isomorphic(data1, data2)
        assert 50 < sum(verdicts) < 250

    def test_chain_inputs_keep_their_verdicts(self, rng):
        for fan in (projective_line_fan(), projective_plane_fan(), P2_MOD_3):
            for _ in range(30):
                r = [rng.randint(1, 4)]
                for _ in range(rng.randint(0, 2)):
                    r.append(r[-1] * rng.randint(1, 3))
                data1 = StackyData(fan, r, random_twists(rng, len(r), fan, 4))
                data2 = StackyData(fan, r, random_twists(rng, len(r), fan, 4))
                assert banded_verdict(data1, data2) == is_isomorphic_banded(data1, data2)
                assert oracle_banded_isomorphic(data1, data2) == \
                    is_isomorphic_banded(data1, data2)

    def test_oracle_accepts_every_certificate(self, rng):
        for fan in (projective_line_fan(), P2_MOD_3):
            for _ in range(40):
                r = tuple(rng.randint(1, 30) for _ in range(rng.randint(1, 3)))
                data = StackyData(fan, r, random_twists(rng, len(r), fan))
                canonical, certificate = canonicalize(data)
                assert oracle_is_group_isomorphism(certificate, r, canonical.r)
                for j, c in enumerate(canonical.r):
                    assert all(0 <= x < c for x in certificate.row(j))

    def test_huge_coprime_orders(self):
        big1, big2 = 10 ** 4000 + 1, 10 ** 4000 + 3
        data = StackyData(projective_line_fan(), (big1, big2),
                          IntegerMatrix.from_rows([[1, 0], [0, 1]]))
        canonical, certificate = canonicalize(data)
        assert canonical.r == (big1 * big2,)
        row = certificate.row(0)
        assert row[0] % big1 == 1 and row[0] % big2 == 0
        assert row[1] % big1 == 0 and row[1] % big2 == 1

