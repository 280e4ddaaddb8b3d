import pytest

from toricdm import (IntegerMatrix, SnfDecomposition, StackyData, TooLargeError,
                     smith_normal_form)
from toricdm.oracle import (det_cofactor, oracle_divisibility,
                            oracle_element_order_census,
                            oracle_is_group_isomorphism,
                            oracle_quotient_enumerate, oracle_stabilizer_order,
                            oracle_verify_snf)

from conftest import affine_quotient_data, make_fan, weighted_line_root_data


class TestVerifySnf:
    def test_accepts_genuine_decompositions(self, rng):
        for _ in range(50):
            m, n = rng.randint(0, 5), rng.randint(0, 5)
            a = IntegerMatrix.from_rows(
                [[rng.randint(-15, 15) for _ in range(n)] for _ in range(m)], n)
            assert oracle_verify_snf(a, smith_normal_form(a))

    def test_rejects_swapped_diagonal(self):
        a = IntegerMatrix.from_rows([[2, 0], [0, 3]])
        good = smith_normal_form(a)
        bad = SnfDecomposition(IntegerMatrix.diagonal([6, 1]), good.row_ops, good.col_ops)
        assert not oracle_verify_snf(a, bad)

    def test_rejects_tampered_transform(self):
        a = IntegerMatrix.from_rows([[2, 0], [0, 3]])
        good = smith_normal_form(a)
        for field in ("row_ops", "col_ops"):
            ops = getattr(good, field)
            k = next(k for k, op in enumerate(ops) if op[0] == "add")
            kind, src, dst, q = ops[k]
            tampered = dict(d=good.d, row_ops=good.row_ops, col_ops=good.col_ops)
            tampered[field] = ops[:k] + ((kind, src, dst, q + 1),) + ops[k + 1:]
            assert not oracle_verify_snf(a, SnfDecomposition(**tampered))

    def test_rejects_nonunimodular_transform(self):
        # adding row 0 to itself doubles it, a step of determinant 2 that
        # takes [[1]] to [[2]]
        a = IntegerMatrix.from_rows([[1]])
        assert not oracle_verify_snf(
            a, SnfDecomposition(IntegerMatrix.from_rows([[2]]), (("add", 0, 0, 1),), ()))
        assert oracle_verify_snf(
            a, SnfDecomposition(IntegerMatrix.from_rows([[1]]), (("neg", 0), ("neg", 0)), ()))

    @pytest.mark.parametrize("step", [("swap", 0, 2), ("neg", -1), ("add", 0, 2, 1),
                                      ("scale", 0, 2), ("add", 0, 1), ("neg", 0.0), ()])
    def test_rejects_a_malformed_step(self, step):
        a = IntegerMatrix.from_rows([[2, 0], [0, 3]])
        good = smith_normal_form(a)
        assert not oracle_verify_snf(a, SnfDecomposition(good.d, good.row_ops + (step,),
                                                         good.col_ops))
        assert not oracle_verify_snf(a, SnfDecomposition(good.d, good.row_ops,
                                                         (step,) + good.col_ops))

    def test_rejects_a_d_that_is_not_diagonal_or_of_the_wrong_shape(self):
        a = IntegerMatrix.from_rows([[4]])
        assert not oracle_verify_snf(a, SnfDecomposition(IntegerMatrix.diagonal([4, 0]), (), ()))
        # the empty log takes a to itself, which is not diagonal
        a = IntegerMatrix.from_rows([[1, 1], [0, 1]])
        assert not oracle_verify_snf(a, SnfDecomposition(a, (), ()))


class TestQuotientEnumeration:
    def test_order_six_cyclic(self):
        table = oracle_quotient_enumerate(
            IntegerMatrix.column_stack([(2, 0), (0, 3)], 2))
        assert table.order == 6
        assert table.is_cyclic()
        assert table.element_orders() == {1: 1, 2: 1, 3: 2, 6: 2}

    def test_cyclic_presentation(self):
        assert oracle_quotient_enumerate(IntegerMatrix.from_rows([[3]])).order == 3

    def test_infinite_quotient(self):
        with pytest.raises(TooLargeError):
            oracle_quotient_enumerate(
                IntegerMatrix.column_stack([(-3, 2, 0), (0, 1, 2)], 3))

    def test_bound(self):
        with pytest.raises(TooLargeError):
            oracle_quotient_enumerate(IntegerMatrix.from_rows([[101]]), bound=100)

    def test_noncyclic(self):
        table = oracle_quotient_enumerate(
            IntegerMatrix.column_stack([(2, 0), (0, 2)], 2))
        assert table.order == 4
        assert not table.is_cyclic()


class TestDivisibility:
    def test_matches_reference_values(self):
        relations = IntegerMatrix.column_stack([(-1, 1)], 2)
        assert oracle_divisibility((0, 2), 2, relations)
        assert not oracle_divisibility((0, 1), 2, relations)
        assert oracle_divisibility((3, -3), 5, relations)

    def test_too_large(self):
        relations = IntegerMatrix.zeros(4, 0)
        with pytest.raises(TooLargeError):
            oracle_divisibility((0, 0, 0, 0), 11, relations, bound=10_000)


class TestCensusAndIsomorphism:
    def test_census_of_coprime_product(self):
        assert oracle_element_order_census((2, 3)) == \
            oracle_element_order_census((6,))

    def test_isomorphism_certificate(self):
        t = IntegerMatrix.from_rows([[3, 2]])
        assert oracle_is_group_isomorphism(t, (2, 3), (6,))
        assert not oracle_is_group_isomorphism(
            IntegerMatrix.from_rows([[1, 1]]), (2, 3), (6,))

    def test_wrong_shape_or_order(self):
        assert not oracle_is_group_isomorphism(
            IntegerMatrix.from_rows([[1]]), (2, 3), (6,))
        assert not oracle_is_group_isomorphism(
            IntegerMatrix.from_rows([[1, 0]]), (2, 3), (5,))


class TestStabilizerOrder:
    def test_weighted_line(self):
        data = weighted_line_root_data()
        assert oracle_stabilizer_order(data, {0}) == 6
        assert oracle_stabilizer_order(data, {1}) == 4

    def test_affine_quotient(self):
        for a in (1, 2, 7):
            assert oracle_stabilizer_order(affine_quotient_data(a), {0}) == a

    def test_nonfull_cone_path(self):
        # the zero cone has no rays: its index is 1, and the order is the band's
        data = weighted_line_root_data()
        assert oracle_stabilizer_order(data, frozenset()) == 2

    def test_dependent_rays_give_an_infinite_quotient(self):
        data = StackyData(make_fan(2, [(1, 0), (2, 0)], [[0, 1]]), r=(3,),
                          b=IntegerMatrix.zeros(1, 2))
        with pytest.raises(TooLargeError):
            oracle_stabilizer_order(data, {0, 1})


class TestDetCofactor:
    def test_known_values(self):
        assert det_cofactor(IntegerMatrix.identity(0)) == 1
        assert det_cofactor(IntegerMatrix.from_rows([[5]])) == 5
        assert det_cofactor(IntegerMatrix.from_rows([[1, 2], [3, 4]])) == -2
        assert det_cofactor(IntegerMatrix.from_rows(
            [[2, 0, 1], [1, 1, 0], [0, 3, 1]])) == 5

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            det_cofactor(IntegerMatrix.zeros(2, 3))
