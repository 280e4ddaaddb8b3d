from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricdm import (FgAbelianGroup, IntegerMatrix, cokernel, cokernel_with_projection,
                     cyclic_chain, smith_normal_form)
from toricdm.oracle import (oracle_divisibility, oracle_element_order_census,
                            oracle_verify_snf)

from conftest import dense_transforms, solve_linear


def mat(rows):
    return IntegerMatrix.from_rows(rows)


class TestSmithNormalForm:
    def test_identity(self):
        dec = smith_normal_form(IntegerMatrix.identity(2))
        assert dec.diagonal() == (1, 1)
        assert oracle_verify_snf(IntegerMatrix.identity(2), dec)

    def test_divisor_chain_is_enforced(self):
        a = mat([[2, 0], [0, 3]])
        dec = smith_normal_form(a)
        assert dec.diagonal() == (1, 6)
        assert oracle_verify_snf(a, dec)

    def test_rank_deficient_wide_matrix(self):
        # gcd of entries is 1 and the gcd of all 2x2 minors is gcd(3, 6, 4) = 1
        a = mat([[-3, 2, 0], [0, 1, 2]])
        minors = []
        for j in range(3):
            for k in range(j + 1, 3):
                minors.append(abs(a[0, j] * a[1, k] - a[0, k] * a[1, j]))
        assert gcd(*minors) == 1
        dec = smith_normal_form(a)
        assert dec.d.to_rows() == [[1, 0, 0], [0, 1, 0]]
        assert oracle_verify_snf(a, dec)

    def test_empty_shapes(self):
        for rows, cols in ((0, 0), (0, 3), (3, 0)):
            a = IntegerMatrix.zeros(rows, cols)
            dec = smith_normal_form(a)
            u, v, _, _ = dense_transforms(dec)
            assert u @ dec.d @ v == a
            assert oracle_verify_snf(a, dec)

    def test_random_matrices_verify(self, rng):
        for _ in range(300):
            m, n = rng.randint(0, 6), rng.randint(0, 6)
            a = IntegerMatrix.from_rows(
                [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)], n)
            assert oracle_verify_snf(a, smith_normal_form(a))


@st.composite
def small_matrices(draw):
    """Up to 5 x 5 with negative entries; empty shapes included, and the
    last row sometimes a combination of the first two."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rows = [draw(st.lists(st.integers(-12, 12), min_size=n, max_size=n)) for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        p, q = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[-1] = [p * x + q * y for x, y in zip(rows[0], rows[1])]
    return IntegerMatrix.from_rows(rows, n)


def dense_projection(relations, vector):
    """Normalized coordinates of ``vector`` read off the dense rows of
    ``u_inv``: the reference for the projection by the log."""
    snf = smith_normal_form(relations)
    diag = snf.diagonal()
    image = dense_transforms(snf)[2].apply(vector)
    torsion = tuple(image[i] % c for i, c in enumerate(diag) if c >= 2)
    return torsion + tuple(x for i, x in enumerate(image) if i >= len(diag) or diag[i] == 0)


class TestEngineProperties:
    @settings(max_examples=300, deadline=None)
    @given(small_matrices())
    def test_transforms_from_the_log(self, a):
        dec = smith_normal_form(a)
        assert oracle_verify_snf(a, dec)
        u, v, u_inv, v_inv = dense_transforms(dec)
        assert u @ dec.d @ v == a
        assert u_inv @ u == IntegerMatrix.identity(a.rows)
        assert v @ v_inv == IntegerMatrix.identity(a.cols)

    @settings(max_examples=300, deadline=None)
    @given(small_matrices(), st.lists(st.integers(-50, 50), min_size=5, max_size=5))
    def test_row_log_applies_u_inv(self, a, vector):
        dec = smith_normal_form(a)
        assert dec.apply_row_ops(vector[:a.rows]) == dense_transforms(dec)[2].apply(vector[:a.rows])

    @settings(max_examples=300, deadline=None)
    @given(small_matrices(), st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=5, max_size=5))
    def test_projection_by_log_equals_dense_rows(self, a, vector):
        _, project = cokernel_with_projection(a)
        assert project(vector[:a.rows]) == dense_projection(a, vector[:a.rows])

    @settings(max_examples=300, deadline=None)
    @given(small_matrices(), st.lists(st.integers(-50, 50), min_size=5, max_size=5))
    def test_projection_is_bounded_and_kills_relations(self, a, vector):
        group, project = cokernel_with_projection(a)
        assert cokernel(a) == group
        for j in range(a.cols):
            assert not any(project(a.column(j)))
        coordinates = project(vector[:a.rows])
        assert len(coordinates) == len(group.invariant_factors) + group.free_rank
        assert all(0 <= x < c for x, c in zip(coordinates, group.invariant_factors))

    def test_log_is_applied_only_to_projected_vectors(self, row_log_vectors):
        a = mat([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
        group, project = cokernel_with_projection(a)
        assert group == FgAbelianGroup(0, (2, 6, 12)) and row_log_vectors == []
        assert project((1, 0, 0)) == dense_projection(a, (1, 0, 0))
        assert row_log_vectors == [(1, 0, 0)]
        with pytest.raises(ValueError):
            project((1, 0))


class TestCokernel:
    def test_cyclic_quotient(self):
        group = cokernel(mat([[3]]))
        assert group == FgAbelianGroup(0, (3,))

    def test_free_rank_one(self):
        group = cokernel(IntegerMatrix.column_stack([(-3, 2, 0), (0, 1, 2)], 3))
        assert group == FgAbelianGroup(1)

    def test_no_relations(self):
        assert cokernel(IntegerMatrix.zeros(2, 0)) == FgAbelianGroup(2)

    def test_invariance_under_permutations_and_redundant_columns(self, rng):
        for _ in range(60):
            n = rng.randint(1, 4)
            cols = [tuple(rng.randint(-6, 6) for _ in range(n))
                    for _ in range(rng.randint(1, 4))]
            base = cokernel(IntegerMatrix.column_stack(cols, n))

            shuffled = cols[:]
            rng.shuffle(shuffled)
            assert cokernel(IntegerMatrix.column_stack(shuffled, n)) == base

            perm = list(range(n))
            rng.shuffle(perm)
            permuted = [tuple(c[perm[i]] for i in range(n)) for c in cols]
            assert cokernel(IntegerMatrix.column_stack(permuted, n)) == base

            # a column already in the span changes nothing
            extra = tuple(sum(c[i] for c in cols) for i in range(n))
            assert cokernel(IntegerMatrix.column_stack(cols + [extra], n)) == base


class TestSolveLinear:
    def test_simple_solution(self):
        solution, kernel = solve_linear(mat([[2]]), (4,))
        assert solution == (2,)
        assert kernel == ()

    def test_parity_obstruction(self):
        solution, _ = solve_linear(mat([[2]]), (3,))
        assert solution is None

    def test_underdetermined(self):
        solution, kernel = solve_linear(mat([[1, 1]]), (5,))
        assert solution is not None
        assert sum(solution) == 5
        assert len(kernel) == 1
        # the kernel vector spans the same line as (1, -1)
        (k,) = kernel
        assert sorted(k) == [-1, 1]

    def test_random_consistency(self, rng):
        for _ in range(150):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            a = IntegerMatrix.from_rows(
                [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)], n)
            x = [rng.randint(-5, 5) for _ in range(n)]
            b = a.apply(x)
            solution, kernel = solve_linear(a, b)
            assert solution is not None
            assert a.apply(solution) == b
            for vec in kernel:
                assert a.apply(vec) == (0,) * m
            assert len(kernel) == n - smith_normal_form(a).rank


def quotient_divisible(v, r, relations):
    """Is the class of v divisible by r in Z^n modulo the relation columns?"""
    group, project = cokernel_with_projection(relations)
    return group.is_divisible(project(v), r)


class TestDivisibleInQuotient:
    REL = IntegerMatrix.column_stack([(-1, 1)], 2)

    def test_plainly_divisible(self):
        assert quotient_divisible((0, 2), 2, self.REL)

    def test_obstructed(self):
        # the finite quotient Z^2/(2Z^2 + <(-1,1)>) has order 2; (0,1) is the
        # nonzero class
        assert not quotient_divisible((0, 1), 2, self.REL)
        assert not oracle_divisibility((0, 1), 2, self.REL)

    def test_relation_multiple(self):
        assert quotient_divisible((3, -3), 5, self.REL)

    def test_agrees_with_enumeration(self, rng):
        for _ in range(200):
            n = rng.randint(1, 3)
            r = rng.randint(1, 6)
            cols = [tuple(rng.randint(-4, 4) for _ in range(n))
                    for _ in range(rng.randint(0, 3))]
            relations = IntegerMatrix.column_stack(cols, n)
            v = tuple(rng.randint(-8, 8) for _ in range(n))
            assert quotient_divisible(v, r, relations) == \
                oracle_divisibility(v, r, relations)


class TestInvariantFactorChain:
    def test_coprime_collapse(self):
        assert cyclic_chain((2, 3))[0] == (6,)

    def test_mixed(self):
        chain, _ = cyclic_chain((4, 6))
        assert chain == (2, 12)
        census = oracle_element_order_census((4, 6))
        assert sum(census.values()) == 24
        assert max(census) == 12
        assert census == oracle_element_order_census(chain)

    def test_already_chained(self):
        assert cyclic_chain((2, 4)) == ((2, 4), IntegerMatrix.identity(2))

    def test_ones_are_dropped(self):
        assert cyclic_chain((1, 1, 5)) == ((5,), IntegerMatrix.from_rows([[0, 0, 1]]))
        assert cyclic_chain(()) == ((), IntegerMatrix.identity(0))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclic_chain((0, 2))

    def test_census_preserved(self, rng):
        for _ in range(40):
            orders = [rng.randint(1, 9) for _ in range(rng.randint(0, 3))]
            chain, _ = cyclic_chain(orders)
            assert all(chain[i + 1] % chain[i] == 0 for i in range(len(chain) - 1))
            assert oracle_element_order_census(orders) == \
                oracle_element_order_census(chain)


class TestFgAbelianGroup:
    def test_chain_validation(self):
        with pytest.raises(ValueError):
            FgAbelianGroup(0, (4, 2))
        with pytest.raises(ValueError):
            FgAbelianGroup(0, (1, 2))

    def test_order(self):
        assert FgAbelianGroup(0, (2, 4)).order() == 8
        assert FgAbelianGroup(1, (2,)).order() is None
        assert FgAbelianGroup(0).order() == 1
        assert FgAbelianGroup(0).is_trivial
