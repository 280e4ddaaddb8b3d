from math import gcd

import pytest

from toricdm import (FgAbelianGroup, IntegerMatrix, cokernel,
                     divisible_in_quotient, invariant_factor_chain,
                     matrix_rank, smith_normal_form, solve_linear)
from toricdm.oracle import (oracle_divisibility, oracle_element_order_census,
                            oracle_verify_snf)


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
            assert dec.reconstruct() == a
            assert oracle_verify_snf(a, dec)

    def test_random_matrices_verify(self, rng):
        for _ in range(300):
            m, n = rng.randint(0, 6), rng.randint(0, 6)
            a = IntegerMatrix.from_rows(
                [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)], n)
            assert oracle_verify_snf(a, smith_normal_form(a))


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
            assert len(kernel) == n - matrix_rank(a)


class TestDivisibleInQuotient:
    REL = IntegerMatrix.column_stack([(-1, 1)], 2)

    def test_plainly_divisible(self):
        assert divisible_in_quotient((0, 2), 2, self.REL)

    def test_obstructed(self):
        # the finite quotient Z^2/(2Z^2 + <(-1,1)>) has order 2; (0,1) is the
        # nonzero class
        assert not divisible_in_quotient((0, 1), 2, self.REL)
        assert not oracle_divisibility((0, 1), 2, self.REL)

    def test_relation_multiple(self):
        assert divisible_in_quotient((3, -3), 5, self.REL)

    def test_agrees_with_enumeration(self, rng):
        for _ in range(200):
            n = rng.randint(1, 3)
            r = rng.randint(1, 6)
            cols = [tuple(rng.randint(-4, 4) for _ in range(n))
                    for _ in range(rng.randint(0, 3))]
            relations = IntegerMatrix.column_stack(cols, n)
            v = tuple(rng.randint(-8, 8) for _ in range(n))
            assert divisible_in_quotient(v, r, relations) == \
                oracle_divisibility(v, r, relations)


class TestInvariantFactorChain:
    def test_coprime_collapse(self):
        assert invariant_factor_chain((2, 3)) == (6,)

    def test_mixed(self):
        chain = invariant_factor_chain((4, 6))
        assert chain == (2, 12)
        census = oracle_element_order_census((4, 6))
        assert sum(census.values()) == 24
        assert max(census) == 12
        assert census == oracle_element_order_census(chain)

    def test_already_chained(self):
        assert invariant_factor_chain((2, 4)) == (2, 4)

    def test_ones_are_dropped(self):
        assert invariant_factor_chain((1, 1, 5)) == (5,)
        assert invariant_factor_chain(()) == ()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            invariant_factor_chain((0, 2))

    def test_census_preserved(self, rng):
        for _ in range(40):
            orders = [rng.randint(1, 9) for _ in range(rng.randint(0, 3))]
            chain = invariant_factor_chain(orders)
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
