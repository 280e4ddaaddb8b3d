import pytest

from toricdm import (ConeNotInFanError, FgAbelianGroup, IntegerMatrix,
                     NonSpanningRaysError, StackyData, build_matrices, dm_torus,
                     generic_stabilizer, point_stabilizer,
                     psi_exponents, quotient_group, rigidify, split_nonspanning,
                     stacky_fan, validate_data)
from toricdm.oracle import oracle_quotient_enumerate, oracle_stabilizer_order

from conftest import (affine_quotient_data, chain_by_smith_form, make_fan,
                      projective_plane_fan, random_spanning_data, weighted_line_root_data)


class TestValidateData:
    def test_good_data(self):
        assert validate_data(weighted_line_root_data()).valid

    def test_bad_root_order(self):
        data = StackyData(make_fan(1, [(1,)], [[0]]), r=(0,),
                          b=IntegerMatrix.zeros(1, 1))
        assert validate_data(data).first().code == "nonpositive_root_order"

    def test_bad_b_shape(self):
        data = StackyData(make_fan(1, [(1,)], [[0]]), r=(2,),
                          b=IntegerMatrix.zeros(1, 3))
        assert validate_data(data).first().code == "bad_b_shape"

    def test_fan_problems_propagate(self):
        data = StackyData(make_fan(1, [(0,)], [[0]]))
        assert validate_data(data).first().code == "zero_ray"


class TestBuildMatrices:
    def test_weighted_line_root(self):
        b, q = build_matrices(weighted_line_root_data())
        assert b.to_rows() == [[-3, 2], [0, 1]]
        assert q.to_rows() == [[0], [2]]

    def test_affine_quotient(self):
        b, q = build_matrices(affine_quotient_data(5))
        assert b.to_rows() == [[5]]
        assert q.cols == 0

    def test_rigid_line(self):
        data = StackyData(make_fan(1, [(-1,), (1,)], [[0], [1]]))
        b, q = build_matrices(data)
        assert b.to_rows() == [[-1, 1]]
        assert q.cols == 0


class TestPsiExponents:
    def test_weighted_line_root(self):
        assert psi_exponents(weighted_line_root_data()).to_rows() == \
            [[-3, 2, 0], [0, 1, 2]]

    def test_affine_quotient(self):
        assert psi_exponents(affine_quotient_data(3)).to_rows() == [[3]]

    def test_rigid_equals_first_block(self):
        data = StackyData(projective_plane_fan())
        assert psi_exponents(data) == build_matrices(data)[0]


class TestQuotientGroup:
    def test_weighted_line_root(self):
        desc = quotient_group(weighted_line_root_data())
        assert desc.torus_rank == 1
        assert desc.finite_part.is_trivial

    def test_affine_quotient(self):
        desc = quotient_group(affine_quotient_data(3))
        assert desc.torus_rank == 0
        assert desc.finite_part == FgAbelianGroup(0, (3,))

    def test_projective_plane(self):
        desc = quotient_group(StackyData(projective_plane_fan()))
        assert desc.torus_rank == 1
        assert desc.finite_part.is_trivial

    def test_rank_count(self, rng):
        # with spanning rays the torus rank is the ray count minus the rank
        for _ in range(25):
            data = random_spanning_data(rng)
            desc = quotient_group(data)
            assert desc.torus_rank == data.ray_count - data.lattice_rank


class TestStackyFan:
    def test_weighted_line_root(self):
        sf = stacky_fan(weighted_line_root_data())
        assert sf.extended_group == FgAbelianGroup(1, (2,))
        assert sf.lifted_rays == ((-3, 0), (2, 1))

    def test_rigid_lift_is_identity(self):
        data = StackyData(projective_plane_fan())
        sf = stacky_fan(data)
        assert sf.extended_group == FgAbelianGroup(2)
        assert sf.lifted_rays == data.fan.rays

    def test_nonspanning_is_rejected(self):
        with pytest.raises(NonSpanningRaysError):
            stacky_fan(StackyData(make_fan(2, [(1, 0)], [[0]])))


class TestStabilizers:
    def test_generic_examples(self):
        assert generic_stabilizer(weighted_line_root_data()) == FgAbelianGroup(0, (2,))
        assert generic_stabilizer(affine_quotient_data(4)).is_trivial
        data = StackyData(make_fan(1, [(1,)], [[0]]), r=(2, 3),
                          b=IntegerMatrix.zeros(2, 1))
        assert generic_stabilizer(data) == FgAbelianGroup(0, (6,))

    def test_affine_quotient_point(self):
        data = affine_quotient_data(3)
        assert point_stabilizer(data, {0}) == FgAbelianGroup(0, (3,))
        assert point_stabilizer(data, frozenset()).is_trivial

    def test_zero_cone_is_generic(self, rng):
        for _ in range(20):
            data = random_spanning_data(rng)
            assert point_stabilizer(data, frozenset()) == generic_stabilizer(data)

    def test_weighted_line_orders(self):
        data = weighted_line_root_data()
        stab_rho = point_stabilizer(data, {0})
        stab_tau = point_stabilizer(data, {1})
        assert stab_rho == FgAbelianGroup(0, (6,))
        assert stab_tau == FgAbelianGroup(0, (4,))
        assert oracle_stabilizer_order(data, {0}) == 6
        assert oracle_stabilizer_order(data, {1}) == 4
        # an independent enumeration of the isotropy presentation at ray 0
        table = oracle_quotient_enumerate(
            IntegerMatrix.column_stack([(-3, 2, 0), (0, 1, 2), (0, 1, 0)], 3))
        assert table.order == 6 and table.is_cyclic()

    def test_unknown_cone(self):
        with pytest.raises(ConeNotInFanError):
            point_stabilizer(weighted_line_root_data(), {0, 1})

    def test_face_order_divides(self, rng):
        for _ in range(20):
            data = random_spanning_data(rng)
            for cone in data.fan.faces():
                order = point_stabilizer(data, cone).order()
                for i in cone:
                    face_order = point_stabilizer(data, cone - {i}).order()
                    assert order % face_order == 0


class TestRigidify:
    def test_strips_roots(self):
        data = weighted_line_root_data()
        rigid = rigidify(data)
        assert rigid.fan == data.fan
        assert rigid.r == () and rigid.b.rows == 0
        assert generic_stabilizer(rigid).is_trivial

    def test_idempotent(self):
        data = StackyData(projective_plane_fan())
        assert rigidify(data) == data


class TestSplitNonspanning:
    def test_spanning_untouched(self):
        data = weighted_line_root_data()
        split, factor = split_nonspanning(data)
        assert split == data and factor == 0

    def test_axis_ray(self):
        split, factor = split_nonspanning(StackyData(make_fan(2, [(1, 0)], [[0]])))
        assert factor == 1
        assert split.fan.lattice_rank == 1
        assert split.fan.rays in (((1,),), ((-1,),))

    def test_saturation(self):
        split, factor = split_nonspanning(StackyData(make_fan(2, [(2, 4)], [[0]])))
        assert factor == 1
        assert split.fan.rays in (((2,),), ((-2,),))
        again, factor2 = split_nonspanning(split)
        assert again == split and factor2 == 0

    def test_rank_additivity(self, rng):
        for rays, d in (([(1, 0)], 2), ([(2, 4)], 2), ([(0, 0, 3)], 3),
                        ([(1, 1, 0), (1, -1, 0)], 3)):
            data = StackyData(make_fan(d, rays, [[i] for i in range(len(rays))]))
            split, factor = split_nonspanning(data)
            assert split.fan.lattice_rank + factor == d


class TestDmTorus:
    def test_weighted_line_root(self):
        dim, band = dm_torus(weighted_line_root_data())
        assert (dim, band) == (1, FgAbelianGroup(0, (2,)))

    def test_rigid_plane(self):
        dim, band = dm_torus(StackyData(projective_plane_fan()))
        assert dim == 2 and band.is_trivial

    def test_band_in_chain_form(self):
        data = StackyData(make_fan(1, [(1,)], [[0]]), r=(4, 6),
                          b=IntegerMatrix.zeros(2, 1))
        assert dm_torus(data)[1] == FgAbelianGroup(0, (2, 12))


class TestOrderFormula:
    def test_full_cones_match_determinant(self, rng):
        for _ in range(40):
            data = random_spanning_data(rng)
            for cone in data.fan.faces():
                order = point_stabilizer(data, cone).order()
                assert order == oracle_stabilizer_order(data, cone)

    def test_generic_is_chain_of_r(self, rng):
        for _ in range(20):
            data = random_spanning_data(rng)
            assert generic_stabilizer(data).invariant_factors == \
                chain_by_smith_form(data.r)
