"""Core operations on combinatorial stack data.

The input datum bundles a simplicial fan with a chosen lattice point on each
ray, a list of root orders r_1..r_R, and an R x n integer matrix b.  One
builder, :func:`character_relations`, lays out the transposed exponent
matrix of the torus homomorphism, and the acting quotient group, the
isotropy groups and the rigid Picard group are cokernels of its rows.  The
module also gives the generic isotropy group, the rigidification, the
splitting over the sublattice the rays span, and the associated stacky fan.

None of these groups depends on how the torsion of the extended group is
presented (Borisov, Chen and Smith, J. Amer. Math. Soc. 18, 2005), so the
canonical chain form (``gerbes.canonicalize``) gives them from k root rows:
the quotient group from n + k rows, and the isotropy group at a cone σ from
|σ| + k rows of σ alone, however many rays the fan has.
"""

from __future__ import annotations

from .errors import (ConeNotInFanError, NonSpanningRaysError, ValidationReport,
                     Value, Violation, decimal_str)
from .fans import SimplicialFan, ray_smith_form, rays_span, validate_fan
from .lattice import FgAbelianGroup, IntegerMatrix, cokernel, cyclic_chain


class StackyData(Value):
    """A fan with ray vectors plus root orders ``r`` and twist matrix ``b``.

    ``b`` has one row per root order and one column per ray.  ``r`` may be
    empty, in which case ``b`` has zero rows and the datum is rigid.
    """

    _fields = ("fan", "r", "b")

    def __init__(self, fan: SimplicialFan, r: Sequence[int] = (),
                 b: IntegerMatrix | None = None):
        r = tuple(int(x) for x in r)
        if b is None:
            b = IntegerMatrix.zeros(len(r), fan.ray_count)
        self.__dict__.update(fan=fan, r=r, b=b)

    @property
    def lattice_rank(self) -> int:
        return self.fan.lattice_rank

    @property
    def ray_count(self) -> int:
        return self.fan.ray_count

    @property
    def root_count(self) -> int:
        return len(self.r)

    @property
    def is_rigid(self) -> bool:
        return not self.r


class QuotientGroupDesc(Value):
    """The group acting in the quotient construction, up to isomorphism."""

    _fields = ("torus_rank", "finite_part")

    def __init__(self, torus_rank: int, finite_part: FgAbelianGroup):
        self.__dict__.update(torus_rank=torus_rank, finite_part=finite_part)


class StackyFan(Value):
    """Extended-group fan data: the fan together with lifted ray vectors.

    The extended group is Z^d + Z/c_1 + ... + Z/c_k, with c the chain of
    :func:`lattice.cyclic_chain`.  Each lifted ray is the ray vector followed
    by its b-column pushed through that chain's isomorphism, entry j in [0, c_j).
    """

    _fields = ("extended_group", "fan", "lifted_rays")

    def __init__(self, extended_group: FgAbelianGroup, fan: SimplicialFan,
                 lifted_rays: tuple[tuple[int, ...], ...]):
        self.__dict__.update(extended_group=extended_group, fan=fan, lifted_rays=lifted_rays)


def validate_data(data: StackyData) -> ValidationReport:
    """Validate the full datum: fan invariants, root orders and b shape."""
    fan_report = validate_fan(data.fan)
    if not fan_report.valid:
        return fan_report
    for i, r in enumerate(data.r):
        if r < 1:
            return ValidationReport((Violation(
                "nonpositive_root_order",
                f"root order r[{i}] = {decimal_str(r)} must be at least 1", i),))
    if data.b.rows != data.root_count or data.b.cols != data.ray_count:
        return ValidationReport((Violation(
            "bad_b_shape",
            f"b is {data.b.rows}x{data.b.cols}, expected {data.root_count}x{data.ray_count}",
            (data.b.rows, data.b.cols)),))
    return ValidationReport()


def character_relations(data: StackyData, rays: Sequence[int] | None = None) -> IntegerMatrix:
    """The rows of the transposed exponent matrix: one per ray in ``rays``
    (all rays by default), its coordinates then its column of b, then one
    per root, d zeros then r_i e_i.  Every group of the datum is a cokernel
    of such rows (Borisov, Chen and Smith, 2005, section 4)."""
    if rays is None:
        rays = range(data.ray_count)
    big_r = data.root_count
    rows = [data.fan.rays[j] + tuple(data.b[i, j] for i in range(big_r)) for j in rays]
    rows += [(0,) * data.lattice_rank + tuple(r if m == i else 0 for m in range(big_r))
             for i, r in enumerate(data.r)]
    return IntegerMatrix.from_rows(rows, data.lattice_rank + big_r)


def psi_exponents(data: StackyData) -> IntegerMatrix:
    """The (d+R) x (n+R) exponent matrix, the transpose of
    :func:`character_relations`: its first n columns stack the ray
    coordinates over the rows of b, and its last R hold the root orders on
    the diagonal below d zero rows."""
    return character_relations(data).transpose()


def quotient_group(data: StackyData) -> QuotientGroupDesc:
    """Rank and torsion of the acting group.

    The group is the character dual of the cokernel of
    :func:`character_relations`; only its isomorphism type (torus rank plus
    invariant factors) is exposed, the same for a datum and its canonical form.
    """
    group = cokernel(character_relations(data))
    return QuotientGroupDesc(torus_rank=group.free_rank,
                             finite_part=FgAbelianGroup(0, group.invariant_factors))


def stacky_fan(data: StackyData) -> StackyFan:
    """The fan with rays lifted into the extended group.

    Requires the rays to span the ambient lattice rationally; use
    :func:`split_nonspanning` first when they do not.
    """
    if not rays_span(data.fan):
        raise NonSpanningRaysError(
            "rays do not span the lattice; split off the torus factor first")
    chain, certificate = cyclic_chain(data.r)
    twists = certificate @ data.b
    lifted = tuple(data.fan.rays[k] + tuple(twists[j, k] % c for j, c in enumerate(chain))
                   for k in range(data.ray_count))
    extended = FgAbelianGroup(free_rank=data.lattice_rank, invariant_factors=chain)
    return StackyFan(extended_group=extended, fan=data.fan, lifted_rays=lifted)


def generic_stabilizer(data: StackyData) -> FgAbelianGroup:
    """The automorphism group of a general point: the sum of Z/r_i."""
    return FgAbelianGroup(free_rank=0, invariant_factors=cyclic_chain(data.r)[0])


def point_stabilizer(data: StackyData, cone: Sequence[int] | frozenset[int]) -> FgAbelianGroup:
    """Isotropy group of a point whose coordinates vanish exactly on ``cone``.

    The coordinates off the cone are units there, so with k roots the group
    is the cokernel of the rows of :func:`character_relations` for the rays
    of σ and the roots alone (Borisov, Chen and Smith, J. Amer. Math. Soc.
    18, 2005, section 4).  The Smith form has |σ| + k rows however many rays
    the fan has, and the group is finite for every cone of the fan, whose
    rays are independent.
    """
    cone = frozenset(int(i) for i in cone)
    if not data.fan.is_cone(cone):
        raise ConeNotInFanError(f"cone {sorted(cone)} is not in the fan")
    group = cokernel(character_relations(data, sorted(cone)))
    if group.free_rank:
        raise ArithmeticError("isotropy group came out infinite; invalid input data")
    return group


def rigidify(data: StackyData) -> StackyData:
    """The same fan and rays with all root data removed."""
    return StackyData(fan=data.fan, r=(), b=IntegerMatrix.zeros(0, data.ray_count))


def split_nonspanning(data: StackyData) -> tuple[StackyData, int]:
    """Re-express the datum over the sublattice the rays span.

    Returns the datum written in a basis of the saturated span together with
    the rank of the complementary torus factor.  Data with spanning rays is
    returned unchanged with factor 0, which makes the operation idempotent.
    """
    snf = ray_smith_form(data.fan)
    rank = snf.rank
    d = data.lattice_rank
    if rank == d:
        return data, 0
    # the row log takes the ray matrix to d V, whose rows past the rank vanish
    new_rays = tuple(snf.apply_row_ops(ray)[:rank] for ray in data.fan.rays)
    new_fan = SimplicialFan(rank, new_rays, data.fan.cones)
    return StackyData(fan=new_fan, r=data.r, b=data.b), d - rank


def dm_torus(data: StackyData) -> tuple[int, FgAbelianGroup]:
    """Dimension and band of the dense open torus of the stack; the band is
    the generic stabilizer."""
    return data.lattice_rank, generic_stabilizer(data)
