"""Picard presentation of rigid data and classification of banded gerbes.

The Picard group of a rigid datum is presented as the dual ray lattice modulo
the image of the character lattice (the column span of the transposed ray
matrix).  Divisor classes, the twist classes attached to the root data, the
divisor-chain canonical form and the banded-isomorphism decision all live
here; the canonical form is the chain of :func:`lattice.cyclic_chain` with
the twists pushed through its isomorphism.
"""

from __future__ import annotations

from .errors import MismatchedUnderlyingDataError, NotInChainFormError, Value
from .lattice import FgAbelianGroup, IntegerMatrix, cokernel_with_projection, cyclic_chain
from .stacky import StackyData, rigidify


class PicardPresentation(Value):
    """Pic as a cokernel: Z^n (dual ray basis) modulo the relation columns.

    ``relation_matrix`` is n x d; its l-th column pairs the l-th standard
    character with every ray vector.  ``project`` sends a vector of Z^n to
    the normalized coordinates of its class in ``group``; it is computed
    once, with the group, and takes no part in equality, hashing or the repr.
    """

    _fields = ("n", "relation_matrix", "group")

    def __init__(self, n: int, relation_matrix: IntegerMatrix, group: FgAbelianGroup,
                 project: Callable[[Sequence[int]], tuple[int, ...]]):
        self.__dict__.update(n=n, relation_matrix=relation_matrix, group=group,
                             project=project)

    def class_of(self, representative: Sequence[int]) -> "PicClass":
        return PicClass(tuple(int(x) for x in representative), self)

    def zero_class(self) -> "PicClass":
        return self.class_of((0,) * self.n)


class PicClass(Value):
    """A divisor class: an integer vector taken modulo the relation columns.

    ``coordinates`` are the normalized coordinates of the class, fixed at
    construction, so equality, hashing and the zero test are tuple
    operations.
    """

    _fields = ("representative", "presentation")

    def __init__(self, representative: Sequence[int], presentation: PicardPresentation):
        representative = tuple(int(x) for x in representative)
        if len(representative) != presentation.n:
            raise ValueError(
                f"representative has length {len(representative)}, "
                f"expected {presentation.n}")
        self.__dict__.update(representative=representative, presentation=presentation,
                             coordinates=presentation.project(representative))

    @property
    def is_zero(self) -> bool:
        return not any(self.coordinates)

    def divisible_by(self, r: int) -> bool:
        """Is this class r times another class?"""
        return self.presentation.group.is_divisible(self.coordinates, r)

    def __eq__(self, other):
        if not isinstance(other, PicClass):
            return NotImplemented
        return self.coordinates == other.coordinates and self.presentation == other.presentation

    def __hash__(self):
        return hash(self.coordinates)

    def __add__(self, other: "PicClass") -> "PicClass":
        if not isinstance(other, PicClass) or self.presentation != other.presentation:
            raise ValueError("classes live in different Picard presentations")
        return PicClass(tuple(a + b for a, b in zip(self.representative, other.representative)),
                        self.presentation)

    def __neg__(self) -> "PicClass":
        return PicClass(tuple(-a for a in self.representative), self.presentation)

    def __sub__(self, other: "PicClass") -> "PicClass":
        return self + (-other)

    def __mul__(self, scalar: int) -> "PicClass":
        return PicClass(tuple(int(scalar) * a for a in self.representative), self.presentation)

    __rmul__ = __mul__

    def __repr__(self):
        return f"PicClass({self.representative})"


def picard_group(data: StackyData) -> PicardPresentation:
    """Picard presentation of a rigid datum (no root data allowed).

    When the rays span the lattice the relation columns are independent and
    the free rank of the group is the ray count minus the lattice rank.
    """
    if not data.is_rigid:
        raise ValueError("picard_group expects rigid data; call rigidify first")
    relation = IntegerMatrix.from_rows(data.fan.rays, data.lattice_rank)
    group, project = cokernel_with_projection(relation)
    return PicardPresentation(data.ray_count, relation, group, project)


def gerbe_class(data: StackyData, index: int) -> PicClass:
    """The divisor class attached to the ``index``-th root datum (1-based)."""
    if not 1 <= index <= data.root_count:
        raise IndexError(f"root index {index} out of range 1..{data.root_count}")
    presentation = picard_group(rigidify(data))
    return presentation.class_of(data.b.row(index - 1))


def _is_chain(r: Sequence[int]) -> bool:
    return all(r[i] >= 1 and r[i + 1] % r[i] == 0 for i in range(len(r) - 1)) \
        and all(x >= 1 for x in r)


def twist_divisibility(data1: StackyData, data2: StackyData
                       ) -> list[tuple[tuple[int, ...], bool]] | None:
    """The rows behind :func:`is_isomorphic_banded`: None when the chains
    differ, else per root index the b-row difference and whether its root
    order divides it in the Picard quotient."""
    if data1.fan != data2.fan:
        raise MismatchedUnderlyingDataError(
            "data sets do not share the same lattice, fan and ray vectors")
    if not _is_chain(data1.r):
        raise NotInChainFormError(f"root orders {data1.r} are not a divisor chain")
    if not _is_chain(data2.r):
        raise NotInChainFormError(f"root orders {data2.r} are not a divisor chain")
    if data1.r != data2.r:
        return None
    presentation = picard_group(rigidify(data1))
    rows = []
    for i, r in enumerate(data1.r):
        diff = tuple(a - b for a, b in zip(data1.b.row(i), data2.b.row(i)))
        rows.append((diff, presentation.class_of(diff).divisible_by(r)))
    return rows


def is_isomorphic_banded(data1: StackyData, data2: StackyData) -> bool:
    """Do two data sets over the same fan define isomorphic banded gerbes?

    Both root-order lists must already be in divisor-chain form.  The verdict
    is: equal chains, and for each index the difference of the b rows is
    divisible by the respective root order in the Picard quotient.
    """
    rows = twist_divisibility(data1, data2)
    return rows is not None and all(divisible for _, divisible in rows)


def canonicalize(data: StackyData) -> tuple[StackyData, IntegerMatrix]:
    """The divisor-chain form ``(c; C b)`` of ``(r; b)``, the same stack, and
    the certificate ``C``: the chain and isomorphism of :func:`lattice.cyclic_chain`,
    the band identification of the fibre product of roots."""
    chain, certificate = cyclic_chain(data.r)
    return StackyData(fan=data.fan, r=chain, b=certificate @ data.b), certificate
