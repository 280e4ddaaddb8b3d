"""Independent brute-force verifiers.

Everything here deliberately avoids the Smith-normal-form machinery of the
main code paths: quotients are enumerated through a column-echelon basis and
breadth-first closure, lattice indices are read off that basis, determinants
are expanded by cofactors, and group structure is checked element by
element.  These verifiers are slow and meant for tests and for the
``--verify`` flag of the command line; from the rest of the package they
import only the carrier types :class:`~toricdm.lattice.IntegerMatrix` and
:class:`~toricdm.lattice.SnfDecomposition`, ``Value`` and ``TooLargeError``.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm, prod

from .errors import TooLargeError, Value
from .lattice import IntegerMatrix, SnfDecomposition

ENUMERATION_BOUND = 10_000
_FULL_ASSOCIATIVITY_LIMIT = 48
_ASSOCIATIVITY_SAMPLES = 500


# ---------------------------------------------------------------------------
# Column-echelon reduction (the oracle's substitute for normal forms)
# ---------------------------------------------------------------------------

def _echelon_columns(generators: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    """Echelon basis of the lattice spanned by the given columns of Z^n.

    Returned columns have strictly increasing leading rows, positive leading
    entries and zeros above their leading row.  Obtained purely by repeated
    gcd column operations.
    """
    pool = [list(c) for c in generators if any(c)]
    basis: list[list[int]] = []
    for row in range(n):
        hit = [c for c in pool if c[row] != 0]
        pool = [c for c in pool if c[row] == 0]
        while len(hit) > 1:
            hit.sort(key=lambda c: abs(c[row]))
            lead = hit[0]
            remainders = []
            for c in hit[1:]:
                q = c[row] // lead[row]
                for k in range(n):
                    c[k] -= q * lead[k]
                if c[row] != 0:
                    remainders.append(c)
                else:
                    pool.append(c)
            hit = [lead] + remainders
        if hit:
            lead = hit[0]
            if lead[row] < 0:
                lead = [-x for x in lead]
            basis.append(lead)
    return basis


def _reduce_vector(vector: Sequence[int], basis: list[list[int]], n: int) -> tuple[int, ...]:
    """Canonical coset representative of ``vector`` modulo the echelon basis."""
    v = list(vector)
    for col in basis:
        lead = next(i for i in range(n) if col[i] != 0)
        q = v[lead] // col[lead]
        if q:
            for k in range(n):
                v[k] -= q * col[k]
    return tuple(v)


def _lattice_order(basis: list[list[int]], n: int) -> int | None:
    """Index of the lattice in Z^n, or None when the quotient is infinite."""
    if len(basis) < n:
        return None
    order = 1
    for col in basis:
        lead = next(i for i in range(n) if col[i] != 0)
        order *= col[lead]
    return order


# ---------------------------------------------------------------------------
# Determinants by cofactor expansion
# ---------------------------------------------------------------------------

def det_cofactor(matrix: IntegerMatrix) -> int:
    """Exact determinant by recursive cofactor expansion along the first row."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of a non-square matrix")
    grid = [list(row) for row in matrix.entries]

    def expand(rows: list[list[int]]) -> int:
        k = len(rows)
        if k == 0:
            return 1
        if k == 1:
            return rows[0][0]
        if k == 2:
            return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        total = 0
        sign = 1
        for j in range(k):
            if rows[0][j]:
                minor = [row[:j] + row[j + 1:] for row in rows[1:]]
                total += sign * rows[0][j] * expand(minor)
            sign = -sign
        return total

    return expand(grid)


# ---------------------------------------------------------------------------
# Finite group tables
# ---------------------------------------------------------------------------

class FiniteGroupTable(Value):
    """Explicit element list and addition table of a finite abelian quotient.

    ``elements`` are canonical coset representatives; ``table[i][j]`` is the
    index of elements[i] + elements[j].  Closure and inverses are verified
    exhaustively at construction, associativity exhaustively for small tables
    and by seeded random triples otherwise.
    """

    _fields = ("elements", "table")

    def __init__(self, elements: tuple[tuple[int, ...], ...],
                 table: tuple[tuple[int, ...], ...]):
        self.__dict__.update(elements=elements, table=table)

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_orders(self) -> dict[int, int]:
        """Census mapping each occurring element order to its multiplicity."""
        zero = self.elements.index((0,) * len(self.elements[0]))
        census: dict[int, int] = {}
        for i in range(self.order):
            k, x = 1, i
            while x != zero:
                x = self.table[x][i]
                k += 1
            census[k] = census.get(k, 0) + 1
        return census

    def exponent(self) -> int:
        return max(self.element_orders())

    def is_cyclic(self) -> bool:
        return self.exponent() == self.order


def _verify_table(elements, table) -> None:
    order = len(elements)
    index = {e: i for i, e in enumerate(elements)}
    zero = index[(0,) * len(elements[0])]
    for i in range(order):
        if table[i][zero] != i or table[zero][i] != i:
            raise AssertionError("identity law failed in enumerated table")
        if not any(table[i][j] == zero for j in range(order)):
            raise AssertionError("missing inverse in enumerated table")
    if order <= _FULL_ASSOCIATIVITY_LIMIT:
        triples = ((a, b, c) for a in range(order) for b in range(order) for c in range(order))
    else:
        import random  # only large tables are sampled
        rng = random.Random(1)
        triples = ((rng.randrange(order), rng.randrange(order), rng.randrange(order))
                   for _ in range(_ASSOCIATIVITY_SAMPLES))
    for a, b, c in triples:
        if table[table[a][b]][c] != table[a][table[b][c]]:
            raise AssertionError("associativity failed in enumerated table")


def _quotient_closure(relations: IntegerMatrix, bound: int
                      ) -> tuple[set[tuple[int, ...]], list[list[int]]]:
    """Canonical representatives of Z^n modulo the column span of
    ``relations``, with the echelon basis that reduces them.

    Finiteness is decided first from the echelon basis (the product of its
    leading entries is the quotient order); raises :class:`TooLargeError`
    when the quotient is infinite or larger than ``bound``.  Representatives
    are then collected by breadth-first closure from zero, and their count
    must equal that order.
    """
    n = relations.rows
    columns = [relations.column(j) for j in range(relations.cols)]
    basis = _echelon_columns(columns, n)
    order = _lattice_order(basis, n)
    if order is None:
        raise TooLargeError("quotient is infinite")
    if order > bound:
        raise TooLargeError(f"quotient order {order} exceeds bound {bound}")

    zero = tuple(0 for _ in range(n))
    seen = {_reduce_vector(zero, basis, n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for rep in frontier:
            for k in range(n):
                for step in (1, -1):
                    moved = list(rep)
                    moved[k] += step
                    canon = _reduce_vector(moved, basis, n)
                    if canon not in seen:
                        seen.add(canon)
                        nxt.append(canon)
        frontier = nxt
    if len(seen) != order:
        raise AssertionError("closure size disagrees with echelon determinant")
    return seen, basis


def oracle_quotient_enumerate(relations: IntegerMatrix,
                              bound: int = ENUMERATION_BOUND) -> FiniteGroupTable:
    """Enumerate Z^n modulo the column span of ``relations`` as a group table
    over the elements of :func:`_quotient_closure`, with its axioms checked."""
    n = relations.rows
    seen, basis = _quotient_closure(relations, bound)
    elements = tuple(sorted(seen))
    index = {e: i for i, e in enumerate(elements)}
    table = tuple(
        tuple(index[_reduce_vector([x + y for x, y in zip(a, b)], basis, n)] for b in elements)
        for a in elements)
    _verify_table(elements, table)
    return FiniteGroupTable(elements=elements, table=table)


# ---------------------------------------------------------------------------
# The individual verifiers
# ---------------------------------------------------------------------------

def _replay_log(lines: list[list[int]], ops: Sequence[tuple]) -> bool:
    """Apply logged steps, in order, to ``lines`` in place; False at the
    first step that is not ``("add", src, dst, q)`` with src != dst,
    ``("swap", i, j)`` or ``("neg", i)`` on lines in range, each unimodular."""
    for op in ops:
        kind, *args = op if isinstance(op, tuple) and op else ("",)
        if any(type(x) is not int for x in args) or any(not 0 <= i < len(lines) for i in args[:2]):
            return False
        if kind == "add" and len(args) == 3 and args[0] != args[1]:
            src, dst, q = args
            lines[dst] = [x + q * y for x, y in zip(lines[dst], lines[src])]
        elif kind == "swap" and len(args) == 2:
            lines[args[0]], lines[args[1]] = lines[args[1]], lines[args[0]]
        elif kind == "neg" and len(args) == 1:
            lines[args[0]] = [-x for x in lines[args[0]]]
        else:
            return False
    return True


def oracle_verify_snf(a: IntegerMatrix, decomposition: SnfDecomposition) -> bool:
    """Re-check a Smith form from its log, by a replay of its own.

    Every logged step must be well formed, and so unimodular; the row steps
    applied to the rows of ``a`` and the column steps applied to its
    columns must give ``d``; and the diagonal of ``d`` must be nonnegative,
    divisor-chained and have its zeros trailing.
    """
    d, rows = decomposition.d, a.to_rows()
    if (d.rows, d.cols) != (a.rows, a.cols) or not _replay_log(rows, decomposition.row_ops):
        return False
    columns = [[row[j] for row in rows] for j in range(a.cols)]
    if not _replay_log(columns, decomposition.col_ops):
        return False
    diag = d.diagonal_entries()
    diagonal = [[diag[i] if i == j else 0 for j in range(a.cols)] for i in range(a.rows)]
    if d.to_rows() != diagonal or [[c[i] for c in columns] for i in range(a.rows)] != diagonal:
        return False
    nonzero = [x for x in diag if x]
    return tuple(nonzero) == diag[:len(nonzero)] and all(x > 0 for x in nonzero) \
        and all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))


def oracle_divisibility(v: Sequence[int], r: int, relations: IntegerMatrix,
                        bound: int = ENUMERATION_BOUND) -> bool:
    """Divisibility test decided in the finite group Z^n/(r Z^n + relations).

    The class of ``v`` is divisible by ``r`` exactly when it reduces to zero
    there.  Raises :class:`TooLargeError` when that group exceeds ``bound``.
    """
    v = tuple(int(x) for x in v)
    n = relations.rows
    columns = [relations.column(j) for j in range(relations.cols)]
    for k in range(n):
        columns.append(tuple(r if i == k else 0 for i in range(n)))
    basis = _echelon_columns(columns, n)
    order = _lattice_order(basis, n)
    if order is None or order > bound:
        raise TooLargeError("quotient too large to enumerate")
    zero = tuple(0 for _ in range(n))
    return _reduce_vector(v, basis, n) == _reduce_vector(zero, basis, n)


def oracle_element_order_census(moduli: Sequence[int]) -> dict[int, int]:
    """Element-order census of the direct sum of Z/m for the given moduli.

    Computed arithmetically per element; the order of (x_i) is the lcm of the
    orders m_i / gcd(x_i, m_i) of the coordinates.
    """
    moduli = [int(m) for m in moduli]
    if any(m < 1 for m in moduli):
        raise ValueError("moduli must be positive")
    total = 1
    for m in moduli:
        total *= m
    if total > ENUMERATION_BOUND * 10:
        raise TooLargeError(f"group of order {total} too large for a census")
    census: dict[int, int] = {}
    counters = [0] * len(moduli)
    while True:
        order = lcm(1, *(m // gcd(x, m) for x, m in zip(counters, moduli)))
        census[order] = census.get(order, 0) + 1
        for i in range(len(moduli) - 1, -1, -1):
            counters[i] += 1
            if counters[i] < moduli[i]:
                break
            counters[i] = 0
        else:
            break
    return census


def oracle_is_group_isomorphism(transport: IntegerMatrix,
                                source_moduli: Sequence[int],
                                target_moduli: Sequence[int]) -> bool:
    """Check by enumeration that a matrix gives an isomorphism of cyclic sums.

    ``transport`` maps (x_i mod source_moduli) to (sum_i T[j][i] x_i mod
    target_moduli[j]).  Well-definedness is checked on the generators and
    bijectivity by mapping every element.
    """
    src = [int(m) for m in source_moduli]
    tgt = [int(m) for m in target_moduli]
    if transport.rows != len(tgt) or transport.cols != len(src):
        return False
    src_order = 1
    for m in src:
        src_order *= m
    tgt_order = 1
    for m in tgt:
        tgt_order *= m
    if src_order != tgt_order:
        return False
    if src_order > ENUMERATION_BOUND * 10:
        raise TooLargeError("groups too large to enumerate")
    # well-defined: each generator times its modulus must map to zero
    for i, m in enumerate(src):
        image = transport.apply(tuple(m if k == i else 0 for k in range(len(src))))
        if any(x % t for x, t in zip(image, tgt)):
            return False
    seen = set()
    counters = [0] * len(src)
    for _ in range(src_order):
        image = tuple(x % t for x, t in zip(transport.apply(counters), tgt))
        seen.add(image)
        for i in range(len(src) - 1, -1, -1):
            counters[i] += 1
            if counters[i] < src[i]:
                break
            counters[i] = 0
    return len(seen) == src_order


def _solve_unique(matrix_rows, rhs):
    """Unique exact solution of rows * x = rhs, or None.

    Returns None when the columns are dependent (no basic solution on this
    support) or the system is inconsistent.
    """
    from fractions import Fraction  # only the fan oracle solves over Q

    m = len(matrix_rows)
    k = len(matrix_rows[0]) if matrix_rows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(r)]
           for row, r in zip(matrix_rows, rhs)]
    filled = 0
    for col in range(k):
        pivot = next((i for i in range(filled, m) if aug[i][col]), None)
        if pivot is None:
            return None
        aug[filled], aug[pivot] = aug[pivot], aug[filled]
        inv = 1 / aug[filled][col]
        aug[filled] = [x * inv for x in aug[filled]]
        for i in range(m):
            if i != filled and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[filled])]
        filled += 1
    if any(aug[i][k] for i in range(filled, m)):
        return None
    return [aug[r][k] for r in range(k)]


def oracle_cones_meet_along_common_face(rays: Sequence[Sequence[int]],
                                        lattice_rank: int,
                                        cone_a: Sequence[int] | frozenset[int],
                                        cone_b: Sequence[int] | frozenset[int]) -> bool:
    """Do two simplicial cones intersect exactly in their shared face?

    Decided by exact vertex enumeration, independently of the elimination
    used by the fan validator: the coefficient tuples realizing a common
    point (both sides nonnegative, normalized to total 1) form a polytope,
    and the cones meet outside the shared face exactly when some vertex of
    that polytope puts positive weight on a non-shared ray.  Vertices are
    basic feasible solutions, found by trying every small column support.
    """
    cone_a = frozenset(int(i) for i in cone_a)
    cone_b = frozenset(int(i) for i in cone_b)
    a_list, b_list = sorted(cone_a), sorted(cone_b)
    shared = cone_a & cone_b
    nvars = len(a_list) + len(b_list)
    rows = []
    for l in range(lattice_rank):
        rows.append([rays[i][l] for i in a_list] + [-rays[j][l] for j in b_list])
    rows.append([1] * nvars)
    rhs = [0] * lattice_rank + [1]
    bad = [k for k, i in enumerate(a_list) if i not in shared]
    bad += [len(a_list) + k for k, j in enumerate(b_list) if j not in shared]
    bad = set(bad)

    max_support = min(nvars, lattice_rank + 1)
    for size in range(1, max_support + 1):
        for support in itertools.combinations(range(nvars), size):
            solution = _solve_unique([[row[j] for j in support] for row in rows], rhs)
            if solution is None or any(x < 0 for x in solution):
                continue
            if any(x > 0 for j, x in zip(support, solution) if j in bad):
                return False
    return True


def oracle_stabilizer_order(data, cone: frozenset[int] | Sequence[int]) -> int:
    """Order of the isotropy group at a cone, off the main computation path.

    The group is an extension of the root band, of order the product of the
    root orders, by Z^{|σ|} modulo the d coordinate vectors of the cone's
    rays; the index of their span is the product of the leading entries of
    its echelon basis, with no Smith form.  Raises :class:`TooLargeError`
    when that quotient is infinite.
    """
    rays = sorted({int(i) for i in cone})
    coordinates = [[data.fan.rays[j][l] for j in rays] for l in range(data.fan.lattice_rank)]
    index = _lattice_order(_echelon_columns(coordinates, len(rays)), len(rays))
    if index is None:
        raise TooLargeError("quotient is infinite")
    return index * prod(data.r)


def _prime_powers(r: int) -> dict[int, int]:
    """The factorization {p: k} of r >= 1, by trial division."""
    if r > ENUMERATION_BOUND ** 2:
        raise TooLargeError("root order too large to factor by trial division")
    factors: dict[int, int] = {}
    p = 2
    while p * p <= r:
        while r % p == 0:
            factors[p] = factors.get(p, 0) + 1
            r //= p
        p += 1
    if r > 1:
        factors[r] = 1
    return factors


def oracle_banded_isomorphic(data1, data2, bound: int = ENUMERATION_BOUND) -> bool:
    """Decide prime by prime whether two data sets over one fan define
    isomorphic gerbes banded by the chain group, with bands matched by the
    Chinese-remainder identification.

    Each (r_i; b_i) is pushed to its prime-power parts (p^k; b_i), found by
    trial division.  For each prime, both data sets list their parts by
    exponent, in root order among equal exponents; the verdict is yes when
    the exponent lists agree and, place by place, the difference of the two
    b rows is divisible by p^k in the Picard group
    (:func:`oracle_divisibility`).  Independent of the divisor-chain form
    and its certificate.
    """
    if data1.fan != data2.fan:
        raise ValueError("data sets do not share the same fan")
    relations = IntegerMatrix.from_rows(data1.fan.rays, data1.fan.lattice_rank)

    def parts(data) -> dict[int, list[tuple[int, tuple[int, ...]]]]:
        by_prime: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        for i, r in enumerate(data.r):
            for p, k in _prime_powers(r).items():
                by_prime.setdefault(p, []).append((k, data.b.row(i)))
        for listed in by_prime.values():
            listed.sort(key=lambda part: part[0])
        return by_prime

    parts1, parts2 = parts(data1), parts(data2)
    if {p: [k for k, _ in listed] for p, listed in parts1.items()} != \
            {p: [k for k, _ in listed] for p, listed in parts2.items()}:
        return False
    for p, listed in parts1.items():
        for (k, row1), (_, row2) in zip(listed, parts2[p]):
            diff = tuple(a - b for a, b in zip(row1, row2))
            if not oracle_divisibility(diff, p ** k, relations, bound):
                return False
    return True
