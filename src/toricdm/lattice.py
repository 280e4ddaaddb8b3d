"""Exact integer linear algebra.

Smith normal form as the log of the elementary operations that produce it
(the one normal-form engine), cokernels of integer matrices presented as
finitely generated abelian groups with normalized coordinates, and the
divisor chain of a sum of cyclic groups with an isomorphism onto it (the one
chain algorithm, by gcds).  Everything runs on Python's arbitrary-precision
integers; no floating point is used anywhere.  All public values are
immutable and safe to share between threads.
"""

from __future__ import annotations

from math import gcd, prod

from .errors import Value


class IntegerMatrix(Value):
    """A dense integer matrix stored row by row.

    ``entries`` holds one tuple per row; the shape fields are explicit so that
    matrices with zero rows or zero columns round-trip cleanly.
    """

    _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[Iterable[int]]):
        entries = tuple(tuple(int(x) for x in row) for row in entries)
        self.__dict__.update(rows=rows, cols=cols, entries=entries)
        if len(entries) != rows:
            raise ValueError(f"expected {rows} rows, got {len(entries)}")
        if any(len(row) != cols for row in entries):
            raise ValueError(f"rows must all have {cols} entries")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: int | None = None) -> "IntegerMatrix":
        rows = list(rows)
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return cls(len(rows), cols, rows)

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def diagonal(cls, values: Sequence[int]) -> "IntegerMatrix":
        n = len(values)
        return cls(n, n, tuple(tuple(v if i == j else 0 for j in range(n))
                               for i, v in enumerate(values)))

    @classmethod
    def column_stack(cls, columns: Sequence[Sequence[int]], rows: int) -> "IntegerMatrix":
        """Matrix whose columns are the given vectors of length ``rows``."""
        grid = [[int(col[i]) for col in columns] for i in range(rows)]
        return cls(rows, len(columns), tuple(tuple(r) for r in grid))

    # -- access ------------------------------------------------------------

    def __getitem__(self, pos: tuple[int, int]) -> int:
        i, j = pos
        return self.entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def diagonal_entries(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def to_rows(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    # -- arithmetic --------------------------------------------------------

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(self.cols, self.rows,
                             tuple(tuple(self.entries[i][j] for i in range(self.rows))
                                   for j in range(self.cols)))

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ot = other.transpose().entries
        grid = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
                     for row in self.entries)
        return IntegerMatrix(self.rows, other.cols, grid)

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product."""
        if len(vector) != self.cols:
            raise ValueError(f"vector length {len(vector)} != {self.cols} columns")
        return tuple(sum(a * x for a, x in zip(row, vector)) for row in self.entries)

    def __str__(self):
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.entries) + "]"


class SnfDecomposition(Value):
    """Smith normal form of a matrix ``a``: the diagonal ``d`` and the log of
    the elementary operations that turn ``a`` into it.

    ``d`` has the shape of ``a``; its diagonal entries are nonnegative, form
    a divisor chain (each divides the next) and have the zeros trailing.
    ``row_ops`` and ``col_ops`` list, in order, the steps applied to the rows
    and to the columns of ``a``: ``("add", src, dst, q)`` adds q times line
    src to line dst, ``("swap", i, j)`` exchanges two lines and ``("neg", i)``
    negates one.  Each step is unimodular, so ``a = U d V`` where U^-1 is the
    row log applied to the identity and V^-1 the column log.
    """

    _fields = ("d", "row_ops", "col_ops")

    def __init__(self, d: IntegerMatrix, row_ops: tuple, col_ops: tuple):
        self.__dict__.update(d=d, row_ops=row_ops, col_ops=col_ops)

    def diagonal(self) -> tuple[int, ...]:
        return self.d.diagonal_entries()

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal() if x != 0)

    def apply_row_ops(self, vector: Sequence[int]) -> tuple[int, ...]:
        """U^-1 · vector: the logged row operations applied to it in order."""
        if len(vector) != self.d.rows:
            raise ValueError(f"vector length {len(vector)} != {self.d.rows} rows")
        v = list(vector)
        for op in self.row_ops:
            if op[0] == "add":
                _, src, dst, q = op
                v[dst] += q * v[src]
            elif op[0] == "swap":
                _, i, j = op
                v[i], v[j] = v[j], v[i]
            else:
                v[op[1]] = -v[op[1]]
        return tuple(v)


class FgAbelianGroup(Value):
    """A finitely generated abelian group in invariant-factor form.

    ``invariant_factors`` is the divisor chain of the torsion part; factors
    equal to 1 are never stored.  An element is written in normalized
    coordinates: one residue per invariant factor, in chain order, followed by
    ``free_rank`` integers.
    """

    _fields = ("free_rank", "invariant_factors")

    def __init__(self, free_rank: int, invariant_factors: Iterable[int] = ()):
        facs = tuple(int(x) for x in invariant_factors)
        self.__dict__.update(free_rank=free_rank, invariant_factors=facs)
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        if any(f < 2 for f in facs):
            raise ValueError("invariant factors must be at least 2")
        if any(facs[i + 1] % facs[i] for i in range(len(facs) - 1)):
            raise ValueError("invariant factors must form a divisor chain")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def order(self) -> Optional[int]:
        """Group order, or None when the group is infinite."""
        if self.free_rank:
            return None
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n

    def is_divisible(self, coordinates: Sequence[int], r: int) -> bool:
        """Is the element with these normalized coordinates r times another?

        In Z/c the residue x is a multiple of r exactly when gcd(r, c)
        divides x, and in Z exactly when r does; the group is their sum.
        """
        if r < 1:
            raise ValueError("divisor must be at least 1")
        torsion = len(self.invariant_factors)
        return all(x % gcd(r, c) == 0 for x, c in zip(coordinates, self.invariant_factors)) \
            and all(x % r == 0 for x in coordinates[torsion:])

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{f}" for f in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def _find_pivot(d: list[list[int]], t: int, m: int, n: int) -> Optional[tuple[int, int]]:
    """First minimal-absolute-value nonzero entry of the block d[t:, t:]."""
    best = None
    best_abs = None
    for i in range(t, m):
        for j in range(t, n):
            x = d[i][j]
            if x and (best_abs is None or abs(x) < best_abs):
                best, best_abs = (i, j), abs(x)
                if best_abs == 1:
                    return best
    return best


def smith_normal_form(a: IntegerMatrix) -> SnfDecomposition:
    """Smith normal form of an integer matrix, as its diagonal and the log of
    the row and column operations that produce it (see
    :class:`SnfDecomposition`).  Empty matrices are handled and yield empty
    diagonals.

    Eliminates on ``d`` alone by elementary row and column operations and
    logs them; no transform is built.  Pivots are chosen with minimal absolute
    value to keep intermediate entries small.  Once pivot t is placed, rows
    and columns before t are zero outside the diagonal, so the operations
    of step t touch only the block ``d[t:, t:]``.
    """
    m, n = a.rows, a.cols
    d = [list(row) for row in a.entries]
    row_ops: list[tuple] = []
    col_ops: list[tuple] = []

    t = 0
    while t < min(m, n):
        piv = _find_pivot(d, t, m, n)
        if piv is None:
            break
        while True:
            pi, pj = piv
            if pi != t:
                d[t], d[pi] = d[pi], d[t]
                row_ops.append(("swap", t, pi))
            if pj != t:
                for row in d[t:]:
                    row[t], row[pj] = row[pj], row[t]
                col_ops.append(("swap", t, pj))
            top = d[t]
            pivot = top[t]
            block = range(t, n)
            changed = False
            # row i += -q * row t, for every i below the pivot
            for i in range(t + 1, m):
                row = d[i]
                if row[t]:
                    q = row[t] // pivot
                    if q:
                        for k in block:
                            row[k] -= q * top[k]
                        row_ops.append(("add", t, i, -q))
                    if row[t]:
                        changed = True
            # column j += -q * column t; column t stays fixed meanwhile
            steps = []
            for j in range(t + 1, n):
                if top[j]:
                    q = top[j] // pivot
                    if q:
                        steps.append((j, q))
                        col_ops.append(("add", t, j, -q))
            for row in d[t:]:
                c = row[t]
                if c:
                    for j, q in steps:
                        row[j] -= q * c
            if changed or any(top[t + 1:]):
                piv = _find_pivot(d, t, m, n)
                continue
            # row and column t are clear; force the pivot to divide the rest
            offender = None
            for i in range(t + 1, m):
                if any(d[i][j] % pivot for j in range(t + 1, n)):
                    offender = i
                    break
            if offender is None:
                break
            d[t] = [x + y for x, y in zip(d[t], d[offender])]
            row_ops.append(("add", offender, t, 1))
            piv = _find_pivot(d, t, m, n)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            row_ops.append(("neg", t))
        t += 1

    return SnfDecomposition(IntegerMatrix(m, n, tuple(tuple(row) for row in d)),
                            tuple(row_ops), tuple(col_ops))


# ---------------------------------------------------------------------------
# Cokernels and finitely generated abelian groups
# ---------------------------------------------------------------------------

def cokernel(relations: IntegerMatrix) -> FgAbelianGroup:
    """The quotient of Z^n by the column span of ``relations`` (n rows).

    A matrix with no columns means "no relations" and yields a free group.
    Only the Smith diagonal is read: the projection is never called.
    """
    return cokernel_with_projection(relations)[0]


def cokernel_with_projection(relations: IntegerMatrix
                             ) -> tuple[FgAbelianGroup, Callable[[Sequence[int]], tuple[int, ...]]]:
    """Cokernel plus a map sending ambient vectors to normalized coordinates.

    The projection returns, for v in Z^n, the tuple of its torsion residues
    (one per invariant factor, in chain order) followed by its free
    coordinates.  Two vectors land on the same tuple exactly when they agree
    modulo the column span of ``relations``: the coordinates of v are those
    of U^-1 v in Z/d_1 + ... + Z/d_k + Z^f (Cohen, *A Course in
    Computational Algebraic Number Theory*, 1993, section 2.4).  The
    projection applies the logged row operations of the Smith form to v and
    reduces each torsion entry modulo its factor c_j at the end; entries
    whose factor is 1 are dropped.  No transform is built, so a presentation
    that projects nothing pays only for the Smith form.
    """
    snf = smith_normal_form(relations)
    diag = snf.diagonal()
    torsion_pos = [i for i, x in enumerate(diag) if x >= 2]
    free_pos = [i for i in range(relations.rows) if i >= len(diag) or diag[i] == 0]
    group = FgAbelianGroup(free_rank=len(free_pos),
                           invariant_factors=tuple(diag[i] for i in torsion_pos))

    def project(vector: Sequence[int]) -> tuple[int, ...]:
        image = snf.apply_row_ops(vector)
        return tuple(image[i] % diag[i] for i in torsion_pos) + tuple(image[i] for i in free_pos)

    return group, project


def split_power(x: int, q: int) -> tuple[int, int]:
    """(e, x / q^e) for the largest e with q^e dividing x (q >= 2), by
    repeated squaring of q, so a high power costs few divisions."""
    if x % q:
        return 0, x
    e, rest = split_power(x // q, q * q)
    if rest % q:
        return 2 * e + 1, rest
    return 2 * e + 2, rest // q


def coprime_base(numbers: Sequence[int]) -> list[int]:
    """Pairwise coprime integers >= 2 of which each of ``numbers`` (all >= 1)
    is a product of powers: factor refinement by gcds, no factoring (Bach,
    Driscoll and Shallit, "Factor refinement", J. Algorithms 15, 1993).
    Splitting q and x at g = gcd(q, x) > 1 into q/g, g and x with every
    factor g removed keeps each number a product of powers of the parts and
    shrinks their product; one coprime to the whole base joins it in one gcd."""
    base: list[int] = []
    product = 1
    pending = [x for x in numbers if x >= 2]
    while pending:
        x = pending.pop()
        if gcd(product, x) == 1:
            base.append(x)
            product *= x
            continue
        q = base.pop(next(k for k, q in enumerate(base) if gcd(q, x) > 1))
        g = gcd(q, x)
        product //= q
        pending += [y for y in (q // g, g, split_power(x, g)[1]) if y >= 2]
    return base


def cyclic_chain(orders: Sequence[int]) -> tuple[tuple[int, ...], IntegerMatrix]:
    """Invariant factors c_1 | ... | c_k of the sum of the Z/r_i, and the
    k x R matrix of an isomorphism onto Z/c_1 + ... + Z/c_k, row j reduced
    into [0, c_j).  Factors 1 are dropped; a chain without 1s gets the identity.

    Over a coprime base of the orders, each Z/r_i splits into its q-parts
    Z/q^e by the Chinese-remainder (CRT) map, the parts of each q are ordered
    by exponent, stably by index, and the j-th parts of all q are glued into
    c_j through the CRT idempotents, so the result depends on the orders alone.
    """
    r = tuple(int(x) for x in orders)
    if any(x < 1 for x in r):
        raise ValueError("cyclic orders must be positive")
    # parts[j]: (index, its q-part q^e) for the parts glued into factor j;
    # the orders q divides take the last places, in the sorted order
    parts: list[list[tuple[int, int]]] = [[] for _ in r]
    for q in coprime_base(r):
        powers = sorted((split_power(x, q)[0], i) for i, x in enumerate(r) if x % q == 0)
        for j, (e, i) in enumerate(powers, len(r) - len(powers)):
            parts[j].append((i, q ** e))
    chain, rows = [], []
    for glued in filter(None, parts):
        c = prod(m for _, m in glued)
        row = [0] * len(r)
        for i, m in glued:
            rest = c // m
            row[i] = (row[i] + rest * pow(rest, -1, m)) % c
        chain.append(c)
        rows.append(row)
    return tuple(chain), IntegerMatrix.from_rows(rows, len(r))
