"""Exact integer linear algebra.

Smith normal form with unimodular transforms and their inverses (the one
normal-form engine), cokernels of integer matrices presented as finitely
generated abelian groups with normalized coordinates, integer linear system
solving, and divisibility tests in quotient lattices.  Everything runs on
Python's arbitrary-precision integers; no floating point is used anywhere.
All public values are immutable and safe to share between threads.
"""

from __future__ import annotations

from math import gcd
from typing import Callable, Iterable, Optional, Sequence

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
    def from_rows(cls, rows: Iterable[Iterable[int]], cols: int | None = None) -> "IntegerMatrix":
        grid = tuple(tuple(int(x) for x in row) for row in rows)
        if cols is None:
            cols = len(grid[0]) if grid else 0
        return cls(len(grid), cols, grid)

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

    def hstack(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.rows != other.rows:
            raise ValueError("row counts differ")
        grid = tuple(ra + rb for ra, rb in zip(self.entries, other.entries))
        return IntegerMatrix(self.rows, self.cols + other.cols, grid)

    def is_diagonal(self) -> bool:
        return all(self.entries[i][j] == 0
                   for i in range(self.rows) for j in range(self.cols) if i != j)

    def __str__(self):
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.entries) + "]"


class SnfDecomposition(Value):
    """Smith normal form ``a = u @ d @ v`` with unimodular ``u`` and ``v``,
    together with their inverses ``u_inv`` and ``v_inv``.

    ``d`` is diagonal with nonnegative entries in a divisor chain
    (each divides the next), zeros trailing.
    """

    _fields = ("u", "d", "v", "u_inv", "v_inv")

    def __init__(self, u: IntegerMatrix, d: IntegerMatrix, v: IntegerMatrix,
                 u_inv: IntegerMatrix, v_inv: IntegerMatrix):
        self.__dict__.update(u=u, d=d, v=v, u_inv=u_inv, v_inv=v_inv)

    def diagonal(self) -> tuple[int, ...]:
        return self.d.diagonal_entries()

    def reconstruct(self) -> IntegerMatrix:
        return self.u @ self.d @ self.v

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal() if x != 0)


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

def _identity_grid(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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
    """Smith normal form of an integer matrix, with transforms and inverses.

    Returns unimodular ``u``, ``v`` and a diagonal ``d`` with ``a = u @ d @ v``
    where the diagonal entries are nonnegative, form a divisor chain and the
    zeros trail, plus ``u_inv`` and ``v_inv``.  Empty matrices are handled and
    yield empty diagonals.

    Maintains the invariants a = u d v, u_inv u = I and v v_inv = I under
    elementary row and column operations.  Pivots are chosen with minimal
    absolute value to keep intermediate entries small.
    """
    m, n = a.rows, a.cols
    d = [list(row) for row in a.entries]
    u = _identity_grid(m)
    u_inv = _identity_grid(m)
    v = _identity_grid(n)
    v_inv = _identity_grid(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        for row in u:
            row[i], row[j] = row[j], row[i]
        u_inv[i], u_inv[j] = u_inv[j], u_inv[i]

    def add_row(src, dst, q):
        # row dst of d += q * row src
        drow_s, drow_d = d[src], d[dst]
        for k in range(n):
            drow_d[k] += q * drow_s[k]
        for row in u:
            row[src] -= q * row[dst]
        us, ud = u_inv[src], u_inv[dst]
        for k in range(m):
            ud[k] += q * us[k]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        for row in u:
            row[i] = -row[i]
        u_inv[i] = [-x for x in u_inv[i]]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        v[i], v[j] = v[j], v[i]
        for row in v_inv:
            row[i], row[j] = row[j], row[i]

    def add_col(src, dst, q):
        # column dst of d += q * column src
        for row in d:
            row[dst] += q * row[src]
        vs, vd = v[src], v[dst]
        for k in range(n):
            vs[k] -= q * vd[k]
        for row in v_inv:
            row[dst] += q * row[src]

    t = 0
    while t < min(m, n):
        piv = _find_pivot(d, t, m, n)
        if piv is None:
            break
        while True:
            pi, pj = piv
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            pivot = d[t][t]
            changed = False
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // pivot
                    if q:
                        add_row(t, i, -q)
                    if d[i][t]:
                        changed = True
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // pivot
                    if q:
                        add_col(t, j, -q)
                    if d[t][j]:
                        changed = True
            if changed:
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
            add_row(offender, t, 1)
            piv = _find_pivot(d, t, m, n)
        if d[t][t] < 0:
            negate_row(t)
        t += 1

    to_m = lambda grid, r, c: IntegerMatrix(r, c, tuple(tuple(row) for row in grid))
    return SnfDecomposition(u=to_m(u, m, m), d=to_m(d, m, n), v=to_m(v, n, n),
                            u_inv=to_m(u_inv, m, m), v_inv=to_m(v_inv, n, n))


def matrix_rank(a: IntegerMatrix) -> int:
    """Rank over the rationals, computed exactly."""
    return smith_normal_form(a).rank


# ---------------------------------------------------------------------------
# Cokernels and finitely generated abelian groups
# ---------------------------------------------------------------------------

def cokernel(relations: IntegerMatrix) -> FgAbelianGroup:
    """The quotient of Z^n by the column span of ``relations`` (n rows).

    A matrix with no columns means "no relations" and yields a free group.
    """
    return cokernel_with_projection(relations)[0]


def cokernel_with_projection(relations: IntegerMatrix
                             ) -> tuple[FgAbelianGroup, Callable[[Sequence[int]], tuple[int, ...]]]:
    """Cokernel plus a map sending ambient vectors to normalized coordinates.

    The projection returns, for v in Z^n, the tuple of its torsion residues
    (one per invariant factor, in chain order) followed by its free
    coordinates.  Two vectors land on the same tuple exactly when they agree
    modulo the column span of ``relations``: the coordinates of v are those
    of ``u_inv v`` in Z/d_1 + ... + Z/d_k + Z^f (Cohen, *A Course in
    Computational Algebraic Number Theory*, 1993, section 2.4).
    """
    snf = smith_normal_form(relations)
    diag = snf.diagonal()
    n = relations.rows
    torsion_pos = [i for i, x in enumerate(diag) if x >= 2]
    free_pos = [i for i in range(n) if i >= len(diag) or diag[i] == 0]
    group = FgAbelianGroup(free_rank=len(free_pos),
                           invariant_factors=tuple(diag[i] for i in torsion_pos))

    def project(vector: Sequence[int]) -> tuple[int, ...]:
        y = snf.u_inv.apply(vector)
        residues = tuple(y[i] % diag[i] for i in torsion_pos)
        free = tuple(y[i] for i in free_pos)
        return residues + free

    return group, project


# ---------------------------------------------------------------------------
# Integer linear systems
# ---------------------------------------------------------------------------

def solve_linear(a: IntegerMatrix, b: Sequence[int]):
    """Solve a x = b over the integers.

    Returns ``(solution, kernel_basis)`` where ``solution`` is one integer
    solution or None when none exists, and ``kernel_basis`` is a tuple of
    integer vectors spanning the kernel of ``a`` (returned in either case).
    """
    b = tuple(int(x) for x in b)
    if len(b) != a.rows:
        raise ValueError(f"right-hand side has length {len(b)}, expected {a.rows}")
    snf = smith_normal_form(a)
    diag = snf.diagonal()
    c = snf.u_inv.apply(b)

    kernel_cols = [j for j in range(a.cols) if j >= len(diag) or diag[j] == 0]
    kernel = tuple(snf.v_inv.column(j) for j in kernel_cols)

    y = [0] * a.cols
    for i in range(a.rows):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if c[i] != 0:
                return None, kernel
        else:
            if c[i] % di:
                return None, kernel
            y[i] = c[i] // di
    return snf.v_inv.apply(y), kernel


def divisible_in_quotient(v: Sequence[int], r: int, relations: IntegerMatrix) -> bool:
    """Is the class of ``v`` divisible by ``r`` in Z^n modulo the relations?

    Equivalently: does v = r*w + (integer combination of relation columns)
    admit an integer solution?  Decided by a residue test on the normalized
    coordinates of ``v`` (see :meth:`FgAbelianGroup.is_divisible`).
    """
    group, project = cokernel_with_projection(relations)
    return group.is_divisible(project(v), r)


def invariant_factor_chain(orders: Sequence[int]) -> tuple[int, ...]:
    """Invariant factors of the direct sum of cyclic groups Z/r_i.

    Accepts any list of integers >= 1; factors equal to 1 are dropped and the
    result satisfies the divisor-chain condition.  Rewrites each pair with
    Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b); after pairing position i with
    every later one, it divides all of them, so the list ends up a chain.
    """
    orders = [int(r) for r in orders]
    if any(r < 1 for r in orders):
        raise ValueError("cyclic orders must be positive")
    for i in range(len(orders)):
        for j in range(i + 1, len(orders)):
            a, b = orders[i], orders[j]
            g = gcd(a, b)
            orders[i], orders[j] = g, a // g * b
    return tuple(x for x in orders if x >= 2)
