"""Exact integer and rational linear algebra.

Everything in here is computed over Z (arbitrary-precision ints) or Q
(fractions.Fraction); no floating point anywhere.  The module provides

* ``IntMatrix``        -- immutable integer matrices,
* ``smith_normal_form`` -- U*A*V = D with unimodular U, V and a divisibility
  chain on the diagonal, plus U^-1; each transform is built when first read,
* lattice calculus      -- bases, membership, preimages, coordinates in a
  basis (``lattice_coordinates``),
* ``FinChainComplex``   -- bounded complexes of free Z-modules with
  homology / cohomology / boundary solving,
* ``Presentation``      -- finitely generated abelian groups given as
  Z^rank / column-span(relations), with homs, kernels and cokernels.

Homology and Z, Z/m and Q cohomology of a free chain complex come from the
Smith invariants of its boundaries (rank and invariant factors above 1) by
universal coefficients.  ``presented_cohomology_at`` is the routine for
presented groups: every sheaf-cohomology pipeline asks it for the middle
of G0 -> G1 -> G2.

Costs, counted in operations on entries (arbitrary-precision ints, so each
grows with bit length), for an r x c matrix A:

* ``A.apply(x)`` reads each entry once: O(r*c).
* ``A * B`` builds row i as the combination of B's rows weighted by row
  i's nonzero entries: O(r*c + nnz(A) * B.cols).  ``col``, ``transpose`` and
  ``take_columns`` are strided slices, O(entries read).
* ``smith_normal_form(A)``: the elimination touches A only.  Each row or
  column operation touches O(r + c) entries of A (column operations skip
  zero rows) and is logged, and a clearing pass at a pivot makes up to
  r + c of them, so the form costs O(min(r, c) * (r + c)^2) when every
  pivot clears in one pass.  The pivot search stops at the first unit entry
  and a unit pivot skips the divisibility sweep.  U, U^-1 and V are each
  built on first read by replaying the log onto an identity, O(ops * n)
  for an n x n transform; a caller that reads only the diagonal (ranks,
  invariant factors) builds none.
* Solving A X = B against A's Smith form (``solve_exact``,
  ``solve_boundary``, ``lattice_coordinates``) is two products, U * B and
  V * Y.
* (Co)homology of a ``FinChainComplex`` in every degree and with every
  coefficient ring costs one Smith form per boundary per complex.
* ``Presentation.pruned`` is one Smith form of the relations, whose U and
  U^-1 are the two isomorphisms; the pruned group is presented on at most
  as many generators, with only the invariant factors above 1 as
  relations.
* ``presented_cohomology_at`` reads the diagonals of two Smith forms,
  of [d1 | R2] and of the lifted coboundaries B~, and builds no
  transform when G2 has no relations.  Otherwise one more Smith form, of
  G2's relations R2, gives the lift and ker R2; only its U and V are
  replayed.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction


class ExactAlgebraError(Exception):
    pass


class DegreeRangeError(ExactAlgebraError):
    """Raised when a homology degree falls outside the complex's range."""


class NotACycleError(ExactAlgebraError):
    """Raised when a boundary equation is posed for a non-cycle."""


def _axpy(x, q, y):
    """The list x + q * y, entry by entry."""
    return list(map(operator.add, x,
                    map(operator.mul, y, itertools.repeat(q))))


class IntMatrix:
    """Immutable integer matrix, row-major."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise ExactAlgebraError("negative matrix dimensions")
        if entries and isinstance(entries[0], (list, tuple)):
            data = tuple(itertools.chain.from_iterable(entries))
        else:
            data = tuple(entries)
        if len(data) != rows * cols:
            raise ExactAlgebraError(
                f"expected {rows * cols} entries, got {len(data)}")
        if not all(map(isinstance, data, itertools.repeat(int))):
            bad = next(e for e in data if not isinstance(e, int))
            raise ExactAlgebraError(f"non-integer entry {bad!r}")
        self.rows = rows
        self.cols = cols
        self._data = data

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        n = len(rows[0]) if rows else 0
        return cls(len(rows), n, rows)

    @classmethod
    def identity(cls, n):
        return cls.diagonal([1] * n)

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def column(cls, vec):
        return cls(len(vec), 1, list(vec))

    @classmethod
    def from_columns(cls, rows, columns):
        """The matrix with the given columns, each of length ``rows``."""
        if any(len(c) != rows for c in columns):
            raise ExactAlgebraError(f"columns must have length {rows}")
        return cls(rows, len(columns), list(zip(*columns)))

    @classmethod
    def diagonal(cls, entries):
        n = len(entries)
        data = [0] * (n * n)
        data[::n + 1] = entries
        return cls(n, n, data)

    def entry(self, i, j):
        return self._data[i * self.cols + j]

    def row(self, i):
        return self._data[i * self.cols:(i + 1) * self.cols]

    def col(self, j):
        return self._data[j::self.cols]

    def rows_list(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        return IntMatrix(self.cols, self.rows,
                         [self.col(j) for j in range(self.cols)])

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ExactAlgebraError("shape mismatch in matrix product")
            # row i of the product combines other's rows with row i's
            # nonzero entries as coefficients
            orows = [other.row(k) for k in range(other.rows)]
            zero = [0] * other.cols
            out = []
            for i in range(self.rows):
                acc = zero
                for a, orow in zip(self.row(i), orows):
                    if a:
                        acc = _axpy(acc, a, orow)
                out.extend(acc)
            return IntMatrix(self.rows, other.cols, out)
        if isinstance(other, int):
            return IntMatrix(self.rows, self.cols,
                             [other * e for e in self._data])
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ExactAlgebraError("shape mismatch in matrix sum")
        return IntMatrix(self.rows, self.cols,
                         list(map(operator.add, self._data, other._data)))

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self._data == other._data)

    def __hash__(self):
        return hash((self.rows, self.cols, self._data))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {self.rows_list()})"

    def is_zero(self):
        return not any(self._data)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ExactAlgebraError("row mismatch in hstack")
        return IntMatrix(self.rows, self.cols + other.cols,
                         [self.row(i) + other.row(i) for i in range(self.rows)])

    def take_columns(self, indices):
        return IntMatrix.from_columns(self.rows, [self.col(j) for j in indices])

    def take_rows(self, indices):
        return IntMatrix(len(indices), self.cols,
                         [self.row(i) for i in indices])

    def apply(self, vec):
        """Matrix-vector product over Z."""
        cols = self.cols
        if len(vec) != cols:
            raise ExactAlgebraError("vector length mismatch")
        if not cols:
            return (0,) * self.rows
        data = self._data
        return tuple(sum(map(operator.mul, data[i:i + cols], vec))
                     for i in range(0, len(data), cols))

    def det(self):
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ExactAlgebraError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.rows_list()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


def _replay(n, ops, inverse=False):
    """Rows of the n x n identity after the logged row operations, in order.

    ``ops`` holds ("swap", i, k), ("add", i, k, q) for row_i += q * row_k,
    and ("neg", i).  Replaying a log gives the product of its operations.
    With ``inverse`` each add runs as row_k -= q * row_i, the transpose of
    its inverse; swaps and negations are their own transposed inverses, so
    the result is the transpose of the product's inverse.
    """
    rows = IntMatrix.identity(n).rows_list()
    for op in ops:
        kind, i = op[0], op[1]
        if kind == "add":
            k, q = op[2], op[3]
            if inverse:
                rows[k] = _axpy(rows[k], -q, rows[i])
            else:
                rows[i] = _axpy(rows[i], q, rows[k])
        elif kind == "swap":
            k = op[2]
            rows[i], rows[k] = rows[k], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return rows


class SmithDecomposition:
    """U * A * V = D with U, V unimodular and d_i | d_{i+1} >= 0.

    D is built by the elimination.  U, U_inv and V are replayed from its
    logged row and column operations the first time each is read, and then
    kept, so a caller that reads only the diagonal builds none of them.
    """

    def __init__(self, D: IntMatrix, row_ops, col_ops):
        self.D = D
        self._row_ops = row_ops
        self._col_ops = col_ops

    @functools.cached_property
    def U(self) -> IntMatrix:
        n = self.D.rows
        return IntMatrix(n, n, _replay(n, self._row_ops))

    @functools.cached_property
    def U_inv(self) -> IntMatrix:
        # replayed on its transpose, so each operation is one whole-row update
        n = self.D.rows
        return IntMatrix.from_columns(
            n, _replay(n, self._row_ops, inverse=True))

    @functools.cached_property
    def V(self) -> IntMatrix:
        # a column operation on V is the same row operation on V's transpose
        n = self.D.cols
        return IntMatrix.from_columns(n, _replay(n, self._col_ops))

    def diagonal(self):
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D.entry(i, i) for i in range(n))

    def rank(self):
        return sum(1 for d in self.diagonal() if d != 0)

    def torsion(self):
        """The invariant factors above 1, each dividing the next."""
        return tuple(d for d in self.diagonal() if d > 1)


def _min_pivot(m, rows, cols, t):
    """Smallest |entry| in the trailing block, ties by lowest row then column.

    An entry of absolute value 1 ends the scan: the first one in row-major
    order is the entry the full scan would pick.
    """
    best = None
    for i in range(t, rows):
        tail = m[i][t:]
        if not any(tail):
            continue
        a = min(map(abs, filter(None, tail)))
        if best is None or a < best[0]:
            j = next(j for j, v in enumerate(tail) if v == a or v == -a)
            best = (a, i, t + j)
            if a == 1:
                break
    return best


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form; the transforms are built when first read.

    Deterministic: the pivot is the minimum absolute value in the pending
    block, ties broken by lowest row index then lowest column index.  The
    elimination runs on A alone and logs each row and column operation for
    ``SmithDecomposition`` to replay.
    """
    rows, cols = A.rows, A.cols
    m = A.rows_list()
    row_ops = []
    col_ops = []

    def row_swap(i, k):
        m[i], m[k] = m[k], m[i]
        row_ops.append(("swap", i, k))

    def col_swap(j, k):
        for r in m:
            r[j], r[k] = r[k], r[j]
        col_ops.append(("swap", j, k))

    def row_add(i, k, q):
        # row_i += q * row_k
        if q == 0:
            return
        m[i] = _axpy(m[i], q, m[k])
        row_ops.append(("add", i, k, q))

    def col_add(j, k, q):
        # col_j += q * col_k
        if q == 0:
            return
        for r in m:
            if r[k]:
                r[j] += q * r[k]
        col_ops.append(("add", j, k, q))

    def row_negate(i):
        m[i] = [-a for a in m[i]]
        row_ops.append(("neg", i))

    def nearest_q(a, b):
        q, r = divmod(a, b)
        if 2 * abs(r) > abs(b):
            q += 1
        return q

    t = 0
    limit = min(rows, cols)
    while t < limit:
        piv = _min_pivot(m, rows, cols, t)
        if piv is None:
            break
        _, pi, pj = piv
        if pi != t:
            row_swap(pi, t)
        if pj != t:
            col_swap(pj, t)
        # one clearing pass; on any surviving remainder, re-pick the now
        # smaller global pivot (keeps entries from exploding)
        clean = True
        for i in range(t + 1, rows):
            if m[i][t] != 0:
                row_add(i, t, -nearest_q(m[i][t], m[t][t]))
                if m[i][t] != 0:
                    clean = False
        if not clean:
            continue
        for j in range(t + 1, cols):
            if m[t][j] != 0:
                col_add(j, t, -nearest_q(m[t][j], m[t][t]))
                if m[t][j] != 0:
                    clean = False
        if not clean:
            continue
        # enforce divisibility of the remaining block by the pivot; a unit
        # pivot divides everything
        p = m[t][t]
        if p != 1 and p != -1:
            bad = next((i for i in range(t + 1, rows)
                        if any(x % p for x in m[i][t + 1:])), None)
            if bad is not None:
                row_add(t, bad, 1)
                continue  # redo pivot t
        if p < 0:
            row_negate(t)
        t += 1

    return SmithDecomposition(IntMatrix(rows, cols, m), row_ops, col_ops)


# ---------------------------------------------------------------------------
# lattice calculus (sublattices of Z^n as column-span of basis matrices)

def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Columns form a basis of ker(A) over Z (a saturated sublattice)."""
    if A.cols == 0:
        return IntMatrix(0, 0, [])
    snf = smith_normal_form(A)
    diag = snf.diagonal()
    free = [j for j in range(A.cols)
            if j >= len(diag) or diag[j] == 0]
    return snf.V.take_columns(free)


def image_basis(A: IntMatrix) -> IntMatrix:
    """Columns form a basis of the column span of A over Z."""
    snf = smith_normal_form(A)
    diag = snf.diagonal()
    cols = [tuple(d * x for x in snf.U_inv.col(j))
            for j, d in enumerate(diag) if d != 0]
    return IntMatrix.from_columns(A.rows, cols)


class NotABoundary:
    """Certificate that a cycle is not in the image of the boundary map.

    ``index`` is the Smith pivot position at which divisibility fails (or
    where a nonzero coordinate survives past the rank), and ``value`` /
    ``divisor`` describe the failing divisibility test.  ``column`` is the
    right-hand side that fails when several are solved at once.
    """

    def __init__(self, index, value, divisor, column=0):
        self.index = index
        self.value = value
        self.divisor = divisor
        self.column = column

    def __repr__(self):
        return (f"NotABoundary(index={self.index}, value={self.value}, "
                f"divisor={self.divisor})")


def _back_substitute(snf: SmithDecomposition, B: IntMatrix):
    """X with A X = B from A's Smith form, or the NotABoundary that fails.

    X = V * (U * B / D), all columns at once.  The certificate is for the
    lowest failing column, at its lowest failing row.
    """
    C = snf.U * B
    diag = snf.diagonal()
    n = snf.D.cols
    failures = []
    Y = []
    for i in range(C.rows):
        row = C.row(i)
        d = diag[i] if i < len(diag) else 0
        j = next((j for j, x in enumerate(row) if (x % d if d else x)), None)
        if j is not None:
            failures.append((j, i, row[j], d))
        elif i < n:
            Y.append([x // d for x in row] if d else row)
    if failures:
        j, i, value, d = min(failures)
        return NotABoundary(i, value, d, column=j)
    Y.extend([0] * B.cols for _ in range(len(Y), n))
    return snf.V * IntMatrix(n, B.cols, Y)


def solve_exact(A: IntMatrix, b, snf: SmithDecomposition | None = None):
    """Solve A x = b over Z.  Returns a tuple x, or None with no solution.

    With ``snf`` supplied the decomposition is reused across calls.
    """
    if snf is None:
        snf = smith_normal_form(A)
    if len(b) != A.rows:
        raise ExactAlgebraError("rhs length mismatch")
    x = _back_substitute(snf, IntMatrix(len(b), 1, b))
    return None if isinstance(x, NotABoundary) else x.col(0)


def preimage_lattice(A: IntMatrix, L: IntMatrix) -> IntMatrix:
    """Basis of {x : A x lies in the lattice spanned by L's columns}."""
    if L.rows != A.rows:
        raise ExactAlgebraError("ambient mismatch in preimage_lattice")
    K = kernel_basis(A.hstack(-1 * L))
    proj = K.take_rows(list(range(A.cols)))
    return image_basis(proj)


def lattice_coordinates(basis: IntMatrix, vectors: IntMatrix) -> IntMatrix:
    """Column j is the x with basis * x = column j of ``vectors``.

    Every column must lie in the lattice the basis spans.  All columns are
    solved against one Smith form: x = V * (U * vectors / D).
    """
    X = _back_substitute(smith_normal_form(basis), vectors)
    if isinstance(X, NotABoundary):
        raise ExactAlgebraError(f"column {X.column} escapes the lattice")
    return X


# ---------------------------------------------------------------------------
# chain complexes of free Z-modules

@dataclass(frozen=True)
class HomologySummary:
    """A finitely generated abelian group: free rank plus torsion chain."""

    degree: int
    free_rank: int
    torsion: tuple

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ExactAlgebraError(
                    f"torsion {self.torsion} violates divisibility")
        for t in self.torsion:
            if t <= 1:
                raise ExactAlgebraError("torsion coefficients must exceed 1")

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def group_label(self):
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"

    def same_group(self, other):
        return (self.free_rank == other.free_rank
                and self.torsion == other.torsion)


def summary_from_relations(degree, ambient_rank, relations: IntMatrix
                           ) -> HomologySummary:
    """Summary of Z^ambient_rank / column-span(relations)."""
    if relations.rows != ambient_rank:
        raise ExactAlgebraError("relations live in the wrong ambient")
    snf = smith_normal_form(relations)
    return HomologySummary(degree, ambient_rank - snf.rank(), snf.torsion())


class FinChainComplex:
    """Bounded chain complex of free Z-modules.

    Degrees outside [min_degree, max_degree] are rank-0 modules, so the
    d-squared check is total.
    """

    def __init__(self, ranks: dict, boundaries: dict, check=True):
        self.ranks = dict(ranks)
        self.boundaries = dict(boundaries)
        if self.ranks:
            self.min_degree = min(self.ranks)
            self.max_degree = max(self.ranks)
        else:
            self.min_degree = 0
            self.max_degree = -1
        for n, mat in self.boundaries.items():
            if mat.cols != self.rank(n) or mat.rows != self.rank(n - 1):
                raise ExactAlgebraError(f"boundary shape mismatch in degree {n}")
        if check:
            self.verify_d_squared()
        self._invariants = {}

    def rank(self, n):
        return self.ranks.get(n, 0)

    def boundary(self, n) -> IntMatrix:
        mat = self.boundaries.get(n)
        if mat is None:
            return IntMatrix.zeros(self.rank(n - 1), self.rank(n))
        return mat

    def verify_d_squared(self):
        for n in range(self.min_degree, self.max_degree + 2):
            prod = self.boundary(n) * self.boundary(n + 1)
            if not prod.is_zero():
                raise ExactAlgebraError(f"d o d != 0 between degrees {n + 1}, {n}")

    def in_range(self, n):
        return self.min_degree <= n <= self.max_degree

    def boundary_invariants(self, n):
        """(rank, invariant factors above 1) of d_n.

        Read from d_n's Smith form on first use and kept on the complex, so
        a sweep over every degree and coefficient ring runs one Smith form
        per boundary.
        """
        if n not in self._invariants:
            snf = smith_normal_form(self.boundary(n))
            self._invariants[n] = (snf.rank(), snf.torsion())
        return self._invariants[n]


def homology(C: FinChainComplex, n: int) -> HomologySummary:
    """H_n = ker d_n / im d_{n+1} = Z^b_n + tors(d_{n+1}).

    b_n = c_n - rank d_n - rank d_{n+1}; tors(d) is d's invariant factors
    above 1 (``FinChainComplex.boundary_invariants``).
    """
    if not C.in_range(n):
        raise DegreeRangeError(
            f"degree {n} outside complex range "
            f"[{C.min_degree}, {C.max_degree}]")
    r_in, _ = C.boundary_invariants(n)
    r_out, torsion = C.boundary_invariants(n + 1)
    return HomologySummary(n, C.rank(n) - r_in - r_out, torsion)


ZCOEFF = ("Z",)
QCOEFF = ("Q",)


def zmod(m):
    return ("Zmod", m)


def coefficient_modulus(coefficients):
    """The m with coefficient group Z/m: 0 for ``ZCOEFF``, None for ``QCOEFF``.

    ``("Zmod", m)`` needs an int m >= 1 (a bool is not one); any other
    descriptor raises ExactAlgebraError.
    """
    if coefficients == ZCOEFF:
        return 0
    if coefficients == QCOEFF:
        return None
    if not (isinstance(coefficients, tuple) and len(coefficients) == 2
            and coefficients[0] == "Zmod"):
        raise ExactAlgebraError(f"unsupported coefficients {coefficients!r}")
    m = coefficients[1]
    if not isinstance(m, int) or isinstance(m, bool):
        raise ExactAlgebraError(f"modulus must be an int, got {m!r}")
    if m == 0:
        raise ExactAlgebraError("Z/0 rejected; use the Z descriptor")
    if m < 0:
        raise ExactAlgebraError("modulus must be positive")
    return m


def _invariant_factors(orders):
    """Invariant factors above 1 of the sum of the Z/a for a in ``orders``.

    Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b); after entry i has met every later
    entry it divides all of them.
    """
    f = list(orders)
    for i in range(len(f)):
        for j in range(i + 1, len(f)):
            f[i], f[j] = math.gcd(f[i], f[j]), math.lcm(f[i], f[j])
    return tuple(a for a in f if a > 1)


def cohomology(C: FinChainComplex, coefficients, n: int) -> HomologySummary:
    """Cohomology of the dualized complex with Z, Z/m or Q coefficients.

    By universal coefficients (Hatcher, Algebraic Topology, Thm 3.2) from
    the invariants of d_n and d_{n+1}: H^n(Z) = Z^b_n + tors(d_n),
    H^n(Q) = Q^b_n, and H^n(Z/m) = (Z/m)^b_n plus Z/gcd(t, m) for every t
    in tors(d_{n+1}) (Hom of H_n) and in tors(d_n) (Ext of H_{n-1}).
    """
    m = coefficient_modulus(coefficients)
    if not C.in_range(n):
        return HomologySummary(n, 0, ())
    r_in, ext = C.boundary_invariants(n)
    r_out, hom = C.boundary_invariants(n + 1)
    betti = C.rank(n) - r_in - r_out
    if m is None:
        return HomologySummary(n, betti, ())
    if m == 0:
        return HomologySummary(n, betti, ext)
    free = (m,) * betti if m > 1 else ()
    return HomologySummary(
        n, 0, _invariant_factors(math.gcd(t, m) for t in hom + ext) + free)


def solve_boundary(C: FinChainComplex, c, n: int):
    """Find x in degree n+1 with d x = c, or a NotABoundary certificate.

    ``c`` must be a cycle in degree n; a non-cycle raises NotACycleError.
    """
    if len(c) != C.rank(n):
        raise ExactAlgebraError("chain vector has wrong length")
    if any(v != 0 for v in C.boundary(n).apply(c)):
        raise NotACycleError(f"input in degree {n} is not a cycle")
    B = C.boundary(n + 1)
    x = _back_substitute(smith_normal_form(B), IntMatrix(len(c), 1, c))
    return x if isinstance(x, NotABoundary) else x.col(0)


# ---------------------------------------------------------------------------
# finitely generated abelian groups as presentations

@dataclass(frozen=True)
class Presentation:
    """Z^rank / column-span(relations)."""

    rank: int
    relations: IntMatrix

    def __post_init__(self):
        if self.relations.rows != self.rank:
            raise ExactAlgebraError("relations have wrong ambient rank")

    @classmethod
    def free(cls, rank):
        return cls(rank, IntMatrix.zeros(rank, 0))

    @classmethod
    def cyclic(cls, order):
        """Z for order 0, else Z/order."""
        if order == 0:
            return cls.free(1)
        return cls(1, IntMatrix(1, 1, [order]))

    @classmethod
    def zero(cls):
        return cls.free(0)

    def summary(self, degree=0) -> HomologySummary:
        return summary_from_relations(degree, self.rank, self.relations)

    def is_trivial(self):
        return self.summary().is_trivial()

    def columns_are_zero(self, M: IntMatrix) -> bool:
        """Whether every column of M lies in the relation lattice: one
        Smith form of the relations and one back-substitution of all the
        columns.  With no relations a column is zero only if it is 0."""
        if not self.relations.cols or not M.cols:
            return M.is_zero()
        X = _back_substitute(smith_normal_form(self.relations), M)
        return not isinstance(X, NotABoundary)

    def pruned(self):
        """(P, to_pruned, from_pruned): the same group with no unit relation.

        From the relations' Smith form U R V = D, row i of U is a
        coordinate of Z^rank / im D, the same quotient; rows with d_i = 1
        are zero there and are dropped.  P has one generator per kept row
        and the kept d_i > 1 as relations (the divisibility chain puts
        them first).  ``to_pruned`` (kept rows of U) and ``from_pruned``
        (kept columns of U^-1) are mutually inverse isomorphisms:
        to * from = I, and from * to = I - U^-1[:, dropped] U[dropped, :],
        where each dropped column of U^-1 is U^-1 D e_i = R V e_i, in im R.
        """
        snf = smith_normal_form(self.relations)
        diag = snf.diagonal()
        kept = [i for i in range(self.rank)
                if i >= len(diag) or diag[i] != 1]
        torsion = [diag[i] for i in kept if i < len(diag) and diag[i] > 1]
        relations = IntMatrix.from_columns(
            len(kept), [[d if i == j else 0 for i in range(len(kept))]
                        for j, d in enumerate(torsion)])
        return (Presentation(len(kept), relations), snf.U.take_rows(kept),
                snf.U_inv.take_columns(kept))


def direct_sum(presentations) -> Presentation:
    """Direct sum presentation: the summands' relations as diagonal blocks."""
    total = sum(p.rank for p in presentations)
    rel_cols = []
    offset = 0
    for p in presentations:
        for j in range(p.relations.cols):
            col = [0] * total
            col[offset:offset + p.rank] = p.relations.col(j)
            rel_cols.append(col)
        offset += p.rank
    return Presentation(total, IntMatrix.from_columns(total, rel_cols))


def hom_is_well_defined(A: IntMatrix, src: Presentation, dst: Presentation) -> bool:
    """A descends to a hom of presented groups iff A maps relations into relations."""
    if A.rows != dst.rank or A.cols != src.rank:
        return False
    return dst.columns_are_zero(A * src.relations)


def homs_equal(A, B, dst: Presentation) -> bool:
    return dst.columns_are_zero(A - B)


def hom_kernel(A: IntMatrix, src: Presentation, dst: Presentation):
    """Kernel of a hom of presented groups.

    Returns (kernel presentation, inclusion matrix K) where K's columns are
    lattice representatives in Z^src.rank of the kernel generators.
    """
    dst_rel = image_basis(dst.relations) if dst.relations.cols \
        else dst.relations
    M = preimage_lattice(A, dst_rel) if dst_rel.cols else kernel_basis(A)
    # src relations always land in M (well-definedness), so quotient by them
    return Presentation(M.cols, lattice_coordinates(M, src.relations)), M


def hom_cokernel(A: IntMatrix, src: Presentation, dst: Presentation):
    """Cokernel presentation; the projection is the identity on coordinates."""
    return Presentation(dst.rank, A.hstack(dst.relations))


def hom_is_surjective(A: IntMatrix, src: Presentation, dst: Presentation) -> bool:
    return hom_cokernel(A, src, dst).is_trivial()


def hom_is_injective(A: IntMatrix, src: Presentation, dst: Presentation) -> bool:
    ker, _ = hom_kernel(A, src, dst)
    return ker.is_trivial()


def hom_preimage(A: IntMatrix, src: Presentation, dst: Presentation, y):
    """Some x with A x = y modulo dst relations, or None."""
    aug = A.hstack(dst.relations)
    sol = solve_exact(aug, y)
    if sol is None:
        return None
    return tuple(sol[:src.rank])


def cokernel_witness(A: IntMatrix, src: Presentation, dst: Presentation):
    """An element of dst not hit by A, as a coordinate vector, or None."""
    aug = A.hstack(dst.relations)
    snf = smith_normal_form(aug)
    diag = snf.diagonal()
    for i in range(dst.rank):
        d = diag[i] if i < len(diag) else 0
        if d == 1:
            continue
        # U_inv column i generates a nontrivial summand of the cokernel
        return snf.U_inv.col(i)
    return None


def _lift_into_relations(R: IntMatrix, M: IntMatrix):
    """(Y, K) with R Y = M exactly and K's columns a basis of ker R.

    Both come from one Smith form of R: Y by back-substitution, K as the
    columns of V past R's rank.  A column of M outside im R raises
    ExactAlgebraError.  With no relations (R has no columns) the solve is
    the check M = 0, and Y and K are empty.
    """
    if not R.cols:
        bad = next((j for j in range(M.cols) if any(M.col(j))), None)
        if bad is not None:
            raise ExactAlgebraError(f"column {bad} escapes the lattice")
        return IntMatrix.zeros(0, M.cols), IntMatrix.zeros(0, 0)
    snf = smith_normal_form(R)
    Y = _back_substitute(snf, M)
    if isinstance(Y, NotABoundary):
        raise ExactAlgebraError(f"column {Y.column} escapes the lattice")
    return Y, snf.V.take_columns(range(snf.rank(), R.cols))


def presented_cohomology_at(groups, maps, degree) -> HomologySummary:
    """Cohomology at the middle spot of G0 -> G1 -> G2 (presented groups).

    ``groups`` is [G0, G1, G2] with G_i = Z^{r_i} / im R_i; ``maps`` is
    [d0: G0->G1, d1: G1->G2]; the returned summary carries ``degree``.
    The answer is ker d1 on coker d0: the cocycles {x : d1 x in im R2}
    modulo im B, where B = [d0 | R1].

    It is read from the Smith diagonals of phi and B~.  Let
    phi = [d1 | R2] on Z^{r1 + c2}, c2 the number of columns of R2.  Solve
    R2 Y = -d1 B exactly (d1 must map coboundaries and G1's relations into
    im R2, or ExactAlgebraError is raised), let K be a basis of ker R2 and
    B~ = [[B, 0], [Y, K]].  Then

        H = Z^{(r1 + c2 - rank phi) - rank B~} + tors(B~).

    Projecting ker phi onto its first r1 coordinates maps it onto the
    cocycles, with kernel 0 + ker R2.  ker phi is saturated in Z^{r1 + c2}
    and im B~ lies inside it.  So H = ker phi / im B~: its rank is
    rank ker phi - rank B~ and its torsion that of Z^{r1 + c2} / im B~.
    When G2 has no relations, Y and K are empty and B~ = B.
    """
    _, g1, g2 = groups
    d0, d1 = maps
    R2 = g2.relations
    B = d0.hstack(g1.relations)
    Y, K = _lift_into_relations(R2, -(d1 * B))
    pad = (0,) * K.cols
    B_tilde = IntMatrix(B.rows + R2.cols, B.cols + K.cols,
                        [B.row(i) + pad for i in range(B.rows)]
                        + [Y.row(i) + K.row(i) for i in range(R2.cols)])
    cocycle_rank = d1.cols + R2.cols - \
        smith_normal_form(d1.hstack(R2)).rank()
    snf = smith_normal_form(B_tilde)
    return HomologySummary(degree, cocycle_rank - snf.rank(), snf.torsion())


# ---------------------------------------------------------------------------
# small rational helpers shared across modules

def frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise ExactAlgebraError(f"not an exact rational: {value!r}")


def frac_str(q: Fraction) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 \
        else str(q.numerator)
