"""Exact integer and rational linear algebra.

Everything in here is computed over Z (arbitrary-precision ints) or Q
(fractions.Fraction); no floating point anywhere.  The module provides

* ``IntMatrix``        -- immutable integer matrices,
* ``smith_normal_form`` -- U*A*V = D with unimodular U, V and a divisibility
  chain on the diagonal, plus the tracked inverses,
* lattice calculus      -- bases, membership, preimages, coordinates in a
  basis (``lattice_coordinates``),
* ``FinChainComplex``   -- bounded complexes of free Z-modules with
  homology / cohomology / boundary solving,
* ``Presentation``      -- finitely generated abelian groups given as
  Z^rank / column-span(relations), with homs, kernels and cokernels.

``presented_cohomology_at`` is the one cohomology routine: homology, Z and
Z/m cohomology of a chain complex and every sheaf-cohomology pipeline ask
it for the middle of G0 -> G1 -> G2 on presented groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class ExactAlgebraError(Exception):
    pass


class DegreeRangeError(ExactAlgebraError):
    """Raised when a homology degree falls outside the complex's range."""


class NotACycleError(ExactAlgebraError):
    """Raised when a boundary equation is posed for a non-cycle."""


class IntMatrix:
    """Immutable integer matrix, row-major."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise ExactAlgebraError("negative matrix dimensions")
        data = []
        if entries and isinstance(entries[0], (list, tuple)):
            for row in entries:
                data.extend(row)
        else:
            data = list(entries)
        if len(data) != rows * cols:
            raise ExactAlgebraError(
                f"expected {rows * cols} entries, got {len(data)}")
        for e in data:
            if not isinstance(e, int):
                raise ExactAlgebraError(f"non-integer entry {e!r}")
        self.rows = rows
        self.cols = cols
        self._data = tuple(data)

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        n = len(rows[0]) if rows else 0
        return cls(len(rows), n, rows)

    @classmethod
    def identity(cls, n):
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def column(cls, vec):
        return cls(len(vec), 1, list(vec))

    @classmethod
    def from_columns(cls, rows, columns):
        """The matrix with the given columns, each of length ``rows``."""
        return cls(rows, len(columns), [[c[i] for c in columns]
                                        for i in range(rows)])

    @classmethod
    def diagonal(cls, entries):
        n = len(entries)
        return cls(n, n, [entries[i] if i == j else 0
                          for i in range(n) for j in range(n)])

    def entry(self, i, j):
        return self._data[i * self.cols + j]

    def row(self, i):
        return self._data[i * self.cols:(i + 1) * self.cols]

    def col(self, j):
        return tuple(self._data[i * self.cols + j] for i in range(self.rows))

    def rows_list(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        return IntMatrix(self.cols, self.rows,
                         [self.entry(i, j) for j in range(self.cols)
                          for i in range(self.rows)])

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ExactAlgebraError("shape mismatch in matrix product")
            out = []
            ocols = other.cols
            for i in range(self.rows):
                ri = self.row(i)
                for j in range(ocols):
                    out.append(sum(ri[k] * other.entry(k, j)
                                   for k in range(self.cols)))
            return IntMatrix(self.rows, ocols, out)
        if isinstance(other, int):
            return IntMatrix(self.rows, self.cols,
                             [other * e for e in self._data])
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ExactAlgebraError("shape mismatch in matrix sum")
        return IntMatrix(self.rows, self.cols,
                         [a + b for a, b in zip(self._data, other._data)])

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
        return all(e == 0 for e in self._data)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ExactAlgebraError("row mismatch in hstack")
        rows = [list(self.row(i)) + list(other.row(i)) for i in range(self.rows)]
        return IntMatrix(self.rows, self.cols + other.cols, rows)

    def take_columns(self, indices):
        rows = [[self.entry(i, j) for j in indices] for i in range(self.rows)]
        return IntMatrix(self.rows, len(indices), rows)

    def take_rows(self, indices):
        return IntMatrix(len(indices), self.cols,
                         [list(self.row(i)) for i in indices])

    def apply(self, vec):
        """Matrix-vector product over Z."""
        if len(vec) != self.cols:
            raise ExactAlgebraError("vector length mismatch")
        return tuple(sum(self.row(i)[k] * vec[k] for k in range(self.cols))
                     for i in range(self.rows))

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


@dataclass(frozen=True)
class SmithDecomposition:
    """U * A * V = D with U, V unimodular and d_i | d_{i+1} >= 0."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    U_inv: IntMatrix

    def diagonal(self):
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D.entry(i, i) for i in range(n))

    def rank(self):
        return sum(1 for d in self.diagonal() if d != 0)


def _min_pivot(m, rows, cols, t):
    """Smallest |entry| in the trailing block, ties by lowest row then column."""
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            v = m[i][j]
            if v != 0:
                a = abs(v)
                if best is None or a < best[0]:
                    best = (a, i, j)
    return best


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form with tracked transforms.

    Deterministic: the pivot is the minimum absolute value in the pending
    block, ties broken by lowest row index then lowest column index.
    """
    rows, cols = A.rows, A.cols
    m = A.rows_list()
    u = IntMatrix.identity(rows).rows_list()
    uinv = IntMatrix.identity(rows).rows_list()
    v = IntMatrix.identity(cols).rows_list()

    def row_swap(i, k):
        m[i], m[k] = m[k], m[i]
        u[i], u[k] = u[k], u[i]
        # (swap)^-1 = swap, applied on the right of uinv: swap columns i,k
        for r in uinv:
            r[i], r[k] = r[k], r[i]

    def col_swap(j, k):
        for r in m:
            r[j], r[k] = r[k], r[j]
        for r in v:
            r[j], r[k] = r[k], r[j]

    def row_add(i, k, q):
        # row_i += q * row_k
        if q == 0:
            return
        m[i] = [a + q * b for a, b in zip(m[i], m[k])]
        u[i] = [a + q * b for a, b in zip(u[i], u[k])]
        # inverse op on the right: column_k -= q * column_i
        for r in uinv:
            r[k] -= q * r[i]

    def col_add(j, k, q):
        # col_j += q * col_k
        if q == 0:
            return
        for r in m:
            r[j] += q * r[k]
        for r in v:
            r[j] += q * r[k]

    def row_negate(i):
        m[i] = [-a for a in m[i]]
        u[i] = [-a for a in u[i]]
        for r in uinv:
            r[i] = -r[i]

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
        # enforce divisibility of the remaining block by the pivot
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_add(t, bad, 1)
            continue  # redo pivot t
        if m[t][t] < 0:
            row_negate(t)
        t += 1

    return SmithDecomposition(
        U=IntMatrix.from_rows(u) if rows else IntMatrix(0, 0, []),
        D=IntMatrix.from_rows(m) if rows else IntMatrix(0, cols, []),
        V=IntMatrix.from_rows(v) if cols else IntMatrix(cols, cols, []),
        U_inv=IntMatrix.from_rows(uinv) if rows else IntMatrix(0, 0, []),
    )


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
    cols = [tuple(d * snf.U_inv.entry(i, j) for i in range(A.rows))
            for j, d in enumerate(diag) if d != 0]
    return IntMatrix.from_columns(A.rows, cols)


class NotABoundary:
    """Certificate that a cycle is not in the image of the boundary map.

    ``index`` is the Smith pivot position at which divisibility fails (or
    where a nonzero coordinate survives past the rank), and ``value`` /
    ``divisor`` describe the failing divisibility test.
    """

    def __init__(self, index, value, divisor):
        self.index = index
        self.value = value
        self.divisor = divisor

    def __repr__(self):
        return (f"NotABoundary(index={self.index}, value={self.value}, "
                f"divisor={self.divisor})")


def _back_substitute(snf: SmithDecomposition, b, cols):
    """x with A x = b from A's Smith form, or the NotABoundary that fails."""
    c = snf.U.apply(b)
    diag = snf.diagonal()
    y = [0] * cols
    for i, ci in enumerate(c):
        d = diag[i] if i < len(diag) else 0
        if d != 0:
            if ci % d != 0:
                return NotABoundary(i, ci, d)
            y[i] = ci // d
        elif ci != 0:
            return NotABoundary(i, ci, 0)
    return snf.V.apply(y)


def solve_exact(A: IntMatrix, b, snf: SmithDecomposition | None = None):
    """Solve A x = b over Z.  Returns a tuple x, or None with no solution.

    With ``snf`` supplied the decomposition is reused across calls.
    """
    if snf is None:
        snf = smith_normal_form(A)
    if len(b) != A.rows:
        raise ExactAlgebraError("rhs length mismatch")
    x = _back_substitute(snf, b, A.cols)
    return None if isinstance(x, NotABoundary) else x


def lattice_basis(generators: IntMatrix) -> IntMatrix:
    """Canonical basis of the lattice spanned by the given columns."""
    return image_basis(generators)


def lattice_contains(basis: IntMatrix, vec, snf=None) -> bool:
    return solve_exact(basis, vec, snf) is not None


def preimage_lattice(A: IntMatrix, L: IntMatrix) -> IntMatrix:
    """Basis of {x : A x lies in the lattice spanned by L's columns}."""
    if L.rows != A.rows:
        raise ExactAlgebraError("ambient mismatch in preimage_lattice")
    K = kernel_basis(A.hstack(-1 * L))
    proj = K.take_rows(list(range(A.cols)))
    return lattice_basis(proj)


def lattice_coordinates(basis: IntMatrix, vectors: IntMatrix) -> IntMatrix:
    """Column j is the x with basis * x = column j of ``vectors``.

    Every column must lie in the lattice the basis spans.
    """
    snf = smith_normal_form(basis)
    cols = []
    for j in range(vectors.cols):
        x = solve_exact(basis, vectors.col(j), snf)
        if x is None:
            raise ExactAlgebraError(f"column {j} escapes the lattice")
        cols.append(x)
    return IntMatrix.from_columns(basis.cols, cols)


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


def summary_from_relations(degree, ambient_rank, relations: IntMatrix,
                           snf=None) -> HomologySummary:
    """Summary of Z^ambient_rank / column-span(relations)."""
    if relations.rows != ambient_rank:
        raise ExactAlgebraError("relations live in the wrong ambient")
    if snf is None:
        snf = smith_normal_form(relations)
    diag = [d for d in snf.diagonal() if d != 0]
    torsion = tuple(d for d in diag if d > 1)
    return HomologySummary(degree, ambient_rank - len(diag), torsion)


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


def homology(C: FinChainComplex, n: int) -> HomologySummary:
    """H_n = ker d_n / im d_{n+1}, at the middle of C_{n+1} -> C_n -> C_{n-1}."""
    if not C.in_range(n):
        raise DegreeRangeError(
            f"degree {n} outside complex range "
            f"[{C.min_degree}, {C.max_degree}]")
    groups = [Presentation.free(C.rank(d)) for d in (n + 1, n, n - 1)]
    return presented_cohomology_at(
        groups, [C.boundary(n + 1), C.boundary(n)], n)


ZCOEFF = ("Z",)
QCOEFF = ("Q",)


def zmod(m):
    return ("Zmod", m)


def cohomology(C: FinChainComplex, coefficients, n: int) -> HomologySummary:
    """Cohomology of the dualized complex with Z, Z/m or Q coefficients."""
    kind = coefficients[0]
    if kind not in ("Z", "Q", "Zmod"):
        raise ExactAlgebraError(f"unsupported coefficients {coefficients!r}")
    if kind == "Zmod":
        m = coefficients[1]
        if m == 0:
            raise ExactAlgebraError("Z/0 rejected; use the Z descriptor")
        if m < 0:
            raise ExactAlgebraError("modulus must be positive")
    if not C.in_range(n):
        return HomologySummary(n, 0, ())
    d_out = C.boundary(n + 1).transpose()   # C^n -> C^{n+1}
    d_in = C.boundary(n).transpose()        # C^{n-1} -> C^n
    if kind == "Q":
        rank_n = C.rank(n)
        betti = rank_n - smith_normal_form(d_out).rank() \
            - smith_normal_form(d_in).rank()
        return HomologySummary(n, betti, ())
    ranks = [C.rank(d) for d in (n - 1, n, n + 1)]
    if kind == "Z":
        groups = [Presentation.free(r) for r in ranks]
    else:  # Z/m: m*id relations throughout
        groups = [Presentation(r, m * IntMatrix.identity(r)) for r in ranks]
    return presented_cohomology_at(groups, [d_in, d_out], n)


def solve_boundary(C: FinChainComplex, c, n: int):
    """Find x in degree n+1 with d x = c, or a NotABoundary certificate.

    ``c`` must be a cycle in degree n; a non-cycle raises NotACycleError.
    """
    if len(c) != C.rank(n):
        raise ExactAlgebraError("chain vector has wrong length")
    if any(v != 0 for v in C.boundary(n).apply(c)):
        raise NotACycleError(f"input in degree {n} is not a cycle")
    B = C.boundary(n + 1)
    return _back_substitute(smith_normal_form(B), c, B.cols)


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

    def element_is_zero(self, vec) -> bool:
        return lattice_contains(self.relations, vec) if self.relations.cols \
            else all(v == 0 for v in vec)

    def elements_equal(self, v, w) -> bool:
        return self.element_is_zero(tuple(a - b for a, b in zip(v, w)))


def direct_sum(presentations):
    """Direct sum presentation plus the list of injection matrices."""
    total = sum(p.rank for p in presentations)
    rel_cols = []
    offset = 0
    injections = []
    for p in presentations:
        inj = IntMatrix(total, p.rank,
                        [[1 if (i - offset) == j and offset <= i < offset + p.rank
                          else 0 for j in range(p.rank)] for i in range(total)])
        injections.append(inj)
        for j in range(p.relations.cols):
            col = [0] * total
            for i in range(p.rank):
                col[offset + i] = p.relations.entry(i, j)
            rel_cols.append(col)
        offset += p.rank
    return Presentation(total, IntMatrix.from_columns(total, rel_cols)), \
        injections


def hom_is_well_defined(A: IntMatrix, src: Presentation, dst: Presentation) -> bool:
    """A descends to a hom of presented groups iff A maps relations into relations."""
    if A.rows != dst.rank or A.cols != src.rank:
        return False
    target = lattice_basis(dst.relations)
    snf = smith_normal_form(target)
    prod = A * src.relations
    return all(solve_exact(target, prod.col(j), snf) is not None
               for j in range(prod.cols))


def homs_equal(A, B, dst: Presentation) -> bool:
    diff = A - B
    return all(dst.element_is_zero(diff.col(j)) for j in range(diff.cols))


def hom_kernel(A: IntMatrix, src: Presentation, dst: Presentation):
    """Kernel of a hom of presented groups.

    Returns (kernel presentation, inclusion matrix K) where K's columns are
    lattice representatives in Z^src.rank of the kernel generators.
    """
    dst_rel = lattice_basis(dst.relations) if dst.relations.cols \
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
        return tuple(snf.U_inv.entry(r, i) for r in range(dst.rank))
    return None


def presented_cohomology_at(groups, maps, degree) -> HomologySummary:
    """Cohomology at the middle spot of G0 -> G1 -> G2 (presented groups).

    ``groups`` is [G0, G1, G2]; ``maps`` is [d0: G0->G1, d1: G1->G2];
    the returned summary carries ``degree``.  The answer is ker d1 on
    coker d0: cocycles modulo coboundaries and G1's relations.
    """
    g0, g1, g2 = groups
    d0, d1 = maps
    H, _ = hom_kernel(d1, hom_cokernel(d0, g0, g1), g2)
    return H.summary(degree)


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


def sqrt_upper(q: Fraction) -> Fraction:
    """A rational u >= sqrt(q) with u^2 close to q (q >= 0)."""
    q = Fraction(q)
    if q < 0:
        raise ExactAlgebraError("sqrt of a negative rational")
    if q == 0:
        return Fraction(0)
    # integer sqrt of ceil(q * scale^2) / scale
    scale = 10 ** 6
    n = (q.numerator * scale * scale + q.denominator - 1) // q.denominator
    r = math.isqrt(n)
    if r * r < n:
        r += 1
    return Fraction(r, scale)
