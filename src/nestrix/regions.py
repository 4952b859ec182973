"""Exact region algebra for the nesting realm Q^d.

Regions are open subsets of Q^d, built from balls, finite intersections
and affine preimages; closed convex polytopes appear as covering sets.
Membership of a rational point is always decidable, in a polytope as long
as its vertices are affinely independent (simplex faces); inclusion between
regions is decided by a sound rule system with a three-valued answer
(``TRUE`` / ``FALSE`` / ``UNKNOWN``) so that undecided inclusions can
fail closed.

Every answer is exact.  Balls and maps compare in rationals; square roots
enter only through the exact test  sqrt(a) + sqrt(b) <= sqrt(c)  <=>
a + b <= c  and  4ab <= (c - a - b)^2.  Polytope membership solves in
integers: each row of the barycentric system is scaled by the lcm of its
denominators and solved by fraction-free Gauss-Jordan elimination
(Bareiss: every step divides exactly by the previous pivot), so no
Fraction is built until the solution is read off.  Dependent vertices
leave a point of their affine hull undecided, and membership raises
``RegionError`` there rather than guess.

Maps and regions are immutable and compute their hash once, at
construction, so the dict keys built from them during a validation cost
one tuple hash; equal regions built separately hash and compare alike.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import frac


class RegionError(Exception):
    pass


class Tri(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


def sqrtsum_leq(a: Fraction, b: Fraction, c: Fraction) -> bool:
    """Exact test of sqrt(a) + sqrt(b) <= sqrt(c) for nonnegative rationals."""
    if a < 0 or b < 0 or c < 0:
        raise RegionError("sqrtsum_leq needs nonnegative inputs")
    rest = c - a - b
    return rest >= 0 and 4 * a * b <= rest * rest


# ---------------------------------------------------------------------------
# affine maps

def _combine(terms, x, offset):
    """offset + sum of c * x[j] over the (j, c) terms, exactly.

    A coefficient 1 contributes x[j] without a product, and a zero offset
    adds nothing, so the value equals the dense sum with fewer Fraction
    operations."""
    acc = None
    for j, c in terms:
        v = x[j] if c == 1 else c * x[j]
        acc = v if acc is None else acc + v
    if acc is None:
        return offset
    return acc + offset if offset else acc


@dataclass(frozen=True)
class AffineMap:
    """x -> A x + b over Q, rows x cols rational matrix.

    The nonzero ``(j, c)`` terms of every row and the hash are computed
    once, at construction; ``apply`` and ``transpose_apply`` walk those
    terms only, so zero coefficients cost nothing and unit ones no
    product.  Every value is still the exact dense formula's.
    """

    rows: tuple       # tuple of coordinate rows (tuples of Fraction)
    offset: tuple

    def __post_init__(self):
        rows = tuple(tuple(frac(x) for x in r) for r in self.rows)
        offset = tuple(frac(x) for x in self.offset)
        if len(offset) != len(rows):
            raise RegionError("offset dimension mismatch")
        if len({len(r) for r in rows}) > 1:
            raise RegionError("affine map rows of different lengths")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "_terms", tuple(
            tuple((j, c) for j, c in enumerate(r) if c) for r in rows))
        object.__setattr__(self, "_hash", hash((rows, offset)))

    def __hash__(self):
        return self._hash

    @property
    def target_dim(self):
        return len(self.rows)

    @property
    def source_dim(self):
        return len(self.rows[0]) if self.rows else 0

    def apply(self, x):
        x = tuple(frac(c) for c in x)
        if len(x) != self.source_dim:
            raise RegionError("point dimension mismatch")
        return tuple(_combine(terms, x, o)
                     for terms, o in zip(self._terms, self.offset))

    def rows_orthonormal(self) -> bool:
        cached = getattr(self, "_rows_on", None)
        if cached is None:
            m = self.rows
            cached = all(
                sum(m[i][k] * m[j][k] for k in range(self.source_dim))
                == (1 if i == j else 0)
                for i in range(len(m)) for j in range(len(m)))
            object.__setattr__(self, "_rows_on", cached)
        return cached

    def cols_orthonormal(self) -> bool:
        cached = getattr(self, "_cols_on", None)
        if cached is None:
            m = self.rows
            n = self.source_dim
            cached = all(
                sum(m[k][i] * m[k][j] for k in range(self.target_dim))
                == (1 if i == j else 0)
                for i in range(n) for j in range(n))
            object.__setattr__(self, "_cols_on", cached)
        return cached

    def transpose_apply(self, y):
        y = tuple(frac(c) for c in y)
        if len(y) != self.target_dim:
            raise RegionError("point dimension mismatch")
        out = [Fraction(0)] * self.source_dim
        for terms, yk in zip(self._terms, y):
            for i, c in terms:
                out[i] += yk if c == 1 else c * yk
        return tuple(out)

    @classmethod
    def projection_drop_last(cls, dim_from, count=1):
        rows = tuple(tuple(Fraction(1 if j == i else 0)
                           for j in range(dim_from))
                     for i in range(dim_from - count))
        return cls(rows, tuple(Fraction(0) for _ in range(dim_from - count)))


# ---------------------------------------------------------------------------
# regions

class Region:
    pass


@dataclass(frozen=True)
class Ambient(Region):
    """The whole realm (Q^d in the PL realm)."""


@dataclass(frozen=True)
class Empty(Region):
    pass


# OpenBall, Intersection, Polytope and AffinePreimage store the hash of
# their fields at construction, as AffineMap does; the dataclass keeps the
# explicit __hash__ and generates only __eq__.

@dataclass(frozen=True)
class OpenBall(Region):
    center: tuple
    sq_radius: Fraction

    def __post_init__(self):
        center = tuple(frac(c) for c in self.center)
        sq_radius = frac(self.sq_radius)
        if sq_radius <= 0:
            raise RegionError("open balls need positive squared radius")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "sq_radius", sq_radius)
        object.__setattr__(self, "_hash", hash((center, sq_radius)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class Intersection(Region):
    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_hash", hash((members,)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class Polytope(Region):
    """Closed convex hull of finitely many rational points (covering sets).

    Membership needs affinely independent vertices, as a simplex face's
    are (see ``polytope_contains_point``).  ``vertex_set`` is the
    frozenset of the vertices, for subset tests."""

    vertices: tuple

    def __post_init__(self):
        vertices = tuple(tuple(frac(c) for c in v) for v in self.vertices)
        if len({len(v) for v in vertices}) > 1:
            raise RegionError("polytope vertices of different dimensions")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "vertex_set", frozenset(vertices))
        object.__setattr__(self, "_hash", hash((vertices,)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class AffinePreimage(Region):
    map: AffineMap
    inner: Region

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.map, self.inner)))

    def __hash__(self):
        return self._hash


def intersection(members) -> Region:
    """Flatten, deduplicate, detect certain emptiness."""
    flat = []
    for m in members:
        if isinstance(m, Ambient):
            continue
        if isinstance(m, Empty):
            return Empty()
        if isinstance(m, Intersection):
            flat.extend(m.members)
        else:
            flat.append(m)
    out = []
    for m in flat:
        if m not in out:
            out.append(m)
    # pairwise-disjoint open balls force emptiness
    balls = [m for m in out if isinstance(m, OpenBall)]
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            d = sqdist(balls[i].center, balls[j].center)
            if sqrtsum_leq(balls[i].sq_radius, balls[j].sq_radius, d):
                return Empty()
    if not out:
        return Ambient()
    if len(out) == 1:
        return out[0]
    return Intersection(tuple(out))


def sqdist(p, q):
    if len(p) != len(q):
        raise RegionError("point dimension mismatch")
    total = 0
    for a, b in zip(p, q):
        d = frac(a) - frac(b)
        total += d * d
    return total


def is_convex(region: Region) -> bool:
    if isinstance(region, (Ambient, Empty, OpenBall, Polytope)):
        return True
    if isinstance(region, Intersection):
        return all(is_convex(m) for m in region.members)
    if isinstance(region, AffinePreimage):
        return is_convex(region.inner)
    return False


def is_certainly_empty(region: Region) -> bool:
    if isinstance(region, Empty):
        return True
    if isinstance(region, Polytope):
        return not region.vertices
    if isinstance(region, Intersection):
        return any(is_certainly_empty(m) for m in region.members) \
            or isinstance(intersection(region.members), Empty)
    return False


# ---------------------------------------------------------------------------
# membership

def contains_point(region: Region, x, cache=None) -> bool:
    """Exact membership of a point, given as a coordinate tuple.

    ``cache``, when given, is a dict the caller owns for the length of one
    computation.  It keeps the verdicts for ``Polytope`` and
    ``AffinePreimage`` regions, the two whose test costs more than hashing
    the ``(region, point)`` key (a barycentric solve, a map
    application), and ``region_contains`` keeps its verdicts in the same
    dict.  A verdict is a function of the key alone, so a cached answer is
    the exact answer.
    """
    if isinstance(region, Ambient):
        return True
    if isinstance(region, Empty):
        return False
    if isinstance(region, OpenBall):
        return sqdist(region.center, x) < region.sq_radius
    if isinstance(region, Intersection):
        return all(contains_point(m, x, cache) for m in region.members)
    if isinstance(region, (Polytope, AffinePreimage)):
        key = (region, x)
        verdict = None if cache is None else cache.get(key)
        if verdict is None:
            if isinstance(region, Polytope):
                verdict = polytope_contains_point(region.vertices, x)
            else:
                verdict = contains_point(region.inner, region.map.apply(x),
                                         cache)
            if cache is not None:
                cache[key] = verdict
        return verdict
    raise RegionError(f"unknown region {region!r}")


def polytope_contains_point(vertices, x) -> bool:
    """x in conv(vertices), for affinely independent vertices: the point's
    barycentric coordinates, solved exactly, must all be nonnegative.

    A point off the vertices' affine hull is outside, dependent vertices
    or not.  A point on the affine hull of dependent vertices has no
    unique coordinates: unless it is one of the vertices, membership
    raises ``RegionError``.
    """
    x = tuple(frac(c) for c in x)
    if not vertices:
        return False
    if x in vertices:
        return True
    d = len(vertices[0])
    if len(x) != d:
        raise RegionError("dimension mismatch in polytope membership")
    # constraints: sum_i l_i v_i = x, sum_i l_i = 1, l >= 0
    rows = [[vertices[i][r] for i in range(len(vertices))] for r in range(d)]
    rows.append([Fraction(1)] * len(vertices))
    rhs = list(x) + [Fraction(1)]
    unique = _solve_unique(rows, rhs)
    if unique is None:
        raise RegionError("polytope vertices are affinely dependent")
    status, lam = unique
    return status == "unique" and all(l >= 0 for l in lam)


def _integer_rows(A, b):
    """The rows of [A | b], each times the lcm of its denominators: an
    integer system with the same solutions."""
    out = []
    for row, bi in zip(A, b):
        row = [frac(v) for v in row] + [frac(bi)]
        scale = math.lcm(*(v.denominator for v in row))
        out.append([v.numerator * (scale // v.denominator) for v in row])
    return out


def _pivot(T, r, c, prev):
    """Integer pivot of T on entry (r, c), with ``prev`` the previous pivot
    (1 at the start).  Row r is kept; every other row becomes
    (p * row - row[c] * T[r]) / prev, p = T[r][c].  The division is exact
    (Bareiss): every entry stays a minor of the starting matrix, and the
    rational tableau is T / p.  Returns p, the next ``prev``."""
    pr = T[r]
    p = pr[c]
    for i, row in enumerate(T):
        if i == r:
            continue
        f = row[c]
        if f:
            T[i] = [(p * v - f * w) // prev for v, w in zip(row, pr)]
        elif p != prev:
            T[i] = [p * v // prev for v in row]
    return p


def _solve_unique(A, b):
    """Fraction-free Gauss-Jordan elimination of A x = b:
    ('unique', x) / ('inconsistent', None) / None when the system is
    underdetermined.  Row order, pivot choice and verdicts are those of
    rational elimination; only the unique solution is built in Fractions.
    """
    T = _integer_rows(A, b)
    m = len(T)
    n = len(A[0]) if m else 0
    piv_cols = []
    det = 1
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if T[i][c]), None)
        if piv is None:
            continue
        T[r], T[piv] = T[piv], T[r]
        det = _pivot(T, r, c, det)
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    if any(T[i][-1] for i in range(r, m)):
        return ("inconsistent", None)
    if len(piv_cols) < n:
        return None
    # every pivot entry now equals det
    x = [Fraction(0)] * n
    for i, c in enumerate(piv_cols):
        x[c] = Fraction(T[i][-1], det)
    return ("unique", x)


# ---------------------------------------------------------------------------
# inclusion

def ball_in_ball(inner: OpenBall, outer: OpenBall) -> bool:
    d = sqdist(inner.center, outer.center)
    return sqrtsum_leq(d, inner.sq_radius, outer.sq_radius)


def region_contains(outer: Region, inner: Region, cache=None) -> Tri:
    """Is inner a subset of outer?  Sound three-valued rule system.

    ``cache``, when given, is the caller's dict of ``contains_point``.  The
    verdict is stored in it under ``(outer, inner)``, which no membership
    key equals, and is handed to every test made on the way, nested
    inclusions included.  The verdict is a function of the pair alone, so
    a cached answer is the exact answer."""
    if cache is None:
        return _inclusion(outer, inner, None)
    key = (outer, inner)
    verdict = cache.get(key)
    if verdict is None:
        verdict = cache[key] = _inclusion(outer, inner, cache)
    return verdict


def _inclusion(outer: Region, inner: Region, cache) -> Tri:
    """The rules of ``region_contains``, which memoizes them."""
    if isinstance(inner, Empty) or inner == outer:
        return Tri.TRUE
    if isinstance(outer, Ambient):
        return Tri.TRUE
    if isinstance(outer, Empty):
        return Tri.FALSE if _certainly_nonempty(inner) else Tri.UNKNOWN
    if isinstance(outer, Intersection):
        results = [region_contains(m, inner, cache) for m in outer.members]
        if all(r is Tri.TRUE for r in results):
            return Tri.TRUE
        if any(r is Tri.FALSE for r in results):
            return Tri.FALSE
        return Tri.UNKNOWN
    if isinstance(inner, Polytope):
        if isinstance(outer, Polytope) and \
                inner.vertex_set <= outer.vertex_set:
            return Tri.TRUE
        if is_convex(outer):
            ok = all(contains_point(outer, v, cache) for v in inner.vertices)
            return Tri.TRUE if ok else Tri.FALSE
        if any(not contains_point(outer, v, cache) for v in inner.vertices):
            return Tri.FALSE
        return Tri.UNKNOWN
    if isinstance(inner, Intersection):
        for m in inner.members:
            if region_contains(outer, m, cache) is Tri.TRUE:
                return Tri.TRUE
        if is_certainly_empty(inner):
            return Tri.TRUE
        return Tri.UNKNOWN
    if isinstance(inner, OpenBall):
        if isinstance(outer, OpenBall):
            return Tri.TRUE if ball_in_ball(inner, outer) else Tri.FALSE
        if isinstance(outer, AffinePreimage) and outer.map.rows_orthonormal():
            image = OpenBall(outer.map.apply(inner.center), inner.sq_radius)
            return region_contains(outer.inner, image, cache)
        if isinstance(outer, Polytope):
            return Tri.UNKNOWN
    if isinstance(inner, AffinePreimage) and isinstance(outer, AffinePreimage):
        if inner.map == outer.map:
            return region_contains(outer.inner, inner.inner, cache)
        return Tri.UNKNOWN
    if isinstance(inner, Ambient):
        if isinstance(outer, (OpenBall, Polytope)):
            return Tri.FALSE
        return Tri.UNKNOWN
    return Tri.UNKNOWN


def _certainly_nonempty(region: Region) -> bool:
    if isinstance(region, (Ambient, OpenBall)):
        return True
    if isinstance(region, Polytope):
        return bool(region.vertices)
    return False


def simplex_in_region(points, region: Region, cache=None) -> Tri:
    """Is the closed affine simplex on the given points inside the region?

    Complete for convex regions (vertex test); for non-convex regions a
    vertex outside still certifies FALSE, everything else is UNKNOWN.
    ``cache`` is handed to the vertex tests (see ``contains_point``).
    """
    outside = [p for p in points if not contains_point(region, p, cache)]
    if outside:
        return Tri.FALSE
    if is_convex(region):
        return Tri.TRUE
    return Tri.UNKNOWN


def preimage_region(f: AffineMap, region: Region) -> Region:
    """f^{-1}(region), normalized where an exact closed form exists."""
    if isinstance(region, (Ambient, Empty)):
        return region
    if isinstance(region, Intersection):
        return intersection([preimage_region(f, m) for m in region.members])
    if isinstance(region, OpenBall) and f.cols_orthonormal():
        if len(region.center) != f.target_dim:
            raise RegionError("ball dimension differs from the map's target")
        # |Ax + b - c|^2 = |x - A^T(c-b)|^2 + (|c-b|^2 - |A^T(c-b)|^2)
        cb = tuple(ci - bi for ci, bi in zip(region.center, f.offset))
        center = f.transpose_apply(cb)
        drop = sum(v * v for v in cb) - sum(v * v for v in center)
        sq = region.sq_radius - drop
        if sq <= 0:
            return Empty()
        return OpenBall(center, sq)
    return AffinePreimage(f, region)
