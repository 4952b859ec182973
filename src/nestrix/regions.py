"""Exact region algebra for the two nesting realms.

Regions are open subsets of Q^d (piecewise-linear realm) or opens of a
finite space, built from balls, finite-space opens, finite intersections
and affine preimages; closed convex polytopes appear as covering sets.
Membership of a rational point is always decidable; inclusion between
regions is decided by a sound rule system with a three-valued answer
(``TRUE`` / ``FALSE`` / ``UNKNOWN``) so that undecided inclusions can
fail closed.

All comparisons are rational; square roots enter only through the exact
test  sqrt(a) + sqrt(b) <= sqrt(c)  <=>  a + b <= c  and
4ab <= (c - a - b)^2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .exact import frac, frac_str


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
    once, at construction; ``apply``, ``transpose_apply`` and ``compose``
    walk those terms only, so zero coefficients cost nothing and unit ones
    no product.  Every value is still the exact dense formula's.
    """

    rows: tuple       # tuple of coordinate rows (tuples of Fraction)
    offset: tuple

    def __post_init__(self):
        rows = tuple(tuple(frac(x) for x in r) for r in self.rows)
        offset = tuple(frac(x) for x in self.offset)
        if len(offset) != len(rows):
            raise RegionError("offset dimension mismatch")
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

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """self after inner."""
        if self.source_dim != inner.target_dim:
            raise RegionError("composition dimension mismatch")
        rows = []
        for terms in self._terms:
            # row i of the product is sum over k of A[i][k] * (row k of B)
            row = [Fraction(0)] * inner.source_dim
            for k, c in terms:
                for j, b in inner._terms[k]:
                    row[j] += b if c == 1 else c * b
            rows.append(tuple(row))
        offset = self.apply(inner.offset) if inner.rows else self.offset
        return AffineMap(tuple(rows), offset)

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

    def descriptor(self):
        return ("affine",
                tuple(tuple(frac_str(x) for x in r) for r in self.rows),
                tuple(frac_str(x) for x in self.offset))

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


@dataclass(frozen=True)
class OpenBall(Region):
    center: tuple
    sq_radius: Fraction

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(frac(c) for c in self.center))
        object.__setattr__(self, "sq_radius", frac(self.sq_radius))
        if self.sq_radius <= 0:
            raise RegionError("open balls need positive squared radius")


@dataclass(frozen=True)
class FiniteSpaceOpen(Region):
    points: frozenset

    def __post_init__(self):
        object.__setattr__(self, "points", frozenset(self.points))


@dataclass(frozen=True)
class Intersection(Region):
    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))


@dataclass(frozen=True)
class Polytope(Region):
    """Closed convex hull of finitely many rational points (covering sets)."""

    vertices: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "vertices",
            tuple(tuple(frac(c) for c in v) for v in self.vertices))


@dataclass(frozen=True)
class AffinePreimage(Region):
    map: AffineMap
    inner: Region


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
    # finite-space members intersect exactly
    finite = [m for m in out if isinstance(m, FiniteSpaceOpen)]
    if finite:
        pts = finite[0].points
        for m in finite[1:]:
            pts = pts & m.points
        rest = [m for m in out if not isinstance(m, FiniteSpaceOpen)]
        if not pts and not rest:
            return Empty()
        merged = FiniteSpaceOpen(pts)
        out = rest + [merged] if rest else [merged]
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
    if isinstance(region, FiniteSpaceOpen):
        return not region.points
    if isinstance(region, Polytope):
        return not region.vertices
    if isinstance(region, Intersection):
        return any(is_certainly_empty(m) for m in region.members) \
            or isinstance(intersection(region.members), Empty)
    return False


# ---------------------------------------------------------------------------
# membership

def contains_point(region: Region, x, cache=None) -> bool:
    """Exact membership.  PL points are coordinate tuples, finite-space
    points are labels; mixing realms raises.

    ``cache``, when given, is a dict the caller owns for the length of one
    computation.  It keeps the verdicts for ``Polytope`` and
    ``AffinePreimage`` regions, the two whose test costs more than hashing
    the ``(region, point)`` key (an LP, a map application).  A verdict is a
    function of the key alone, so a cached answer is the exact answer.
    """
    if isinstance(region, Ambient):
        return True
    if isinstance(region, Empty):
        return False
    if isinstance(region, OpenBall):
        return sqdist(region.center, x) < region.sq_radius
    if isinstance(region, FiniteSpaceOpen):
        if isinstance(x, tuple) and x and isinstance(x[0], Fraction):
            raise RegionError("coordinate point tested against a finite open")
        return x in region.points
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
    """x in conv(vertices): exact rational LP feasibility (phase 1).

    Affinely independent vertex sets (the common case: simplex faces and
    prisms over them) take a direct barycentric solve instead.
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
    if unique is not None:
        status, lam = unique
        if status == "inconsistent":
            return False
        if status == "unique":
            return all(l >= 0 for l in lam)
    return _lp_feasible(rows, rhs)


def _solve_unique(A, b):
    """Gaussian elimination: ('unique', x) / ('inconsistent', None) / None
    when the system is underdetermined."""
    m = len(A)
    n = len(A[0]) if m else 0
    T = [[frac(v) for v in A[i]] + [frac(b[i])] for i in range(m)]
    piv_cols = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if T[i][c] != 0), None)
        if piv is None:
            continue
        T[r], T[piv] = T[piv], T[r]
        pv = T[r][c]
        T[r] = [v / pv for v in T[r]]
        for i in range(m):
            if i != r and T[i][c] != 0:
                f = T[i][c]
                T[i] = [v - f * w for v, w in zip(T[i], T[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if T[i][-1] != 0:
            return ("inconsistent", None)
    if len(piv_cols) < n:
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(piv_cols):
        x[c] = T[i][-1]
    return ("unique", x)


def _lp_feasible(A, b) -> bool:
    m = len(A)
    n = len(A[0]) if m else 0
    T = []
    for i in range(m):
        row = [frac(v) for v in A[i]]
        bi = frac(b[i])
        if bi < 0:
            row = [-v for v in row]
            bi = -bi
        T.append(row + [Fraction(1 if j == i else 0) for j in range(m)] + [bi])
    basis = [n + i for i in range(m)]
    width = n + m + 1
    obj = [Fraction(0)] * width
    for j in range(width):
        obj[j] = -sum(T[i][j] for i in range(m))
    for i in range(m):
        obj[n + i] = Fraction(0)
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if best is None or ratio < best[0] or \
                        (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            return False
        piv = best[1]
        pv = T[piv][enter]
        T[piv] = [v / pv for v in T[piv]]
        for i in range(m):
            if i != piv and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [v - f * w for v, w in zip(T[i], T[piv])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [v - f * w for v, w in zip(obj, T[piv])]
        basis[piv] = enter
    return obj[-1] == 0


# ---------------------------------------------------------------------------
# inclusion

def ball_in_ball(inner: OpenBall, outer: OpenBall) -> bool:
    d = sqdist(inner.center, outer.center)
    return sqrtsum_leq(d, inner.sq_radius, outer.sq_radius)


def region_contains(outer: Region, inner: Region, cache=None) -> Tri:
    """Is inner a subset of outer?  Sound three-valued rule system.

    ``cache`` is handed to every membership test made on the way (see
    ``contains_point``)."""
    if isinstance(inner, Empty) or inner == outer:
        return Tri.TRUE
    if isinstance(outer, Ambient):
        return Tri.TRUE
    if isinstance(inner, FiniteSpaceOpen) or isinstance(outer, FiniteSpaceOpen):
        mi = _materialize_finite(inner)
        mo = _materialize_finite(outer)
        if mi is not None and mo is not None:
            return Tri.TRUE if mi <= mo else Tri.FALSE
        return Tri.UNKNOWN
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
                set(inner.vertices) <= set(outer.vertices):
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


def _materialize_finite(region: Region):
    if isinstance(region, FiniteSpaceOpen):
        return region.points
    if isinstance(region, Empty):
        return frozenset()
    if isinstance(region, Intersection):
        parts = [_materialize_finite(m) for m in region.members]
        if any(p is None for p in parts):
            return None
        out = parts[0]
        for p in parts[1:]:
            out = out & p
        return out
    return None


def _certainly_nonempty(region: Region) -> bool:
    if isinstance(region, (Ambient, OpenBall)):
        return True
    if isinstance(region, FiniteSpaceOpen):
        return bool(region.points)
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
        # |Ax + b - c|^2 = |x - A^T(c-b)|^2 + (|c-b|^2 - |A^T(c-b)|^2)
        cb = tuple(ci - bi for ci, bi in zip(region.center, f.offset))
        center = f.transpose_apply(cb)
        drop = sum(v * v for v in cb) - sum(v * v for v in center)
        sq = region.sq_radius - drop
        if sq <= 0:
            return Empty()
        return OpenBall(center, sq)
    return AffinePreimage(f, region)


def region_descriptor(region: Region):
    """Canonical, JSON-serializable structure."""
    if isinstance(region, Ambient):
        return ["ambient"]
    if isinstance(region, Empty):
        return ["empty"]
    if isinstance(region, OpenBall):
        return ["ball", [frac_str(c) for c in region.center],
                frac_str(region.sq_radius)]
    if isinstance(region, FiniteSpaceOpen):
        return ["finite-open", sorted(map(str, region.points))]
    if isinstance(region, Intersection):
        return ["intersection", [region_descriptor(m) for m in region.members]]
    if isinstance(region, Polytope):
        return ["polytope", [[frac_str(c) for c in v] for v in region.vertices]]
    if isinstance(region, AffinePreimage):
        return ["preimage", list(region.map.descriptor()),
                region_descriptor(region.inner)]
    raise RegionError(f"no descriptor for {region!r}")
