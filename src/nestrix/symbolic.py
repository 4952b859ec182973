"""Symbolic singular simplices and formal integer chains.

A symbolic simplex is a construction tree that can be evaluated exactly at
any rational barycentric parameter:

* ``AffineSimplex``  -- affine on its (possibly repeated or dependent)
  vertex points; degenerate constant simplices are legitimate members,
* ``DeformedFace``   -- the skeleton-recursive radial deformation of a
  complex face subject to a compatible covering (straight-line homotopies
  inside the convex covering sets),
* ``PushforwardSimplex`` -- an affine map applied to a child (normalized:
  affine children are mapped through, nested pushforwards compose),
* ``ConeSimplex``    -- the cone with a fixed rational apex.

Formal faces are again symbolic simplices with canonical keys, so formal
boundaries cancel structurally; chains are dictionaries keyed by those
canonical keys.  Small-chain membership of a symbolic simplex is decided
through certificates: affine pieces by exact vertex tests, deformed
pieces through their covering sets, pushforwards by pulling the region
back.  An undecided containment fails closed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .exact import frac
from .nesting import NestingOracle, UnknownContainment, face_chains_to_top
from .regions import (
    AffineMap,
    Region,
    Tri,
    contains_point,
    is_convex,
    preimage_region,
    region_contains,
    simplex_in_region,
)


class SymbolicError(Exception):
    pass


class SymbolicSimplex:
    dim: int

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, SymbolicSimplex) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"<{type(self).__name__} dim={self.dim}>"

    def barycenter(self):
        n = self.dim + 1
        return self.evaluate(tuple(Fraction(1, n) for _ in range(n)))


class AffineSimplex(SymbolicSimplex):
    def __init__(self, points):
        self.points = tuple(tuple(frac(c) for c in p) for p in points)
        if not self.points:
            raise SymbolicError("affine simplex needs at least one point")
        self.dim = len(self.points) - 1
        self._key = ("affine", self.points)

    def evaluate(self, lam):
        lam = tuple(frac(c) for c in lam)
        if len(lam) != self.dim + 1:
            raise SymbolicError("barycentric parameter length mismatch")
        d = len(self.points[0])
        return tuple(sum(lam[i] * self.points[i][j]
                         for i in range(len(self.points)))
                     for j in range(d))

    def face(self, i):
        return AffineSimplex(self.points[:i] + self.points[i + 1:])


class DeformedFace(SymbolicSimplex):
    """The deformation of one complex face under a compatible covering.

    Radial rule: a parameter decomposes as the segment from the barycenter
    to a boundary point; the boundary evaluates recursively, the segment
    maps onto the straight line toward the covering's target point.
    """

    def __init__(self, covering, face_key):
        self.covering = covering
        self.face_key = frozenset(face_key)
        order = covering.complex.order(self.face_key)
        self.order = order
        self.dim = len(order) - 1
        self._key = ("deform", covering.uid, tuple(sorted(
            map(repr, self.face_key))))

    def evaluate(self, lam):
        lam = tuple(frac(c) for c in lam)
        k = self.dim
        if len(lam) != k + 1:
            raise SymbolicError("barycentric parameter length mismatch")
        cov = self.covering
        if k == 0:
            return cov.t(self.face_key)
        m = min(lam)
        s = 1 - (k + 1) * m
        t_point = cov.t(self.face_key)
        if s == 0:
            return t_point
        # boundary hit of the ray from the barycenter through lam
        b = Fraction(1, k + 1)
        mu = tuple(b + (l - b) / s for l in lam)
        support = tuple(i for i, c in enumerate(mu) if c != 0)
        sub_order = tuple(self.order[i] for i in support)
        sub = deformed(cov, frozenset(sub_order))
        boundary_value = sub.evaluate(tuple(mu[i] for i in support))
        u = 1 - s
        return tuple((1 - u) * bv + u * tp
                     for bv, tp in zip(boundary_value, t_point))

    def face(self, i):
        sub = self.order[:i] + self.order[i + 1:]
        return deformed(self.covering, frozenset(sub))

    def bounding_region(self) -> Region:
        return self.covering.W(self.face_key)


def deformed(covering, face_key):
    """Factory honoring the identity shortcut: faces whose subfaces all
    pin the target at the barycenter map to themselves."""
    face_key = frozenset(face_key)
    if covering.is_identity_on(face_key):
        order = covering.complex.order(face_key)
        return AffineSimplex([covering.realization.point(v) for v in order])
    return DeformedFace(covering, face_key)


class PushforwardSimplex(SymbolicSimplex):
    def __init__(self, map_: AffineMap, child: SymbolicSimplex):
        self.map = map_
        self.child = child
        self.dim = child.dim
        self._key = ("push", map_.descriptor(), child.key())

    def evaluate(self, lam):
        return self.map.apply(self.child.evaluate(lam))

    def face(self, i):
        return pushforward(self.map, self.child.face(i))


def pushforward(map_: AffineMap, simplex: SymbolicSimplex) -> SymbolicSimplex:
    if isinstance(simplex, AffineSimplex):
        return AffineSimplex([map_.apply(p) for p in simplex.points])
    if isinstance(simplex, PushforwardSimplex):
        return pushforward(map_.compose(simplex.map), simplex.child)
    return PushforwardSimplex(map_, simplex)


class ConeSimplex(SymbolicSimplex):
    """Cone with apex a fixed point; face 0 is the base."""

    def __init__(self, apex, child: SymbolicSimplex):
        self.apex = tuple(frac(c) for c in apex)
        self.child = child
        self.dim = child.dim + 1
        self._key = ("cone", self.apex, child.key())

    def evaluate(self, lam):
        lam = tuple(frac(c) for c in lam)
        lam0 = lam[0]
        if lam0 == 1:
            return self.apex
        rest = tuple(c / (1 - lam0) for c in lam[1:])
        base = self.child.evaluate(rest)
        return tuple(lam0 * a + (1 - lam0) * b
                     for a, b in zip(self.apex, base))

    def face(self, i):
        if i == 0:
            return self.child
        return cone_simplex(self.apex, self.child.face(i - 1))


def cone_simplex(apex, simplex: SymbolicSimplex) -> SymbolicSimplex:
    if isinstance(simplex, AffineSimplex):
        return AffineSimplex([tuple(frac(c) for c in apex)] +
                             list(simplex.points))
    return ConeSimplex(apex, simplex)


# ---------------------------------------------------------------------------
# formal chains

class FormalChain:
    """Integer combination of symbolic simplices in one degree."""

    def __init__(self, terms=None, dim=None):
        self.terms = {}
        self.dim = dim
        if terms:
            for s, c in (terms.items() if isinstance(terms, dict) else terms):
                self._add(s, c)

    def _add(self, simplex, coeff):
        if coeff == 0:
            return
        if self.dim is None:
            self.dim = simplex.dim
        elif simplex.dim != self.dim:
            raise SymbolicError("mixed degrees in a formal chain")
        cur = self.terms.get(simplex, 0) + coeff
        if cur == 0:
            self.terms.pop(simplex, None)
        else:
            self.terms[simplex] = cur

    @classmethod
    def single(cls, simplex, coeff=1):
        return cls({simplex: coeff}, dim=simplex.dim)

    @classmethod
    def zero(cls, dim=None):
        return cls({}, dim=dim)

    def add(self, other, scale=1):
        out = FormalChain(self.terms, dim=self.dim)
        if isinstance(other, FormalChain):
            if other.dim is not None and out.dim is None:
                out.dim = other.dim
            for s, c in other.terms.items():
                out._add(s, scale * c)
        else:
            out._add(other, scale)
        return out

    def scale(self, s):
        if s == 0:
            return FormalChain.zero(self.dim)
        return FormalChain({k: s * c for k, c in self.terms.items()},
                           dim=self.dim)

    def boundary(self) -> "FormalChain":
        if self.dim == 0 or self.dim is None:
            return FormalChain.zero(self.dim - 1 if self.dim else None)
        out = FormalChain.zero(self.dim - 1)
        for s, c in self.terms.items():
            for i in range(s.dim + 1):
                out._add(s.face(i), c * (-1) ** i)
        return out

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, FormalChain) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((k.key(), c) for k, c in self.terms.items()))

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return f"FormalChain(dim={self.dim}, {len(self.terms)} terms)"

    def map(self, fn):
        out = FormalChain.zero(None)
        for s, c in self.terms.items():
            out = out.add(fn(s), c)
        return out

    def push(self, map_: AffineMap):
        return FormalChain({pushforward(map_, s): c
                            for s, c in self.terms.items()} or {},
                           dim=self.dim)


def chains_equal(a: FormalChain, b: FormalChain) -> bool:
    return a.terms == b.terms


# ---------------------------------------------------------------------------
# small-chain membership for symbolic chains

def image_in_region(simplex: SymbolicSimplex, region: Region) -> Tri:
    """Is the simplex's image inside the region?  Sound, three-valued."""
    if isinstance(simplex, AffineSimplex):
        return simplex_in_region(simplex.points, region)
    if isinstance(simplex, PushforwardSimplex):
        return image_in_region(simplex.child,
                               preimage_region(simplex.map, region))
    if isinstance(simplex, DeformedFace):
        inside = region_contains(region, simplex.bounding_region())
        if inside is Tri.TRUE:
            return Tri.TRUE
        # the covering set may overshoot the actual image: stay undecided
        if not contains_point(region, simplex.barycenter()):
            return Tri.FALSE
        return Tri.UNKNOWN
    if isinstance(simplex, ConeSimplex):
        if not contains_point(region, simplex.apex):
            return Tri.FALSE
        base = image_in_region(simplex.child, region)
        if base is Tri.FALSE:
            return Tri.FALSE
        if base is Tri.TRUE and is_convex(region):
            return Tri.TRUE
        return Tri.UNKNOWN
    return Tri.UNKNOWN


def _subsimplex(simplex: SymbolicSimplex, indices):
    """Iterated face on the ordered index subset (ascending)."""
    cur = simplex
    remaining = list(range(simplex.dim + 1))
    drop = sorted(set(remaining) - set(indices), reverse=True)
    for i in drop:
        cur = cur.face(remaining.index(i))
        remaining.remove(i)
    return cur


def symbolic_in_c_eta(simplex: SymbolicSimplex, eta: NestingOracle) -> Tri:
    """Small-chain membership via proper face chains ending at the simplex."""
    k = simplex.dim
    full = tuple(range(k + 1))
    subs = {}
    for size in range(1, k + 2):
        for S in itertools.combinations(full, size):
            subs[S] = _subsimplex(simplex, S)
    chains = face_chains_to_top(full)
    verdict = Tri.TRUE
    for chain in chains:
        barys = [subs[S].barycenter() for S in chain]
        region = eta.region(barys)
        res = image_in_region(subs[chain[0]], region)
        if res is Tri.FALSE:
            return Tri.FALSE
        if res is Tri.UNKNOWN:
            verdict = Tri.UNKNOWN
    return verdict


def chain_in_c_eta(chain: FormalChain, eta: NestingOracle) -> bool:
    for s in chain.terms:
        res = symbolic_in_c_eta(s, eta)
        if res is Tri.FALSE:
            return False
        if res is Tri.UNKNOWN:
            raise UnknownContainment(
                f"cannot certify small-chain membership of {s!r}")
    return True
