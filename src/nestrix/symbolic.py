"""Symbolic singular simplices and formal integer chains.

A symbolic simplex is a construction tree that can be evaluated exactly at
any rational barycentric parameter:

* ``AffineSimplex``  -- affine on its (possibly repeated or dependent)
  vertex points; degenerate constant simplices are legitimate members,
* ``PushforwardSimplex`` -- an affine map applied to a child (normalized:
  affine children are mapped through, nested pushforwards compose),
* ``ConeSimplex``    -- the cone with a fixed rational apex.

Formal faces are again symbolic simplices with canonical keys, so formal
boundaries cancel structurally.  A ``FormalChain`` is a thin layer over a
dict simplex -> int: its terms are summed by ``simplicial.add_into``, the
one chain accumulator, and ``FormalChain.image`` is the linear extension
of a map sending each generator to one simplex.  Small-chain membership of
a symbolic simplex is decided through certificates: affine pieces by exact
vertex tests, pushforwards by pulling the region back, cones by their
apex and base.  An undecided containment fails closed.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import frac
from .nesting import NestingOracle, UnknownContainment, small_chain_tests
from .regions import (
    AffineMap,
    Region,
    Tri,
    contains_point,
    is_convex,
    preimage_region,
    simplex_in_region,
)
from .simplicial import add_into, linear_image


class SymbolicError(Exception):
    pass


class SymbolicSimplex:
    dim: int
    _hash = None    # hash of the key, computed on first use

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, SymbolicSimplex) and self._key == other._key

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._key)
        return self._hash

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
        self.terms = add_into({}, terms or {})
        dims = {s.dim for s in self.terms}
        if dim is not None:
            dims.add(dim)
        if len(dims) > 1:
            raise SymbolicError("mixed degrees in a formal chain")
        self.dim = dims.pop() if dims else None

    @classmethod
    def single(cls, simplex, coeff=1):
        return cls({simplex: coeff}, dim=simplex.dim)

    @classmethod
    def zero(cls, dim=None):
        return cls({}, dim=dim)

    @classmethod
    def image(cls, chain, fn):
        """sum of c * fn(k) over the chain {k: c}, fn(k) one simplex;
        coefficients of generators with the same image add up."""
        return cls(linear_image(chain, lambda k: {fn(k): 1}))

    def add(self, other, scale=1):
        """self + scale * other; ``other`` may be a bare simplex."""
        if not isinstance(other, FormalChain):
            other = FormalChain.single(other)
        return FormalChain(add_into(dict(self.terms), other.terms, scale),
                           dim=other.dim if self.dim is None else self.dim)

    def boundary(self) -> "FormalChain":
        if not self.dim:
            return FormalChain.zero()
        out = {}
        for s, c in self.terms.items():
            for i in range(s.dim + 1):
                add_into(out, {s.face(i): c * (-1) ** i})
        return FormalChain(out, dim=self.dim - 1)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, FormalChain) and self.terms == other.terms

    def __repr__(self):
        return f"FormalChain(dim={self.dim}, {len(self.terms)} terms)"

    def push(self, map_: AffineMap):
        return FormalChain.image(self.terms, lambda s: pushforward(map_, s))


# ---------------------------------------------------------------------------
# small-chain membership for symbolic chains

def image_in_region(simplex: SymbolicSimplex, region: Region) -> Tri:
    """Is the simplex's image inside the region?  Sound, three-valued."""
    if isinstance(simplex, AffineSimplex):
        return simplex_in_region(simplex.points, region)
    if isinstance(simplex, PushforwardSimplex):
        return image_in_region(simplex.child,
                               preimage_region(simplex.map, region))
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
    """Small-chain membership by face-coface pairs (see
    ``nesting.small_chain_tests``): each face's image must lie in eta at
    the coface's barycenter, which decides the condition on every strict
    face chain ending at the simplex.  FALSE if any test is FALSE, else
    UNKNOWN if any is undecided."""
    tests = small_chain_tests(simplex.dim + 1)
    subs = {t: _subsimplex(simplex, t) for _, t in tests}
    barys = {}
    verdict = Tri.TRUE
    for face, coface in tests:
        if coface not in barys:
            barys[coface] = subs[coface].barycenter()
        res = image_in_region(subs[face], eta.region((barys[coface],)))
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
