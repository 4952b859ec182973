"""Formal integer chains of affine simplices.

An ``AffineSimplex`` is affine on its vertex points, which may repeat or
be dependent: degenerate and constant simplices are legitimate members.
Its faces drop one point, so formal boundaries cancel by point tuple, and
an affine map sends it to the simplex on the images of its points.  Every
chain the small-chain projection and the boundary construction build is a
formal chain of such simplices: the projection off the mapping cylinder,
the cone fillers with a fixed apex and the pushforward along a simplex's
chart all map points to points.

A ``FormalChain`` is a thin layer over a dict simplex -> int: its terms
are summed by ``simplicial.add_into``, the one chain accumulator, and
``FormalChain.image`` is the linear extension of a map sending each
generator to one simplex.  Small-chain membership of a chain asks
``nesting.in_c_eta`` of each simplex's points; an undecided containment
fails closed.
"""

from __future__ import annotations

from .exact import frac
from .nesting import NestingOracle, in_c_eta
from .regions import AffineMap
from .simplicial import add_into, linear_image


class SymbolicError(Exception):
    pass


class AffineSimplex:
    """The affine simplex on ``points``; equal point tuples, equal
    simplices."""

    def __init__(self, points):
        self.points = tuple(tuple(frac(c) for c in p) for p in points)
        if not self.points:
            raise SymbolicError("affine simplex needs at least one point")
        self.dim = len(self.points) - 1
        self._hash = hash(self.points)

    def __eq__(self, other):
        return isinstance(other, AffineSimplex) and self.points == other.points

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<AffineSimplex dim={self.dim}>"

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


class FormalChain:
    """Integer combination of affine simplices in one degree."""

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
        """The chain with each simplex's points mapped through ``map_``."""
        return FormalChain.image(self.terms, lambda s: AffineSimplex(
            [map_.apply(p) for p in s.points]))


def chain_in_c_eta(chain: FormalChain, eta: NestingOracle) -> bool:
    """Is every simplex of the chain small (``nesting.in_c_eta``)?  False
    at the first one that is not; UnknownContainment at the first one
    undecided before that."""
    return all(in_c_eta(s.points, eta) for s in chain.terms)
