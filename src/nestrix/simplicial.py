"""Ordered simplicial complexes with exact rational realizations.

Faces carry vertex orderings compatible with restriction to subfaces, so
every face is a well-defined generator of the simplicial chain complex.
On top of that this module provides the chain-level operators:

* ``subdivide``      -- barycentric subdivision ``S`` with its chain map, by
  the cone formula S(v) = v, S(sigma) = sum_i (-1)^i b_sigma . S(d_i sigma)
  (b_sigma the barycenter, b . [w_0, ..., w_m] = [b, w_0, ..., w_m]),
* ``prism_complex``  -- the prism ``P`` on ``|K| x [a,b]`` with the standard
  chain homotopy between the two end inclusions,
* ``t_complex`` / ``t_n_complex`` -- the cone-built prism ``T`` (bottom
  subdivided once / n times) with its chain homotopy, by the cone formula
  T(sigma) = -(b_sigma, a) . (i_b sigma + T(d sigma)), so no exact solve
  runs here,
* ``mesh_sq``        -- exact squared facet-diameter bounds.

Chains are dicts generator -> nonzero int.  Every sum of chains goes
through one in-place accumulator, ``add_into``, and every linear extension
of per-generator chains through ``linear_image``; ``symbolic.FormalChain``
keeps its terms the same way.

Vertex ids may be ints, strings, Fractions, or nested tuples of those.
Two tuple shapes are reserved: ``("b", ids)`` for barycenter vertices
created by subdivision and ``(v, level)`` for product-complex vertices.
A face all at one level h has the barycenter ``(b, h)``, b that of its
base vertices, so subdivision commutes with ``product_at_level``:
S^n(K x {h}) is S^n(K) x {h} id for id, and complexes built on either side
of a level share its ids.  Only this module reads the shapes:
``realize_vertices`` turns a complex's ids into coordinates over a base
table, each distinct id once, and a ``Realization`` is a plain lookup, so
other modules read geometry from coordinates.

Sign conventions (fixed repo-wide):
    dP + Pd = (i_1)_* - (i_0)_*          (prism over [a, b]; i_0 at a)
    dT_n + T_n d = (i_0)_* S^n - (i_1)_* (bottom of T_n carries S^n)
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    FinChainComplex,
    IntMatrix,
    frac,
    frac_str,
)


class SimplicialError(Exception):
    pass


class OrderingConflict(SimplicialError):
    """Face orderings fail the restriction-compatibility requirement."""


# ---------------------------------------------------------------------------
# vertex ids

def vkey(v):
    """Total, deterministic sort key over the supported vertex id universe.

    Numbers key as themselves: ints and Fractions compare, test equal and
    hash by value, so ``(0, 1)`` and ``(0, Fraction(1))`` are one key and
    no Fraction needs to be built for an int id.
    """
    if isinstance(v, bool):
        raise SimplicialError("bool vertex ids are not supported")
    if isinstance(v, (int, Fraction)):
        return (0, v)
    if isinstance(v, str):
        return (1, v)
    if isinstance(v, tuple):
        return (2, tuple(vkey(x) for x in v))
    raise SimplicialError(f"unsupported vertex id {v!r}")


def bvertex(vertices):
    """Barycenter vertex id of a face; a 0-face's barycenter is itself.
    A face of ids ``(v, h)`` at one level h is ``(bvertex of the v's, h)``;
    any other, one spanning two levels included, is ``("b", ids)``."""
    vs = tuple(sorted(vertices, key=vkey))
    if len(vs) == 1:
        return vs[0]
    if all(is_level_vertex(v) for v in vs) and len({v[1] for v in vs}) == 1:
        return (bvertex(v[0] for v in vs), vs[0][1])
    return ("b", vs)


def is_bvertex(v):
    return isinstance(v, tuple) and len(v) == 2 and v[0] == "b" \
        and isinstance(v[1], tuple)


def is_level_vertex(v):
    return isinstance(v, tuple) and len(v) == 2 \
        and isinstance(v[1], (int, Fraction)) and not is_bvertex(v)


def sorted_faces(faces):
    """Faces by (size, vkeys of the sorted vertices), each vertex keyed once.

    This is the one face order of the package: complexes, covering
    validation, the opens and connected subsets of finite spaces and the
    covers of sheaf gluing all sort with it.  Sorting a face's keys equals
    keying its vertices in ``vkey`` order, and faces of one dimension share
    the size, so this is also the order by the key tuple alone.
    """
    faces = list(faces)
    keyed = {v: vkey(v) for v in {v for k in faces for v in k}}
    return sorted(faces, key=lambda k: (
        len(k), tuple(sorted([keyed[v] for v in k]))))


# ---------------------------------------------------------------------------
# chains: dict generator -> int

def add_into(out, chain, scale=1):
    """out += scale * chain in place, dropping zero coefficients; returns out.

    The one chain accumulator.  Keys are any hashable generators: faces of
    a complex or affine simplices.
    """
    for k, c in chain.items():
        c = out.get(k, 0) + scale * c
        if c:
            out[k] = c
        else:
            out.pop(k, None)
    return out


def linear_image(chain, image):
    """sum of c * image(k) over the chain {k: c}, built in one dict."""
    out = {}
    for k, c in chain.items():
        add_into(out, image(k), c)
    return out


def chain_add(a, b, scale=1):
    return add_into(dict(a), b, scale)


def chain_eq(a, b):
    return {k: c for k, c in a.items() if c} == {k: c for k, c in b.items() if c}


class OrderedSimplicialComplex:
    """Finite simplicial complex; every face stores its vertex ordering."""

    def __init__(self, faces, check=True):
        self.faces = {frozenset(k): tuple(v) for k, v in faces.items()}
        if check:
            self.validate()

    @classmethod
    def from_facets(cls, facets):
        """Closure of the given ordered faces under taking subfaces."""
        faces = {}
        for order in facets:
            order = tuple(order)
            if len(set(order)) != len(order):
                raise SimplicialError(f"repeated vertex in face {order!r}")
            stack = [order]
            while stack:
                cur = stack.pop()
                key = frozenset(cur)
                known = faces.get(key)
                if known is not None:
                    if known != cur:
                        raise OrderingConflict(
                            f"face {set(key)!r} received orderings "
                            f"{known!r} and {cur!r}")
                    continue
                faces[key] = cur
                if len(cur) > 1:
                    for i in range(len(cur)):
                        stack.append(cur[:i] + cur[i + 1:])
        return cls(faces, check=False)

    @classmethod
    def standard_simplex(cls, k, vertices=None):
        vs = tuple(range(k + 1)) if vertices is None else tuple(vertices)
        if len(vs) != k + 1:
            raise SimplicialError("vertex count does not match dimension")
        return cls.from_facets([vs])

    def validate(self):
        for key, order in self.faces.items():
            if frozenset(order) != key or len(set(order)) != len(order):
                raise SimplicialError(f"bad ordering {order!r} for {set(key)!r}")
            if len(order) > 1:
                for i in range(len(order)):
                    sub = order[:i] + order[i + 1:]
                    stored = self.faces.get(frozenset(sub))
                    if stored is None:
                        raise SimplicialError(
                            f"complex not closed: missing face {sub!r}")
                    if stored != sub:
                        raise OrderingConflict(
                            f"induced order {sub!r} != stored {stored!r}")

    # -- queries ------------------------------------------------------------

    def order(self, key):
        return self.faces[frozenset(key)]

    def dim(self):
        return max((len(k) for k in self.faces), default=0) - 1

    def vertices(self):
        return sorted((v for k in self.faces for v in k if len(k) == 1),
                      key=vkey)

    def faces_of_dim(self, d):
        return sorted_faces(k for k in self.faces if len(k) == d + 1)

    def all_faces(self):
        return sorted_faces(self.faces)

    def facets(self):
        non_maximal = set()
        for order in self.faces.values():
            if len(order) > 1:
                for i in range(len(order)):
                    non_maximal.add(frozenset(order[:i] + order[i + 1:]))
        return sorted_faces(k for k in self.faces if k not in non_maximal)

    def n_faces(self, d):
        return sum(1 for k in self.faces if len(k) == d + 1)

    # -- chains ---------------------------------------------------------------

    def boundary_of_face(self, key):
        order = self.order(key)
        if len(order) == 1:
            return {}
        out = {}
        for i in range(len(order)):
            sub = frozenset(order[:i] + order[i + 1:])
            out[sub] = out.get(sub, 0) + (-1) ** i
        return {k: c for k, c in out.items() if c}

    def boundary_chain(self, chain):
        return linear_image(chain, self.boundary_of_face)

    def basis(self, d):
        return self.faces_of_dim(d)

    def chain_complex(self) -> FinChainComplex:
        bases = [[] for _ in range(self.dim() + 1)]
        for key in sorted_faces(self.faces):
            bases[len(key) - 1].append(key)
        ranks = {d: len(keys) for d, keys in enumerate(bases)}
        boundaries = {}
        for d in range(1, len(bases)):
            index = {k: i for i, k in enumerate(bases[d - 1])}
            ncols = len(bases[d])
            data = [0] * (len(index) * ncols)
            for j, key in enumerate(bases[d]):
                for sub, c in self.boundary_of_face(key).items():
                    data[index[sub] * ncols + j] = c
            boundaries[d] = IntMatrix(len(index), ncols, data)
        # simplicial boundaries square to zero by construction; the tests
        # check d o d = 0 on every family of complexes the library builds
        return FinChainComplex(ranks, boundaries, check=False)

    # -- construction helpers -------------------------------------------------

    def subcomplex(self, keys):
        keys = {frozenset(k) for k in keys}
        for k in keys:
            if k not in self.faces:
                raise SimplicialError(f"{set(k)!r} is not a face")
        faces = {}
        stack = list(keys)
        while stack:
            k = stack.pop()
            if k in faces:
                continue
            faces[k] = self.faces[k]
            order = self.faces[k]
            if len(order) > 1:
                for i in range(len(order)):
                    stack.append(frozenset(order[:i] + order[i + 1:]))
        return OrderedSimplicialComplex(faces, check=False)

    def relabel(self, fn):
        faces = {}
        for order in self.faces.values():
            new = tuple(fn(v) for v in order)
            faces[frozenset(new)] = new
        if len(faces) != len(self.faces):
            raise SimplicialError("relabeling identified distinct faces")
        return OrderedSimplicialComplex(faces, check=False)

    def union(self, other):
        faces = dict(self.faces)
        for k, order in other.faces.items():
            if k in faces and faces[k] != order:
                raise OrderingConflict(
                    f"union conflict on {set(k)!r}: {faces[k]!r} vs {order!r}")
            faces[k] = order
        return OrderedSimplicialComplex(faces, check=False)

    def __eq__(self, other):
        return isinstance(other, OrderedSimplicialComplex) \
            and self.faces == other.faces

    def __hash__(self):
        return hash(frozenset(self.faces.items()))


# ---------------------------------------------------------------------------
# chain maps and homotopies

@dataclass
class SimplicialChainMap:
    """Per-face chains in the target; degree shift 0 (map) or +1 (homotopy)."""

    source: OrderedSimplicialComplex
    target: OrderedSimplicialComplex
    degree_shift: int
    values: dict

    def apply(self, chain):
        return linear_image(chain, lambda key: self.values[frozenset(key)])

    def verify_chain_map(self):
        if self.degree_shift != 0:
            raise SimplicialError("not a degree-0 map")
        for key in self.source.faces:
            lhs = self.target.boundary_chain(self.values[key])
            rhs = self.apply(self.source.boundary_of_face(key))
            if not chain_eq(lhs, rhs):
                raise SimplicialError(f"chain-map identity fails at {set(key)!r}")

    def verify_homotopy(self, f, g):
        """Exact check of d h + h d = f - g, with f, g: face -> target chain."""
        if self.degree_shift != 1:
            raise SimplicialError("not a degree +1 homotopy")
        for key in self.source.faces:
            lhs = self.target.boundary_chain(self.values[key])
            add_into(lhs, self.apply(self.source.boundary_of_face(key)))
            rhs = chain_add(f(key), g(key), -1)
            if not chain_eq(lhs, rhs):
                raise SimplicialError(f"homotopy identity fails at {set(key)!r}")


def compose_chain_maps(outer: SimplicialChainMap, inner: SimplicialChainMap):
    values = {k: outer.apply(v) for k, v in inner.values.items()}
    return SimplicialChainMap(inner.source, outer.target,
                              inner.degree_shift + outer.degree_shift, values)


# ---------------------------------------------------------------------------
# realizations

class Realization:
    """Exact rational coordinates for the vertices of a complex."""

    def __init__(self, coords):
        self.coords = {v: tuple(frac(x) for x in pt) for v, pt in coords.items()}
        dims = {len(pt) for pt in self.coords.values()}
        if len(dims) > 1:
            raise SimplicialError("inconsistent coordinate dimensions")
        self.dim = dims.pop() if dims else 0

    def point(self, v):
        try:
            return self.coords[v]
        except KeyError:
            raise SimplicialError(
                f"vertex {v!r} has no point in this realization") from None

    def barycenter(self, face_key_or_order):
        return barycenter([self.point(v) for v in face_key_or_order])

    def sqdist(self, p, q):
        if len(p) != len(q):
            raise SimplicialError("point dimension mismatch")
        return sum((a - b) ** 2 for a, b in zip(p, q))

    def extended_to(self, complex_):
        return Realization({**self.coords,
                            **realize_vertices(complex_, self.coords)})


def barycenter(pts):
    """Exact barycenter of a nonempty list of equal-length points."""
    n = len(pts)
    return tuple(sum(p[i] for p in pts) / n for i in range(len(pts[0])))


def realize_vertices(complex_, base):
    """Coordinates of every vertex of ``complex_`` over the table ``base``.

    This is the one place ids become coordinates: an id in ``base`` keeps
    its point, ``("b", ids)`` is the barycenter of its members and
    ``(v, level)`` is v's point with the level appended, but a one-level
    barycenter ``(("b", ys), level)`` is that of the ``(y, level)``, so
    subdivided level ids resolve over a table of level ids alone.  Every
    distinct id, nested members included, is computed once, in a table
    that lives for the call; only the complex's own vertices are returned,
    so a table of derived ids may have one coordinate more than ``base``.
    """
    table = dict(base)

    def point(v):
        pt = table.get(v)
        if pt is None:
            if is_bvertex(v):
                pt = barycenter([point(x) for x in v[1]])
            elif is_level_vertex(v):
                x, level = v
                pt = barycenter([point((y, level)) for y in x[1]]) \
                    if is_bvertex(x) else point(x) + (frac(level),)
            else:
                raise SimplicialError(f"cannot resolve coordinates of {v!r}")
            table[v] = pt
        return pt

    return {v: point(v) for key in complex_.faces if len(key) == 1
            for v in key}


# ---------------------------------------------------------------------------
# barycentric subdivision

@dataclass
class SubdivisionResult:
    complex: OrderedSimplicialComplex
    chain_map: SimplicialChainMap


def _flag_facets(complex_, key, memo):
    """Full flags under ``key`` as (apex-first tuple, sign) pairs; the signs
    multiply the (-1)^i of the cone formula, so the pairs sum to S(key)."""
    if key in memo:
        return memo[key]
    order = complex_.order(key)
    if len(order) == 1:
        out = [(order, 1)]
    else:
        apex = bvertex(key)
        out = []
        for i in range(len(order)):
            sub = frozenset(order[:i] + order[i + 1:])
            for f, sign in _flag_facets(complex_, sub, memo):
                out.append(((apex,) + f, (-1) ** i * sign))
    memo[key] = out
    return out


def subdivide(K: OrderedSimplicialComplex) -> SubdivisionResult:
    """Barycentric subdivision with its chain map."""
    flags = {}
    # distinct flags span distinct faces, so no coefficient cancels
    values = {key: {frozenset(f): sign
                    for f, sign in _flag_facets(K, key, flags)}
              for key in K.faces}
    SK = OrderedSimplicialComplex.from_facets(
        [f for key in K.facets() for f, _ in flags[key]])
    return SubdivisionResult(SK, SimplicialChainMap(K, SK, 0, values))


def subdivision_levels(K):
    """(subdivisions, composed chain map) for S^n K, n = 0, 1, ...

    Each level subdivides the previous level's complex once.
    """
    results = []
    chain_map = SimplicialChainMap(K, K, 0, {k: {k: 1} for k in K.faces})
    while True:
        yield list(results), chain_map
        res = subdivide(results[-1].complex if results else K)
        chain_map = compose_chain_maps(res.chain_map, chain_map) \
            if results else res.chain_map
        results.append(res)


def check_depth(n, what="subdivision depth", error=SimplicialError):
    """Raise ``error`` unless n is an int >= 0; bools are rejected too."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise error(f"{what} must be an int >= 0, got {n!r}")


def iterate_subdivide(K, n):
    """n-fold subdivision: (list of complexes, composed chain map)."""
    check_depth(n)
    return next(itertools.islice(subdivision_levels(K), n, None))


# ---------------------------------------------------------------------------
# prisms

def product_at_level(K, level):
    """Relabel K with (v, level) vertices."""
    lv = frac(level)
    return K.relabel(lambda v: (v, lv))


def prism_complex(K, a=0, b=1):
    """P(K) on |K| x [a, b] plus the chain homotopy P.

    Both boundary restrictions are (relabeled) K; the homotopy satisfies
    dP + Pd = (i_b)_* - (i_a)_*.
    """
    a, b = frac(a), frac(b)
    if a == b:
        raise SimplicialError("prism needs a nondegenerate interval")
    facets = []
    values = {}
    for key in K.faces:
        order = K.order(key)
        k = len(order) - 1
        vs = [(v, a) for v in order]
        ws = [(v, b) for v in order]
        chain = {}
        for i in range(k + 1):
            f = tuple(vs[:i + 1] + ws[i:])
            facets.append(f)
            chain[frozenset(f)] = chain.get(frozenset(f), 0) + (-1) ** i
        values[key] = {kk: c for kk, c in chain.items() if c}
    PK = OrderedSimplicialComplex.from_facets(facets)
    P = SimplicialChainMap(K, PK, 1, values)
    return PK, P


def _t_facets(K, key, a, b, memo):
    """Facets of T over a face: cones from the bottom barycenter."""
    if key in memo:
        return memo[key]
    order = K.order(key)
    if len(order) == 1:
        v = order[0]
        out = [((v, a), (v, b))]
    else:
        apex = (bvertex(key), a)
        out = [(apex,) + tuple((v, b) for v in order)]
        for i in range(len(order)):
            sub = frozenset(order[:i] + order[i + 1:])
            for f in _t_facets(K, sub, a, b, memo):
                out.append((apex,) + f)
    memo[key] = out
    return out


def t_complex(K, a=0, b=1):
    """T(K) on |K| x [a, b]: bottom is S(K), top is K, glued by cones.

    Returns (complex, homotopy T, bottom subdivision result).  The homotopy
    satisfies dT + Td = (i_a)_* S - (i_b)_*, with i_a, i_b the level
    inclusions after relabeling.  It is the cone formula (Hatcher,
    *Algebraic Topology*, 2002, proof of Prop. 2.21)

        T(sigma) = -(b_sigma, a) . (i_b sigma + T(d sigma)),

    built subfaces first; on a vertex T(v) = -[(v, a), (v, b)].  Every
    (d+1)-face of sigma's cone piece contains the apex (b_sigma, a), and a
    cone has no nonzero top-dimensional cycles, so this is the only filler
    of dT(sigma) = i_a S(sigma) - i_b(sigma) - T(d sigma) in that piece.
    """
    a, b = frac(a), frac(b)
    if a == b:
        raise SimplicialError("prism needs a nondegenerate interval")
    memo = {}
    facets = []
    for key in K.facets():
        facets.extend(_t_facets(K, key, a, b, memo))
    TK = OrderedSimplicialComplex.from_facets(facets)

    values = {}
    for key in K.all_faces():
        # i_b key + T(d key); the apex leads every face of key's cone
        # piece, so apex . f keeps the stored order of f and takes no sign
        chain = {frozenset((v, b) for v in key): 1}
        for skey, c in K.boundary_of_face(key).items():
            add_into(chain, values[skey], c)
        apex = (bvertex(key), a)
        values[key] = {f | {apex}: -c for f, c in chain.items()}
    T = SimplicialChainMap(K, TK, 1, values)
    return TK, T, subdivide(K)


def t_n_complex(K, n, a=0, b=1):
    """T_n(K): n stacked copies of T over successively subdivided complexes.

    Returns (complex, homotopy T_n, subdivision results bottom-up).  The
    bottom restriction is S^n(K) at level a, the top is K at level b;
    dT_n + T_n d = (i_a)_* S^n - (i_b)_*.
    """
    check_depth(n)
    if n < 1:
        raise SimplicialError("t_n_complex needs n >= 1")
    a, b = frac(a), frac(b)
    levels = [a + (b - a) * Fraction(i, n) for i in range(n + 1)]
    total = None
    piece_maps = []
    subs = []
    base = K
    for i in range(1, n + 1):
        # piece i spans [levels[n-i], levels[n-i+1]] over S^{i-1}(K); its
        # bottom subdivision is S^i(K)
        TK, T, sub = t_complex(base, levels[n - i], levels[n - i + 1])
        piece_maps.append(T)
        subs.append(sub)
        total = TK if total is None else total.union(TK)
        base = sub.complex
    # chain homotopy: T_n(x) = sum_i T^(i)(S^{i-1}(x))
    values = {}
    for key in K.faces:
        chain = {key: 1}
        acc = {}
        for i in range(n):
            # chain currently lives in S^i(K)
            add_into(acc, piece_maps[i].apply(chain))
            if i < n - 1:
                chain = subs[i].chain_map.apply(chain)
        values[key] = acc
    Tn = SimplicialChainMap(K, total, 1, values)
    return total, Tn, subs


# ---------------------------------------------------------------------------
# mesh bounds

def mesh_sq(K: OrderedSimplicialComplex, R: Realization) -> Fraction:
    """Max over facets of the max pairwise squared vertex distance."""
    best = Fraction(0)
    for key in K.facets():
        pts = [R.point(v) for v in key]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d = R.sqdist(pts[i], pts[j])
                if d > best:
                    best = d
    return best


def _sq_mesh(pts):
    """Largest squared distance between two of the integer points."""
    return max((sum((a - b) ** 2 for a, b in zip(p, q))
                for p, q in itertools.combinations(pts, 2)), default=0)


def iterated_mesh_sq(points, n) -> Fraction:
    """mesh_sq of the n-fold subdivision of the simplex on ``points``.

    Walks the subdivision tree depth first on scaled integer coordinates,
    without materializing the complex.  A node's children, one per vertex
    ordering, are its prefix barycenters scaled by L = lcm(1..k+1), so every
    leaf has the scale denom * L**n and leaves compare as integers.

    The walk prunes with the contraction lemma (Hatcher, *Algebraic
    Topology*, proof of Prop. 2.21): every simplex of S(sigma) has diameter
    at most k/(k+1) diam(sigma), degenerate sigma included.  In the child's
    scale that makes a child's squared mesh at most c**2 times its
    parent's, with c = L*k/(k+1) an integer because k+1 divides L.  So no
    leaf r levels below a node of squared mesh m exceeds m * c**(2r).  A
    node whose bound is <= the best leaf so far cannot raise the maximum,
    so skipping it leaves the answer exact.  Children are pushed in
    ascending mesh order, so the largest is expanded first.
    """
    check_depth(n)
    pts = [tuple(frac(c) for c in p) for p in points]
    if not pts:
        raise SimplicialError("iterated_mesh_sq needs at least one point")
    if len({len(p) for p in pts}) > 1:
        raise SimplicialError("point dimension mismatch")
    denom = math.lcm(*(c.denominator for p in pts for c in p))
    scaled = tuple(tuple(int(c * denom) for c in p) for p in pts)
    k = len(pts) - 1
    L = math.lcm(*range(1, k + 2))
    bound = [(L * k // (k + 1)) ** (2 * r) for r in range(n + 1)]
    best = 0
    stack = [(_sq_mesh(scaled), scaled, n)]
    while stack:
        m, cur, r = stack.pop()
        if m * bound[r] <= best:
            continue
        if r == 0:
            best = m
            continue
        children = []
        for perm in itertools.permutations(cur):
            acc = (0,) * len(perm[0])
            fac = []
            for j, p in enumerate(perm, start=1):
                acc = tuple(a + b for a, b in zip(acc, p))
                # prefix barycenter of the first j points, times L
                fac.append(tuple(a * (L // j) for a in acc))
            children.append((_sq_mesh(fac), tuple(fac), r - 1))
        children.sort(key=lambda child: child[0])
        stack.extend(children)
    return Fraction(best, (denom * L ** n) ** 2)


# ---------------------------------------------------------------------------
# random complexes (test corpus)

def random_complex(seed, max_vertices=6, max_facets=4, max_dim=3):
    """Seeded random ordered complex; orderings induced by a global order."""
    rng = random.Random(seed)
    nv = rng.randint(1, max_vertices)
    facets = []
    for _ in range(rng.randint(1, max_facets)):
        d = rng.randint(0, min(max_dim, nv - 1))
        verts = sorted(rng.sample(range(nv), d + 1))
        facets.append(tuple(verts))
    return OrderedSimplicialComplex.from_facets(facets)


# ---------------------------------------------------------------------------
# text format

def format_complex(K: OrderedSimplicialComplex) -> str:
    lines = []
    for key in K.facets():
        lines.append(" ".join(str(v) for v in K.order(key)))
    return "\n".join(lines) + "\n"


_INTEGER = re.compile(r"-?[0-9]+")


def content_lines(text: str):
    """(line number, stripped line) for every non-blank, non-comment line."""
    return [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1)
            if ln.strip() and not ln.strip().startswith("#")]


def parse_token(tok: str, no: int, error):
    """A vertex or point name: an integer (``-?digits``) or an identifier.

    Any other token raises ``error`` naming line ``no`` and the token.
    """
    if _INTEGER.fullmatch(tok):
        return int(tok)
    if tok.isidentifier():
        return tok
    raise error(f"line {no}: cannot parse token {tok!r}")


def parse_complex(text: str) -> OrderedSimplicialComplex:
    facets = [tuple(parse_token(t, no, SimplicialError) for t in line.split())
              for no, line in content_lines(text)]
    if not facets:
        raise SimplicialError("no faces in complex file")
    return OrderedSimplicialComplex.from_facets(facets)


def format_realization(R: Realization) -> str:
    lines = []
    for v in sorted(R.coords, key=vkey):
        coords = " ".join(frac_str(x) for x in R.coords[v])
        lines.append(f"{v}: {coords}")
    return "\n".join(lines) + "\n"


def _parse_coordinate(tok: str, no: int) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise SimplicialError(
            f"line {no}: cannot parse coordinate {tok!r}") from None


def parse_realization(text: str) -> Realization:
    """``name: x_1 ... x_d`` lines, one per vertex, all of one d >= 1."""
    coords = {}
    for no, line in content_lines(text):
        name, _, rest = line.partition(":")
        v = parse_token(name.strip(), no, SimplicialError)
        pt = tuple(_parse_coordinate(t, no) for t in rest.split())
        if v in coords:
            raise SimplicialError(f"line {no}: repeated vertex {v!r}")
        if not pt:
            raise SimplicialError(f"line {no}: no coordinates for {v!r}")
        if coords and len(pt) != len(next(iter(coords.values()))):
            raise SimplicialError(f"line {no}: {len(pt)} coordinates for "
                                  f"{v!r}, unlike the first point")
        coords[v] = pt
    return Realization(coords)
