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
  subdivided once / n times) with its chain homotopy,
* ``mesh_sq``        -- exact squared facet-diameter bounds.

Vertex ids may be ints, strings, Fractions, or nested tuples of those.
Two tuple shapes are reserved: ``("b", ids)`` for barycenter vertices
created by subdivision and ``(v, level)`` for product-complex vertices.

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
    NotABoundary,
    frac,
    frac_str,
    solve_boundary,
)


class SimplicialError(Exception):
    pass


class OrderingConflict(SimplicialError):
    """Face orderings fail the restriction-compatibility requirement."""


# ---------------------------------------------------------------------------
# vertex ids

def vkey(v):
    """Total, deterministic sort key over the supported vertex id universe."""
    if isinstance(v, bool):
        raise SimplicialError("bool vertex ids are not supported")
    if isinstance(v, (int, Fraction)):
        return (0, Fraction(v))
    if isinstance(v, str):
        return (1, v)
    if isinstance(v, tuple):
        return (2, tuple(vkey(x) for x in v))
    raise SimplicialError(f"unsupported vertex id {v!r}")


def bvertex(vertices):
    """Barycenter vertex id of a face; a 0-face's barycenter is itself."""
    vs = tuple(sorted(vertices, key=vkey))
    if len(vs) == 1:
        return vs[0]
    return ("b", vs)


def is_bvertex(v):
    return isinstance(v, tuple) and len(v) == 2 and v[0] == "b" \
        and isinstance(v[1], tuple)


def is_level_vertex(v):
    return isinstance(v, tuple) and len(v) == 2 \
        and isinstance(v[1], (int, Fraction)) and not is_bvertex(v)


def sorted_vs(vertices):
    return tuple(sorted(vertices, key=vkey))


# ---------------------------------------------------------------------------
# chains: dict face-key -> int

def chain_add(a, b, scale=1):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + scale * c
        if out[k] == 0:
            del out[k]
    return out


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
        return sorted((k for k in self.faces if len(k) == d + 1),
                      key=lambda k: tuple(vkey(v) for v in sorted_vs(k)))

    def all_faces(self):
        return sorted(self.faces, key=lambda k: (len(k), tuple(
            vkey(v) for v in sorted_vs(k))))

    def facets(self):
        non_maximal = set()
        for order in self.faces.values():
            if len(order) > 1:
                for i in range(len(order)):
                    non_maximal.add(frozenset(order[:i] + order[i + 1:]))
        out = [k for k in self.faces if k not in non_maximal]
        return sorted(out, key=lambda k: (len(k), tuple(
            vkey(v) for v in sorted_vs(k))))

    def n_faces(self, d):
        return len(self.faces_of_dim(d))

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
        out = {}
        for key, c in chain.items():
            out = chain_add(out, self.boundary_of_face(key), c)
        return out

    def basis(self, d):
        return self.faces_of_dim(d)

    def chain_complex(self) -> FinChainComplex:
        dmax = self.dim()
        ranks = {d: self.n_faces(d) for d in range(dmax + 1)}
        boundaries = {}
        for d in range(1, dmax + 1):
            rows = self.basis(d - 1)
            cols = self.basis(d)
            index = {k: i for i, k in enumerate(rows)}
            mat = [[0] * len(cols) for _ in rows]
            for j, key in enumerate(cols):
                for sub, c in self.boundary_of_face(key).items():
                    mat[index[sub]][j] = c
            boundaries[d] = IntMatrix(len(rows), len(cols),
                                      [e for row in mat for e in row])
        return FinChainComplex(ranks, boundaries)

    def chain_to_vector(self, chain, d):
        keys = self.basis(d)
        index = {k: i for i, k in enumerate(keys)}
        vec = [0] * len(keys)
        for k, c in chain.items():
            if len(k) != d + 1:
                raise SimplicialError("chain is not homogeneous")
            vec[index[frozenset(k)]] = c
        return tuple(vec)

    def vector_to_chain(self, vec, d):
        keys = self.basis(d)
        return {k: c for k, c in zip(keys, vec) if c}

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

    def restrict_vertices(self, predicate):
        keys = [k for k in self.faces if all(predicate(v) for v in k)]
        if not keys:
            return OrderedSimplicialComplex({}, check=False)
        return self.subcomplex(keys)

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
        out = {}
        for key, c in chain.items():
            out = chain_add(out, self.values[frozenset(key)], c)
        return out

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
            lhs = chain_add(lhs, self.apply(self.source.boundary_of_face(key)))
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
        pt = self.coords.get(v)
        if pt is None:
            pt = resolve_vertex(v, self.coords)
        return pt

    def barycenter(self, face_key_or_order):
        pts = [self.point(v) for v in face_key_or_order]
        n = len(pts)
        return tuple(sum(c[i] for c in pts) / n for i in range(len(pts[0])))

    def sqdist(self, p, q):
        return sum((a - b) ** 2 for a, b in zip(p, q))

    def extended_to(self, complex_):
        coords = dict(self.coords)
        for v in {w for k in complex_.faces for w in k}:
            if v not in coords:
                coords[v] = resolve_vertex(v, self.coords)
        return Realization(coords)


def resolve_vertex(v, base):
    """Coordinates of derived vertex ids over a base coordinate table."""
    if v in base:
        return base[v]
    if is_bvertex(v):
        pts = [resolve_vertex(x, base) for x in v[1]]
        n = len(pts)
        return tuple(sum(p[i] for p in pts) / n for i in range(len(pts[0])))
    if is_level_vertex(v):
        return resolve_vertex(v[0], base) + (frac(v[1]),)
    raise SimplicialError(f"cannot resolve coordinates of {v!r}")


# ---------------------------------------------------------------------------
# barycentric subdivision

@dataclass
class SubdivisionResult:
    complex: OrderedSimplicialComplex
    chain_map: SimplicialChainMap
    carrier: dict  # face of S(K) -> smallest face of K containing it


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
    """Barycentric subdivision with its chain map and carrier bookkeeping."""
    flags = {}
    # distinct flags span distinct faces, so no coefficient cancels
    values = {key: {frozenset(f): sign
                    for f, sign in _flag_facets(K, key, flags)}
              for key in K.faces}
    SK = OrderedSimplicialComplex.from_facets(
        [f for key in K.facets() for f, _ in flags[key]])

    parent = {bvertex(key): key for key in K.faces}
    # vertices of a subdivision face are barycenters of a flag, so the
    # parents are nested and the largest one is the carrier
    carrier = {fkey: max((parent[v] for v in fkey), key=len)
               for fkey in SK.faces}
    S = SimplicialChainMap(K, SK, 0, values)
    return SubdivisionResult(SK, S, carrier)


def iterate_subdivide(K, n):
    """n-fold subdivision: (list of complexes, composed chain map, carrier)."""
    results = []
    cur = K
    for _ in range(n):
        res = subdivide(cur)
        results.append(res)
        cur = res.complex
    if not results:
        ident = SimplicialChainMap(K, K, 0, {k: {k: 1} for k in K.faces})
        return [], ident, {k: k for k in K.faces}
    chain_map = results[0].chain_map
    for res in results[1:]:
        chain_map = compose_chain_maps(res.chain_map, chain_map)
    total_carrier = results[0].carrier
    for res in results[1:]:
        total_carrier = {k: total_carrier[res.carrier[k]]
                         for k in res.complex.faces}
    return results, chain_map, total_carrier


# ---------------------------------------------------------------------------
# prisms

def product_at_level(K, level):
    """Relabel K with (v, level) vertices."""
    lv = frac(level)
    return K.relabel(lambda v: (v, lv))


def level_of(v):
    if is_level_vertex(v):
        return frac(v[1])
    return None


def level_subcomplex(complex_, level):
    lv = frac(level)
    return complex_.restrict_vertices(lambda v: level_of(v) == lv)


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


def _solve_chain(complex_, rhs, degree):
    """Deterministic filler: x with dx = rhs in the simplicial complex."""
    C = complex_.chain_complex()
    vec = complex_.chain_to_vector(rhs, degree)
    res = solve_boundary(C, vec, degree)
    if isinstance(res, NotABoundary):
        raise SimplicialError("prism filler does not exist (internal)")
    return complex_.vector_to_chain(res, degree + 1)


def t_complex(K, a=0, b=1):
    """T(K) on |K| x [a, b]: bottom is S(K), top is K, glued by cones.

    Returns (complex, homotopy T, bottom subdivision result).  The homotopy
    satisfies dT + Td = (i_a)_* S - (i_b)_*, with i_a, i_b the level
    inclusions after relabeling.
    """
    a, b = frac(a), frac(b)
    if a == b:
        raise SimplicialError("prism needs a nondegenerate interval")
    memo = {}
    facets = []
    for key in K.facets():
        facets.extend(_t_facets(K, key, a, b, memo))
    TK = OrderedSimplicialComplex.from_facets(facets)

    sub = subdivide(K)

    def i_a(chain):
        return {frozenset((v, a) for v in k): c for k, c in chain.items()}

    def i_b(chain):
        return {frozenset((v, b) for v in k): c for k, c in chain.items()}

    values = {}
    for key in K.all_faces():
        d = len(key) - 1
        rhs = chain_add(i_a(sub.chain_map.values[key]), i_b({key: 1}), -1)
        for skey, c in K.boundary_of_face(key).items():
            rhs = chain_add(rhs, values[skey], -c)
        piece = TK.subcomplex([frozenset(f) for f in memo[key]])
        values[key] = _solve_chain(piece, rhs, d)
    T = SimplicialChainMap(K, TK, 1, values)
    return TK, T, sub


def t_n_complex(K, n, a=0, b=1):
    """T_n(K): n stacked copies of T over successively subdivided complexes.

    Returns (complex, homotopy T_n, subdivision results bottom-up).  The
    bottom restriction is S^n(K) at level a, the top is K at level b;
    dT_n + T_n d = (i_a)_* S^n - (i_b)_*.
    """
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
            acc = chain_add(acc, piece_maps[i].apply(chain))
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


def iterated_mesh_sq(points, n) -> Fraction:
    """mesh_sq of the n-fold subdivision of the simplex on ``points``.

    Runs on scaled integer coordinates without materializing the complex,
    so deep subdivisions stay tractable.
    """
    pts = [tuple(frac(c) for c in p) for p in points]
    denom = math.lcm(*(c.denominator for p in pts for c in p))
    scaled = [tuple(int(c * denom) for c in p) for p in pts]
    best = 0
    total_scale = denom
    stack = [(tuple(scaled), n, denom)]
    while stack:
        cur, depth, scale = stack.pop()
        if depth == 0:
            for i in range(len(cur)):
                for j in range(i + 1, len(cur)):
                    d = sum((a - b) ** 2 for a, b in zip(cur[i], cur[j]))
                    # compare d/scale^2 against best/total_scale^2
                    if d * total_scale ** 2 > best * scale ** 2:
                        best = d
                        total_scale = scale
            continue
        k = len(cur) - 1
        L = math.lcm(*range(1, k + 2))
        for perm in itertools.permutations(range(k + 1)):
            acc = tuple(0 for _ in cur[0])
            fac = []
            for m, i in enumerate(perm, start=1):
                acc = tuple(a + b for a, b in zip(acc, cur[i]))
                mult = L // m
                # prefix barycenter at scale scale*L
                fac.append(tuple(a * mult for a in acc))
            stack.append((tuple(fac), depth - 1, scale * L))
    return Fraction(best, total_scale ** 2)


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


def parse_realization(text: str) -> Realization:
    coords = {}
    for no, line in content_lines(text):
        name, _, rest = line.partition(":")
        coords[parse_token(name.strip(), no, SimplicialError)] = tuple(
            frac(t) for t in rest.split())
    return Realization(coords)
