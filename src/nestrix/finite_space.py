"""Finite T0 topological spaces as open-set lattices.

A space is stored explicitly as its family of opens (closed under union
and intersection, containing the empty set and the whole space).  Points
with equal minimal opens are topologically indistinguishable; such input
is rejected with the offending pairs listed.

Connectivity is computed on the comparability graph of the specialization
order restricted to the subset.  For finite spaces this graph is connected
exactly when the subspace is topologically connected; the brute-force
clopen-partition characterization is kept in the test suite as the oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from importlib.resources import files

from .simplicial import (
    OrderedSimplicialComplex,
    content_lines,
    parse_token,
    vkey,
)

POINT_CAP = 8


class FiniteSpaceError(Exception):
    pass


class NotT0Error(FiniteSpaceError):
    def __init__(self, pairs):
        self.pairs = pairs
        super().__init__(f"indistinguishable point pairs: {pairs}")


class FiniteSpace:
    def __init__(self, points, opens, check=True):
        self.points = tuple(sorted(points, key=vkey))
        self.opens = frozenset(frozenset(o) for o in opens)
        self._min_open = None
        if check:
            self.validate()

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_basis(cls, points, basis):
        """Topology generated by the given sets (as a subbasis)."""
        points = tuple(points)
        pset = frozenset(points)
        family = {frozenset(), pset}
        for b in basis:
            b = frozenset(b)
            if not b <= pset:
                raise FiniteSpaceError(f"basis set {set(b)!r} not within points")
            family.add(b)
        changed = True
        while changed:
            changed = False
            items = list(family)
            for i in range(len(items)):
                for j in range(i + 1, len(items)):
                    for new in (items[i] | items[j], items[i] & items[j]):
                        if new not in family:
                            family.add(new)
                            changed = True
        space = cls(points, family, check=False)
        space.validate()
        return space

    @classmethod
    def from_poset(cls, points, leq):
        """Alexandrov space of a poset: opens are the down-sets; T0 holds."""
        basis = []
        for x in points:
            basis.append({y for y in points if leq(y, x)})
        return cls.from_basis(points, basis)

    def validate(self):
        pset = frozenset(self.points)
        if frozenset() not in self.opens or pset not in self.opens:
            raise FiniteSpaceError("opens must contain the empty set and X")
        for a in self.opens:
            if not a <= pset:
                raise FiniteSpaceError("open set escapes the point set")
            for b in self.opens:
                if a | b not in self.opens or a & b not in self.opens:
                    raise FiniteSpaceError("opens not closed under union/intersection")
        pairs = self._indistinguishable_pairs()
        if pairs:
            raise NotT0Error(pairs)

    def _indistinguishable_pairs(self):
        mins = self.minimal_opens()
        pairs = []
        pts = self.points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if mins[pts[i]] == mins[pts[j]]:
                    pairs.append((pts[i], pts[j]))
        return pairs

    # -- basic queries ----------------------------------------------------------

    def is_open(self, s):
        return frozenset(s) in self.opens

    def opens_sorted(self):
        return sorted(self.opens,
                      key=lambda o: (len(o), tuple(vkey(v) for v in
                                                   sorted(o, key=vkey))))

    def minimal_opens(self):
        if self._min_open is None:
            out = {}
            for x in self.points:
                acc = frozenset(self.points)
                for o in self.opens:
                    if x in o:
                        acc &= o
                out[x] = acc
            self._min_open = out
        return self._min_open

    def minimal_open(self, x):
        return self.minimal_opens()[x]

    def leq(self, x, y):
        """Specialization order: x <= y iff U_x is contained in U_y."""
        return self.minimal_open(x) <= self.minimal_open(y)

    def poset(self) -> "SpecializationPoset":
        return SpecializationPoset(self)

    # -- connectivity -------------------------------------------------------------

    def comparable(self, x, y):
        return self.leq(x, y) or self.leq(y, x)

    def is_connected_subset(self, subset):
        subset = frozenset(subset)
        if not subset:
            return False
        pts = sorted(subset, key=vkey)
        seen = {pts[0]}
        stack = [pts[0]]
        while stack:
            x = stack.pop()
            for y in pts:
                if y not in seen and self.comparable(x, y):
                    seen.add(y)
                    stack.append(y)
        return len(seen) == len(pts)

    def connected_subsets(self, within=None):
        """Nonempty connected subsets of the given open (default: X)."""
        if within is None:
            within = frozenset(self.points)
        within = frozenset(within)
        if within and not self.is_open(within):
            raise FiniteSpaceError(f"{set(within)!r} is not open")
        pts = sorted(within, key=vkey)
        out = []
        for mask in range(1, 1 << len(pts)):
            subset = frozenset(pts[i] for i in range(len(pts))
                               if mask & (1 << i))
            if self.is_connected_subset(subset):
                out.append(subset)
        return sorted(out, key=lambda s: (len(s), tuple(
            vkey(v) for v in sorted(s, key=vkey))))

    def components(self, subset=None):
        if subset is None:
            subset = frozenset(self.points)
        subset = frozenset(subset)
        remaining = set(subset)
        comps = []
        while remaining:
            start = min(remaining, key=vkey)
            seen = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in list(remaining):
                    if y not in seen and self.comparable(x, y):
                        seen.add(y)
                        stack.append(y)
            comps.append(frozenset(seen))
            remaining -= seen
        return sorted(comps, key=lambda s: tuple(
            vkey(v) for v in sorted(s, key=vkey)))

    def component_count(self):
        return len(self.components())

    def path_component_count(self):
        # for finite spaces path components and components coincide
        return self.component_count()

    # -- order complex ------------------------------------------------------------

    def order_complex(self) -> OrderedSimplicialComplex:
        """Complex of nonempty chains of the specialization poset."""
        chains = self.poset().chains()
        return OrderedSimplicialComplex.from_facets(chains)

    # -- contractibility -----------------------------------------------------------

    def contractibility_certificate(self, subset=None):
        """HasBottomPoint/HasTopPoint certificate, else Unknown.

        Only the two sufficient criteria are attempted; Unknown does not
        assert non-contractibility.
        """
        if subset is None:
            subset = frozenset(self.points)
        subset = frozenset(subset)
        if not subset:
            return ContractibilityCertificate("unknown", None)
        for p in sorted(subset, key=vkey):
            if all(self.leq(p, x) for x in subset):
                return ContractibilityCertificate("has_bottom_point", p)
        for p in sorted(subset, key=vkey):
            if all(self.leq(x, p) for x in subset):
                return ContractibilityCertificate("has_top_point", p)
        return ContractibilityCertificate("unknown", None)


@dataclass(frozen=True)
class ContractibilityCertificate:
    kind: str  # has_top_point | has_bottom_point | unknown
    point: object

    def certified(self):
        return self.kind != "unknown"


class SpecializationPoset:
    """x <= y iff U_x is contained in U_y; chains drive the order complex."""

    def __init__(self, space: FiniteSpace):
        self.space = space
        self.points = space.points

    def leq(self, x, y):
        return self.space.leq(x, y)

    def covers(self):
        out = []
        for x in self.points:
            for y in self.points:
                if x != y and self.leq(x, y):
                    if not any(self.leq(x, z) and self.leq(z, y)
                               and z != x and z != y for z in self.points):
                        out.append((x, y))
        return out

    def chains(self, max_len=None):
        """All nonempty strictly increasing chains, ascending order."""
        pts = self.points
        out = []

        def extend(chain):
            out.append(tuple(chain))
            if max_len is not None and len(chain) >= max_len:
                return
            last = chain[-1]
            for y in pts:
                if y != last and self.leq(last, y):
                    chain.append(y)
                    extend(chain)
                    chain.pop()

        for x in pts:
            extend([x])
        return sorted(out, key=lambda c: (len(c), tuple(vkey(v) for v in c)))


# ---------------------------------------------------------------------------
# canned spaces

def discrete_space(n):
    pts = tuple(range(n))
    return FiniteSpace.from_basis(pts, [{p} for p in pts])


def sierpinski_space():
    """Two points, one of them open."""
    return FiniteSpace.from_basis((0, 1), [{0}])


def pseudocircle():
    """Four points, two open ones each below two closed ones; H^1 = Z."""
    return FiniteSpace.from_basis(
        ("x", "y", "c", "d"),
        [{"x"}, {"y"}, {"x", "y", "c"}, {"x", "y", "d"}])


def disjoint_union(a: FiniteSpace, b: FiniteSpace) -> FiniteSpace:
    pa = [("l", p) for p in a.points]
    pb = [("r", p) for p in b.points]
    opens = []
    for oa in a.opens:
        for ob in b.opens:
            opens.append({("l", p) for p in oa} | {("r", p) for p in ob})
    return FiniteSpace(tuple(pa + pb), opens)


def random_space(n, density, seed) -> FiniteSpace:
    """Seeded random T0 space: a random poset's Alexandrov topology."""
    if n > POINT_CAP:
        raise FiniteSpaceError(f"point count {n} exceeds cap {POINT_CAP}")
    rng = random.Random(seed)
    below = {i: {i} for i in range(n)}
    for j in range(n):
        for i in range(j):
            if rng.random() < density:
                below[j] |= below[i]
    # transitive closure by construction (below[i] already closed)
    return FiniteSpace.from_poset(tuple(range(n)),
                                  lambda x, y: x in below[y])


# ---------------------------------------------------------------------------
# space file format: line 1 = point names; then one basis open per line,
# comma-separated point names

def parse_space(text: str) -> FiniteSpace:
    # errors name a line by its number in the original text
    lines = content_lines(text)
    if not lines:
        raise FiniteSpaceError("empty space file")
    points = tuple(parse_token(t, lines[0][0], FiniteSpaceError)
                   for t in lines[0][1].replace(",", " ").split())
    basis = []
    for no, ln in lines[1:]:
        b = {parse_token(t.strip(), no, FiniteSpaceError)
             for t in ln.split(",") if t.strip()}
        if not b <= set(points):
            raise FiniteSpaceError(
                f"line {no}: open {sorted(map(str, b))} escapes the point set")
        basis.append(b)
    return FiniteSpace.from_basis(points, basis)


def format_space(space: FiniteSpace) -> str:
    lines = [" ".join(str(p) for p in space.points)]
    for o in space.opens_sorted():
        if o and o != frozenset(space.points):
            lines.append(",".join(str(p) for p in sorted(o, key=vkey)))
    return "\n".join(lines) + "\n"


def load_packaged_space(name: str) -> FiniteSpace:
    text = files("nestrix").joinpath(f"data/{name}").read_text()
    return parse_space(text)


def example03_space() -> FiniteSpace:
    """The bundled five-point germ-lifting counterexample space."""
    return load_packaged_space("example03.space")
