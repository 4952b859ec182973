"""Nesting oracles: open-region assignments to finite point sequences.

A nesting assigns an open region to every finite point sequence subject to

    i)   the empty sequence gets the whole realm,
    ii)  if x1 lies in eta(x2, ..., xn) then eta(x1, ..., xn) is an open
         neighborhood of x1,
    iii) eta(x1, ..., xn) is contained in eta(x_{f(1)}, ..., x_{f(m)}) for
         every nondecreasing index map f.

Oracles are evaluators, never materialized tables.  Four constructors are
provided: cover-generated families, pullbacks along maps, the two-case
prefix extension from an open subset to the ambient realm, and the
pointwise intersection of a family of nestings.

Membership of a simplex in the small-chain subcomplex asks that every
strict face chain ending at the simplex sit inside the region at its
barycenter sequence; the equivalence with the unrestricted chain
condition is property-tested.  A cover-generated oracle, and any pullback
of one, is pointwise: eta(x1, ..., xm) is the intersection of the
eta(x_i).  Its chain condition is then the face-coface condition "each
face lies in the region at each coface's barycenter alone": a chain
region is the intersection of its members' regions, and ``regions``
decides containment in an intersection member by member (TRUE iff every
member gives TRUE).  Pointwise oracles ask these face-coface pairs,
2^m - 1 for a coface with m vertices, instead of the chains, whose number
grows factorially in m; other oracles walk the chains
(``small_chain_tests``).
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import frac, frac_str
from .finite_space import FiniteSpace
from .regions import (
    AffineMap,
    Ambient,
    Empty,
    FiniteSpaceOpen,
    OpenBall,
    Region,
    Tri,
    contains_point,
    intersection,
    preimage_region,
    region_contains,
    region_descriptor,
    simplex_in_region,
    sqdist,
)
from .simplicial import (
    OrderedSimplicialComplex,
    Realization,
    barycenter,
    mesh_sq,
    subdivide,
    vkey,
)


class NestingError(Exception):
    pass


class UnknownContainment(NestingError):
    """A containment could not be decided; never treated as a pass."""


# ---------------------------------------------------------------------------
# realms

@dataclass(frozen=True)
class PLRealm:
    dim: int

    def ambient_region(self):
        return Ambient()

    def descriptor(self):
        return ("pl", self.dim)


@dataclass(frozen=True)
class FiniteRealm:
    space: FiniteSpace

    def ambient_region(self):
        return FiniteSpaceOpen(frozenset(self.space.points))

    def descriptor(self):
        return ("finite", tuple(map(str, self.space.points)),
                len(self.space.opens))


# ---------------------------------------------------------------------------
# point -> region rules for cover-generated nestings

@dataclass(frozen=True)
class UniformBallRule:
    sq_radius: Fraction

    def __post_init__(self):
        object.__setattr__(self, "sq_radius", frac(self.sq_radius))
        if self.sq_radius <= 0:
            raise NestingError("ball rule needs positive squared radius")

    def region_at(self, x):
        return OpenBall(x, self.sq_radius)

    def descriptor(self):
        return ("uniform-ball", frac_str(self.sq_radius))


@dataclass(frozen=True)
class PuncturedBallRule:
    """g(x) is the open ball at x of squared radius c |x - p|^2.

    The realm is the plane (or space) without the puncture p: the rule is
    undefined at p, and c < 1 keeps every ball off p.  Balls at different
    points have different radii."""

    puncture: tuple
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "puncture",
                           tuple(frac(v) for v in self.puncture))
        object.__setattr__(self, "c", frac(self.c))
        if not 0 < self.c < 1:
            raise NestingError("punctured rule needs 0 < c < 1")

    def region_at(self, x):
        d = sqdist(x, self.puncture)
        if not d:
            raise NestingError(
                f"punctured rule undefined at its puncture {x!r}")
        return OpenBall(x, self.c * d)

    def descriptor(self):
        return ("punctured-ball", tuple(frac_str(v) for v in self.puncture),
                frac_str(self.c))


@dataclass(frozen=True)
class BallNetRule:
    """Finite net of balls; g(x) is the deepest net ball containing x."""

    balls: tuple

    def __post_init__(self):
        object.__setattr__(self, "balls", tuple(self.balls))
        for b in self.balls:
            if not isinstance(b, OpenBall):
                raise NestingError("net members must be open balls")

    def region_at(self, x):
        best = None
        for i, b in enumerate(self.balls):
            margin = b.sq_radius - sqdist(b.center, x)
            if margin > 0 and (best is None or margin > best[0]):
                best = (margin, i)
        if best is None:
            raise NestingError(f"net rule undefined: no ball contains {x!r}")
        return self.balls[best[1]]

    def descriptor(self):
        return ("ball-net", tuple(
            (tuple(frac_str(c) for c in b.center), frac_str(b.sq_radius))
            for b in self.balls))


@dataclass(frozen=True)
class MinimalOpenRule:
    space: FiniteSpace

    def region_at(self, x):
        return FiniteSpaceOpen(self.space.minimal_open(x))

    def descriptor(self):
        return ("minimal-open", tuple(map(str, self.space.points)))


@dataclass(frozen=True)
class TableRule:
    table: tuple  # tuple of (point, Region)

    def region_at(self, x):
        for p, r in self.table:
            if p == x:
                return r
        raise NestingError(f"table rule undefined at {x!r}")

    def descriptor(self):
        return ("table", tuple((str(p), tuple(map(str, region_descriptor(r))))
                               for p, r in self.table))


# ---------------------------------------------------------------------------
# the oracle

@dataclass
class NestingOracle:
    """``pointwise`` says that eta(x1, ..., xm) is the intersection of the
    eta(x_i); the small-chain and covering checks then ask face-coface
    pairs instead of face chains.  Only ``cover_generated`` and
    ``pullback`` of a pointwise oracle set it."""

    realm: object
    provenance: str
    descriptor: tuple
    _eval: object
    pointwise: bool = False
    _memo: dict = field(default_factory=dict)

    def region(self, points) -> Region:
        """eta at a point sequence, evaluated once per distinct sequence.

        The points must be hashable: coordinate tuples in a PL realm,
        point names in a finite one.  The memo lives on the oracle.
        """
        seq = tuple(points)
        out = self._memo.get(seq)
        if out is None:
            out = self._memo[seq] = self._eval(seq)
        return out


def cover_generated(realm, rule) -> NestingOracle:
    """eta(x1, ..., xn) = intersection of the rule's regions at the x_i."""
    if isinstance(rule, TableRule):
        for p, r in rule.table:
            if not contains_point(r, p):
                raise NestingError(f"rule region at {p!r} misses the point")
    if isinstance(rule, MinimalOpenRule) and isinstance(realm, FiniteRealm):
        if rule.space is not realm.space:
            raise NestingError("minimal-open rule bound to a different space")

    def ev(seq):
        if not seq:
            return realm.ambient_region()
        return intersection([rule.region_at(x) for x in seq])

    return NestingOracle(realm, "cover-generated",
                         ("cover", realm.descriptor(), rule.descriptor()), ev,
                         pointwise=True)


def minimal_open_nesting(space: FiniteSpace) -> NestingOracle:
    return cover_generated(FiniteRealm(space), MinimalOpenRule(space))


@dataclass(frozen=True)
class FiniteMap:
    """A continuous map of finite spaces, given by a point table."""

    source: FiniteSpace
    target: FiniteSpace
    mapping: tuple  # tuple of (source point, target point)

    def __post_init__(self):
        table = dict(self.mapping)
        for o in self.target.opens:
            pre = frozenset(p for p in self.source.points if table[p] in o)
            if not self.source.is_open(pre):
                raise NestingError(
                    f"finite map not continuous: preimage of {set(o)!r}")

    def apply(self, x):
        return dict(self.mapping)[x]

    def preimage(self, region: Region) -> Region:
        pts = frozenset(p for p in self.source.points
                        if contains_point(region, self.apply(p)))
        return FiniteSpaceOpen(pts)

    def descriptor(self):
        return ("finite-map", tuple((str(a), str(b)) for a, b in self.mapping))


def pullback(f, eta: NestingOracle) -> NestingOracle:
    """f*eta with f*eta(x1..xn) = f^{-1}(eta(f x1, ..., f xn)).

    Preimages commute with intersections, so the pullback of a pointwise
    oracle is pointwise."""
    if isinstance(f, AffineMap):
        if not isinstance(eta.realm, PLRealm):
            raise NestingError("affine pullback needs a PL nesting")
        if f.target_dim != eta.realm.dim:
            raise NestingError(
                f"affine map lands in dimension {f.target_dim}; the "
                f"nesting's realm has dimension {eta.realm.dim}")
        realm = PLRealm(f.source_dim)

        def ev(seq):
            if not seq:
                return realm.ambient_region()
            return preimage_region(f, eta.region([f.apply(x) for x in seq]))

        return NestingOracle(realm, "pullback",
                             ("pullback", f.descriptor(), eta.descriptor), ev,
                             pointwise=eta.pointwise)
    if isinstance(f, FiniteMap):
        if not isinstance(eta.realm, FiniteRealm):
            raise NestingError("finite-map pullback needs a finite nesting")
        if f.target is not eta.realm.space:
            raise NestingError(
                "finite map's target is not the nesting's space")
        realm = FiniteRealm(f.source)

        def ev(seq):
            if not seq:
                return realm.ambient_region()
            return f.preimage(eta.region([f.apply(x) for x in seq]))

        return NestingOracle(realm, "pullback",
                             ("pullback", f.descriptor(), eta.descriptor), ev,
                             pointwise=eta.pointwise)
    raise NestingError(f"unsupported map class {type(f).__name__}; "
                       "affine maps and finite-space maps only")


def restrict(eta: NestingOracle, subspace) -> NestingOracle:
    """eta restricted to an open subset: intersect every value with it."""
    if isinstance(eta.realm, FiniteRealm):
        space = eta.realm.space
        sub = frozenset(subspace)
        if not space.is_open(sub):
            raise NestingError("restriction needs an open subset")
        opens = {o & sub for o in space.opens}
        sub_space = FiniteSpace(tuple(sorted(sub, key=vkey)), opens)
        realm = FiniteRealm(sub_space)
        W = FiniteSpaceOpen(sub)

        def ev(seq):
            if not seq:
                return W
            return intersection([eta.region(seq), W])

        return NestingOracle(realm, "restriction",
                             ("restrict", tuple(map(str, sorted(sub, key=vkey))),
                              eta.descriptor), ev)
    W = subspace
    if not isinstance(W, Region):
        raise NestingError("PL restriction needs a Region")

    def ev(seq):
        if not seq:
            return W
        return intersection([eta.region(seq), W])

    return NestingOracle(eta.realm, "restriction",
                         ("restrict", tuple(map(str, region_descriptor(W))),
                          eta.descriptor), ev)


def extend_to_ambient(eta: NestingOracle, W, ambient_realm) -> NestingOracle:
    """Two-case prefix extension of a nesting on an open W to the realm.

    A sequence whose members inside W form a nonempty prefix (all later
    members outside) evaluates to eta on that prefix; a broken pattern
    gives the empty region.  Sequences entirely outside W, like the empty
    sequence, get the whole realm: the prefix rule's k = 0 case would
    return eta's ambient W, which fails both the empty-sequence axiom and
    the neighborhood axiom at points outside W, so it is repaired to the
    ambient realm (the membership implication is unaffected).
    """
    if isinstance(ambient_realm, FiniteRealm):
        W_region = FiniteSpaceOpen(frozenset(W)) if not isinstance(W, Region) else W
        member = lambda x: contains_point(W_region, x)
    else:
        if not isinstance(W, Region):
            raise NestingError("PL extension needs W as a Region")
        W_region = W
        member = lambda x: contains_point(W_region, x)

    def ev(seq):
        if not seq:
            return ambient_realm.ambient_region()
        flags = [member(x) for x in seq]
        k = 0
        while k < len(flags) and flags[k]:
            k += 1
        if any(flags[k:]):
            return Empty()
        if k == 0:
            return ambient_realm.ambient_region()
        return eta.region(seq[:k])

    return NestingOracle(ambient_realm, "prefix-extension",
                         ("extend", tuple(map(str, region_descriptor(W_region))),
                          eta.descriptor), ev)


def intersect_family(family_fn, realm) -> NestingOracle:
    """eta(x1..xm) = intersection over i of eta^{x_i}(x1, ..., x_i)."""

    def ev(seq):
        if not seq:
            return realm.ambient_region()
        parts = []
        for i, x in enumerate(seq):
            parts.append(family_fn(x).region(seq[:i + 1]))
        return intersection(parts)

    return NestingOracle(realm, "family-intersection",
                         ("intersect", "family"), ev)


def broken_demo_nesting(realm, rule) -> NestingOracle:
    """Planted defect: only the last point's region is used, so the
    monotonicity axiom fails; exists for validator tests and replays."""

    def ev(seq):
        if not seq:
            return realm.ambient_region()
        return rule.region_at(seq[-1])

    return NestingOracle(realm, "broken-demo",
                         ("broken", realm.descriptor(), rule.descriptor()), ev)


# ---------------------------------------------------------------------------
# axiom checking

@dataclass
class AxiomViolation:
    axiom: str
    sequence: tuple
    detail: str


@dataclass
class AxiomReport:
    passed: bool
    checked: int
    violations: list


def _nondecreasing_maps(m, n):
    """All nondecreasing f: {1..m} -> {1..n}."""
    return itertools.combinations_with_replacement(range(n), m)


def check_axioms(eta: NestingOracle, sequences, max_subseq_len=4) -> AxiomReport:
    """Check axioms i-iii on the given sample sequences.

    Inclusion answers of UNKNOWN fail closed: they are reported as
    violations with an ``undecided`` marker rather than silently passing.
    """
    violations = []
    checked = 0

    ambient = eta.realm.ambient_region()
    checked += 1
    empty_val = eta.region(())
    if not (empty_val == ambient or region_contains(empty_val, ambient) is Tri.TRUE
            and region_contains(ambient, empty_val) is Tri.TRUE):
        violations.append(AxiomViolation("i", (), "empty sequence not ambient"))

    for seq in sequences:
        seq = tuple(seq)
        if not seq:
            continue
        # axiom ii
        checked += 1
        tail = seq[1:]
        if contains_point(eta.region(tail), seq[0]):
            if not contains_point(eta.region(seq), seq[0]):
                violations.append(AxiomViolation(
                    "ii", seq, "region does not contain its lead point"))
        # axiom iii over all nondecreasing index maps
        n = len(seq)
        big = eta.region(seq)
        for m in range(1, min(max_subseq_len, n + 1) + 1):
            for f in _nondecreasing_maps(m, n):
                sub = tuple(seq[i] for i in f)
                checked += 1
                res = region_contains(eta.region(sub), big)
                if res is Tri.FALSE:
                    violations.append(AxiomViolation(
                        "iii", seq, f"not inside value at subsequence {sub}"))
                elif res is Tri.UNKNOWN:
                    violations.append(AxiomViolation(
                        "iii", seq, f"undecided inclusion at subsequence {sub}"))
    return AxiomReport(not violations, checked, violations)


def finite_sequences(space: FiniteSpace, max_len=3):
    pts = space.points
    out = [()]
    for ln in range(1, max_len + 1):
        out.extend(itertools.product(pts, repeat=ln))
    return out


def pl_sample_sequences(realization_points, seed, budget, max_len=4,
                        denominator=8, box=1):
    """Mixture of barycentric-chain points and uniform rational points."""
    rng = random.Random(seed)
    pool = [tuple(frac(c) for c in p) for p in realization_points]
    dim = len(pool[0]) if pool else 2
    out = []
    for _ in range(budget):
        ln = rng.randint(1, max_len)
        seq = []
        for _ in range(ln):
            if pool and rng.random() < 0.6:
                seq.append(rng.choice(pool))
            else:
                seq.append(tuple(
                    Fraction(rng.randint(-box * denominator, box * denominator),
                             denominator) for _ in range(dim)))
        out.append(tuple(seq))
    return out


# ---------------------------------------------------------------------------
# small-chain membership

def face_chains_to_top(order):
    """Strict face chains S_1 < ... < S_m = full, as index subsets."""
    full = tuple(range(len(order)))
    chains = []

    def rec(chain):
        chains.append(tuple(chain))
        smallest = chain[0]
        for size in range(1, len(smallest)):
            for sub in itertools.combinations(smallest, size):
                chain.insert(0, sub)
                rec(chain)
                chain.pop(0)

    rec([full])
    return chains


@functools.cache
def small_chain_tests(size, pointwise):
    """The containments that decide small-chain membership of a simplex
    with ``size`` vertices, as (face, faces) pairs of index subsets: the
    face must lie in eta at the barycenters of the faces.

    A pointwise eta asks each face against each coface's barycenter alone,
    in face order of the coface, then of the face.  Any other eta asks
    each strict face chain ending at the top (``face_chains_to_top``)."""
    if not pointwise:
        return tuple((c[0], c) for c in face_chains_to_top(range(size)))
    faces = [s for n in range(1, size + 1)
             for s in itertools.combinations(range(size), n)]
    return tuple((s, (t,)) for t in faces for s in faces
                 if set(s) <= set(t))


def in_c_eta(points, eta: NestingOracle) -> bool:
    """Does the affine simplex on ``points`` lie in the small-chain complex?

    Checks, for strict face chains sigma_1 < ... < sigma_m = sigma, that
    sigma_1 is inside the region at (b(sigma_1), ..., b(sigma_m)); a
    pointwise eta asks the face-coface pairs instead, which is the same
    condition (``small_chain_tests``).  Bounded non-strict chains, not
    necessarily ending at the top, give the same verdict, which is
    property-tested.  A FALSE containment anywhere gives False; otherwise
    an undecidable one raises UnknownContainment.  An empty point list,
    points of different lengths and, in a PL realm, points not of the
    realm's dimension raise NestingError.
    """
    points = [tuple(frac(c) for c in p) for p in points]
    if not points:
        raise NestingError("in_c_eta needs at least one point")
    dim = eta.realm.dim if isinstance(eta.realm, PLRealm) \
        else len(points[0])
    for p in points:
        if len(p) != dim:
            raise NestingError(
                f"in_c_eta point ({', '.join(map(str, p))}) has length "
                f"{len(p)}, expected {dim}")
    barys = {}
    undecided = None
    for face, seq in small_chain_tests(len(points), eta.pointwise):
        for s in seq:
            if s not in barys:
                barys[s] = barycenter([points[i] for i in s])
        region = eta.region([barys[s] for s in seq])
        res = simplex_in_region([points[i] for i in face], region)
        if res is Tri.FALSE:
            return False
        if res is Tri.UNKNOWN and undecided is None:
            undecided = (face, seq)
    if undecided is not None:
        raise UnknownContainment(
            f"cannot decide containment of face {undecided[0]} in the "
            f"region at {undecided[1]}")
    return True


# ---------------------------------------------------------------------------
# cover subcomplexes and the subdivision retraction

@dataclass(frozen=True)
class CoverSpec:
    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))


class CoverageError(NestingError):
    pass


def validate_coverage(cover: CoverSpec, K: OrderedSimplicialComplex,
                      R: Realization):
    """Sound sample-based coverage check: vertices and barycenters of every
    face of K and of its first two subdivisions must lie in some member.  A
    missed sample certifies a gap; acceptance is on the sample set only."""
    complexes = [K]
    real = R
    cur = K
    for _ in range(2):
        res = subdivide(cur)
        cur = res.complex
        complexes.append(cur)
        real = real.extended_to(cur)
    samples = []
    for cx in complexes:
        for key in cx.all_faces():
            samples.append(real.barycenter(cx.order(key)))
    for s in samples:
        if not any(contains_point(m, s) for m in cover.members):
            raise CoverageError(f"sample point {tuple(map(frac_str, s))} "
                                "is not covered")
    return len(samples)


def in_c_cover(points, cover: CoverSpec) -> bool:
    """Does the simplex land in one member of the cover?"""
    for m in cover.members:
        res = simplex_in_region(points, m)
        if res is Tri.TRUE:
            return True
        if res is Tri.UNKNOWN:
            raise UnknownContainment("cover member with undecidable containment")
    return False


def subdivision_retraction(K: OrderedSimplicialComplex, R: Realization,
                           chain, cover: CoverSpec, budget=8):
    """Minimal n with every support face of the n-fold subdivided chain in
    one cover member; linear search with exact mesh diagnostics."""
    validate_coverage(cover, K, R)
    cur_K = K
    cur_R = R
    cur_chain = dict(chain)
    for n in range(budget + 1):
        ok = True
        for key in cur_chain:
            pts = [cur_R.point(v) for v in cur_K.order(key)]
            if not in_c_cover(pts, cover):
                ok = False
                break
        if ok:
            return n
        res = subdivide(cur_K)
        cur_chain = res.chain_map.apply(cur_chain)
        cur_K = res.complex
        cur_R = cur_R.extended_to(cur_K)
    raise NestingError(
        f"no subdivision within budget {budget} lands in the cover; "
        f"current squared mesh {frac_str(mesh_sq(cur_K, cur_R))}")

