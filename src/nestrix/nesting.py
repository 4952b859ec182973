"""Nesting oracles: open-region assignments to finite point sequences.

A nesting assigns an open region to every finite point sequence subject to

    i)   the empty sequence gets the whole realm,
    ii)  if x1 lies in eta(x2, ..., xn) then eta(x1, ..., xn) is an open
         neighborhood of x1,
    iii) eta(x1, ..., xn) is contained in eta(x_{f(1)}, ..., x_{f(m)}) for
         every nondecreasing index map f.

Every oracle here is the intersection of its point regions: eta() is the
whole realm and eta(x1, ..., xm) the intersection of the eta(x_i), each
point region evaluated once, never as a materialized table.  Axioms i and
iii hold by construction, and ii wherever each point lies in its own
region.  ``cover_generated`` takes the point regions from a rule (a ball
around each point); ``pullback`` along an affine map f takes
f^{-1}(eta(f x)), which keeps the form because preimages commute with
intersections.

Membership of a simplex in the small-chain subcomplex asks that every
strict face chain sigma_1 < ... < sigma_m ending at the simplex have
sigma_1 inside eta at the chain's barycenters.  That region is the
intersection of the regions at the single barycenters, and ``regions``
decides containment in an intersection member by member (TRUE iff every
member gives TRUE, FALSE if one gives FALSE), so the chain condition is
the face-coface condition "each face lies in the region at each coface's
barycenter alone", verdict for verdict.  ``in_c_eta`` asks it as such,
for a point list and, through ``symbolic.chain_in_c_eta``, for each simplex
of a formal chain: 2^m - 1 faces for a coface with m vertices, where the
number of chains grows factorially in m (``small_chain_tests``).
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import frac
from .regions import (
    AffineMap,
    Ambient,
    OpenBall,
    Region,
    Tri,
    contains_point,
    intersection,
    preimage_region,
    region_contains,
    simplex_in_region,
    sqdist,
)
from .simplicial import barycenter, check_depth


class NestingError(Exception):
    pass


class UnknownContainment(NestingError):
    """A containment could not be decided; never treated as a pass."""


# ---------------------------------------------------------------------------
# the realm and the point rules of cover-generated nestings

@dataclass(frozen=True)
class PLRealm:
    """Q^dim, the realm of every nesting."""

    dim: int

    def __post_init__(self):
        check_depth(self.dim, "realm dimension", NestingError)


@dataclass(frozen=True)
class UniformBallRule:
    sq_radius: Fraction

    def __post_init__(self):
        if isinstance(self.sq_radius, bool):
            raise NestingError(
                f"ball rule needs a rational squared radius, got "
                f"{self.sq_radius!r}")
        object.__setattr__(self, "sq_radius", frac(self.sq_radius))
        if self.sq_radius <= 0:
            raise NestingError("ball rule needs positive squared radius")

    def region_at(self, x):
        return OpenBall(x, self.sq_radius)


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
        if not self.puncture:
            raise NestingError("punctured rule needs a puncture point, "
                               f"got {self.puncture!r}")
        if not 0 < self.c < 1:
            raise NestingError("punctured rule needs 0 < c < 1")

    def region_at(self, x):
        d = sqdist(x, self.puncture)
        if not d:
            raise NestingError(
                f"punctured rule undefined at its puncture {x!r}")
        return OpenBall(x, self.c * d)


# ---------------------------------------------------------------------------
# the oracle

@dataclass
class NestingOracle:
    """eta on ``realm``: the whole realm at the empty sequence, the
    ``point_region`` value at one point, and the intersection of those
    values at several.

    ``point_region`` is evaluated once per distinct point; the memo lives
    on the oracle.  Points are coordinate tuples; one whose length is not
    the realm's dimension raises NestingError when it is first seen."""

    realm: PLRealm
    point_region: object
    _memo: dict = field(default_factory=dict)

    def region(self, points) -> Region:
        seq = tuple(points)
        if not seq:
            return Ambient()
        memo = self._memo
        values = []
        for x in seq:
            value = memo.get(x)
            if value is None:
                if len(x) != self.realm.dim:
                    raise NestingError(
                        f"nesting point ({', '.join(map(str, x))}) has "
                        f"length {len(x)}, expected {self.realm.dim}")
                value = memo[x] = self.point_region(x)
            values.append(value)
        return values[0] if len(values) == 1 else intersection(values)


def cover_generated(realm: PLRealm, rule) -> NestingOracle:
    """eta(x1, ..., xn) = intersection of the rule's regions at the x_i."""
    if isinstance(rule, PuncturedBallRule) and \
            len(rule.puncture) != realm.dim:
        raise NestingError(
            f"puncture {rule.puncture!r} has length {len(rule.puncture)}; "
            f"the realm has dimension {realm.dim}")
    return NestingOracle(realm, rule.region_at)


def pullback(f, eta: NestingOracle) -> NestingOracle:
    """f*eta with f*eta(x1..xn) = f^{-1}(eta(f x1, ..., f xn)), the
    intersection of the f^{-1}(eta(f x_i)): preimages commute with
    intersections."""
    if not isinstance(f, AffineMap):
        raise NestingError(f"unsupported map class {type(f).__name__}; "
                           "affine maps only")
    if f.target_dim != eta.realm.dim:
        raise NestingError(
            f"affine map lands in dimension {f.target_dim}; the "
            f"nesting's realm has dimension {eta.realm.dim}")
    return NestingOracle(
        PLRealm(f.source_dim),
        lambda x: preimage_region(f, eta.region((f.apply(x),))))


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


# longest subsequence axiom iii is checked against
SUBSEQ_LEN = 4


def _nondecreasing_maps(m, n):
    """All nondecreasing f: {1..m} -> {1..n}."""
    return itertools.combinations_with_replacement(range(n), m)


def check_axioms(eta, sequences) -> AxiomReport:
    """Check axioms i-iii on the given sample sequences.

    ``eta`` is anything with a ``region`` method.  Inclusion answers of
    UNKNOWN fail closed: they are reported as violations with an
    ``undecided`` marker rather than silently passing.
    """
    violations = []
    checked = 0

    ambient = Ambient()
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
        for m in range(1, min(SUBSEQ_LEN, n + 1) + 1):
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


# sample sequences have 1..SAMPLE_LEN points; uniform points lie on the
# grid of eighths in [-1, 1]^d
SAMPLE_LEN = 4
SAMPLE_DENOMINATOR = 8


def pl_sample_sequences(realization_points, seed, budget):
    """Mixture of barycentric-chain points and uniform rational points."""
    rng = random.Random(seed)
    pool = [tuple(frac(c) for c in p) for p in realization_points]
    dim = len(pool[0]) if pool else 2
    out = []
    for _ in range(budget):
        ln = rng.randint(1, SAMPLE_LEN)
        seq = []
        for _ in range(ln):
            if pool and rng.random() < 0.6:
                seq.append(rng.choice(pool))
            else:
                seq.append(tuple(
                    Fraction(rng.randint(-SAMPLE_DENOMINATOR,
                                         SAMPLE_DENOMINATOR),
                             SAMPLE_DENOMINATOR) for _ in range(dim)))
        out.append(tuple(seq))
    return out


# ---------------------------------------------------------------------------
# small-chain membership

@functools.cache
def small_chain_tests(size):
    """The containments that decide small-chain membership of a simplex
    with ``size`` vertices, as (face, coface) pairs of index subsets, face
    a subset of coface: the face must lie in eta at the coface's
    barycenter.  Pairs come in face order of the coface, then of the face.
    """
    faces = [s for n in range(1, size + 1)
             for s in itertools.combinations(range(size), n)]
    return tuple((s, t) for t in faces for s in faces if set(s) <= set(t))


def in_c_eta(points, eta: NestingOracle) -> bool:
    """Does the affine simplex on ``points`` lie in the small-chain complex?

    The one small-chain routine: the covering pipeline asks it of point
    lists, and ``symbolic.chain_in_c_eta`` of each simplex of a formal
    chain.  Asks each face-coface pair (``small_chain_tests``): the face must lie
    in eta at the coface's barycenter.  Since eta at a chain of
    barycenters is the intersection of the regions at its members, this
    is the condition on every strict face chain ending at the simplex,
    verdict for verdict; bounded non-strict chains, not necessarily ending
    at the top, give the same verdict, which is property-tested.  A FALSE
    containment anywhere gives False; otherwise an undecidable one raises
    UnknownContainment.  An empty point list, or a point whose length is
    not the realm's dimension, raises NestingError.
    """
    points = [tuple(frac(c) for c in p) for p in points]
    if not points:
        raise NestingError("in_c_eta needs at least one point")
    dim = eta.realm.dim
    for p in points:
        if len(p) != dim:
            raise NestingError(
                f"in_c_eta point ({', '.join(map(str, p))}) has length "
                f"{len(p)}, expected {dim}")
    barys = {}
    undecided = None
    for face, coface in small_chain_tests(len(points)):
        if coface not in barys:
            barys[coface] = barycenter([points[i] for i in coface])
        region = eta.region((barys[coface],))
        res = simplex_in_region([points[i] for i in face], region)
        if res is Tri.FALSE:
            return False
        if res is Tri.UNKNOWN and undecided is None:
            undecided = (face, coface)
    if undecided is not None:
        raise UnknownContainment(
            f"cannot decide containment of face {undecided[0]} in the "
            f"region at the barycenter of {undecided[1]}")
    return True
