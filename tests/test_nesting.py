import itertools
import random
import re
from dataclasses import dataclass
from fractions import Fraction

import pytest

from nestrix import regions
from nestrix.regions import (
    AffineMap,
    Ambient,
    Empty,
    OpenBall,
    Polytope,
    Region,
    RegionError,
    Tri,
    ball_in_ball,
    contains_point,
    intersection,
    polytope_contains_point,
    preimage_region,
    region_contains,
    simplex_in_region,
    sqrtsum_leq,
)
from nestrix.nesting import (
    NestingError,
    PLRealm,
    PuncturedBallRule,
    UniformBallRule,
    UnknownContainment,
    check_axioms,
    cover_generated,
    in_c_eta,
    pl_sample_sequences,
    pullback,
)
from nestrix.simplicial import (
    OrderedSimplicialComplex,
    Realization,
    iterate_subdivide,
    subdivide,
)


F = Fraction


@dataclass(frozen=True)
class ConstantRule:
    """Test-local rule: the same region at every point."""

    region: object

    def region_at(self, x):
        return self.region


@dataclass(frozen=True)
class LastPointOracle:
    """Test-local planted defect: eta at a sequence is the rule's region
    at its last point only, so axiom iii fails."""

    realm: PLRealm
    rule: object

    def region(self, points):
        seq = tuple(points)
        return self.rule.region_at(seq[-1]) if seq else Ambient()


class TestRegions:
    def test_sqrtsum(self):
        assert sqrtsum_leq(F(1), F(1), F(4))          # 1 + 1 <= 2
        assert not sqrtsum_leq(F(1), F(1), F(39, 10))  # 2 > sqrt(3.9)
        assert sqrtsum_leq(F(0), F(2), F(2))

    def test_ball_in_ball(self):
        a = OpenBall((F(0),), F(1, 16))
        b = OpenBall((F(0),), F(1, 4))
        assert ball_in_ball(a, b)
        c = OpenBall((F(1, 2),), F(1, 4))
        assert not ball_in_ball(c, b)

    def test_intersection_normalization(self):
        a = OpenBall((F(0),), F(1, 16))
        assert intersection([Ambient(), a]) == a
        assert isinstance(intersection([a, Empty()]), Empty)
        far = OpenBall((F(1),), F(1, 16))
        assert isinstance(intersection([a, far]), Empty)

    def test_polytope_membership(self):
        tri = Polytope(((F(0), F(0)), (F(1), F(0)), (F(0), F(1))))
        assert polytope_contains_point(tri.vertices, (F(1, 4), F(1, 4)))
        assert polytope_contains_point(tri.vertices, (F(0), F(0)))
        assert not polytope_contains_point(tri.vertices, (F(1), F(1)))
        assert contains_point(tri, (F(1, 2), F(1, 2)))  # on the edge

    def test_simplex_in_region(self):
        ball = OpenBall((F(0), F(0)), F(1))
        pts = [(F(0), F(0)), (F(1, 2), F(0))]
        assert simplex_in_region(pts, ball) is Tri.TRUE
        far = [(F(0), F(0)), (F(2), F(0))]
        assert simplex_in_region(far, ball) is Tri.FALSE

    def test_polytope_in_convex(self):
        tri = Polytope(((F(0),), (F(1, 4),)))
        ball = OpenBall((F(0),), F(1, 8))
        assert region_contains(ball, tri) is Tri.TRUE
        tri2 = Polytope(((F(0),), (F(1),)))
        assert region_contains(ball, tri2) is Tri.FALSE

    def test_preimage_ball_isometric_injection(self):
        # include Q^1 into Q^2 as the first axis
        f = AffineMap(((F(1),), (F(0),)), (F(0), F(0)))
        assert f.cols_orthonormal()
        ball = OpenBall((F(0), F(0)), F(1, 4))
        pre = preimage_region(f, ball)
        assert pre == OpenBall((F(0),), F(1, 4))
        # off-axis center loses the orthogonal distance
        ball2 = OpenBall((F(0), F(1, 4)), F(1, 4))
        pre2 = preimage_region(f, ball2)
        assert pre2 == OpenBall((F(0),), F(1, 4) - F(1, 16))

    def test_preimage_projection_rule(self):
        q = AffineMap.projection_drop_last(3)
        assert q.rows_orthonormal()
        base = OpenBall((F(0), F(0)), F(1))
        cyl = preimage_region(q, base)
        assert contains_point(cyl, (F(0), F(0), F(17)))
        small = OpenBall((F(0), F(0), F(0)), F(1, 4))
        assert region_contains(cyl, small) is Tri.TRUE
        shifted = OpenBall((F(2), F(0), F(0)), F(1, 4))
        assert region_contains(cyl, shifted) is Tri.FALSE


class TestCoverGenerated:
    def test_constant_ambient(self):
        eta = cover_generated(PLRealm(1), ConstantRule(Ambient()))
        assert eta.region(((F(0),), (F(1),))) == Ambient()

    def test_disjoint_balls_empty(self):
        realm = PLRealm(1)
        eta = cover_generated(realm, UniformBallRule(F(1, 16)))
        got = eta.region(((F(0),), (F(1),)))
        assert isinstance(got, Empty)


class TestConstructionErrors:
    """Bad constructor arguments, and points outside the realm, raise
    NestingError naming the value."""

    @pytest.mark.parametrize("dim", [True, 2.0, "2", -1])
    def test_realm_dimension(self, dim):
        with pytest.raises(NestingError, match=re.escape(f"got {dim!r}")):
            PLRealm(dim)

    @pytest.mark.parametrize("sq_radius", [True, False])
    def test_ball_radius_is_not_a_bool(self, sq_radius):
        with pytest.raises(NestingError, match=f"got {sq_radius!r}"):
            UniformBallRule(sq_radius)

    def test_puncture_is_a_point(self):
        with pytest.raises(NestingError, match=re.escape("got ()")):
            PuncturedBallRule((), F(1, 2))

    def test_puncture_lives_in_the_realm(self):
        rule = PuncturedBallRule((0, 0), F(1, 2))
        with pytest.raises(NestingError,
                           match=r"has length 2; .* dimension 3"):
            cover_generated(PLRealm(3), rule)
        cover_generated(PLRealm(2), rule)

    def test_region_point_lives_in_the_realm(self):
        eta = cover_generated(PLRealm(3), UniformBallRule(F(1, 4)))
        with pytest.raises(NestingError,
                           match=r"\(0, 0\) has length 2, expected 3"):
            eta.region(((0, 0),))

    def test_region_mixed_lengths_fail_typed(self):
        eta = cover_generated(PLRealm(3), UniformBallRule(F(1, 4)))
        with pytest.raises(NestingError,
                           match=r"\(0, 0\) has length 2, expected 3"):
            eta.region(((0, 0, 0), (0, 0)))


class TestPullback:
    def test_identity(self):
        realm = PLRealm(2)
        eta = cover_generated(realm, UniformBallRule(F(1, 4)))
        ident = AffineMap(((F(1), F(0)), (F(0), F(1))), (F(0), F(0)))
        back = pullback(ident, eta)
        for seq in [((F(0), F(0)),), ((F(0), F(0)), (F(1, 2), F(0)))]:
            assert back.region(seq) == eta.region(seq)

    def test_map_must_land_in_the_realm(self):
        eta = cover_generated(PLRealm(3), UniformBallRule(F(1, 4)))
        into_plane = AffineMap(((F(1),), (F(0),)), (F(0), F(0)))
        with pytest.raises(NestingError, match="dimension 2.*dimension 3"):
            pullback(into_plane, eta)

    def test_unsupported_map_class(self):
        eta = cover_generated(PLRealm(1), UniformBallRule(F(1, 4)))
        with pytest.raises(NestingError):
            pullback(lambda x: x, eta)


PUNCTURE = (F(1, 3), F(1, 5))
# 2 -> 2, not orthonormal (preimages stay AffinePreimage), and 1 -> 2
# with orthonormal columns (preimages of balls are balls)
SHEAR = AffineMap(((F(1), F(1)), (F(0), F(2))), (F(1, 2), F(0)))
AXIS = AffineMap(((F(1),), (F(0),)), (F(0), F(1, 4)))
# SHEAR after AXIS: x -> (x + 3/4, 1/2)
SHEAR_AFTER_AXIS = AffineMap(((F(1),), (F(0),)), (F(3, 4), F(1, 2)))


def point_region_oracles():
    """Every way to build an oracle: each rule, a pullback and a pullback
    of a pullback, with sample points of the right dimension."""
    plane = [(F(0), F(0)), (F(1), F(0)), (F(1, 2), F(1, 2))]
    ball = cover_generated(PLRealm(2), UniformBallRule(F(1, 4)))
    punctured = cover_generated(PLRealm(2),
                                PuncturedBallRule(PUNCTURE, F(1, 2)))
    return {
        "uniform": (ball, plane),
        "punctured": (punctured, plane),
        "pullback": (pullback(SHEAR, punctured), plane),
        "pullback-of-pullback": (pullback(AXIS, pullback(SHEAR, ball)),
                                 [(F(0),), (F(1, 2),)]),
    }


@pytest.mark.parametrize("name", list(point_region_oracles()))
def test_region_is_the_intersection_of_point_regions(name):
    """The face-coface route rests on eta(x1..xm) = the intersection of
    the eta(x_i), and on eta() being the whole realm."""
    eta, pool = point_region_oracles()[name]
    assert eta.region(()) == Ambient()
    seqs = pl_sample_sequences(pool, seed=7, budget=150)
    assert max(map(len, seqs)) > 1
    for seq in seqs:
        assert eta.region(seq) == intersection(
            [eta.region((x,)) for x in seq]), seq


def test_pullback_is_the_preimage():
    """x lies in f*eta(x1..xm) iff f(x) lies in eta(f x1, ..., f xm), for
    a pullback and a pullback of a pullback."""
    ball = cover_generated(PLRealm(2), UniformBallRule(F(1, 4)))
    seqs = pl_sample_sequences([(F(0),), (F(1, 2),)], seed=9, budget=60)
    probes = [(F(i, 8),) for i in range(-8, 9)]
    seen = set()
    for f, back in ((AXIS, pullback(AXIS, ball)),
                    (SHEAR_AFTER_AXIS,
                     pullback(AXIS, pullback(SHEAR, ball)))):
        for seq in seqs:
            region = ball.region([f.apply(x) for x in seq])
            for x in probes:
                inside = contains_point(region, f.apply(x))
                assert contains_point(back.region(seq), x) == inside
                seen.add(inside)
    assert seen == {True, False}


class TestPuncturedRule:
    def test_axioms(self):
        # samples lie on the grid of eighths, which misses the puncture
        for c in (F(1, 9), F(1, 4), F(1, 2)):
            eta = cover_generated(PLRealm(2), PuncturedBallRule(PUNCTURE, c))
            seqs = pl_sample_sequences([(F(0), F(0)), (F(1), F(0))],
                                       seed=3, budget=150)
            rep = check_axioms(eta, seqs)
            assert rep.passed, rep.violations[:3]

    def test_radius_grows_with_the_distance(self):
        rule = PuncturedBallRule(PUNCTURE, F(1, 4))
        x = (F(1, 3), F(6, 5))
        assert rule.region_at(x) == OpenBall(x, F(1, 4))
        assert not contains_point(rule.region_at(x), PUNCTURE)

    def test_undefined_at_the_puncture(self):
        eta = cover_generated(PLRealm(2), PuncturedBallRule(PUNCTURE, F(1, 2)))
        with pytest.raises(NestingError, match="puncture"):
            eta.region(((F(0), F(0)), PUNCTURE))
        with pytest.raises(NestingError, match="puncture"):
            in_c_eta([(F(0), F(0)), (F(2, 3), F(2, 5))], eta)

    @pytest.mark.parametrize("c", [0, 1, F(3, 2), -1])
    def test_ball_must_miss_the_puncture(self, c):
        with pytest.raises(NestingError, match="0 < c < 1"):
            PuncturedBallRule(PUNCTURE, c)


class TestCheckAxioms:
    def test_broken_oracle_fails_with_witness(self):
        eta = LastPointOracle(PLRealm(1), UniformBallRule(F(1, 16)))
        seqs = [((F(0),), (F(1),))]
        rep = check_axioms(eta, seqs)
        assert not rep.passed
        assert rep.violations[0].axiom == "iii"
        assert rep.violations[0].sequence == ((F(0),), (F(1),))

    def test_pl_uniform_ball_samples(self):
        realm = PLRealm(2)
        eta = cover_generated(realm, UniformBallRule(F(1, 4)))
        seqs = pl_sample_sequences([(F(0), F(0)), (F(1), F(0))],
                                   seed=11, budget=200)
        rep = check_axioms(eta, seqs)
        assert rep.passed, rep.violations[:3]


def delta1_realized(length=1):
    K = OrderedSimplicialComplex.standard_simplex(1)
    R = Realization({0: (F(0),), 1: (F(length),)})
    return K, R


def face_points(K, R, key):
    return [R.point(v) for v in K.order(key)]


def all_chains_in_c_eta(points, eta, max_len=None):
    """in_c_eta over every chain sigma_1 <= ... <= sigma_m of faces, not
    necessarily strict nor ending at the top, of at most max_len (default
    k + 2) faces: the unrestricted condition the strict chains stand for."""
    k = len(points)
    max_len = k + 2 if max_len is None else max_len
    subsets = [s for size in range(1, k + 1)
               for s in itertools.combinations(range(k), size)]
    for ln in range(1, max_len + 1):
        for chain in itertools.combinations_with_replacement(subsets, ln):
            if not all(set(a) <= set(b) for a, b in zip(chain, chain[1:])):
                continue
            barys = [tuple(sum(points[i][j] for i in s) / len(s)
                           for j in range(len(points[0]))) for s in chain]
            res = simplex_in_region([points[i] for i in chain[0]],
                                    eta.region(barys))
            if res is Tri.UNKNOWN:
                raise UnknownContainment(f"undecided at chain {chain}")
            if res is Tri.FALSE:
                return False
    return True


def chains_to_top(size):
    """Strict chains of index subsets ending at range(size), each grown
    downward through every proper nonempty subset of its smallest face."""
    out = []

    def down(chain):
        out.append(chain)
        first = chain[0]
        for sub in itertools.product((False, True), repeat=len(first)):
            face = tuple(i for i, keep in zip(first, sub) if keep)
            if face and face != first:
                down((face,) + chain)

    down((tuple(range(size)),))
    return out


def chain_walk(points, eta):
    """The chain verdict of small-chain membership: the smallest face of
    every strict chain ending at the top inside the region at the chain's
    barycenters; FALSE if any chain is FALSE, else UNKNOWN if any is."""
    verdicts = set()
    for chain in chains_to_top(len(points)):
        barys = [tuple(sum(points[i][j] for i in s) / len(s)
                       for j in range(len(points[0]))) for s in chain]
        verdicts.add(regions.simplex_in_region(
            [points[i] for i in chain[0]], eta.region(barys)))
    for v in (Tri.FALSE, Tri.UNKNOWN):
        if v in verdicts:
            return v
    return Tri.TRUE


def three_valued(fn, *args):
    """fn's bool verdict as a Tri, UnknownContainment as UNKNOWN."""
    try:
        return Tri.TRUE if fn(*args) else Tri.FALSE
    except UnknownContainment:
        return Tri.UNKNOWN


def undecided_balls(monkeypatch, far):
    """Let region inclusion treat every ball centred beyond ``far`` in the
    first coordinate as a region it cannot decide: a vertex outside is
    still FALSE, but all vertices inside give UNKNOWN, as for a non-convex
    region."""
    is_convex = regions.is_convex

    def patched(region):
        if isinstance(region, OpenBall) and region.center[0] > far:
            return False
        return is_convex(region)

    monkeypatch.setattr(regions, "is_convex", patched)


def random_plane_simplices(seed, count, box=2):
    rng = random.Random(seed)
    return [[(F(rng.randint(-4 * box, 4 * box), 4),
              F(rng.randint(-4 * box, 4 * box), 4))
             for _ in range(rng.choice((1, 2, 3)))] for _ in range(count)]


class TestPairRoute:
    """in_c_eta asks face-coface pairs; its three-valued verdict equals the
    chain walk's."""

    def corpus(self):
        K = OrderedSimplicialComplex.standard_simplex(2)
        R = Realization({0: (F(1), F(0), F(0)), 1: (F(0), F(1), F(0)),
                         2: (F(0), F(0), F(1))})
        SK = subdivide(K).complex
        R2 = R.extended_to(SK)
        cases = []
        for r in (F(1, 4), F(1, 2), F(2, 3), F(3, 4), F(2)):
            eta = cover_generated(PLRealm(3), UniformBallRule(r))
            cases += [(face_points(cx, R2, key), eta)
                      for cx in (K, SK) for key in cx.all_faces()]
        plane = random_plane_simplices(4, 40)
        for c in (F(1, 4), F(1, 2)):
            eta = cover_generated(PLRealm(2), PuncturedBallRule(PUNCTURE, c))
            cases += [(pts, eta) for pts in plane]
        chart = AffineMap(((F(1), F(1), F(0)), (F(0), F(2), F(1))),
                          (F(0), F(0)))
        back = pullback(chart, cover_generated(PLRealm(2),
                                               UniformBallRule(F(3, 2))))
        cases += [(face_points(cx, R2, key), back)
                  for cx in (K, SK) for key in cx.all_faces()]
        return cases

    def assert_routes_agree(self):
        seen = set()
        for pts, eta in self.corpus():
            want = chain_walk(pts, eta)
            assert three_valued(in_c_eta, pts, eta) is want, pts
            seen.add(want)
        return seen

    def test_pairs_equal_chains(self):
        assert self.assert_routes_agree() == {Tri.TRUE, Tri.FALSE}

    def test_pairs_equal_chains_with_undecided_regions(self, monkeypatch):
        undecided_balls(monkeypatch, F(1, 4))
        assert self.assert_routes_agree() == {Tri.TRUE, Tri.FALSE,
                                              Tri.UNKNOWN}

class TestInCEta:
    def test_zero_simplex(self):
        eta = cover_generated(PLRealm(1), UniformBallRule(F(1, 64)))
        assert in_c_eta([(F(0),)], eta)

    def test_no_points_fails_typed(self):
        eta = cover_generated(PLRealm(1), UniformBallRule(F(1, 64)))
        with pytest.raises(NestingError, match="at least one point"):
            in_c_eta([], eta)

    @pytest.mark.parametrize("points, bad", [
        ([(0, 0), (1,)], r"\(1\) has length 1, expected 2"),
        ([(0,), (1, 1)], r"\(0\) has length 1, expected 2"),
    ])
    def test_point_length_fails_typed(self, points, bad):
        eta = cover_generated(PLRealm(2), UniformBallRule(F(1)))
        with pytest.raises(NestingError, match=bad):
            in_c_eta(points, eta)

    def test_long_interval_rejected(self):
        eta = cover_generated(PLRealm(1), UniformBallRule(F(1, 64)))
        K, R = delta1_realized()
        assert not in_c_eta(face_points(K, R, {0, 1}), eta)

    def test_after_three_subdivisions_accepted(self):
        eta = cover_generated(PLRealm(1), UniformBallRule(F(1, 64)))
        K, R = delta1_realized()
        results, _ = iterate_subdivide(K, 3)
        SK = results[-1].complex
        R3 = R.extended_to(SK)
        for key in SK.faces:
            assert in_c_eta(face_points(SK, R3, key), eta)

    def test_proper_equals_all_chains(self):
        eta = cover_generated(PLRealm(1), UniformBallRule(F(1, 4)))
        K, R = delta1_realized()
        SK = subdivide(K).complex
        R2 = R.extended_to(SK)
        verdicts = []
        for cx in (K, SK):
            for key in cx.faces:
                pts = face_points(cx, R2, key)
                verdicts.append(in_c_eta(pts, eta))
                assert verdicts[-1] == all_chains_in_c_eta(pts, eta)
        assert set(verdicts) == {True, False}

    def test_boundary_closure(self):
        eta = cover_generated(PLRealm(2), UniformBallRule(F(2, 3)))
        K = OrderedSimplicialComplex.standard_simplex(2)
        R = Realization({0: (F(1), F(0), F(0)), 1: (F(0), F(1), F(0)),
                         2: (F(0), F(0), F(1))})
        eta3 = cover_generated(PLRealm(3), UniformBallRule(F(2, 3)))
        accepted = [k for k in K.faces if in_c_eta(face_points(K, R, k), eta3)]
        for key in accepted:
            order = K.order(key)
            if len(order) > 1:
                for i in range(len(order)):
                    sub = frozenset(order[:i] + order[i + 1:])
                    assert sub in accepted

    def test_unknown_fails_loudly(self):
        # a region kind the region algebra does not know is an error, never
        # a pass

        class NonConvex(Region):
            def __eq__(self, other):
                return isinstance(other, NonConvex)

            def __hash__(self):
                return 7

        oracle = cover_generated(PLRealm(1), ConstantRule(NonConvex()))
        with pytest.raises(RegionError, match="unknown region"):
            in_c_eta([(F(0),)], oracle)
