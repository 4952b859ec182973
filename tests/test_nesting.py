import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import pytest

from nestrix import regions
from nestrix.finite_space import FiniteSpace, example03_space, pseudocircle
from nestrix.regions import (
    AffineMap,
    Ambient,
    Empty,
    FiniteSpaceOpen,
    Intersection,
    OpenBall,
    Polytope,
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
    AxiomReport,
    BallNetRule,
    CoverSpec,
    CoverageError,
    FiniteMap,
    FiniteRealm,
    MinimalOpenRule,
    NestingError,
    PLRealm,
    PuncturedBallRule,
    TableRule,
    UniformBallRule,
    UnknownContainment,
    broken_demo_nesting,
    check_axioms,
    cover_generated,
    extend_to_ambient,
    finite_sequences,
    in_c_cover,
    in_c_eta,
    intersect_family,
    minimal_open_nesting,
    pl_sample_sequences,
    pullback,
    restrict,
    subdivision_retraction,
    validate_coverage,
)
from nestrix.simplicial import (
    OrderedSimplicialComplex,
    Realization,
    iterate_subdivide,
    subdivide,
)


F = Fraction


@dataclass(frozen=True)
class RestrictedRule:
    base: object
    window: object

    def region_at(self, x):
        return intersection([self.base.region_at(x), self.window])

    def descriptor(self):
        return ("restricted", self.base.descriptor())


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

    def test_finite_open_materialization(self):
        a = FiniteSpaceOpen(frozenset({1, 2, 3}))
        b = FiniteSpaceOpen(frozenset({2, 3, 4}))
        got = intersection([a, b])
        assert got == FiniteSpaceOpen(frozenset({2, 3}))

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
        realm = PLRealm(1)
        rule = TableRule((((F(0),), Ambient()), ((F(1),), Ambient())))
        eta = cover_generated(realm, rule)
        assert eta.region(((F(0),), (F(1),))) == Ambient()

    def test_minimal_open_values(self):
        X = example03_space()
        eta = minimal_open_nesting(X)
        got = eta.region((2, 5))
        assert got == FiniteSpaceOpen(frozenset({2, 3}))

    def test_disjoint_balls_empty(self):
        realm = PLRealm(1)
        eta = cover_generated(realm, UniformBallRule(F(1, 16)))
        got = eta.region(((F(0),), (F(1),)))
        assert isinstance(got, Empty)

    def test_rule_must_contain_point(self):
        bad = TableRule((((F(0),), OpenBall((F(5),), F(1, 16))),))
        with pytest.raises(NestingError):
            cover_generated(PLRealm(1), bad)


class TestPullback:
    def test_identity(self):
        realm = PLRealm(2)
        eta = cover_generated(realm, UniformBallRule(F(1, 4)))
        ident = AffineMap(((F(1), F(0)), (F(0), F(1))), (F(0), F(0)))
        back = pullback(ident, eta)
        for seq in [((F(0), F(0)),), ((F(0), F(0)), (F(1, 2), F(0)))]:
            assert back.region(seq) == eta.region(seq)

    def test_inclusion_equals_restriction(self):
        X = example03_space()
        eta = minimal_open_nesting(X)
        U = frozenset({2, 3, 4})
        sub_pts = tuple(sorted(U))
        sub_opens = {o & U for o in X.opens}
        sub = FiniteSpace(sub_pts, sub_opens)
        incl = FiniteMap(sub, X, tuple((p, p) for p in sub_pts))
        via_pullback = pullback(incl, eta)
        via_restrict = restrict(eta, U)
        for seq in finite_sequences(sub, max_len=2):
            a = via_pullback.region(seq)
            b = via_restrict.region(seq)
            assert region_contains(a, b) is Tri.TRUE
            assert region_contains(b, a) is Tri.TRUE

    def test_quotient_map_axioms(self):
        # collapse the two closed points of the pseudocircle to one
        X = pseudocircle()
        Y = FiniteSpace.from_basis(("x", "y", "c"),
                                   [{"x"}, {"y"}, {"x", "y", "c"}])
        q = FiniteMap(X, Y, (("x", "x"), ("y", "y"), ("c", "c"), ("d", "c")))
        eta = minimal_open_nesting(Y)
        back = pullback(q, eta)
        rep = check_axioms(back, finite_sequences(X, max_len=3))
        assert rep.passed, rep.violations[:3]

    def test_map_must_land_in_the_realm(self):
        eta = cover_generated(PLRealm(3), UniformBallRule(F(1, 4)))
        into_plane = AffineMap(((F(1),), (F(0),)), (F(0), F(0)))
        with pytest.raises(NestingError, match="dimension 2.*dimension 3"):
            pullback(into_plane, eta)
        X, Y = pseudocircle(), pseudocircle()
        same = FiniteMap(X, Y, (("x", "x"), ("y", "y"), ("c", "c"),
                                ("d", "d")))
        with pytest.raises(NestingError, match="target"):
            pullback(same, minimal_open_nesting(X))
        pullback(same, minimal_open_nesting(Y))

    def test_unsupported_map_class(self):
        eta = cover_generated(PLRealm(1), UniformBallRule(F(1, 4)))
        with pytest.raises(NestingError):
            pullback(lambda x: x, eta)


class TestPointwise:
    """Only cover-generated oracles and their pullbacks are pointwise."""

    def test_cover_generated_and_pullbacks(self):
        eta = cover_generated(PLRealm(2), UniformBallRule(F(1, 4)))
        line = AffineMap(((F(1),), (F(2),)), (F(0), F(0)))
        assert eta.pointwise and pullback(line, eta).pointwise
        X = example03_space()
        U = frozenset({2, 3, 4})
        sub = FiniteSpace(tuple(sorted(U)), {o & U for o in X.opens})
        incl = FiniteMap(sub, X, tuple((p, p) for p in sorted(U)))
        finite = minimal_open_nesting(X)
        back = pullback(incl, finite)
        assert finite.pointwise and back.pointwise
        for seq in finite_sequences(sub, max_len=3)[1:]:
            assert back.region(seq) == intersection(
                [back.region((x,)) for x in seq])

    def test_other_constructors_are_not(self):
        realm = PLRealm(1)
        eta = cover_generated(realm, UniformBallRule(F(1, 4)))
        W = OpenBall((F(0),), F(4))
        others = [restrict(eta, W), extend_to_ambient(eta, W, realm),
                  intersect_family(lambda x: eta, realm),
                  broken_demo_nesting(realm, UniformBallRule(F(1, 4))),
                  pullback(AffineMap(((F(1),),), (F(0),)),
                           broken_demo_nesting(realm,
                                               UniformBallRule(F(1, 4))))]
        assert not any(o.pointwise for o in others)


PUNCTURE = (F(1, 3), F(1, 5))


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


class TestExtension:
    def _setup(self):
        realm = PLRealm(1)
        W = OpenBall((F(0),), F(4))
        inner_rule = RestrictedRule(UniformBallRule(F(1, 4)), W)
        eta_w = cover_generated(realm, inner_rule)
        return realm, W, eta_w, extend_to_ambient(eta_w, W, realm)

    def test_all_inside(self):
        realm, W, eta_w, ext = self._setup()
        seq = ((F(0),), (F(1, 2),))
        assert ext.region(seq) == eta_w.region(seq)

    def test_pattern_violated(self):
        _, W, _, ext = self._setup()
        w, z, w2 = (F(0),), (F(10),), (F(1, 2),)
        assert isinstance(ext.region((w, z, w2)), Empty)

    def test_empty_sequence_is_ambient(self):
        realm, _, _, ext = self._setup()
        assert ext.region(()) == Ambient()

    def test_all_outside_gives_ambient(self):
        # the k = 0 prefix case is repaired to the ambient realm so that
        # points outside W still receive a neighborhood
        _, W, _, ext = self._setup()
        assert ext.region(((F(10),), (F(20),))) == Ambient()

    def test_extension_axioms(self):
        realm, W, eta_w, ext = self._setup()
        seqs = pl_sample_sequences([(F(0),), (F(1, 2),), (F(10),)],
                                   seed=5, budget=150, max_len=3)
        rep = check_axioms(ext, seqs)
        assert rep.passed, rep.violations[:3]


class TestIntersectFamily:
    def test_equal_family_length_one(self):
        realm = PLRealm(1)
        eta = cover_generated(realm, UniformBallRule(F(1, 4)))
        fam = intersect_family(lambda x: eta, realm)
        p = (F(0),)
        assert fam.region((p,)) == eta.region((p,))
        # longer sequences only shrink
        q = (F(1, 8),)
        assert region_contains(eta.region((p, q)), fam.region((p, q))) is Tri.TRUE

    def test_two_point_finite_family(self):
        X = FiniteSpace.from_basis((0, 1), [{0}])  # Sierpinski
        eta0 = minimal_open_nesting(X)
        full = cover_generated(FiniteRealm(X),
                               TableRule(((0, FiniteSpaceOpen(frozenset({0, 1}))),
                                          (1, FiniteSpaceOpen(frozenset({0, 1}))))))
        fam = intersect_family(lambda x: eta0 if x == 0 else full, FiniteRealm(X))
        rep = check_axioms(fam, finite_sequences(X, max_len=3))
        assert rep.passed, rep.violations[:3]

    def test_empty_sequence(self):
        realm = PLRealm(2)
        eta = cover_generated(realm, UniformBallRule(F(1)))
        fam = intersect_family(lambda x: eta, realm)
        assert fam.region(()) == Ambient()


class TestCheckAxioms:
    def test_minimal_open_exhaustive(self):
        for X in (example03_space(), pseudocircle()):
            eta = minimal_open_nesting(X)
            rep = check_axioms(eta, finite_sequences(X, max_len=3))
            assert rep.passed

    def test_broken_oracle_fails_with_witness(self):
        realm = PLRealm(1)
        eta = broken_demo_nesting(realm, UniformBallRule(F(1, 16)))
        seqs = [((F(0),), (F(1),))]
        rep = check_axioms(eta, seqs)
        assert not rep.passed
        assert rep.violations[0].axiom == "iii"
        assert rep.violations[0].sequence == ((F(0),), (F(1),))

    def test_extension_of_passing_nesting_passes(self):
        X = example03_space()
        U = frozenset({2, 3, 4})
        eta_sub = restrict(minimal_open_nesting(X), U)
        ext = extend_to_ambient(eta_sub, U, FiniteRealm(X))
        rep = check_axioms(ext, finite_sequences(X, max_len=3))
        assert rep.passed, rep.violations[:3]

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
    """in_c_eta on a pointwise oracle asks face-coface pairs; its
    three-valued verdict equals the chain walk's."""

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

    def test_chain_walk_for_other_oracles(self, monkeypatch):
        # a non-pointwise oracle walks the chains; the counted evaluations
        # show which sequences were asked
        eta = broken_demo_nesting(PLRealm(2), UniformBallRule(F(1)))
        asked = []
        evaluate = eta._eval

        def counted(seq):
            asked.append(len(seq))
            return evaluate(seq)

        eta._eval = counted
        pts = [(F(0), F(0)), (F(1, 2), F(0)), (F(0), F(1, 2))]
        assert three_valued(in_c_eta, pts, eta) is chain_walk(pts, eta)
        assert max(asked) == 3


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

    def test_mixed_lengths_fail_typed_without_a_realm_dim(self):
        eta = cover_generated(PLRealm(2), UniformBallRule(F(1)))
        eta = replace(eta, realm=None)
        with pytest.raises(NestingError, match=r"\(1\) has length 1, expected 2"):
            in_c_eta([(0, 0), (1,)], eta)

    def test_long_interval_rejected(self):
        eta = cover_generated(PLRealm(1), UniformBallRule(F(1, 64)))
        K, R = delta1_realized()
        assert not in_c_eta(face_points(K, R, {0, 1}), eta)

    def test_after_three_subdivisions_accepted(self):
        eta = cover_generated(PLRealm(1), UniformBallRule(F(1, 64)))
        K, R = delta1_realized()
        results, _, _ = iterate_subdivide(K, 3)
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
        # non-convex region (intersection is convex; use a preimage of a
        # finite open to force a realm mismatch error instead)
        eta = broken_demo_nesting(PLRealm(1), UniformBallRule(F(1)))
        # broken oracle is fine here; force UNKNOWN via a non-convex stand-in

        class Weird:
            pass

        from nestrix.regions import Region

        class NonConvex(Region):
            def __eq__(self, other):
                return isinstance(other, NonConvex)

            def __hash__(self):
                return 7

        nc = NonConvex()
        oracle = cover_generated(PLRealm(1), TableRule((((F(0),), Ambient()),)))
        oracle._eval = lambda seq: nc if seq else Ambient()
        with pytest.raises(Exception):
            in_c_eta([(F(0),)], oracle)


class TestLemmaImplications:
    def _corpus(self):
        K, R = delta1_realized()
        results, _, _ = iterate_subdivide(K, 6)
        SK = results[-1].complex
        R6 = R.extended_to(SK)
        faces = []
        for key in SK.all_faces():
            faces.append([R6.point(v) for v in SK.order(key)])
        # shifted copies enlarge the corpus beyond one complex
        shifted = [[tuple(c + F(1, 3) for c in p) for p in pts]
                   for pts in faces]
        return faces + shifted

    def test_extension_membership_implication(self):
        realm = PLRealm(1)
        W = OpenBall((F(1, 4),), F(1, 3))
        rule = RestrictedRule(UniformBallRule(F(1, 16)), W)
        eta_w = cover_generated(realm, rule)
        ext = extend_to_ambient(eta_w, W, realm)
        corpus = self._corpus()
        assert len(corpus) >= 200
        hits = 0
        for pts in corpus:
            bary = tuple(sum(p[i] for p in pts) / len(pts)
                         for i in range(len(pts[0])))
            if not contains_point(W, bary):
                continue
            if in_c_eta(pts, ext):
                hits += 1
                assert all(contains_point(W, p) for p in pts)
                assert in_c_eta(pts, eta_w)
        assert hits > 0

    def test_intersection_membership_implication(self):
        realm = PLRealm(1)
        small = cover_generated(realm, UniformBallRule(F(1, 32)))
        big = cover_generated(realm, UniformBallRule(F(4)))

        def family(x):
            return small if x[0] <= F(1, 2) else big

        fam = intersect_family(family, realm)
        corpus = self._corpus()
        hits = 0
        for pts in corpus:
            bary = tuple(sum(p[i] for p in pts) / len(pts)
                         for i in range(len(pts[0])))
            if in_c_eta(pts, fam):
                hits += 1
                assert in_c_eta(pts, family(bary))
        assert hits > 0


class TestCoverSubcomplex:
    def test_already_inside(self):
        K, R = delta1_realized()
        cover = CoverSpec((OpenBall((F(1, 2),), F(1)),))
        chain = {frozenset({0, 1}): 1}
        assert subdivision_retraction(K, R, chain, cover) == 0

    def test_two_ball_scenario(self):
        K, R = delta1_realized()
        cover = CoverSpec((OpenBall((F(1, 4),), F(9, 64)),
                           OpenBall((F(3, 4),), F(9, 64))))
        chain = {frozenset({0, 1}): 1}
        n = subdivision_retraction(K, R, chain, cover)
        # derived minimal count, frozen; well within the documented bound 2
        assert n == 1
        assert n <= 2

    def test_gap_rejected(self):
        K, R = delta1_realized()
        cover = CoverSpec((OpenBall((F(1, 4),), F(1, 16)),
                           OpenBall((F(3, 4),), F(1, 16))))
        with pytest.raises(CoverageError):
            validate_coverage(cover, K, R)

    def test_in_c_cover(self):
        cover = CoverSpec((OpenBall((F(0),), F(1)),))
        assert in_c_cover([(F(0),), (F(1, 2),)], cover)
        assert not in_c_cover([(F(0),), (F(2),)], cover)

    def test_budget_exceeded(self):
        K, R = delta1_realized()
        cover = CoverSpec((OpenBall((F(1, 2),), F(100)),
                           OpenBall((F(0),), F(1, 1000000))))
        chain = {frozenset({0, 1}): 1}
        # fine: the huge ball covers everything at n = 0
        assert subdivision_retraction(K, R, chain, cover) == 0
        tight = CoverSpec((OpenBall((F(0),), F(26, 100)),
                           OpenBall((F(1),), F(26, 100))))
        with pytest.raises(NestingError):
            subdivision_retraction(K, R, chain, tight, budget=0)
