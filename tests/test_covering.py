"""The small-chain projection and the boundary construction, checked
against the identities that define them: pi fixes vertices and is a chain
map, dh + hd = id - pi on every face, pi lands in small chains, h sends
each accepted face to a small chain, and the boundary construction returns
a small x with dx = d(sigma).  S^n P - T_n is checked as a homotopy in the
cylinder itself, before the projection q flattens it.  The cylinder's
glued covering, validated only where it touches the n-step prism, gets the
verdict and failures of a full validation."""

import collections
import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from nestrix import covering, regions, simplicial
from nestrix.covering import (
    CompatibleCovering,
    CoveringError,
    boundary_in_small_chains,
    cylinder_covering,
    delta_complex,
    find_covering,
    mapping_cylinder,
    small_chain_projection,
    validate_covering,
)
from nestrix.nesting import (
    NestingError,
    PLRealm,
    PuncturedBallRule,
    UniformBallRule,
    cover_generated,
    pullback,
)
from nestrix.regions import (
    AffineMap,
    Polytope,
    polytope_contains_point,
)
from nestrix.symbolic import (
    AffineSimplex,
    FormalChain,
    chain_in_c_eta,
)


def ball_nesting(dim, sq_radius):
    return cover_generated(PLRealm(dim), UniformBallRule(sq_radius))


def linear_extension(values, boundary):
    """Sum of c * values[face] over a simplicial chain {face: c}."""
    out = FormalChain.zero(None)
    for sub, c in boundary.items():
        out = out.add(values[sub], c)
    return out


def assert_projection_identities(data, eta):
    K = data.cyl.base_complex
    R = data.cyl.base_realization
    for key in K.all_faces():
        order = K.order(key)
        pi = data.pi[key]
        boundary = K.boundary_of_face(key)
        if len(order) == 1:
            ((simplex, c),) = pi.terms.items()
            assert c == 1 and simplex.evaluate((1,)) == R.point(order[0])
        assert pi.boundary() == linear_extension(data.pi, boundary), order
        lhs = data.h[key].boundary().add(linear_extension(data.h, boundary))
        identity = FormalChain.single(AffineSimplex(
            [R.point(v) for v in order]))
        assert lhs == identity.add(pi, -1), order
        assert chain_in_c_eta(pi, eta) is True, order
    for key in data.cyl.accepted.faces:
        assert chain_in_c_eta(data.h[key], eta) is True, K.order(key)


SEGMENT = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]

# affine charts of simplices in the plane, by name: thin triangles whose
# unit edge alone is small at squared radius 1/2
CHARTS = {"triangle-03": ((0, 0), (1, 0), (0, 3)),
          "triangle-14": ((0, 0), (1, 0), (1, 4))}


def chart(points):
    """The affine map sending vertex i of the symmetric chart to
    points[i]."""
    rows = tuple(tuple(p[j] for p in points) for j in range(len(points[0])))
    return AffineMap(rows, (0,) * len(rows))


def spy_validations(monkeypatch):
    """The (covering, eta, checked) of every later covering validation."""
    validations = []
    validate = covering.validate_covering

    def spy_validate(cov, eta, checked=None):
        validations.append((cov, eta, checked))
        return validate(cov, eta, checked=checked)

    monkeypatch.setattr(covering, "validate_covering", spy_validate)
    return validations


def projection_run(monkeypatch, k, sq_radius, n_cap=3):
    """(data, eta, validations) of small_chain_projection(k, ball nesting,
    n_cap), where validations lists the (covering, eta, checked) of every
    covering validation the run made.

    k = "segment" takes the projection that boundary_in_small_chains makes
    for SEGMENT, with its pulled-back nesting, and checks the x it returns;
    k in CHARTS projects the simplex of that chart, with the ball nesting
    of the plane pulled back along it.
    """
    validations = spy_validations(monkeypatch)
    if k in CHARTS:
        points = CHARTS[k]
        eta = pullback(chart(points), ball_nesting(2, sq_radius))
        return (small_chain_projection(len(points) - 1, eta, n_cap=n_cap),
                eta, validations)
    if k != "segment":
        eta = ball_nesting(k + 1, sq_radius)
        return small_chain_projection(k, eta, n_cap=n_cap), eta, validations
    runs = []
    project = covering.small_chain_projection

    def spy(k, eta, n_cap):
        runs.append((project(k, eta, n_cap), eta))
        return runs[-1][0]

    monkeypatch.setattr(covering, "small_chain_projection", spy)
    eta = ball_nesting(2, sq_radius)
    x = boundary_in_small_chains(SEGMENT, eta, n_cap=n_cap)
    assert x.boundary() == FormalChain.single(AffineSimplex(SEGMENT)).boundary()
    assert chain_in_c_eta(x, eta) is True
    (run,) = runs
    return (*run, validations)


# squared ball radius -> dimension of the largest faces it accepts
TOP_ACCEPTED = {Fraction(2): 2, Fraction(3, 4): 2, Fraction(2, 3): 1,
                Fraction(3, 5): 1, Fraction(51, 100): 1, Fraction(1, 2): 0,
                Fraction(1, 8): 0, Fraction(1, 40): 0, Fraction(1, 100): 0}


def symmetric_sizes(k, sq_radius):
    """Accepted faces with 1, 2, ... vertices in the symmetric chart:
    faces of one dimension are congruent there, so the nesting accepts all
    of them or none."""
    top = min(k, TOP_ACCEPTED[sq_radius])
    return tuple(math.comb(k + 1, i + 1) for i in range(top + 1))


def accepted_sizes(cyl):
    """Number of accepted faces with 1, 2, ... vertices."""
    sizes = collections.Counter(len(key) for key in cyl.accepted.faces)
    return tuple(sizes[i] for i in range(1, max(sizes) + 1))


def assert_projection_run(data, eta, validations, sizes, depth):
    assert data.n == depth
    assert accepted_sizes(data.cyl) == sizes
    assert_projection_identities(data, eta)
    # every candidate the search tried and the glued cylinder covering,
    # validated against its checked lower part, agree with the reference
    for call in validations:
        assert_walk_equals_reference(*call)
    glued, _, lower = validations[-1]
    assert glued is data.covering and lower is not None
    # the search covers levels 0..1 only; every face above the seam, the
    # top copy included, has its own hull and is pinned at its barycenter
    R = glued.realization
    assert all(R.point(v)[-1] <= 1 for key in lower.assignments for v in key)
    for key in glued.assignments.keys() - lower.assignments.keys():
        order = glued.complex.order(key)
        assert glued.assignments[key] == (
            Polytope(tuple(R.point(v) for v in order)),
            R.barycenter(order)), order


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("sq_radius, depth", [
    (Fraction(2), 0), (Fraction(1, 2), 1), (Fraction(1, 8), 2),
    (Fraction(51, 100), 1), (Fraction(3, 5), 1), (Fraction(2, 3), 1),
    (Fraction(3, 4), 1)])
def test_projection_identities(monkeypatch, k, sq_radius, depth):
    data, eta, validations = projection_run(monkeypatch, k, sq_radius)
    assert_projection_run(data, eta, validations,
                          symmetric_sizes(k, sq_radius), depth)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("sq_radius", [
    Fraction(2), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)], ids=str)
def test_every_face_is_pinned_and_pi_is_q_after_subdivision(k, sq_radius):
    """One covering rule: every face of the cylinder is pinned at its own
    barycenter, so the deformation is the identity and pi is q pushed
    over S^n of the level-0 face, face by face."""
    data = small_chain_projection(k, ball_nesting(k + 1, sq_radius), n_cap=3)
    cov, cyl = data.covering, data.cyl
    R = cov.realization
    for key, (_, t) in cov.assignments.items():
        assert t == R.barycenter(cov.complex.order(key))
    for key in cyl.base_complex.faces:
        chain = cyl.sub_chain_map.values[cyl.level0[key]]
        faces = FormalChain({AffineSimplex([R.point(v) for v in
                                            cyl.Ln.order(face)]): c
                             for face, c in chain.items()})
        assert data.pi[key] == faces.push(cyl.q)


@pytest.mark.parametrize("k, sq_radius, depth, sizes", [
    pytest.param(1, Fraction(1, 40), 3, (2,), id="1-1/40-3"),
    pytest.param(1, Fraction(1, 100), 3, (2,), id="1-1/100-3"),
    pytest.param("segment", Fraction(3, 4), 1, (2, 1), id="segment-3/4-1"),
] + [pytest.param(name, Fraction(1, 2), 3, (3, 1), id=f"{name}-1/2-3",
                  marks=pytest.mark.slow) for name in CHARTS])
def test_projection_identities_at_depth_three_and_pulled_back(
        monkeypatch, k, sq_radius, depth, sizes):
    data, eta, validations = projection_run(monkeypatch, k, sq_radius)
    assert_projection_run(data, eta, validations, sizes, depth)


@pytest.mark.parametrize("k, sq_radius, depth, sizes", [
    pytest.param(3, Fraction(1, 2), 1, (4,), id="3-1/2-1"),
    pytest.param(3, Fraction(1, 4), 2, (4,), id="3-1/4-2",
                 marks=pytest.mark.slow),
    pytest.param(2, Fraction(1, 40), 4, (3,), id="2-1/40-4",
                 marks=pytest.mark.slow),
])
def test_projection_identities_deeper(monkeypatch, k, sq_radius, depth,
                                      sizes):
    data, eta, validations = projection_run(monkeypatch, k, sq_radius,
                                            n_cap=max(3, depth))
    assert_projection_run(data, eta, validations, sizes, depth)


@pytest.mark.parametrize("k, sq_radius, n", [
    (k, r, n) for k in (1, 2) for r in (Fraction(1, 8), Fraction(3, 5))
    for n in range(4) if (k, r, n) != (2, Fraction(3, 5), 3)
] + [(2, Fraction(3, 4), n) for n in (0, 1)], ids=str)
def test_cylinder_homotopy_before_deformation(k, sq_radius, n):
    """h = S^n P - T_n satisfies dh + hd = i_2 - S^n i_0 on every accepted
    face, on chains of Ln, where no prism simplex is flattened yet."""
    cyl = mapping_cylinder(k, ball_nesting(k + 1, sq_radius), n)
    assert cyl.accepted.faces

    def h(key):
        return covering._cylinder_homotopy(cyl, key)

    for key in cyl.accepted.faces:
        lhs = cyl.Ln.boundary_chain(h(key))
        for sub, c in cyl.accepted.boundary_of_face(key).items():
            simplicial.add_into(lhs, h(sub), c)
        want = {frozenset((v, 2) for v in key): 1}
        simplicial.add_into(want, cyl.sub_chain_map.values[cyl.level0[key]],
                            -1)
        assert lhs == want, cyl.accepted.order(key)


@pytest.mark.parametrize("k, sq_radius, n", [
    (k, r, n) for k in (1, 2)
    for r in (Fraction(2), Fraction(1, 2), Fraction(1, 8), Fraction(3, 5))
    for n in range(5 - k)], ids=str)
def test_cylinder_seam_is_shared(k, sq_radius, n):
    """S^n(L) and T_n name the seam alike, so Ln has one vertex per point:
    a seam named two ways would come out twice."""
    cyl = mapping_cylinder(k, ball_nesting(k + 1, sq_radius), n)
    points = [cyl.Ln_realization.point(v) for v in cyl.Ln.vertices()]
    assert len(set(points)) == len(points)


def test_search_failure_keeps_every_attempt():
    eta = ball_nesting(2, Fraction(1, 8))
    with pytest.raises(CoveringError) as info:
        small_chain_projection(1, eta, n_cap=1)
    attempts = info.value.attempts
    assert [(n, failure[0]) for n, failure in attempts] \
        == [(0, "chain-region"), (1, "chain-region")]
    assert f"last failure: {attempts[-1]!r}" in str(info.value)


def test_search_subdivides_once_per_depth(monkeypatch):
    calls = []
    subdivide = simplicial.subdivide

    def counted(K):
        calls.append(K)
        return subdivide(K)

    monkeypatch.setattr(simplicial, "subdivide", counted)
    validations = spy_validations(monkeypatch)
    K, R = delta_complex(1)
    res = find_covering(K, R, ball_nesting(2, Fraction(1, 20)), n_cap=4)
    # one subdivision and one candidate per depth
    assert res.n == 2 and len(calls) == 2 and len(validations) == 3
    monkeypatch.undo()
    subs, chain_map = simplicial.iterate_subdivide(K, 2)
    assert [s.complex for s in res.subdivision_results] == \
        [s.complex for s in subs]
    assert res.complex == subs[-1].complex
    assert res.chain_map.values == chain_map.values


def test_boundary_in_small_chains_segment():
    points = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]
    eta = ball_nesting(2, Fraction(1))
    x = boundary_in_small_chains(points, eta, n_cap=3)
    sigma = FormalChain.single(AffineSimplex(points))
    assert x.boundary() == sigma.boundary()
    assert chain_in_c_eta(x, eta) is True


TRIANGLE = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1))]


def record_calls(monkeypatch, module, name):
    """The arguments of every later call to ``module.name``."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def assert_fresh_cylinder(k, eta, n, glued, cyl):
    """cyl equals a fresh mapping_cylinder(k, eta, n) field by field, and
    the glued covering validates in full against the fresh oracle."""
    fresh = mapping_cylinder(k, eta, n)
    for f in dataclasses.fields(fresh):
        if f.name == "q_eta":       # a new oracle closure on every build
            continue
        got, want = getattr(cyl, f.name), getattr(fresh, f.name)
        if isinstance(want, simplicial.Realization):
            got, want = got.coords, want.coords
        assert got == want, f.name
    assert validate_covering(glued, fresh.q_eta).passed


def record_builds(monkeypatch):
    """The arguments of every later prism and T_n call of the cylinder
    constructions, by name."""
    return {name: record_calls(monkeypatch, covering, name) for name in
            ("prism_complex", "t_n_complex")}


def assert_built_once(builds, cyl):
    """One prism over the accepted subcomplex on [0, 1], then one T_n on
    [1, 2] (at n = 0 the prism on [2, 1])."""
    A = cyl.accepted
    if cyl.n == 0:
        assert builds["prism_complex"] == [(A, 0, 1), (A, 2, 1)]
        assert builds["t_n_complex"] == []
    else:
        assert builds["prism_complex"] == [(A, 0, 1)]
        assert builds["t_n_complex"] == [(A, cyl.n, 1, 2)]


def test_cylinder_built_once_at_depth_zero(monkeypatch):
    builds = record_builds(monkeypatch)
    eta = ball_nesting(3, Fraction(2))
    n, glued, cyl = cylinder_covering(2, eta, n_cap=3)
    assert n == 0
    assert_built_once(builds, cyl)
    for calls in builds.values():
        calls.clear()
    boundary_in_small_chains(TRIANGLE, ball_nesting(2, Fraction(1)), n_cap=3)
    assert len(builds["prism_complex"]) + len(builds["t_n_complex"]) == 2
    monkeypatch.undo()
    assert_fresh_cylinder(2, eta, 0, glued, cyl)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("sq_radius, depth", [
    (Fraction(1, 2), 1), (Fraction(3, 5), 1), (Fraction(1, 8), 2)], ids=str)
def test_cylinder_built_once_at_depth(monkeypatch, k, sq_radius, depth):
    builds = record_builds(monkeypatch)
    subdivided = record_calls(monkeypatch, simplicial, "subdivide")
    eta = ball_nesting(k + 1, sq_radius)
    n, glued, cyl = cylinder_covering(k, eta, n_cap=3)
    monkeypatch.undo()
    assert n == depth
    assert_built_once(builds, cyl)
    # L (it holds the vertex (0, 0)) is subdivided once per level, and T_n
    # subdivides the accepted subcomplex once per level of its own
    lower = [K for (K,) in subdivided if frozenset({(0, 0)}) in K.faces]
    assert len(lower) == n and len(subdivided) == 2 * n
    assert_fresh_cylinder(k, eta, n, glued, cyl)


def glued_validations(monkeypatch, run):
    """Every validation made with an already-checked lower covering, with
    its report, while ``run`` executes."""
    calls = []
    validate = covering.validate_covering

    def spy(cov, eta, checked=None):
        report = validate(cov, eta, checked=checked)
        if checked is not None:
            calls.append((cov, eta, checked, report))
        return report

    monkeypatch.setattr(covering, "validate_covering", spy)
    run()
    monkeypatch.undo()
    return calls


def assert_same_report(got, want):
    assert (got.passed, got.failures) == (want.passed, want.failures)


def glued_case(k, sq_radius):
    if k == "triangle":
        return lambda: boundary_in_small_chains(
            TRIANGLE, ball_nesting(2, Fraction(1)), n_cap=3)
    return lambda: cylinder_covering(k, ball_nesting(k + 1, sq_radius),
                                     n_cap=3)


@pytest.mark.parametrize("k, sq_radius", [
    (k, r) for k in (1, 2)
    for r in (Fraction(2), Fraction(1, 2), Fraction(1, 4))
] + [("triangle", Fraction(1))], ids=str)
def test_glued_validation_equals_full_validation(monkeypatch, k, sq_radius):
    ((glued, eta, lower, report),) = glued_validations(
        monkeypatch, glued_case(k, sq_radius))
    assert report.passed
    assert_same_report(report, validate_covering(glued, eta))
    # a bad covering set on one upper face is still reported
    upper = simplicial.sorted_faces(
        set(glued.assignments) - set(lower.assignments))
    face = upper[-1]
    W, t = glued.assignments[face]
    far = Polytope((tuple(Fraction(9) for _ in t),))
    bad = CompatibleCovering(glued.complex, glued.realization,
                             {**glued.assignments, face: (far, t)})
    incremental = validate_covering(bad, eta, checked=lower)
    assert not incremental.passed
    assert ("target-in-set", {"face": bad.complex.order(face)}) in \
        incremental.failures
    assert_same_report(incremental, validate_covering(bad, eta))
    assert_walk_equals_reference(glued, eta, lower)
    assert_walk_equals_reference(bad, eta, lower)


# ---------------------------------------------------------------------------
# the validation against a chain walk over all nested faces

def reference_chains(faces):
    """Strict ascending chains inside a face set, grown through a table of
    each face's strict supersets built over all pairs."""
    by_face = {k: [a for a in faces if k < a] for k in faces}
    chains = []

    def rec(chain):
        chains.append(tuple(chain))
        for nxt in by_face[chain[-1]]:
            chain.append(nxt)
            rec(chain)
            chain.pop()

    for k in faces:
        rec([k])
    return chains


def reference_walk(cov, eta, checked=None):
    """(failures, verdicts): the multiset of (kind, payload repr) failures of
    conditions i and ii, tested on every pair of nested assigned faces,
    and the condition-iii verdict of every chain of ``reference_chains``
    that a validation asks, by chain of face keys."""
    cx, R = cov.complex, cov.realization
    settled = set() if checked is None else \
        covering._settled_faces(cov, checked)
    faces = set(cov.assignments)
    out, cache = [], {}
    for key in faces - settled:
        W, t = cov.assignments[key]
        order = cx.order(key)
        pts = [R.point(v) for v in order]
        if len(order) == 1 and t != pts[0]:
            out.append(("zero-face-pin", {"face": order}))
        if not regions.contains_point(W, t, cache):
            out.append(("target-in-set", {"face": order}))
        res = regions.simplex_in_region(pts, W, cache)
        if res is not regions.Tri.TRUE:
            out.append(("face-in-set", {"face": order, "verdict": res.value}))
    for a in faces:
        for b in faces:
            if b < a and not (a in settled and b in settled):
                res = regions.region_contains(cov.W(a), cov.W(b), cache)
                if res is not regions.Tri.TRUE:
                    out.append(("nested-sets", {
                        "small": cx.order(b), "large": cx.order(a),
                        "verdict": res.value}))
    verdicts = {}
    for chain in reference_chains(faces):
        if not settled.issuperset(chain):
            region = eta.region([cov.t(k) for k in chain])
            verdicts[chain] = regions.region_contains(
                region, cov.W(chain[0]), cache)
    return collections.Counter((kind, repr(p)) for kind, p in out), verdicts


def failing_pairs(report):
    """{(face, coface): verdict} of a pair-route report's condition-iii
    records, each pair reported once."""
    pairs = [((frozenset(p["face"]), frozenset(p["coface"])), p["verdict"])
             for kind, p in report.failures if kind == "chain-region"]
    assert len(dict(pairs)) == len(pairs)
    return dict(pairs)


def assert_pairs_match_chains(pairs, verdicts):
    """The failing pairs give the reference's chain verdicts: a chain
    fails iff it pairs its first face with a failing member, and the pairs
    that are themselves chains ((s) and (s, t) with (s) alone passing)
    fail with the chain's verdict."""
    true = regions.Tri.TRUE
    for chain, v in verdicts.items():
        assert (v is not true) == any(
            (chain[0], k) in pairs for k in chain), chain
    alone = {c[0]: v for c, v in verdicts.items() if len(c) == 1}
    want = {(c[0], c[-1]): v.value for c, v in verdicts.items()
            if v is not true and (len(c) == 1 or len(c) == 2
                                  and alone.get(c[0], true) is true)}
    got = {(s, t): v for (s, t), v in pairs.items()
           if s == t or alone.get(s, true) is true}
    assert got == want


def assert_walk_equals_reference(cov, eta, checked=None):
    """The validation's verdict and failures equal the reference walk's,
    and its failures come out as conditions i, ii, iii, each in face order
    of the larger face, then of the smaller.  The condition-iii records
    are face-coface pairs, read against the reference's chain verdicts."""
    report = validate_covering(cov, eta, checked=checked)
    want, verdicts = reference_walk(cov, eta, checked)
    failing = {c: v for c, v in verdicts.items() if v is not regions.Tri.TRUE}
    assert report.passed == (not want and not failing)
    assert collections.Counter(
        (kind, repr(p)) for kind, p in report.failures
        if kind != "chain-region") == want
    assert_pairs_match_chains(failing_pairs(report), verdicts)
    rank = {"zero-face-pin": 0, "target-in-set": 0, "face-in-set": 0,
            "nested-sets": 1, "chain-region": 2}
    position = {key: i for i, key in
                enumerate(simplicial.sorted_faces(cov.assignments))}

    def walked(kind, p):
        larger = p.get("coface") or p.get("large") or p["face"]
        smaller = p.get("small") or p.get("face") or larger
        return (rank[kind], position[frozenset(larger)],
                position[frozenset(smaller)])

    order = [walked(kind, p) for kind, p in report.failures]
    assert order == sorted(order)
    return report


def planted_coverings():
    """(eta, valid, nested, moved): balls of squared radius 2 and three
    coverings of the standard 2-simplex under them.  valid is validated;
    nested stretches each vertex's covering set out of its edges' hulls,
    which fails condition ii; moved puts the triangle's target at its lead
    vertex, which fails condition iii."""
    K, R = delta_complex(2)
    eta = ball_nesting(3, Fraction(2))
    valid = find_covering(K, R, eta, n_cap=0).covering
    nested = dict(valid.assignments)
    for key in K.all_faces():
        if len(key) == 1:
            p = nested[key][1]
            off = tuple(c - Fraction(1, 10) for c in p)
            nested[key] = (Polytope((p, off)), p)
    moved = dict(valid.assignments)
    top = frozenset(range(3))
    moved[top] = (moved[top][0], R.point(0))
    return eta, valid, *(CompatibleCovering(K, R, a) for a in (nested, moved))


def test_validation_equals_reference_walk_on_planted_failures():
    eta, valid, nested, moved = planted_coverings()
    assert assert_walk_equals_reference(valid, eta).passed
    for bad, kind in ((nested, "nested-sets"), (moved, "chain-region")):
        for checked in (None, valid, bad):
            report = assert_walk_equals_reference(bad, eta, checked)
            # checked against itself, every face is settled
            assert report.passed == (checked is bad)
            assert (kind in {f for f, _ in report.failures}) == \
                (checked is not bad)


PUNCTURE = (Fraction(0), Fraction(0))


def random_simplices(rng, count):
    """``count`` random segments and triangles in the plane with vertex
    coordinates in [-3/2, 3/2] over 4, affinely independent."""
    out = []
    while len(out) < count:
        pts = tuple(tuple(Fraction(rng.randint(-6, 6), 4) for _ in range(2))
                    for _ in range(rng.choice((2, 3))))
        (a, b), (c, d) = pts[:2]
        if len(pts) == 2:
            independent = (a, b) != (c, d)
        else:
            e, f = pts[2]
            independent = (c - a) * (f - b) != (d - b) * (e - a)
        if independent:
            out.append(pts)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_punctured_plane_sweep(monkeypatch, seed):
    """Random segments and triangles under the punctured-plane rule,
    pulled back along their charts.  A simplex that holds the puncture
    never projects (the rule is undefined there, and every ball misses
    it).  The others project within the cap, fail at it, or fail the
    glued cylinder's validation: pinning every face above the seam at its
    own barycenter is checked, not guaranteed, and balls of different
    radii can refuse it.  Every projection satisfies its identities, and
    every validation made on the way agrees with the reference chain
    walk."""
    rng = random.Random(seed)
    outcomes = collections.Counter()
    for points in random_simplices(rng, 6):
        c = rng.choice((Fraction(1, 4), Fraction(1, 2)))
        eta = pullback(chart(points), cover_generated(
            PLRealm(2), PuncturedBallRule(PUNCTURE, c)))
        holds_puncture = polytope_contains_point(points, PUNCTURE)
        validations = spy_validations(monkeypatch)
        try:
            data = small_chain_projection(len(points) - 1, eta, n_cap=2)
        except NestingError as e:
            assert holds_puncture and "puncture" in str(e)
            outcomes["puncture"] += 1
        except CoveringError as e:
            if e.attempts:
                assert [n for n, _ in e.attempts] == [0, 1, 2]
                outcomes["cap"] += 1
            else:
                assert "cylinder covering invalid" in str(e)
                outcomes["glued"] += 1
        else:
            assert not holds_puncture
            assert_projection_identities(data, eta)
            outcomes["projected"] += 1
        monkeypatch.undo()
        for call in validations:
            assert_walk_equals_reference(*call)
    assert outcomes["projected"] > 0


def test_repeated_projection_does_the_same_work(monkeypatch):
    counts = collections.Counter()
    apply = regions.AffineMap.apply
    solve_unique = regions._solve_unique

    def counted_apply(self, x):
        counts["apply"] += 1
        return apply(self, x)

    def counted_solve(A, b):
        counts["solve"] += 1
        return solve_unique(A, b)

    monkeypatch.setattr(regions.AffineMap, "apply", counted_apply)
    monkeypatch.setattr(regions, "_solve_unique", counted_solve)
    eta = ball_nesting(3, Fraction(2))
    runs = []
    for _ in range(2):
        counts.clear()
        small_chain_projection(2, eta, n_cap=3)
        runs.append(dict(counts))
    assert runs[0] == runs[1]
    assert runs[0]["apply"] > 0 and runs[0]["solve"] > 0


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started before the input was checked")


def forbid_work(monkeypatch, names=("validate_covering", "delta_complex",
                                    "in_c_eta", "pullback")):
    for name in names:
        monkeypatch.setattr(covering, name, _must_not_run)
    monkeypatch.setattr(simplicial, "subdivide", _must_not_run)


@pytest.mark.parametrize("bad", [-1, True, 1.5, "2", None], ids=repr)
def test_bad_subdivision_cap_fails_typed(monkeypatch, bad):
    K, R = delta_complex(1)
    eta = ball_nesting(2, Fraction(2))
    forbid_work(monkeypatch)
    calls = [lambda: find_covering(K, R, eta, n_cap=bad),
             lambda: small_chain_projection(1, eta, n_cap=bad),
             lambda: cylinder_covering(1, eta, n_cap=bad),
             lambda: mapping_cylinder(1, eta, bad),
             lambda: boundary_in_small_chains([(0, 0), (1, 1)], eta,
                                              n_cap=bad)]
    for call in calls:
        with pytest.raises(CoveringError, match=f"got {bad!r}"):
            call()
    with pytest.raises(simplicial.SimplicialError, match=f"got {bad!r}"):
        simplicial.iterate_subdivide(K, bad)


@pytest.mark.parametrize("bad", [-1, True, 1.0, "1", 4], ids=repr)
def test_bad_simplex_dimension_fails_typed(monkeypatch, bad):
    eta = ball_nesting(2, Fraction(2))
    forbid_work(monkeypatch)
    for call in (lambda: mapping_cylinder(bad, eta, 1),
                 lambda: cylinder_covering(bad, eta, n_cap=1),
                 lambda: small_chain_projection(bad, eta, n_cap=1)):
        with pytest.raises(CoveringError, match="simplex dimension"):
            call()


@pytest.mark.parametrize("points, problem", [
    ([], "needs a point"),
    ([(0, 0), (1,)], "different lengths"),
    ([(0,), (1, 1)], "different lengths"),
    ([(i, i * i) for i in range(5)], "5 points exceed"),
], ids=["empty", "shorter", "longer", "too-many"])
def test_bad_boundary_points_fail_typed(monkeypatch, points, problem):
    eta = ball_nesting(2, Fraction(1))
    forbid_work(monkeypatch)
    with pytest.raises(CoveringError, match=problem):
        boundary_in_small_chains(points, eta, n_cap=1)


def test_nesting_must_live_where_the_simplex_does(monkeypatch):
    forbid_work(monkeypatch, ("validate_covering", "delta_complex",
                              "in_c_eta"))
    with pytest.raises(NestingError, match="dimension 2.*dimension 3"):
        small_chain_projection(1, ball_nesting(3, Fraction(2)), n_cap=1)


def test_oracles_evaluate_each_point_once(monkeypatch):
    evals = collections.Counter()
    oracles = []

    def counted(oracle):
        evaluate = oracle.point_region

        def wrapped(x):
            evals[id(oracle), x] += 1
            return evaluate(x)

        oracle.point_region = wrapped
        oracles.append((oracle, evaluate))
        return oracle

    pullback = covering.pullback
    monkeypatch.setattr(covering, "pullback",
                        lambda f, eta: counted(pullback(f, eta)))
    eta = counted(ball_nesting(3, Fraction(1, 2)))
    data = small_chain_projection(2, eta, n_cap=3)
    assert data.n == 1
    assert len(oracles) > 1 and evals and max(evals.values()) == 1
    for oracle, evaluate in oracles:
        assert len(oracle._memo) == sum(
            1 for (i, _) in evals if i == id(oracle))
        for x, region in oracle._memo.items():
            assert region == evaluate(x)


# the three failing searches and the planted nested-sets covering, whose
# reports a run prints as JSON; argv[1] is this file's directory
REPORTS_SCRIPT = """
import json, sys
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
from test_covering import ball_nesting, planted_coverings
from nestrix.covering import (CoveringError, small_chain_projection,
                              validate_covering)
out = []
for k, sq_radius, n_cap in ((1, "1/8", 1), (2, "1/8", 1), (2, "1/40", 2)):
    try:
        small_chain_projection(k, ball_nesting(k + 1, Fraction(sq_radius)),
                               n_cap=n_cap)
    except CoveringError as e:
        out.append([str(e), repr(e.attempts)])
eta, valid, nested, moved = planted_coverings()
out.append(repr(validate_covering(nested, eta).failures))
print(json.dumps(out))
"""


def run_under_hash_seeds(script):
    """The JSON that ``script`` prints, run as ``python -c`` with this
    file's directory as argv[1], under hash seeds 0 and 1."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    runs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", script, here],
                             env=env, capture_output=True, text=True,
                             check=True).stdout
        runs.append(json.loads(out))
    return runs


def test_failure_reports_do_not_depend_on_the_hash_seed():
    runs = run_under_hash_seeds(REPORTS_SCRIPT)
    assert len(runs[0]) == 4 and "nested-sets" in runs[0][-1]
    assert runs[0] == runs[1]


# the failures of the candidate on the once subdivided
# 2-simplex, which fails condition iii on many face-coface pairs
PAIR_REPORT_SCRIPT = """
import json, sys
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
from test_covering import ball_nesting
from nestrix import covering
from nestrix.simplicial import iterate_subdivide
K, R = covering.delta_complex(2)
subs, _ = iterate_subdivide(K, 1)
cx = subs[-1].complex
cand = covering._candidate_covering(cx, R.extended_to(cx))
report = covering.validate_covering(cand, ball_nesting(3, Fraction(1, 8)))
print(json.dumps(repr(report.failures)))
"""


def test_pair_records_do_not_depend_on_the_hash_seed():
    runs = run_under_hash_seeds(PAIR_REPORT_SCRIPT)
    assert runs[0].count("'coface'") > 10
    assert runs[0] == runs[1]
