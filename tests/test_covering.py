"""The small-chain projection and the boundary construction, checked
against the identities that define them: pi fixes vertices and is a chain
map, dh + hd = id - pi on every face, pi lands in small chains, and the
boundary construction returns a small x with dx = d(sigma).  The cylinder's
glued covering, validated only where it touches the n-step prism, gets the
verdict and failures of a full validation."""

import collections
import dataclasses
import hashlib
import itertools
import json
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
from nestrix.exact import frac_str
from nestrix.nesting import PLRealm, UniformBallRule, cover_generated
from nestrix.regions import Polytope, region_descriptor
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


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("sq_radius, depth",
                         [(Fraction(2), 0), (Fraction(1, 2), 1)])
def test_projection_identities(k, sq_radius, depth):
    eta = ball_nesting(k + 1, sq_radius)
    data = small_chain_projection(k, eta, n_cap=3)
    assert data.n == depth
    assert_projection_identities(data, eta)


@pytest.mark.xfail(strict=True, raises=CoveringError,
                   reason="zero-face-pin: subdivision vertices inherit the "
                          "seed's barycenter target, so depth 2 never "
                          "validates")
def test_projection_at_depth_two():
    eta = ball_nesting(2, Fraction(1, 8))
    data = small_chain_projection(1, eta, n_cap=3)
    assert_projection_identities(data, eta)


def test_search_failure_keeps_every_attempt():
    eta = ball_nesting(2, Fraction(1, 8))
    with pytest.raises(CoveringError) as info:
        small_chain_projection(1, eta, n_cap=3)
    attempts = info.value.attempts
    assert [(n, strategy) for n, strategy, _ in attempts] == [
        (n, strategy) for n in range(4) for strategy in ("barycenter",
                                                         "vertex")]
    assert attempts[-1][2][0] == "zero-face-pin"
    assert "zero-face-pin" in str(info.value)


def test_search_subdivides_once_per_depth(monkeypatch):
    calls = []
    subdivide = simplicial.subdivide

    def counted(K):
        calls.append(K)
        return subdivide(K)

    monkeypatch.setattr(simplicial, "subdivide", counted)
    K, R = delta_complex(1)
    res = find_covering(K, R, ball_nesting(2, Fraction(1, 20)), n_cap=4)
    assert res.n == 2 and len(calls) == 2
    monkeypatch.undo()
    subs, chain_map, carrier = simplicial.iterate_subdivide(K, 2)
    assert [s.complex for s in res.subdivision_results] == \
        [s.complex for s in subs]
    assert res.complex == subs[-1].complex
    assert res.chain_map.values == chain_map.values
    assert res.carrier == carrier


def test_boundary_in_small_chains_segment():
    points = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]
    eta = ball_nesting(2, Fraction(1))
    x = boundary_in_small_chains(points, eta, n_cap=3)
    sigma = FormalChain.single(AffineSimplex(points))
    assert x.boundary() == sigma.boundary()
    assert chain_in_c_eta(x, eta) is True


TRIANGLE = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1))]


def test_cylinder_built_once_at_depth_zero(monkeypatch):
    calls = []
    build = covering.mapping_cylinder

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(covering, "mapping_cylinder", counted)
    eta = ball_nesting(3, Fraction(2))
    n, glued, cyl = cylinder_covering(2, eta, n_cap=3)
    assert n == 0 and calls == [(2, eta, 0)]
    boundary_in_small_chains(TRIANGLE, ball_nesting(2, Fraction(1)), n_cap=3)
    assert len(calls) == 2
    monkeypatch.undo()
    fresh = mapping_cylinder(2, eta, 0)
    for f in dataclasses.fields(fresh):
        if f.name == "q_eta":       # a new oracle closure on every build
            continue
        got, want = getattr(cyl, f.name), getattr(fresh, f.name)
        if isinstance(want, simplicial.Realization):
            got, want = got.coords, want.coords
        assert got == want, f.name
    assert validate_covering(glued, fresh.q_eta).passed


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


def test_repeated_projection_does_the_same_work(monkeypatch):
    counts = collections.Counter()
    apply = regions.AffineMap.apply
    lp_feasible = regions._lp_feasible

    def counted_apply(self, x):
        counts["apply"] += 1
        return apply(self, x)

    def counted_lp(A, b):
        counts["lp"] += 1
        return lp_feasible(A, b)

    monkeypatch.setattr(regions.AffineMap, "apply", counted_apply)
    monkeypatch.setattr(regions, "_lp_feasible", counted_lp)
    eta = ball_nesting(3, Fraction(2))
    runs = []
    for _ in range(2):
        counts.clear()
        small_chain_projection(2, eta, n_cap=3)
        runs.append(dict(counts))
    assert runs[0] == runs[1]
    assert runs[0]["apply"] > 0 and runs[0]["lp"] > 0


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started before the cap was checked")


@pytest.mark.parametrize("bad", [-1, True, 1.5, "2", None], ids=repr)
def test_bad_subdivision_cap_fails_typed(monkeypatch, bad):
    K, R = delta_complex(1)
    eta = ball_nesting(2, Fraction(2))
    monkeypatch.setattr(covering, "validate_covering", _must_not_run)
    monkeypatch.setattr(covering, "delta_complex", _must_not_run)
    monkeypatch.setattr(covering, "in_c_eta", _must_not_run)
    monkeypatch.setattr(simplicial, "subdivide", _must_not_run)
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


def test_oracles_evaluate_each_sequence_once(monkeypatch):
    evals = collections.Counter()
    oracles = []

    def counted(oracle):
        evaluate = oracle._eval

        def wrapped(seq):
            evals[id(oracle), seq] += 1
            return evaluate(seq)

        oracle._eval = wrapped
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
        for seq, region in oracle._memo.items():
            assert region == evaluate(seq)


def reference_uid(cov):
    blob = json.dumps(
        [[sorted(map(repr, k)), region_descriptor(w),
          [frac_str(c) for c in t]]
         for k, (w, t) in sorted(cov.assignments.items(),
                                 key=lambda kv: sorted(map(repr, kv[0])))],
        sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def test_uid_is_computed_on_first_read(monkeypatch):
    digests = []
    sha256 = hashlib.sha256

    def counted(data):
        digests.append(data)
        return sha256(data)

    K, R = delta_complex(2)
    assignments = {key: (Polytope(tuple(R.point(v) for v in K.order(key))),
                         R.barycenter(K.order(key)))
                   for key in K.all_faces()}
    monkeypatch.setattr(covering.hashlib, "sha256", counted)
    cov = CompatibleCovering(K, R, assignments)
    named = CompatibleCovering(K, R, assignments, uid="given")
    assert digests == []
    assert named.uid == "given" and digests == []
    # equality and repr look at the data fields only
    assert cov == named and "uid" not in repr(cov)
    first = cov.uid
    assert cov.uid == first and len(digests) == 1
    monkeypatch.undo()
    assert first == reference_uid(cov)
    data = small_chain_projection(2, ball_nesting(3, Fraction(1, 2)),
                                  n_cap=3)
    assert data.covering.uid == reference_uid(data.covering)


def subset_walk_identity(cov, key):
    """Every nonempty subface of key assigned and pinned at its barycenter,
    checked by walking all of them."""
    order = cov.complex.order(key)
    for size in range(1, len(order) + 1):
        for sub in itertools.combinations(order, size):
            sk = frozenset(sub)
            if sk not in cov.assignments or cov.t(sk) != \
                    cov.realization.barycenter(cov.complex.order(sk)):
                return False
    return True


def test_identity_verdicts_equal_the_subset_walk():
    coverings = []
    for k in (1, 2):
        for sq_radius in (Fraction(2), Fraction(1, 2)):
            data = small_chain_projection(
                k, ball_nesting(k + 1, sq_radius), n_cap=3)
            coverings.append(data.covering)
    # one vertex's target moved off its own point
    cov = coverings[-1]
    vertex = next(key for key in cov.complex.all_faces() if len(key) == 1
                  and subset_walk_identity(cov, key))
    moved = dict(cov.assignments)
    w, t = moved[vertex]
    moved[vertex] = (w, tuple(c + Fraction(1, 7) for c in t))
    coverings.append(CompatibleCovering(cov.complex, cov.realization, moved))
    seen = set()
    for cov in coverings:
        fresh = CompatibleCovering(cov.complex, cov.realization,
                                   cov.assignments)
        faces = cov.complex.all_faces()
        verdicts = {key: fresh.is_identity_on(key) for key in faces}
        assert verdicts == {key: subset_walk_identity(cov, key)
                            for key in faces}
        seen.update(verdicts.values())
    assert seen == {True, False}
    # on the last covering the moved vertex fails every face that holds it
    assert not any(v for key, v in verdicts.items() if vertex <= key)
    assert any(verdicts.values())
