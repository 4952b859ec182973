"""Affine maps, distances and the membership layer under covering
validation: the sparse kernel gives the dense formulas' exact values, a
dimension mismatch raises instead of truncating, the integer solver gives
the rational one's answers, polytope membership fails closed where
dependent vertices leave it undecided, equal regions hash alike, and the
inclusion memo changes no verdict and no covering answer."""

import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from nestrix import covering, regions
from nestrix.covering import (
    boundary_in_small_chains,
    small_chain_projection,
    validate_covering,
)
from nestrix.exact import frac
from nestrix.nesting import PLRealm, UniformBallRule, cover_generated
from nestrix.regions import (
    AffineMap,
    AffinePreimage,
    Ambient,
    Intersection,
    OpenBall,
    Polytope,
    RegionError,
    Tri,
    ball_in_ball,
    contains_point,
    intersection,
    polytope_contains_point,
    preimage_region,
    region_contains,
    sqdist,
)


def dense_apply(m, x):
    return tuple(sum(r[j] * x[j] for j in range(len(x))) + o
                 for r, o in zip(m.rows, m.offset))


def dense_transpose_apply(m, y):
    return tuple(sum(m.rows[k][i] * y[k] for k in range(m.target_dim))
                 for i in range(m.source_dim))


def random_entry(rng):
    """Mostly 0 and +-1, the shapes the sparse path shortcuts, plus some
    general rationals."""
    return rng.choice([F(0), F(0), F(0), F(1), F(-1),
                       F(rng.randint(-9, 9), rng.randint(1, 7))])


def random_map(rng, target, source):
    rows = [[random_entry(rng) for _ in range(source)] for _ in range(target)]
    if target > 1:
        rows[rng.randrange(target)] = [F(0)] * source      # a zero row
    if source > 1:
        j = rng.randrange(source)
        for r in rows:
            r[j] = F(0)                                    # a zero column
    offset = [random_entry(rng) for _ in range(target)]
    offset[0] = F(rng.randint(1, 5), rng.randint(1, 5))   # nonzero offset
    return AffineMap(tuple(map(tuple, rows)), tuple(offset))


def random_point(rng, dim):
    return tuple(F(rng.randint(-12, 12), rng.randint(1, 6))
                 for _ in range(dim))


def test_sparse_kernel_equals_dense_formulas():
    rng = random.Random(20160222)
    for _ in range(200):
        a, b, c = (rng.randint(1, 5) for _ in range(3))
        inner = random_map(rng, b, a)
        outer = random_map(rng, c, b)
        x = random_point(rng, a)
        y = random_point(rng, b)
        assert inner.apply(x) == dense_apply(inner, x)
        assert inner.transpose_apply(y) == dense_transpose_apply(inner, y)
        assert outer.apply(inner.apply(x)) == \
            dense_apply(outer, dense_apply(inner, x))
    for dim in range(2, 6):
        q = AffineMap.projection_drop_last(dim)
        x = random_point(rng, dim)
        y = random_point(rng, dim - 1)
        assert q.apply(x) == dense_apply(q, x) == x[:-1]
        assert q.transpose_apply(y) == dense_transpose_apply(q, y) \
            == y + (F(0),)


def test_equal_maps_hash_alike():
    m = AffineMap(((1, 0), (F(1, 2), 3)), (0, F(-1)))
    same = AffineMap(((F(1), F(0)), (F(1, 2), F(3))), (F(0), F(-1)))
    assert m == same and hash(m) == hash(same)
    assert len({m, same, AffineMap.projection_drop_last(2)}) == 2


def test_dimension_mismatch_raises():
    ball = OpenBall((F(0), F(0)), F(1))
    with pytest.raises(RegionError):
        sqdist((F(0), F(0)), (F(0), F(0), F(5)))
    with pytest.raises(RegionError):
        contains_point(ball, (F(0), F(0), F(5)))
    with pytest.raises(RegionError):
        ball_in_ball(OpenBall((F(0),), F(1, 4)), ball)
    q = AffineMap.projection_drop_last(3)
    with pytest.raises(RegionError):
        q.transpose_apply((F(1),))
    with pytest.raises(RegionError):
        q.transpose_apply((F(1), F(2), F(3)))


def test_ragged_shapes_raise_at_construction():
    with pytest.raises(RegionError):
        AffineMap(((1, 0), (1,)), (0, 0))
    with pytest.raises(RegionError):
        AffineMap(((1,), (1, 1)), (0, 0))
    with pytest.raises(RegionError):
        Polytope(((0, 0), (1,), (0, 1)))
    assert AffineMap((), ()).source_dim == 0
    assert not contains_point(Polytope(()), (F(0),))


def test_ball_preimage_checks_the_dimension():
    identity = AffineMap(((1, 0), (0, 1)), (0, 0))
    assert identity.cols_orthonormal()
    with pytest.raises(RegionError):
        preimage_region(identity, OpenBall((0, 0, 0), 1))
    assert preimage_region(identity, OpenBall((0, 1), 1)) \
        == OpenBall((0, 1), 1)


# ---------------------------------------------------------------------------
# the rational solver the integer one replaced, written out as reference

def reference_solve_unique(A, b):
    m = len(A)
    n = len(A[0]) if m else 0
    T = [[frac(v) for v in A[i]] + [frac(b[i])] for i in range(m)]
    piv_cols = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if T[i][c] != 0), None)
        if piv is None:
            continue
        T[r], T[piv] = T[piv], T[r]
        pv = T[r][c]
        T[r] = [v / pv for v in T[r]]
        for i in range(m):
            if i != r and T[i][c] != 0:
                f = T[i][c]
                T[i] = [v - f * w for v, w in zip(T[i], T[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if T[i][-1] != 0:
            return ("inconsistent", None)
    if len(piv_cols) < n:
        return None
    x = [F(0)] * n
    for i, c in enumerate(piv_cols):
        x[c] = T[i][-1]
    return ("unique", x)


def random_system(rng):
    """A general system, or the barycentric system of a point against a
    vertex set; with zero rows, repeated and dependent rows and columns,
    negative right-hand sides."""
    if rng.random() < 0.5:
        d, count = rng.randint(1, 3), rng.randint(1, 6)
        verts = [random_point(rng, d) for _ in range(count)]
        if count > 2 and rng.random() < 0.5:         # a dependent vertex
            a, b = rng.sample(verts[:-1], 2)
            t = F(rng.randint(-3, 6), rng.randint(1, 4))
            verts[-1] = tuple(p + t * (q - p) for p, q in zip(a, b))
        if count > 1 and rng.random() < 0.3:         # a repeated vertex
            verts[-1] = verts[0]
        A = [[v[r] for v in verts] for r in range(d)] + [[F(1)] * count]
        x = random_point(rng, d)
        if rng.random() < 0.4:                       # a point of the hull
            lam = [F(rng.randint(0, 5)) for _ in verts]
            total = sum(lam) or F(1)
            x = tuple(sum(l * v[r] for l, v in zip(lam, verts)) / total
                      for r in range(d))
        return A, list(x) + [F(1)]
    m, n = rng.randint(1, 5), rng.randint(1, 6)
    A = [[random_entry(rng) for _ in range(n)] for _ in range(m)]
    b = [random_entry(rng) for _ in range(m)]
    if m > 1 and rng.random() < 0.3:
        A[rng.randrange(m)] = [F(0)] * n             # a zero row
    if m > 1 and rng.random() < 0.3:                 # a dependent row
        i, j = rng.sample(range(m), 2)
        c = random_entry(rng)
        A[i] = [c * v for v in A[j]]
        b[i] = c * b[j] if rng.random() < 0.5 else b[i]
    if n > 1 and rng.random() < 0.3:                 # a dependent column
        i, j = rng.sample(range(n), 2)
        for row in A:
            row[i] = -2 * row[j]
    return A, b


def test_integer_solvers_match_the_rational_ones():
    rng = random.Random(1968)
    seen = {"unique": 0, "inconsistent": 0, "underdetermined": 0,
            "negative rhs": 0, "zero row": 0, "barycentric": 0}
    for _ in range(3000):
        A, b = random_system(rng)
        want = reference_solve_unique(A, b)
        assert regions._solve_unique(A, b) == want, (A, b)
        seen[want[0] if want else "underdetermined"] += 1
        seen["negative rhs"] += any(v < 0 for v in b)
        seen["zero row"] += any(not any(row) for row in A)
        seen["barycentric"] += all(v == 1 for v in A[-1]) and b[-1] == 1
    assert min(seen.values()) >= 200, seen


def test_polytope_membership_on_dependent_vertex_sets():
    """Dependent vertices decide a point off their affine hull and a listed
    vertex; a point on the hull has no unique barycentric coordinates and
    fails closed."""
    square = Polytope(((0, 0), (1, 0), (0, 1), (1, 1)))
    segment = Polytope(((0, 0), (1, 1), (2, 2), (F(1, 2), F(1, 2))))
    for region, x in ((square, (F(1, 2), F(1, 2))),
                      (segment, (F(3, 2), F(3, 2)))):
        with pytest.raises(RegionError, match="affinely dependent"):
            contains_point(region, x)
    assert not contains_point(segment, (F(3, 2), F(1)))
    assert contains_point(square, (F(1), F(1)))
    assert polytope_contains_point(((F(-1, 3), F(5, 7)),), (F(-1, 3), F(5, 7)))


def test_equal_regions_hash_and_compare_alike():
    f = AffineMap(((1, 0, 0), (0, 1, 0)), (0, F(1, 2)))
    for build in (
            lambda: OpenBall((1, F(1, 2)), F(3, 4)),
            lambda: Polytope(((0, 0), (F(1, 3), 1), (2, "1/5"))),
            lambda: intersection([OpenBall((0, 0), 1),
                                  OpenBall((F(1, 2), 0), 1)]),
            lambda: AffinePreimage(f, Polytope(((0, 0), (1, 1)))),
            lambda: preimage_region(f, intersection([
                OpenBall((0, 0), 2), Polytope(((0, 0), (1, 0)))]))):
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert {(a, (F(0),)): 1}[(b, (F(0),))] == 1
    assert isinstance(intersection([OpenBall((0, 0), 1),
                                    OpenBall((1, 0), 1)]), Intersection)
    assert OpenBall((0, 0), 1) != OpenBall((0, 0), 2)
    assert Polytope(((0, 0), (1, 0))) != Polytope(((1, 0), (0, 0)))
    assert Polytope(((0, 0), (1, 0))).vertex_set \
        == Polytope(((1, 0), (0, 0))).vertex_set


def test_inclusion_verdicts_are_memoized_per_cache():
    ball = OpenBall((0, 0), 4)
    tri = Polytope(((0, 0), (1, 0), (0, 1)))
    cache = {}
    assert region_contains(ball, tri, cache) is Tri.TRUE
    assert cache[(ball, tri)] is Tri.TRUE
    cache[(ball, tri)] = Tri.UNKNOWN   # the stored verdict is the one read
    assert region_contains(ball, tri, cache) is Tri.UNKNOWN
    assert region_contains(ball, tri) is Tri.TRUE
    assert region_contains(ball, tri, {}) is Tri.TRUE
    assert region_contains(Ambient(), tri, cache) is Tri.TRUE


# ---------------------------------------------------------------------------
# the inclusion memo under covering validation

def ball_nesting(dim, sq_radius):
    return cover_generated(PLRealm(dim), UniformBallRule(sq_radius))


TRIANGLE = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]


@pytest.mark.parametrize("k, sq_radius", [
    (k, r) for k in (1, 2) for r in (F(2), F(1, 2), F(1, 4))
] + [("triangle", F(1))], ids=str)
def test_validation_failures_do_not_depend_on_the_memo(monkeypatch, k,
                                                      sq_radius):
    calls = []
    validate = covering.validate_covering

    def spy(cov, eta):
        report = validate(cov, eta)
        calls.append((cov, eta, report))
        return report

    monkeypatch.setattr(covering, "validate_covering", spy)
    if k == "triangle":
        boundary_in_small_chains(TRIANGLE, ball_nesting(2, sq_radius),
                                 n_cap=3)
    else:
        small_chain_projection(k, ball_nesting(k + 1, sq_radius), n_cap=3)
    monkeypatch.undo()

    rules = []
    inclusion = regions._inclusion

    def counted(outer, inner, cache):
        rules.append(1)
        return inclusion(outer, inner, cache)

    def unmemoized(outer, inner, cache=None):
        return counted(outer, inner, cache)

    monkeypatch.setattr(regions, "_inclusion", counted)
    memo_rules = []
    for cov, eta, report in calls:
        rules.clear()
        again = validate_covering(cov, eta)
        assert (again.passed, again.failures) == \
            (report.passed, report.failures)
        memo_rules.append(len(rules))
    monkeypatch.setattr(regions, "region_contains", unmemoized)
    monkeypatch.setattr(covering, "region_contains", unmemoized)
    plain_rules = []
    for cov, eta, report in calls:
        rules.clear()
        plain = validate_covering(cov, eta)
        assert (plain.passed, plain.failures) == \
            (report.passed, report.failures)
        plain_rules.append(len(rules))
    assert calls[-1][2].passed
    assert sum(memo_rules) < sum(plain_rules)
    if sq_radius < 1:                  # these searches fail at depth 0
        assert any(not report.passed for *_, report in calls)


HASHSEED_SCRIPT = """
from fractions import Fraction
from nestrix.covering import small_chain_projection
from nestrix.nesting import PLRealm, UniformBallRule, cover_generated
eta = cover_generated(PLRealm(3), UniformBallRule(Fraction(1, 2)))
data = small_chain_projection(2, eta, n_cap=3)
assignments = data.covering.assignments
print(data.n, len(assignments))
for key in sorted(assignments, key=lambda k: sorted(map(repr, k))):
    W, t = assignments[key]
    print(sorted(map(repr, key)), W.vertices, t)
for name in ("pi", "h"):
    values = getattr(data, name)
    for key in sorted(values, key=sorted):
        print(name, sorted(key),
              [(s.points, c) for s, c in values[key].terms.items()])
"""


def test_projection_answer_does_not_depend_on_hash_seed():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", HASHSEED_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("1 ")
