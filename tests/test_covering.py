"""The small-chain projection and the boundary construction, checked
against the identities that define them: pi fixes vertices and is a chain
map, dh + hd = id - pi on every face, pi lands in small chains, and the
boundary construction returns a small x with dx = d(sigma)."""

from fractions import Fraction

import pytest

from nestrix import simplicial
from nestrix.covering import (
    CoveringError,
    boundary_in_small_chains,
    delta_complex,
    find_covering,
    small_chain_projection,
)
from nestrix.nesting import PLRealm, UniformBallRule, cover_generated
from nestrix.symbolic import (
    AffineSimplex,
    FormalChain,
    chain_in_c_eta,
    chains_equal,
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
        assert chains_equal(pi.boundary(),
                            linear_extension(data.pi, boundary)), order
        lhs = data.h[key].boundary().add(linear_extension(data.h, boundary))
        identity = FormalChain.single(AffineSimplex(
            [R.point(v) for v in order]))
        assert chains_equal(lhs, identity.add(pi, -1)), order
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
    assert chains_equal(x.boundary(), sigma.boundary())
    assert chain_in_c_eta(x, eta) is True
