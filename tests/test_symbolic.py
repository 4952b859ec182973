"""Formal chains of affine simplices: sums, boundaries, images and
pushforwards, with coefficients checked term by term; small-chain
membership of every simplex the projection builds, by face-coface pairs,
against the chain walk."""

import functools
from fractions import Fraction

import pytest

from nestrix.covering import small_chain_projection
from nestrix.nesting import PLRealm, UniformBallRule, cover_generated, in_c_eta
from nestrix.regions import AffineMap, Tri
from nestrix.symbolic import (
    AffineSimplex,
    FormalChain,
    SymbolicError,
    chain_in_c_eta,
)
from test_nesting import chain_walk, three_valued, undecided_balls

F = Fraction
A = AffineSimplex([(0, 0), (1, 0)])
B = AffineSimplex([(0, 1), (1, 1)])
C = AffineSimplex([(0, 0), (0, 1)])
POINT = AffineSimplex([(0, 0)])
Q = AffineMap.projection_drop_last(2)


def point(*c):
    return AffineSimplex([c])


def test_push_adds_coefficients_of_colliding_images():
    # A and B both project to the segment [0, 1]
    segment = AffineSimplex([(0,), (1,)])
    pushed = FormalChain({A: 1, B: 1}).push(Q)
    assert pushed.terms == {segment: 2}
    assert pushed.boundary().terms == {point(1): 2, point(0): -2}
    assert pushed.boundary() == FormalChain({A: 1, B: 1}).boundary().push(Q)
    assert FormalChain({A: 1, B: -1}).push(Q).is_zero()


def test_image_sums_and_cancels():
    chain = {A: 1, B: 2, C: -3}
    assert FormalChain.image(chain, lambda s: A).is_zero()
    assert FormalChain.image({A: 1, B: 2}, lambda s: A).terms == {A: 3}
    coned = FormalChain.image({A: 2, B: -1},
                              lambda s: AffineSimplex(((5, 5),) + s.points))
    assert coned.dim == 2
    assert coned.terms == {AffineSimplex([(5, 5), (0, 0), (1, 0)]): 2,
                           AffineSimplex([(5, 5), (0, 1), (1, 1)]): -1}
    assert FormalChain.image({}, lambda s: A).is_zero()


def test_add_and_equality():
    chain = FormalChain.single(A).add(B)
    assert chain == FormalChain({A: 1, B: 1})
    assert chain.add(A, -1) == FormalChain.single(B)
    assert chain.add(chain, -1).is_zero()
    assert chain.add(FormalChain.single(C), 3).terms == {A: 1, B: 1, C: 3}
    # add never changes its operands
    assert chain.terms == {A: 1, B: 1}
    assert FormalChain.zero(None).add(A).dim == 1
    assert FormalChain({A: 0}).is_zero()
    assert FormalChain.single(A) != FormalChain.single(A, 2)


def test_mixed_degrees_raise():
    with pytest.raises(SymbolicError, match="mixed degrees"):
        FormalChain({A: 1, POINT: 1})
    with pytest.raises(SymbolicError, match="mixed degrees"):
        FormalChain.single(A).add(POINT)
    with pytest.raises(SymbolicError, match="mixed degrees"):
        FormalChain.zero(0).add(FormalChain.single(A))
    with pytest.raises(SymbolicError, match="mixed degrees"):
        FormalChain({A: 1}, dim=0)
    with pytest.raises(SymbolicError, match="mixed degrees"):
        FormalChain.image({A: 1, POINT: 1}, lambda s: s)


def test_boundary_adds_repeated_faces():
    p, q = (F(0), F(0)), (F(1), F(0))
    # faces 0 and 1 of [p, p, q] are both [p, q] with opposite signs
    assert FormalChain.single(AffineSimplex([p, p, q])).boundary().terms == {
        AffineSimplex([p, p]): 1}
    assert FormalChain.single(AffineSimplex([p, p])).boundary().is_zero()
    assert FormalChain.single(A).boundary().terms == {point(1, 0): 1,
                                                      point(0, 0): -1}
    assert FormalChain.single(POINT).boundary().is_zero()
    assert FormalChain.single(A).boundary().boundary().is_zero()


@functools.cache
def projected_simplices():
    """(simplex, ball nesting) for every simplex of pi and h of the
    projections of the 1- and 2-simplex under balls of a few radii, each
    also under balls of a quarter of the squared radius."""
    out = []
    for k in (1, 2):
        for r in (Fraction(2), Fraction(3, 4), Fraction(3, 5),
                  Fraction(1, 2)):
            eta = cover_generated(PLRealm(k + 1), UniformBallRule(r))
            data = small_chain_projection(k, eta, n_cap=3)
            simplices = {s for values in (data.pi, data.h)
                         for chain in values.values() for s in chain.terms}
            for nesting in (eta, cover_generated(PLRealm(k + 1),
                                                 UniformBallRule(r / 4))):
                out += [(s, nesting) for s in simplices]
    return out


def assert_routes_agree():
    seen = set()
    for simplex, eta in projected_simplices():
        want = chain_walk(simplex.points, eta)
        assert three_valued(in_c_eta, simplex.points, eta) is want, simplex
        seen.add(want)
    return seen


def test_chain_is_small_iff_each_simplex_is():
    eta = cover_generated(PLRealm(2), UniformBallRule(F(1, 4)))
    small = AffineSimplex([(0, 0), (F(1, 4), 0)])
    large = AffineSimplex([(0, 0), (2, 0)])
    assert chain_in_c_eta(FormalChain({small: 3}), eta) is True
    assert chain_in_c_eta(FormalChain({small: 1, large: -1}), eta) is False
    assert chain_in_c_eta(FormalChain.zero(1), eta) is True


def test_pairs_equal_chains():
    assert assert_routes_agree() == {Tri.TRUE, Tri.FALSE}


def test_pairs_equal_chains_with_undecided_regions(monkeypatch):
    projected_simplices()
    undecided_balls(monkeypatch, Fraction(1, 4))
    assert assert_routes_agree() == {Tri.TRUE, Tri.FALSE, Tri.UNKNOWN}
