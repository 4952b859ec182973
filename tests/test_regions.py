"""Affine maps and distances: the sparse kernel gives the dense formulas'
exact values, and a dimension mismatch raises instead of truncating."""

import random
from fractions import Fraction as F

import pytest

from nestrix.regions import (
    AffineMap,
    OpenBall,
    RegionError,
    ball_in_ball,
    contains_point,
    sqdist,
)


def dense_apply(m, x):
    return tuple(sum(r[j] * x[j] for j in range(len(x))) + o
                 for r, o in zip(m.rows, m.offset))


def dense_transpose_apply(m, y):
    return tuple(sum(m.rows[k][i] * y[k] for k in range(m.target_dim))
                 for i in range(m.source_dim))


def dense_compose(outer, inner):
    rows = tuple(
        tuple(sum(outer.rows[i][k] * inner.rows[k][j]
                  for k in range(inner.target_dim))
              for j in range(inner.source_dim))
        for i in range(outer.target_dim))
    return rows, dense_apply(outer, inner.offset)


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
        composed = outer.compose(inner)
        assert (composed.rows, composed.offset) == dense_compose(outer, inner)
        assert composed.apply(x) == outer.apply(inner.apply(x))
    for dim in range(2, 6):
        q = AffineMap.projection_drop_last(dim)
        x = random_point(rng, dim)
        y = random_point(rng, dim - 1)
        assert q.apply(x) == dense_apply(q, x) == x[:-1]
        assert q.transpose_apply(y) == dense_transpose_apply(q, y) \
            == y + (F(0),)
        other = random_map(rng, dim, 3)
        composed = q.compose(other)
        assert (composed.rows, composed.offset) == dense_compose(q, other)


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
    with pytest.raises(RegionError):
        q.compose(AffineMap.projection_drop_last(3))
