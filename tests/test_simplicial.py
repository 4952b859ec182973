import itertools
import math
from fractions import Fraction

import pytest

from nestrix.simplicial import (
    iterated_mesh_sq,
    OrderedSimplicialComplex,
    OrderingConflict,
    Realization,
    SimplicialChainMap,
    SimplicialError,
    chain_add,
    chain_eq,
    format_complex,
    format_realization,
    iterate_subdivide,
    level_subcomplex,
    mesh_sq,
    parse_complex,
    parse_realization,
    prism_complex,
    product_at_level,
    random_complex,
    subdivide,
    t_complex,
    t_n_complex,
)


def delta(k):
    return OrderedSimplicialComplex.standard_simplex(k)


def enumerate_flags(K, key):
    """Oracle: full flags of the face poset under `key` (count of S-facets)."""
    order = K.order(key)
    if len(order) == 1:
        return 1
    total = 0
    for i in range(len(order)):
        total += enumerate_flags(K, frozenset(order[:i] + order[i + 1:]))
    return total


class TestComplexBasics:
    def test_from_facets_closure(self):
        K = OrderedSimplicialComplex.from_facets([(0, 1, 2)])
        assert len(K.faces) == 7
        assert K.order((0, 2)) == (0, 2)

    def test_ordering_conflict(self):
        with pytest.raises(OrderingConflict):
            OrderedSimplicialComplex.from_facets([(0, 1, 2), (1, 0)])

    def test_validator_passes_on_construction(self):
        for seed in range(20):
            random_complex(seed).validate()

    def test_boundary_squared_zero(self):
        K = delta(3)
        C = K.chain_complex()
        C.verify_d_squared()

    def test_facets(self):
        K = OrderedSimplicialComplex.from_facets([(0, 1, 2), (2, 3)])
        assert set(map(frozenset, K.facets())) == {
            frozenset({0, 1, 2}), frozenset({2, 3})}


class TestSubdivision:
    def test_point_identity(self):
        res = subdivide(delta(0))
        assert res.complex == delta(0)
        assert res.chain_map.values[frozenset([0])] == {frozenset([0]): 1}

    def test_delta2_six_facets(self):
        K = delta(2)
        res = subdivide(K)
        top = frozenset(range(3))
        # oracle: recursive flag enumeration equals (k+1)!
        assert enumerate_flags(K, top) == math.factorial(3) == 6
        assert res.complex.n_faces(2) == 6

    def test_chain_map_identity_delta3(self):
        res = subdivide(delta(3))
        res.chain_map.verify_chain_map()

    def test_restriction_to_face_equals_subdivision_of_face(self):
        K = delta(3)
        res = subdivide(K)
        for key in K.faces:
            face_cx = K.subcomplex([key])
            sub_face = subdivide(face_cx)
            restricted = res.complex.restrict_vertices(
                lambda v, key=key: _carrier_vertices(v) <= set(key))
            assert restricted == sub_face.complex

    def test_carrier(self):
        K = delta(2)
        res = subdivide(K)
        for fkey, car in res.carrier.items():
            # carrier contains the face geometrically: every vertex of fkey
            # is a barycenter of a subface of the carrier
            for v in fkey:
                assert _carrier_vertices(v) <= set(car)

    def test_iterated(self):
        complexes, chain_map, carrier = iterate_subdivide(delta(2), 2)
        chain_map.verify_chain_map()
        assert len(complexes) == 2
        for k, car in carrier.items():
            assert car in delta(2).faces


def _carrier_vertices(v):
    if isinstance(v, tuple) and len(v) == 2 and v[0] == "b":
        out = set()
        for x in v[1]:
            out |= _carrier_vertices(x)
        return out
    return {v}


class TestPrismP:
    def test_p_delta0_is_interval(self):
        PK, P = prism_complex(delta(0))
        assert PK.n_faces(1) == 1
        assert PK.n_faces(0) == 2

    def test_p_delta1_facets(self):
        PK, P = prism_complex(delta(1))
        a, b = Fraction(0), Fraction(1)
        v0, v1, w0, w1 = (0, a), (1, a), (0, b), (1, b)
        expected = {frozenset([v0, w0, w1]), frozenset([v0, v1, w1])}
        assert set(PK.faces_of_dim(2)) == expected
        assert PK.order(frozenset([v0, w0, w1])) == (v0, w0, w1)
        assert PK.order(frozenset([v0, v1, w1])) == (v0, v1, w1)

    def test_homotopy_equation_delta2(self):
        K = delta(2)
        PK, P = prism_complex(K)
        a, b = Fraction(0), Fraction(1)
        i_a = lambda key: {frozenset((v, a) for v in key): 1}
        i_b = lambda key: {frozenset((v, b) for v in key): 1}
        P.verify_homotopy(i_b, i_a)

    def test_both_restrictions_are_K(self):
        K = delta(2)
        PK, _ = prism_complex(K)
        assert level_subcomplex(PK, 0) == product_at_level(K, 0)
        assert level_subcomplex(PK, 1) == product_at_level(K, 1)


class TestPrismT:
    def test_t_delta0_is_interval(self):
        TK, T, _ = t_complex(delta(0))
        assert TK.n_faces(1) == 1 and TK.n_faces(0) == 2

    def test_homotopy_equation_delta1(self):
        K = delta(1)
        TK, T, sub = t_complex(K)
        a, b = Fraction(0), Fraction(1)
        f = lambda key: {frozenset((v, a) for v in k): c
                         for k, c in sub.chain_map.values[key].items()}
        g = lambda key: {frozenset((v, b) for v in key): 1}
        T.verify_homotopy(f, g)

    def test_restrictions(self):
        K = delta(1)
        TK, _, sub = t_complex(K)
        assert level_subcomplex(TK, 0) == product_at_level(sub.complex, 0)
        assert level_subcomplex(TK, 1) == product_at_level(K, 1)

    def test_t2_restriction_over_endpoint(self):
        K = delta(1)
        T2K, _, _ = t_n_complex(K, 2)
        point = delta(0)
        T2pt, _, _ = t_n_complex(point, 2)
        restricted = T2K.restrict_vertices(
            lambda v: _carrier_vertices(v[0]) <= {0})
        assert restricted == T2pt

    def test_tn_homotopy_equation(self):
        K = delta(1)
        n = 2
        TnK, Tn, subs = t_n_complex(K, n)
        iterated, chain_map, _ = iterate_subdivide(K, n)
        # the levels' own subdivisions are the plain n-fold subdivision
        assert [s.complex for s in subs] == [r.complex for r in iterated]
        assert [s.chain_map for s in subs] == [r.chain_map for r in iterated]
        a, b = Fraction(0), Fraction(1)
        f = lambda key: {frozenset((v, a) for v in k): c
                         for k, c in chain_map.values[key].items()}
        g = lambda key: {frozenset((v, b) for v in key): 1}
        Tn.verify_homotopy(f, g)


class TestOperatorEquationsCorpus:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_simplices(self, k):
        K = delta(k)
        _check_all_operators(K)

    def test_random_corpus_50(self):
        for seed in range(50):
            K = random_complex(seed, max_vertices=5, max_facets=3, max_dim=2)
            if len(K.faces) > 12:
                K = K.subcomplex(K.facets()[:1])
            _check_all_operators(K)


def _check_all_operators(K):
    res = subdivide(K)
    res.chain_map.verify_chain_map()
    res.complex.validate()
    PK, P = prism_complex(K)
    PK.validate()
    a, b = Fraction(0), Fraction(1)
    P.verify_homotopy(
        lambda key: {frozenset((v, b) for v in key): 1},
        lambda key: {frozenset((v, a) for v in key): 1})
    TK, T, sub = t_complex(K)
    TK.validate()
    T.verify_homotopy(
        lambda key: {frozenset((v, a) for v in k): c
                     for k, c in sub.chain_map.values[key].items()},
        lambda key: {frozenset((v, b) for v in key): 1})


class TestMesh:
    def test_interval(self):
        K = delta(1)
        R = Realization({0: (Fraction(0),), 1: (Fraction(1),)})
        assert mesh_sq(K, R) == 1

    def test_subdivided_interval(self):
        K = delta(1)
        R = Realization({0: (Fraction(0),), 1: (Fraction(1),)})
        res = subdivide(K)
        R2 = R.extended_to(res.complex)
        assert mesh_sq(res.complex, R2) == Fraction(1, 4)

    def test_contraction_bound_delta2(self):
        K = delta(2)
        R = Realization({0: (1, 0, 0), 1: (0, 1, 0), 2: (0, 0, 1)})
        res = subdivide(K)
        R2 = R.extended_to(res.complex)
        assert mesh_sq(res.complex, R2) <= Fraction(4, 9) * mesh_sq(K, R)

    @pytest.mark.parametrize("k,n", [(1, 4), (2, 3), (3, 2)])
    def test_iterated_contraction(self, k, n):
        K = delta(k)
        coords = {i: tuple(Fraction(1 if j == i else 0)
                           for j in range(k + 1)) for i in range(k + 1)}
        R = Realization(coords)
        base = mesh_sq(K, R)
        ratio = Fraction(k, k + 1) ** 2
        cur, cur_R = K, R
        for step in range(1, n + 1):
            res = subdivide(cur)
            cur = res.complex
            cur_R = cur_R.extended_to(cur)
            assert mesh_sq(cur, cur_R) <= ratio ** step * base

    def test_iterated_mesh_matches_definitional(self):
        # the fast scaled-integer path agrees with subdividing for real
        for k, n in [(1, 2), (2, 1), (2, 2), (3, 1)]:
            pts = [tuple(Fraction(1 if j == i else 0) for j in range(k + 1))
                   for i in range(k + 1)]
            K = delta(k)
            R = Realization({i: pts[i] for i in range(k + 1)})
            cur, cur_R = K, R
            for _ in range(n):
                res = subdivide(cur)
                cur = res.complex
                cur_R = cur_R.extended_to(cur)
            assert iterated_mesh_sq(pts, n) == mesh_sq(cur, cur_R)

    @pytest.mark.slow
    def test_iterated_contraction_deep(self):
        # k = 3, n = 4 is the largest configured case
        pts = [tuple(Fraction(1 if j == i else 0) for j in range(4))
               for i in range(4)]
        base = Fraction(2)
        ratio = Fraction(3, 4) ** 2
        for n in range(1, 5):
            assert iterated_mesh_sq(pts, n) <= ratio ** n * base


class TestTextFormat:
    def test_roundtrip(self):
        K = OrderedSimplicialComplex.from_facets([(0, 1, 2), (2, 3)])
        K2 = parse_complex(format_complex(K))
        assert K2 == K

    def test_realization_roundtrip(self):
        R = Realization({0: (Fraction(1, 2), Fraction(0)),
                         1: (Fraction(1), Fraction(3, 4))})
        R2 = parse_realization(format_realization(R))
        assert R2.coords == R.coords

    def test_bad_token_names_its_line(self):
        with pytest.raises(SimplicialError, match="line 2.*'\\('"):
            parse_complex("0 1\n1 (\n")
        with pytest.raises(SimplicialError, match="line 3"):
            parse_realization("# coordinates\n0: 0 0\n1.5: 1 0\n")
