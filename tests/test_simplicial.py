import itertools
import math
import random
from fractions import Fraction

import pytest

from nestrix import exact, simplicial
from nestrix.finite_space import example03_space, pseudocircle, random_space
from nestrix.simplicial import (
    iterated_mesh_sq,
    OrderedSimplicialComplex,
    OrderingConflict,
    Realization,
    SimplicialChainMap,
    SimplicialError,
    add_into,
    bvertex,
    chain_add,
    chain_eq,
    compose_chain_maps,
    format_complex,
    format_realization,
    iterate_subdivide,
    mesh_sq,
    parse_complex,
    parse_realization,
    prism_complex,
    product_at_level,
    random_complex,
    realize_vertices,
    subdivide,
    t_complex,
    t_n_complex,
    vkey,
)


def delta(k):
    return OrderedSimplicialComplex.standard_simplex(k)


def restrict_vertices(K, predicate):
    """Subcomplex of the faces whose vertices all satisfy ``predicate``."""
    return K.subcomplex([k for k in K.faces if all(predicate(v) for v in k)])


def chain_to_vector(K, chain, d):
    """Coordinates of a d-chain in the basis ``K.basis(d)``."""
    index = {k: i for i, k in enumerate(K.basis(d))}
    vec = [0] * len(index)
    for k, c in chain.items():
        assert len(k) == d + 1, "chain is not homogeneous"
        vec[index[frozenset(k)]] = c
    return tuple(vec)


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
        """chain_complex skips the d o d check, so it is checked here on
        random complexes, S^2(Delta^2), prisms, T_n and the order complexes
        of finite spaces."""
        complexes = [delta(3), iterate_subdivide(delta(2), 2)[0][-1].complex]
        complexes += [random_complex(seed) for seed in range(20)]
        complexes += [prism_complex(delta(k))[0] for k in range(3)]
        complexes += [t_n_complex(delta(k), n)[0]
                      for k in range(3) for n in (1, 2)]
        complexes += [X.order_complex() for X in (
            example03_space(), pseudocircle(), random_space(6, 0.4, 3))]
        for K in complexes:
            K.chain_complex().verify_d_squared()

    def test_chain_complex_matches_faces(self):
        for seed in range(20):
            K = random_complex(seed)
            C = K.chain_complex()
            for d in range(K.dim() + 1):
                assert C.rank(d) == K.n_faces(d) == len(K.faces_of_dim(d))
            for d in range(1, K.dim() + 1):
                for j, key in enumerate(K.basis(d)):
                    assert C.boundary(d).col(j) == chain_to_vector(
                        K, K.boundary_of_face(key), d - 1)

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
            restricted = restrict_vertices(
                res.complex,
                lambda v, key=key: _carrier_vertices(v) <= set(key))
            assert restricted == sub_face.complex

    def test_iterated(self):
        complexes, chain_map = iterate_subdivide(delta(2), 2)
        chain_map.verify_chain_map()
        assert len(complexes) == 2

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("level", [0, 1, Fraction(4, 3)], ids=str)
    @pytest.mark.parametrize("K", [
        delta(1), delta(2), delta(3), random_complex(5), random_complex(11)],
        ids=["delta1", "delta2", "delta3", "random5", "random11"])
    def test_commutes_with_levels(self, K, level, n):
        """S^n(K x {h}) is S^n(K) x {h} id for id, and it resolves over the
        level ids' own points to S^n(K)'s points with h appended."""
        SnK = iterate_subdivide(K, n)[0][-1].complex
        lifted = iterate_subdivide(
            product_at_level(K, level), n)[0][-1].complex
        assert lifted == product_at_level(SnK, level)
        base = {v: tuple(Fraction(int(v == w)) for w in K.vertices())
                for v in K.vertices()}
        h = (Fraction(level),)
        table = {(v, level): p + h for v, p in base.items()}
        assert realize_vertices(lifted, table) == {
            (v, level): p + h
            for v, p in realize_vertices(SnK, base).items()}

    def test_two_level_faces_keep_b_ids(self):
        PK, _ = prism_complex(delta(1))
        vertices = set(subdivide(PK).complex.vertices())
        spanning = [key for key in PK.faces
                    if len({level for _, level in key}) > 1]
        assert len(spanning) == 5
        for key in spanning:
            assert ("b", tuple(sorted(key, key=vkey))) in vertices
        assert {(("b", (0, 1)), 0), (("b", (0, 1)), 1)} <= vertices


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
        for level in (0, 1):
            assert restrict_vertices(PK, lambda v: v[1] == level) == \
                product_at_level(K, level)


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
        assert restrict_vertices(TK, lambda v: v[1] == 0) == \
            product_at_level(sub.complex, 0)
        assert restrict_vertices(TK, lambda v: v[1] == 1) == \
            product_at_level(K, 1)

    def test_t2_restriction_over_endpoint(self):
        K = delta(1)
        T2K, _, _ = t_n_complex(K, 2)
        point = delta(0)
        T2pt, _, _ = t_n_complex(point, 2)
        restricted = restrict_vertices(
            T2K, lambda v: _carrier_vertices(v[0]) <= {0})
        assert restricted == T2pt

    @pytest.mark.parametrize("k, n", [(1, 2), (1, 4), (2, 2), (2, 3),
                                      (3, 1), (3, 2)])
    def test_tn_homotopy_equation(self, k, n):
        K = delta(k)
        TnK, Tn, subs = t_n_complex(K, n)
        TnK.validate()
        iterated, chain_map = iterate_subdivide(K, n)
        # the levels' own subdivisions are the plain n-fold subdivision
        assert [s.complex for s in subs] == [r.complex for r in iterated]
        assert [s.chain_map for s in subs] == [r.chain_map for r in iterated]
        a, b = Fraction(0), Fraction(1)
        f = lambda key: {frozenset((v, a) for v in k): c
                         for k, c in chain_map.values[key].items()}
        g = lambda key: {frozenset((v, b) for v in key): 1}
        Tn.verify_homotopy(f, g)
        # T_n is the sum of its pieces T over S^(i-1)(K), and each piece's
        # T(sigma) is a cone from (b_sigma, bottom level) inside sigma's
        # cone piece; with dT + Td this fixes every T uniquely
        base, chains, acc = K, {key: {key: 1} for key in K.faces}, {}
        for i in range(1, n + 1):
            lo, hi = Fraction(n - i, n), Fraction(n - i + 1, n)
            _, T, sub = t_complex(base, lo, hi)
            T.verify_homotopy(
                lambda key: {frozenset((v, lo) for v in s): c
                             for s, c in sub.chain_map.values[key].items()},
                lambda key: {frozenset((v, hi) for v in key): 1})
            parent ={bvertex(key): key for key in base.faces}
            for key, value in T.values.items():
                apex = (bvertex(key), lo)
                for face in value:
                    assert apex in face
                    assert all(parent[w] <= key if lvl == lo
                               else lvl == hi and w in key
                               for w, lvl in face)
            for key, chain in chains.items():
                add_into(acc.setdefault(key, {}), T.apply(chain))
            chains = {key: sub.chain_map.apply(chain)
                      for key, chain in chains.items()}
            base = sub.complex
        assert acc == Tn.values

    def test_tn_runs_no_exact_solve(self, monkeypatch):
        calls = []
        for owner, name in ((exact, "smith_normal_form"),
                            (OrderedSimplicialComplex, "chain_complex")):
            def counted(*args, real=getattr(owner, name), name=name):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(owner, name, counted)
        t_n_complex(delta(3), 2)
        assert calls == []

    @pytest.mark.parametrize("bad", [-1, True, 1.5, "2", None], ids=repr)
    def test_bad_depth_fails_typed(self, bad):
        with pytest.raises(SimplicialError, match=f"got {bad!r}"):
            t_n_complex(delta(1), bad)

    def test_depth_zero_fails_typed(self):
        with pytest.raises(SimplicialError, match="n >= 1"):
            t_n_complex(delta(1), 0)


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


def resolved_by_recursion(v, base):
    """A vertex id's point by the written-out recursion over its members:
    ("b", ids) is their barycenter and (v, level) appends the level."""
    if v in base:
        return base[v]
    if v[0] == "b":
        pts = [resolved_by_recursion(x, base) for x in v[1]]
        return tuple(sum(p[i] for p in pts) / len(pts)
                     for i in range(len(pts[0])))
    return resolved_by_recursion(v[0], base) + (Fraction(v[1]),)


class TestRealization:
    BASE = {i: tuple(Fraction(int(j == i)) for j in range(3))
            for i in range(3)}

    def test_unknown_vertex_fails_typed(self):
        R = Realization(self.BASE)
        with pytest.raises(SimplicialError, match=r"\('b', \(0, 1\)\)"):
            R.point(("b", (0, 1)))
        with pytest.raises(SimplicialError, match="vertex 3 has no point"):
            R.barycenter([0, 3])

    def test_deep_subdivision_computes_each_new_vertex_once(
            self, monkeypatch):
        K = delta(2)
        S3 = iterate_subdivide(K, 3)[0][-1].complex
        calls = []
        barycenter = simplicial.barycenter

        def counted(pts):
            calls.append(pts)
            return barycenter(pts)

        monkeypatch.setattr(simplicial, "barycenter", counted)
        R3 = Realization(self.BASE).extended_to(S3)
        monkeypatch.undo()
        # S^3 has one vertex per face of S^2 (121), three of them the base
        assert len(calls) == len(S3.vertices()) - 3 == 118
        assert R3.coords == {v: resolved_by_recursion(v, self.BASE)
                             for v in S3.vertices()}

    def test_level_ids_resolve_below_the_base_dimension(self):
        TK = t_n_complex(delta(2), 2, 1, 2)[0]
        coords = realize_vertices(TK, self.BASE)
        assert coords == {v: resolved_by_recursion(v, self.BASE)
                          for v in TK.vertices()}
        assert {len(p) for p in coords.values()} == {4}


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
        # k = 3, n = 4 is the largest configured case; the enumeration
        # checks every n <= 3 and the contraction bound covers n = 4
        pts = [tuple(Fraction(1 if j == i else 0) for j in range(4))
               for i in range(4)]
        base = Fraction(2)
        ratio = Fraction(3, 4) ** 2
        for n in range(1, 5):
            value = iterated_mesh_sq(pts, n)
            if n <= 3:
                assert value == exhaustive_mesh_sq(pts, n)
            assert value <= ratio ** n * base

    @pytest.mark.parametrize("k,n_max", [(0, 6), (1, 6), (2, 4), (3, 2)])
    def test_pruned_equals_exhaustive(self, k, n_max):
        rng = random.Random(7 + k)
        for _ in range(12):
            pts = _random_simplex(rng, k, rng.randint(1, 4))
            for n in range(n_max + 1):
                assert iterated_mesh_sq(pts, n) == \
                    exhaustive_mesh_sq(pts, n), (pts, n)

    def test_pruned_equals_exhaustive_k3_depth3(self):
        rng = random.Random(3)
        for _ in range(2):
            pts = _random_simplex(rng, 3, rng.randint(2, 4))
            assert iterated_mesh_sq(pts, 3) == exhaustive_mesh_sq(pts, 3)

    @pytest.mark.slow
    def test_pruned_equals_exhaustive_benchmark_triangle(self):
        pts = ((0, 0), (1, 0), (0, 1))
        for n in range(8):
            assert iterated_mesh_sq(pts, n) == exhaustive_mesh_sq(pts, n)

    @pytest.mark.parametrize("points,n", [
        ([(0, 0), (1, 0, 5)], 1),
        ([(0, 0), (3,)], 0),
        ([], 0),
        ([(0, 0), (1, 0)], -1),
        ([(0, 0), (1, 0)], 1.5),
        ([(0, 0), (1, 0)], Fraction(1)),
        ([(0, 0), (1, 0)], True),
    ])
    def test_iterated_mesh_rejects_bad_input(self, points, n):
        with pytest.raises(SimplicialError):
            iterated_mesh_sq(points, n)

    def test_realization_sqdist_rejects_dimension_mismatch(self):
        R = Realization({0: (0, 0)})
        assert R.sqdist((0, 0), (3, 4)) == 25
        with pytest.raises(SimplicialError, match="dimension"):
            R.sqdist((0, 0), (0, 0, 5))
        with pytest.raises(SimplicialError, match="dimension"):
            R.sqdist((0, 0, 5), (0, 0))


def exhaustive_mesh_sq(points, n):
    """Reference: mesh of S^n by enumerating all ((k+1)!)^n leaf simplices
    on scaled integer coordinates, with no pruning."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    denom = math.lcm(*(c.denominator for p in pts for c in p))
    scaled = [tuple(int(c * denom) for c in p) for p in pts]
    best = 0
    total_scale = denom
    stack = [(tuple(scaled), n, denom)]
    while stack:
        cur, depth, scale = stack.pop()
        if depth == 0:
            for i in range(len(cur)):
                for j in range(i + 1, len(cur)):
                    d = sum((a - b) ** 2 for a, b in zip(cur[i], cur[j]))
                    if d * total_scale ** 2 > best * scale ** 2:
                        best = d
                        total_scale = scale
            continue
        k = len(cur) - 1
        L = math.lcm(*range(1, k + 2))
        for perm in itertools.permutations(range(k + 1)):
            acc = tuple(0 for _ in cur[0])
            fac = []
            for m, i in enumerate(perm, start=1):
                acc = tuple(a + b for a, b in zip(acc, cur[i]))
                fac.append(tuple(a * (L // m) for a in acc))
            stack.append((tuple(fac), depth - 1, scale * L))
    return Fraction(best, total_scale ** 2)


def _random_simplex(rng, k, dim):
    """k+1 rational points, some negative; may repeat a point or put three
    on a line."""
    def point():
        return tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                     for _ in range(dim))

    pts = [point()]
    while len(pts) < k + 1:
        roll = rng.random()
        if roll < 0.15:
            pts.append(rng.choice(pts))
        elif roll < 0.3 and len(pts) >= 2:
            p, q = rng.sample(pts, 2)
            t = Fraction(rng.randint(-3, 5), rng.randint(1, 3))
            pts.append(tuple(a + t * (b - a) for a, b in zip(p, q)))
        else:
            pts.append(point())
    rng.shuffle(pts)
    return pts


def old_vkey(v):
    """The sort key before numbers keyed as themselves: (0, Fraction(v))."""
    if isinstance(v, (int, Fraction)):
        return (0, Fraction(v))
    if isinstance(v, str):
        return (1, v)
    return (2, tuple(old_vkey(x) for x in v))


def old_face_key(k):
    return (len(k), tuple(old_vkey(v) for v in sorted(k, key=old_vkey)))


class TestSortOrder:
    def test_mixed_ids_sort_as_before(self):
        ids = [3, -1, Fraction(1, 2), Fraction(-7, 3), 0, "a", "B", "b",
               ("b", (0, 1)), ("b", (Fraction(1, 2), "a")), ("b", (0,)),
               (0, Fraction(0)), (0, Fraction(1)), (Fraction(1, 2), 1),
               (("b", (0, 1)), Fraction(1, 3)), ("a", 2), 10, Fraction(9)]
        rng = random.Random(0)
        for _ in range(20):
            rng.shuffle(ids)
            assert sorted(ids, key=vkey) == sorted(ids, key=old_vkey)

    def test_numbers_key_alike(self):
        assert vkey(1) == vkey(Fraction(1))
        assert hash(vkey(1)) == hash(vkey(Fraction(1)))
        assert hash(vkey((1, 2))) == hash(vkey((Fraction(1), Fraction(2))))
        assert vkey(1) < vkey(Fraction(3, 2)) < vkey(2) < vkey("a")
        with pytest.raises(SimplicialError, match="bool"):
            vkey(True)
        with pytest.raises(SimplicialError, match="bool"):
            vkey((0, False))

    def test_face_orders_as_before(self):
        # dimension <= 2 keeps the old key's Fraction comparisons cheap;
        # S(D3) and T_2(D2) bring deeper barycenter and level ids
        complexes = []
        for seed in range(50):
            K = random_complex(seed, max_dim=2)
            complexes.append(K)
            complexes.append(iterate_subdivide(K, 2)[0][-1].complex)
        complexes.append(subdivide(delta(3)).complex)
        complexes.append(t_n_complex(delta(2), 2)[0])
        for K in complexes:
            # the old key leads with the size, so one sort by it gives the
            # old order of every dimension and of the facets as sublists
            old = sorted(K.faces, key=old_face_key)
            assert K.all_faces() == old
            for d in range(K.dim() + 1):
                assert K.faces_of_dim(d) == [k for k in old if len(k) == d + 1]
            non_maximal = {k - {v} for k in K.faces if len(k) > 1
                           for v in k}
            assert K.facets() == [k for k in old if k not in non_maximal]


def copying_add(a, b, scale=1):
    """Reference chain sum: copy the left side, then add term by term."""
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + scale * c
        if out[k] == 0:
            del out[k]
    return out


def copying_extension(image, chain):
    out = {}
    for key, c in chain.items():
        out = copying_add(out, image(key), c)
    return out


def _random_chains(rng, K):
    """Random chains in each degree, one with a zero coefficient and one
    whose boundary cancels to nothing (the boundary of a boundary)."""
    chains = []
    for d in range(K.dim() + 1):
        faces = K.faces_of_dim(d)
        chains.append({k: rng.choice([-3, -1, 0, 1, 2])
                       for k in rng.sample(faces, min(len(faces), 6))})
        if d + 1 <= K.dim():
            top = K.faces_of_dim(d + 1)
            chains.append(K.boundary_of_face(rng.choice(top)))
    return chains


def _assert_same_chain(got, want):
    # same terms in the same insertion order as the copying formula
    assert list(got.items()) == list(want.items())


class TestChainAlgebra:
    def test_add_into_is_in_place_and_drops_zeros(self):
        out = {"a": 1, "b": 2}
        same = add_into(out, {"b": -2, "c": 3, "d": 0}, 1)
        assert same is out and out == {"a": 1, "c": 3}
        assert add_into(out, {"a": 1, "c": 1}, -1) == {"c": 2}
        assert add_into({}, {("x", 1): 2}, 0) == {}
        a = {frozenset([0]): 1}
        assert chain_add(a, {frozenset([0]): -1}) == {}
        assert a == {frozenset([0]): 1}

    def test_maps_equal_the_copying_formula(self):
        rng = random.Random(8)
        for seed in range(50):
            K = random_complex(seed, max_dim=2)
            subs = iterate_subdivide(K, 2)[0]
            for L, S in ((K, subs[0].chain_map),
                         (subs[1].complex, None)):
                for chain in _random_chains(rng, L):
                    _assert_same_chain(
                        L.boundary_chain(chain),
                        copying_extension(L.boundary_of_face, chain))
                    if S is not None:
                        _assert_same_chain(
                            S.apply(chain),
                            copying_extension(S.values.__getitem__, chain))
            composed = compose_chain_maps(subs[1].chain_map,
                                          subs[0].chain_map)
            for key, value in subs[0].chain_map.values.items():
                _assert_same_chain(composed.values[key], copying_extension(
                    subs[1].chain_map.values.__getitem__, value))

    def test_apply_with_cancelling_images(self):
        # values chosen so that images of different faces overlap and cancel
        rng = random.Random(3)
        for seed in range(50):
            K = random_complex(seed, max_dim=2)
            target = iterate_subdivide(K, 2)[0][-1].complex
            pool = target.all_faces()
            values = {k: {rng.choice(pool): rng.choice([-1, 1])
                          for _ in range(3)} for k in K.faces}
            M = SimplicialChainMap(K, target, 0, values)
            for chain in _random_chains(rng, K):
                _assert_same_chain(M.apply(chain),
                                   copying_extension(values.__getitem__, chain))
        K = delta(1)
        edge = frozenset([0, 1])
        M = SimplicialChainMap(K, K, 0, {k: {edge: 1} for k in K.faces})
        assert M.apply({frozenset([0]): 1, frozenset([1]): -1}) == {}
        assert M.apply({frozenset([0]): 2, edge: 1}) == {edge: 3}


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

    def test_bad_coordinate_names_its_line(self):
        with pytest.raises(SimplicialError, match="line 1.*'\\('"):
            parse_realization("0: 1 (\n")
        with pytest.raises(SimplicialError, match="line 2.*'1/0'"):
            parse_realization("0: 0 0\n1: 1/0 1\n")

    def test_bad_point_names_its_line(self):
        with pytest.raises(SimplicialError, match="line 2: repeated.*'a'"):
            parse_realization("a: 1 2\na: 3 4\n")
        with pytest.raises(SimplicialError, match="line 1: no coordinates"):
            parse_realization("a:\n")
        with pytest.raises(SimplicialError, match="line 3: 1 coordinate"):
            parse_realization("a: 1 2\n# next\nb: 1\n")
