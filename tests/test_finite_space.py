import itertools
import random
from importlib.resources import files

import pytest

from nestrix.exact import cohomology, ZCOEFF
from nestrix.finite_space import (
    FiniteSpace,
    FiniteSpaceError,
    NotT0Error,
    discrete_space,
    disjoint_union,
    example03_space,
    format_space,
    parse_space,
    pseudocircle,
    random_space,
    sierpinski_space,
)
from nestrix.sheaves import _antichain_covers
from nestrix.simplicial import vkey


def clopen_connected_oracle(space, subset):
    """Brute force: no partition into two nonempty relatively open parts."""
    subset = frozenset(subset)
    if not subset:
        return False
    rel_opens = {subset & o for o in space.opens}
    for part in rel_opens:
        if part and part != subset and (subset - part) in rel_opens:
            return False
    return True


class TestFromBasis:
    def test_example03_space(self):
        X = example03_space()
        assert len(X.points) == 5
        assert len(X.opens) == 8

    def test_example03_minimal_opens(self):
        X = example03_space()
        mins = X.minimal_opens()
        assert mins[1] == frozenset({1, 2, 3, 4})
        assert mins[2] == frozenset({2, 3})
        assert mins[3] == frozenset({3})
        assert mins[4] == frozenset({3, 4})
        assert mins[5] == frozenset({2, 3, 4, 5})

    def test_discrete(self):
        X = discrete_space(3)
        for p in X.points:
            assert X.minimal_open(p) == frozenset({p})

    def test_non_t0_rejected(self):
        with pytest.raises(NotT0Error) as exc:
            FiniteSpace.from_basis((0, 1), [{0, 1}])
        assert (0, 1) in exc.value.pairs

    def test_basis_escaping_points_rejected(self):
        with pytest.raises(FiniteSpaceError):
            FiniteSpace.from_basis((0, 1), [{0, 7}])


class TestConnectivity:
    def test_example03_u1_cap_u2_connected(self):
        X = example03_space()
        assert X.is_connected_subset({2, 3, 4})
        assert clopen_connected_oracle(X, {2, 3, 4})

    def test_singletons(self):
        X = example03_space()
        for p in X.points:
            assert X.is_connected_subset({p})

    def test_1_5_disconnected(self):
        X = example03_space()
        assert not X.is_connected_subset({1, 5})
        assert not clopen_connected_oracle(X, {1, 5})

    def test_matches_clopen_oracle_exhaustive(self):
        for X in (example03_space(), pseudocircle(), sierpinski_space(),
                  discrete_space(3)):
            pts = X.points
            for mask in range(1, 1 << len(pts)):
                subset = {pts[i] for i in range(len(pts)) if mask & (1 << i)}
                assert X.is_connected_subset(subset) == \
                    clopen_connected_oracle(X, subset), subset

    def test_connected_subsets_enumeration(self):
        X = example03_space()
        subs = X.connected_subsets(frozenset({2, 3}))
        assert set(subs) == {frozenset({2}), frozenset({3}), frozenset({2, 3})}

    def test_requires_open(self):
        X = example03_space()
        with pytest.raises(FiniteSpaceError):
            X.connected_subsets({1, 5})


class TestOrderComplex:
    def test_discrete_two_points(self):
        K = discrete_space(2).order_complex()
        assert K.n_faces(0) == 2 and K.dim() == 0

    def test_sierpinski_single_edge(self):
        K = sierpinski_space().order_complex()
        assert K.n_faces(1) == 1 and K.n_faces(0) == 2

    def test_pseudocircle_is_four_gon_with_h1(self):
        K = pseudocircle().order_complex()
        assert K.n_faces(0) == 4 and K.n_faces(1) == 4 and K.dim() == 1
        h1 = cohomology(K.chain_complex(), ZCOEFF, 1)
        assert h1.free_rank == 1 and h1.torsion == ()

    def test_face_count_is_chain_count(self):
        for X in (example03_space(), pseudocircle(), random_space(6, 0.4, 3)):
            K = X.order_complex()
            chains = X.chains()
            assert len(K.faces) == len(chains)
            # Euler characteristic from alternating chain counts
            by_len = {}
            for c in chains:
                by_len[len(c)] = by_len.get(len(c), 0) + 1
            euler = sum((-1) ** (l - 1) * n for l, n in by_len.items())
            assert euler == sum((-1) ** d * K.n_faces(d)
                                for d in range(K.dim() + 1))


class TestContractibility:
    def test_minimal_opens_certified(self):
        for X in (example03_space(), pseudocircle(), random_space(7, 0.5, 11)):
            for p in X.points:
                cert = X.contractibility_certificate(X.minimal_open(p))
                assert cert.certified()
                assert cert.kind == "has_top_point" and cert.point == p \
                    or cert.kind == "has_bottom_point"

    def test_example03_whole_space(self):
        X = example03_space()
        cert = X.contractibility_certificate()
        assert cert.certified() and cert.point == 3

    def test_pseudocircle_unknown(self):
        cert = pseudocircle().contractibility_certificate()
        assert not cert.certified()

    def test_semi_local_contractibility_desk_form(self):
        # every open is covered by certified-contractible minimal opens
        for X in (example03_space(), pseudocircle()):
            for U in X.opens:
                for x in U:
                    assert X.minimal_open(x) <= U
                    assert X.contractibility_certificate(
                        X.minimal_open(x)).certified()


class TestComponents:
    def test_example03_connected(self):
        assert example03_space().component_count() == 1

    def test_discrete(self):
        assert discrete_space(4).component_count() == 4

    def test_two_pseudocircles(self):
        X = disjoint_union(pseudocircle(), pseudocircle())
        assert X.component_count() == 2
        assert X.path_component_count() == 2


class TestInvariants:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_minimal_open_characterization(self, seed):
        X = random_space(6, 0.45, seed)
        mins = X.minimal_opens()
        for x in X.points:
            for y in X.points:
                assert (mins[x] <= mins[y]) == (x in mins[y])

    def test_opens_bounded(self):
        X = random_space(6, 0.3, 9)
        assert len(X.opens) <= 2 ** len(X.points)

    def test_cap(self):
        with pytest.raises(FiniteSpaceError):
            random_space(9, 0.5, 1)


def written_out_order(sets):
    """The (size, sorted vertex keys) order, spelled out."""
    return sorted(sets, key=lambda s: (len(s), tuple(
        vkey(v) for v in sorted(s, key=vkey))))


class TestSetOrder:
    @pytest.mark.parametrize("make", [
        example03_space, pseudocircle, sierpinski_space,
        lambda: disjoint_union(pseudocircle(), sierpinski_space()),
        *[lambda seed=seed: random_space(6, 0.4, seed) for seed in range(6)]])
    def test_opens_and_connected_subsets(self, make):
        X = make()
        assert X.opens_sorted() == written_out_order(X.opens)
        subsets = X.connected_subsets()
        assert subsets == written_out_order(subsets)
        for U in X.opens:
            for cover in _antichain_covers(X, U, 64):
                assert cover == written_out_order(cover)


class TestRandomSpaceGolden:
    # generator outputs recorded once, then frozen
    def test_seeded_goldens(self):
        expected = {
            (5, "0.4", 101): None,
            (6, "0.5", 102): None,
            (7, "0.35", 103): None,
        }
        summaries = []
        from fractions import Fraction
        for (n, dens, seed) in expected:
            X = random_space(n, float(Fraction(dens)), seed)
            mins = X.minimal_opens()
            summaries.append((n, len(X.opens),
                              tuple(len(mins[p]) for p in X.points),
                              X.component_count()))
        assert summaries == [
            (5, 14, (1, 1, 2, 1, 4), 2),
            (6, 9, (1, 2, 3, 4, 4, 5), 1),
            (7, 22, (1, 1, 1, 3, 2, 4, 6), 1),
        ]

    def test_determinism(self):
        a = random_space(7, 0.4, 42)
        b = random_space(7, 0.4, 42)
        assert a.opens == b.opens and a.points == b.points


class TestFileFormat:
    def test_roundtrip(self):
        X = example03_space()
        X2 = parse_space(format_space(X))
        assert X2.opens == X.opens and X2.points == X.points

    def test_parse_error_line_number(self):
        with pytest.raises(FiniteSpaceError) as exc:
            parse_space("1 2\n1,7\n")
        assert "line 2" in str(exc.value)

    def test_parse_error_counts_comments_and_blank_lines(self):
        with pytest.raises(FiniteSpaceError) as exc:
            parse_space("# header\n\n1 2 3\n1\n1,2\n1,9\n")
        assert "line 6" in str(exc.value)
        with pytest.raises(FiniteSpaceError) as exc:
            parse_space("1 2\n# comment\n\n1,(\n")
        assert "line 4" in str(exc.value)

    def test_bad_token_is_a_parse_error(self):
        with pytest.raises(FiniteSpaceError, match="line 1: cannot parse"):
            parse_space("1 (\n1\n")
        with pytest.raises(FiniteSpaceError, match="line 2: cannot parse"):
            parse_space("1 2\n1,(\n")


# ---------------------------------------------------------------------------
# reference: the open lattice as the pairwise union/intersection closure of
# a subbasis, and every derived query read off that lattice directly

def closure_opens(points, basis):
    pset = frozenset(points)
    family = {frozenset(), pset} | {frozenset(b) for b in basis}
    changed = True
    while changed:
        changed = False
        items = list(family)
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                for new in (items[i] | items[j], items[i] & items[j]):
                    if new not in family:
                        family.add(new)
                        changed = True
    return frozenset(family)


def closure_minimal_opens(points, opens):
    return {x: frozenset.intersection(*(o for o in opens if x in o))
            for x in points}


def brute_chains(points, mins):
    """Every subset totally ordered by inclusion of minimal opens."""
    out = []
    for r in range(1, len(points) + 1):
        for subset in itertools.combinations(points, r):
            chain = sorted(subset, key=lambda x: len(mins[x]))
            if all(mins[a] < mins[b] for a, b in zip(chain, chain[1:])):
                out.append(tuple(chain))
    return sorted(out, key=lambda c: (len(c), tuple(vkey(v) for v in c)))


def check_against_closure(points, basis):
    """Build from_basis(points, basis); compare it with the closure.

    Returns the space, or None when the closure is not T0 (after checking
    that the constructor names the same indistinguishable pairs).
    """
    opens = closure_opens(points, basis)
    mins = closure_minimal_opens(points, opens)
    pts = sorted(points, key=vkey)
    pairs = [(x, y) for i, x in enumerate(pts) for y in pts[i + 1:]
             if mins[x] == mins[y]]
    if pairs:
        with pytest.raises(NotT0Error) as exc:
            FiniteSpace.from_basis(points, basis)
        assert exc.value.pairs == pairs
        return None
    X = FiniteSpace.from_basis(points, basis)
    assert X.points == tuple(pts)
    assert X.opens == opens
    assert X.opens_sorted() == written_out_order(opens)
    assert X.minimal_opens() == mins
    assert tuple(X.minimal_opens()) == X.points
    for r in range(len(pts) + 1):
        for s in itertools.combinations(pts, r):
            assert X.is_open(s) == (frozenset(s) in opens)
    chains = brute_chains(pts, mins)
    assert X.chains() == chains
    assert X.chains(max_len=2) == [c for c in chains if len(c) <= 2]
    return X


def random_subbasis(seed):
    """Arbitrary subsets of up to 7 points; many generate no T0 space."""
    rng = random.Random(seed)
    points = tuple(range(rng.randint(1, 7)))
    basis = [{p for p in points if rng.random() < 0.4}
             for _ in range(rng.randint(0, 2 * len(points)))]
    return points, basis


def example03_subbasis():
    first, *rows = files("nestrix").joinpath("data/example03.space") \
        .read_text().splitlines()
    return (tuple(int(p) for p in first.split()),
            [{int(p) for p in row.split(",")} for row in rows])


STOCK = [
    (sierpinski_space, ((0, 1), [{0}])),
    (pseudocircle, (("x", "y", "c", "d"),
                    [{"x"}, {"y"}, {"x", "y", "c"}, {"x", "y", "d"}])),
    (lambda: discrete_space(3), ((0, 1, 2), [{0}, {1}, {2}])),
    (example03_space, example03_subbasis()),
]


def tagged_unions(a, b):
    return {frozenset({("l", p) for p in oa} | {("r", p) for p in ob})
            for oa in a.opens for ob in b.opens}


class TestMinimalOpenRepresentation:
    def test_random_subbases_match_closure(self):
        spaces = [check_against_closure(*random_subbasis(seed))
                  for seed in range(150)]
        built = [X for X in spaces if X is not None]
        # both branches are exercised
        assert 20 <= len(built) <= 130
        for a, b in zip(built, built[1:]):
            assert disjoint_union(a, b).opens == tagged_unions(a, b)

    @pytest.mark.parametrize("make, subbasis", STOCK)
    def test_stock_spaces_match_closure(self, make, subbasis):
        X = check_against_closure(*subbasis)
        stock = make()
        assert stock.points == X.points and stock.opens == X.opens
        assert stock.minimal_opens() == X.minimal_opens()
        for _, other in STOCK:
            Y = check_against_closure(*other)
            assert disjoint_union(stock, Y).opens == tagged_unions(stock, Y)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_space_matches_closure_of_its_minimal_opens(self, seed):
        X = random_space(7, 0.4, seed)
        Y = check_against_closure(X.points, X.minimal_opens().values())
        assert X.opens == Y.opens

    def test_inconsistent_minimal_opens_rejected(self):
        with pytest.raises(FiniteSpaceError):
            FiniteSpace({0: {0}, 1: {0}})            # 1 not in U_1
        with pytest.raises(FiniteSpaceError):
            FiniteSpace({0: {0, 1}, 1: {1, 2}, 2: {2}})  # U_1 not in U_0
        with pytest.raises(FiniteSpaceError):
            FiniteSpace({0: {0, 7}})                 # escapes the points
