import collections
import math
import random
import re
from fractions import Fraction

import pytest

from nestrix import exact, sheaves
from nestrix.exact import (
    DegreeRangeError,
    ExactAlgebraError,
    FinChainComplex,
    IntMatrix,
    NotABoundary,
    NotACycleError,
    Presentation,
    cohomology,
    direct_sum,
    hom_cokernel,
    hom_is_injective,
    hom_is_surjective,
    hom_is_well_defined,
    hom_kernel,
    hom_preimage,
    homs_equal,
    homology,
    image_basis,
    kernel_basis,
    lattice_coordinates,
    preimage_lattice,
    presented_cohomology_at,
    smith_normal_form,
    solve_boundary,
    solve_exact,
    zmod,
    ZCOEFF,
    QCOEFF,
    _min_pivot,
)
from nestrix.simplicial import (
    OrderedSimplicialComplex,
    random_complex,
    subdivide,
)


def rational_rank(mat: IntMatrix) -> int:
    """Independent oracle: Gaussian elimination over Q."""
    rows = [[Fraction(mat.entry(i, j)) for j in range(mat.cols)]
            for i in range(mat.rows)]
    rank = 0
    col = 0
    while rank < len(rows) and col < mat.cols:
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def check_smith(A):
    snf = smith_normal_form(A)
    assert snf.U * A * snf.V == snf.D
    assert snf.U * snf.U_inv == IntMatrix.identity(A.rows)
    if A.rows:
        assert abs(snf.U.det()) == 1
    if A.cols:
        assert abs(snf.V.det()) == 1
    diag = snf.diagonal()
    for d in diag:
        assert d >= 0
    nonzero = [d for d in diag if d != 0]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # zero entries only after all nonzero ones
    seen_zero = False
    for d in diag:
        if d == 0:
            seen_zero = True
        else:
            assert not seen_zero
    return snf


def hollow_triangle():
    d1 = IntMatrix.from_rows([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    return FinChainComplex({0: 3, 1: 3}, {1: d1})


def full_triangle():
    d1 = IntMatrix.from_rows([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    d2 = IntMatrix.from_rows([[1], [-1], [1]])
    return FinChainComplex({0: 3, 1: 3, 2: 1}, {1: d1, 2: d2})


def two_torsion():
    # Z --2--> Z in degrees 1 -> 0 gives H_0 = Z/2
    return FinChainComplex({0: 1, 1: 1}, {1: IntMatrix(1, 1, [2])})


def random_rows(rng, rows, cols):
    """Nested lists with zero rows, small entries and some above 2**64."""
    out = []
    for _ in range(rows):
        if rng.random() < 0.2:
            out.append([0] * cols)
            continue
        out.append([rng.choice((0, 0, 1, -1, rng.randint(-9, 9),
                                rng.randint(-2 ** 80, 2 ** 80)))
                    for _ in range(cols)])
    return out


SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4)]


class TestIntMatrixKernel:
    """Products, columns and transposes against loops over nested lists."""

    def test_apply(self):
        rng = random.Random(5)
        for r, c in SHAPES * 10:
            rows = random_rows(rng, r, c)
            vec = [rng.randint(-2 ** 70, 2 ** 70) for _ in range(c)]
            want = tuple(sum(row[k] * vec[k] for k in range(c))
                         for row in rows)
            assert IntMatrix(r, c, rows).apply(vec) == want
        with pytest.raises(ExactAlgebraError):
            IntMatrix(2, 3, [0] * 6).apply((1, 2))

    def test_product(self):
        rng = random.Random(6)
        for r, k in SHAPES * 5:
            for c in (0, 1, 3):
                a, b = random_rows(rng, r, k), random_rows(rng, k, c)
                want = [sum(a[i][t] * b[t][j] for t in range(k))
                        for i in range(r) for j in range(c)]
                got = IntMatrix(r, k, a) * IntMatrix(k, c, b)
                assert (got.rows, got.cols) == (r, c)
                assert got == IntMatrix(r, c, want)
        with pytest.raises(ExactAlgebraError):
            IntMatrix.zeros(2, 3) * IntMatrix.zeros(2, 3)

    def test_columns_and_transpose(self):
        rng = random.Random(7)
        for r, c in SHAPES * 10:
            rows = random_rows(rng, r, c)
            A = IntMatrix(r, c, rows)
            for j in range(c):
                assert A.col(j) == tuple(row[j] for row in rows)
            assert A.transpose() == IntMatrix(
                c, r, [rows[i][j] for j in range(c) for i in range(r)])
            picks = [rng.randrange(c) for _ in range(rng.randint(0, 4))] \
                if c else []
            assert A.take_columns(picks) == IntMatrix(
                r, len(picks), [rows[i][j] for i in range(r) for j in picks])

    @pytest.mark.parametrize("bad", [1.0, Fraction(1), "1"])
    def test_non_integer_entry_rejected(self, bad):
        with pytest.raises(ExactAlgebraError, match="non-integer entry"):
            IntMatrix(1, 1, [bad])
        with pytest.raises(ExactAlgebraError, match=re.escape(repr(bad))):
            IntMatrix(2, 2, [[1, 2], [bad, 4]])


def full_scan_pivot(m, rows, cols, t):
    """Reference: every entry of the trailing block is looked at."""
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            if m[i][j] != 0 and (best is None or abs(m[i][j]) < best[0]):
                best = (abs(m[i][j]), i, j)
    return best


def test_min_pivot_matches_full_scan():
    rng = random.Random(8)
    for _ in range(300):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        m = [[rng.choice((0, 0, 1, -1, 2, -3, 4)) for _ in range(c)]
             for _ in range(r)]
        t = rng.randint(0, min(r, c))
        assert _min_pivot(m, r, c, t) == full_scan_pivot(m, r, c, t)


class TestSmith:
    def test_empty(self):
        snf = check_smith(IntMatrix(0, 0, []))
        assert snf.D.rows == 0 and snf.D.cols == 0

    @pytest.mark.parametrize("rows, cols", [(0, 1), (0, 3), (1, 0), (3, 0)])
    def test_empty_side(self, rows, cols):
        snf = check_smith(IntMatrix(rows, cols, []))
        assert snf.D == IntMatrix.zeros(rows, cols)
        assert snf.U_inv == IntMatrix.identity(rows)

    def test_identity(self):
        snf = check_smith(IntMatrix.identity(3))
        assert snf.D == IntMatrix.identity(3)

    def test_diag_2_3(self):
        snf = check_smith(IntMatrix.diagonal([2, 3]))
        assert snf.diagonal() == (1, 6)

    def test_zero_matrix(self):
        snf = check_smith(IntMatrix.zeros(2, 4))
        assert snf.diagonal() == (0, 0)

    def test_random_500(self):
        rng = random.Random(20240811)
        for _ in range(500):
            r = rng.randint(0, 8)
            c = rng.randint(0, 8)
            A = IntMatrix(r, c, [rng.randint(-9, 9) for _ in range(r * c)])
            snf = check_smith(A)
            assert snf.rank() == rational_rank(A)

    @pytest.mark.parametrize("rows, diagonal", [
        ([[2, 4], [6, 9]], (1, 6)),
        ([[4, 0, 0], [0, 6, 0], [0, 0, 10]], (2, 2, 60)),
    ])
    def test_divisibility_fixup(self, rows, diagonal):
        assert check_smith(IntMatrix.from_rows(rows)).diagonal() == diagonal

    def test_simplicial_boundaries(self):
        # boundary matrices have unit pivots, so the unit-pivot exits run
        for seed in range(30):
            C = random_complex(seed, max_facets=6).chain_complex()
            for d in C.boundaries:
                snf = check_smith(C.boundary(d))
                assert set(snf.diagonal()) <= {0, 1}

    def test_deterministic(self):
        rng = random.Random(7)
        A = IntMatrix(5, 6, [rng.randint(-9, 9) for _ in range(30)])
        s1 = smith_normal_form(A)
        s2 = smith_normal_form(A)
        assert s1.U == s2.U and s1.V == s2.V and s1.D == s2.D


class TestLattices:
    def test_kernel_image(self):
        rng = random.Random(99)
        for _ in range(50):
            r = rng.randint(1, 6)
            c = rng.randint(1, 6)
            A = IntMatrix(r, c, [rng.randint(-5, 5) for _ in range(r * c)])
            K = kernel_basis(A)
            assert (A * K).is_zero()
            assert K.cols == c - rational_rank(A)
            B = image_basis(A)
            assert B.cols == rational_rank(A)
            bsnf = smith_normal_form(B)
            for j in range(A.cols):
                assert solve_exact(B, A.col(j), bsnf) is not None

    def test_lattice_coordinates(self):
        rng = random.Random(12)
        for _ in range(100):
            r = rng.randint(0, 5)
            c = rng.randint(0, r)
            B = image_basis(IntMatrix(r, c, random_rows(rng, r, c)))
            X = IntMatrix(B.cols, 3, [rng.randint(-5, 5)
                                      for _ in range(3 * B.cols)])
            assert lattice_coordinates(B, B * X) == X
        B = IntMatrix.from_rows([[2], [0]])
        assert lattice_coordinates(B, IntMatrix.from_rows([[4, -2], [0, 0]])) \
            == IntMatrix.from_rows([[2, -1]])
        with pytest.raises(ExactAlgebraError, match="column 1 escapes"):
            lattice_coordinates(B, IntMatrix.from_rows([[2, 1, 0],
                                                        [0, 0, 1]]))
        # the lowest escaping column is named, not the lowest failing row
        with pytest.raises(ExactAlgebraError, match="column 1 escapes"):
            lattice_coordinates(B, IntMatrix.from_rows([[2, 0, 1],
                                                        [0, 1, 0]]))

    def test_solve_exact_empty_shapes(self):
        assert solve_exact(IntMatrix(0, 2, []), ()) == (0, 0)
        assert solve_exact(IntMatrix(2, 0, []), (0, 0)) == ()
        assert solve_exact(IntMatrix(2, 0, []), (0, 1)) is None
        assert lattice_coordinates(IntMatrix(2, 1, [1, 0]),
                                   IntMatrix(2, 0, [])) == IntMatrix(1, 0, [])

    def test_preimage_lattice(self):
        A = IntMatrix.from_rows([[2, 0], [0, 3]])
        L = IntMatrix.from_rows([[4], [0]])
        P = preimage_lattice(A, L)
        # x with (2x1, 3x2) in span{(4,0)}: x2 = 0, 2x1 in 4Z -> x1 even
        assert solve_exact(P, (2, 0)) is not None
        assert solve_exact(P, (1, 0)) is None
        assert solve_exact(P, (0, 1)) is None

    def test_lattice_sum_membership(self):
        b1 = image_basis(IntMatrix.from_rows([[2], [0]]))
        assert solve_exact(b1, (4, 0)) is not None
        assert solve_exact(b1, (3, 0)) is None


class TestHomology:
    def test_point(self):
        C = FinChainComplex({0: 1}, {})
        h = homology(C, 0)
        assert h.free_rank == 1 and h.torsion == ()

    def test_hollow_triangle_h1(self):
        C = hollow_triangle()
        # oracle: betti_1 = dim ker d1 - rank d2 = (3 - 2) - 0 = 1
        assert 3 - rational_rank(C.boundary(1)) == 1
        h = homology(C, 1)
        assert h.free_rank == 1 and h.torsion == ()

    def test_full_triangle_h1(self):
        C = full_triangle()
        assert 3 - rational_rank(C.boundary(1)) - rational_rank(C.boundary(2)) == 0
        h = homology(C, 1)
        assert h.free_rank == 0 and h.torsion == ()

    def test_degree_out_of_range(self):
        C = hollow_triangle()
        with pytest.raises(DegreeRangeError):
            homology(C, 5)

    def test_torsion_rp2_style(self):
        h = homology(two_torsion(), 0)
        assert h.free_rank == 0 and h.torsion == (2,)

    def test_betti_matches_rational_oracle_random(self):
        rng = random.Random(5150)
        for _ in range(20):
            # random 2-step complex with d1*d2 = 0: build d2 inside ker d1
            r0, r1 = rng.randint(1, 4), rng.randint(1, 5)
            d1 = IntMatrix(r0, r1, [rng.randint(-3, 3) for _ in range(r0 * r1)])
            K = kernel_basis(d1)
            if K.cols == 0:
                d2 = IntMatrix.zeros(r1, 0)
            else:
                picks = [[rng.randint(-2, 2) for _ in range(2)]
                         for _ in range(K.cols)]
                d2 = K * IntMatrix(K.cols, 2, picks)
            C = FinChainComplex({0: r0, 1: r1, 2: d2.cols}, {1: d1, 2: d2})
            h = homology(C, 1)
            betti = (r1 - rational_rank(d1)) - rational_rank(d2)
            assert h.free_rank == betti


def uct_complexes():
    """Small complexes with torsion in and below the top degree, and 12
    seeded random simplicial complexes."""
    return [
        hollow_triangle(), full_triangle(), two_torsion(),
        # H_0 = Z/2 + Z/12
        FinChainComplex({0: 2, 1: 2}, {1: IntMatrix.diagonal([4, 6])}),
        # H_1 = Z/2 sits below degree 2
        FinChainComplex({0: 1, 1: 1, 2: 1},
                        {1: IntMatrix(1, 1, [0]), 2: IntMatrix(1, 1, [2])}),
    ] + [random_complex(seed, max_facets=8, max_dim=2).chain_complex()
         for seed in range(12)]


def diagonal_complex(t, s):
    """H_0 = the sum of Z/a for a in t, H_1 = the sum of Z/b for b in s."""
    p, q = len(t), len(s)
    d1 = IntMatrix.diagonal(t).hstack(IntMatrix.zeros(p, q))
    d2 = IntMatrix.zeros(q, p).hstack(IntMatrix.diagonal(s)).transpose()
    return FinChainComplex({0: p, 1: p + q, 2: q}, {1: d1, 2: d2})


def torsion_complexes():
    """Hand-set torsion coprime and not coprime to 4, 6 and 12, then seeded
    complexes with d2 = (kernel of a random d1) * picks * s for s in
    2, 3, 4, 6."""
    complexes = [diagonal_complex([5, 4, 6], [3, 10, 12]),
                 diagonal_complex([7, 35], [6, 12]),
                 diagonal_complex([4, 6], [25])]
    rng = random.Random(1602)
    while len(complexes) < 43:
        r0, r1 = rng.randint(1, 4), rng.randint(2, 6)
        d1 = IntMatrix(r0, r1, [rng.randint(-3, 3) for _ in range(r0 * r1)])
        K = kernel_basis(d1)
        if K.cols == 0:
            continue
        r2 = rng.randint(1, 3)
        scale = rng.choice((2, 3, 4, 6))
        picks = [[scale * rng.randint(-2, 2) for _ in range(r2)]
                 for _ in range(K.cols)]
        d2 = K * IntMatrix(K.cols, r2, picks)
        complexes.append(
            FinChainComplex({0: r0, 1: r1, 2: r2}, {1: d1, 2: d2}))
    return complexes


def presented_homology(C, n):
    """H_n through presented groups: the middle of free C_{n+1}, C_n,
    C_{n-1}."""
    groups = [Presentation.free(C.rank(d)) for d in (n + 1, n, n - 1)]
    return presented_cohomology_at(
        groups, [C.boundary(n + 1), C.boundary(n)], n)


def presented_cohomology(C, m, n):
    """H^n(Z) for m = 0, else H^n(Z/m), on free or m*I presented cochains."""
    if not C.in_range(n):
        return exact.HomologySummary(n, 0, ())
    ranks = [C.rank(d) for d in (n - 1, n, n + 1)]
    groups = [Presentation(r, m * IntMatrix.identity(r)) if m
              else Presentation.free(r) for r in ranks]
    return presented_cohomology_at(
        groups, [C.boundary(n).transpose(), C.boundary(n + 1).transpose()], n)


MODULI = (1, 2, 3, 4, 6, 12)


def test_invariants_match_presented_groups():
    met = collections.defaultdict(set)   # m -> {coprime torsion?}
    for C in uct_complexes() + torsion_complexes():
        for n in range(C.min_degree, C.max_degree + 1):
            assert homology(C, n) == presented_homology(C, n)
        for n in range(C.min_degree - 1, C.max_degree + 2):
            assert cohomology(C, ZCOEFF, n) == presented_cohomology(C, 0, n)
            betti = (C.rank(n) - rational_rank(C.boundary(n))
                     - rational_rank(C.boundary(n + 1))) \
                if C.in_range(n) else 0
            assert cohomology(C, QCOEFF, n) == \
                exact.HomologySummary(n, betti, ())
            for m in MODULI:
                assert cohomology(C, zmod(m), n) == \
                    presented_cohomology(C, m, n), (m, n)
            if C.in_range(n):
                for t in homology(C, n).torsion:
                    for m in MODULI:
                        met[m].add(math.gcd(t, m) == 1)
    for m in (4, 6, 12):
        assert met[m] == {True, False}, m


BAD_COEFFICIENTS = ["Zmod", ("Zmod", True), ("Zmod", 2.0), ("Zmod", "2"),
                    ("Zmod",), ("Z", 5), ("Zmod", 2, 3), ("Zmod", 0),
                    ("Zmod", -2), ["Zmod", 2], None]


@pytest.mark.parametrize("bad", BAD_COEFFICIENTS, ids=repr)
def test_bad_coefficients_rejected(bad):
    with pytest.raises(ExactAlgebraError):
        cohomology(hollow_triangle(), bad, 1)
    with pytest.raises(sheaves.SheafError):
        sheaves.coefficient_presentation(bad)


def test_coefficient_descriptors():
    assert cohomology(hollow_triangle(), zmod(1), 1).is_trivial()
    assert sheaves.coefficient_presentation(ZCOEFF) == Presentation.free(1)
    assert sheaves.coefficient_presentation(zmod(3)) == Presentation.cyclic(3)
    with pytest.raises(sheaves.SheafError):
        sheaves.coefficient_presentation(QCOEFF)


def test_sweep_runs_one_smith_form_per_boundary(monkeypatch):
    K = subdivide(OrderedSimplicialComplex.standard_simplex(3)).complex
    calls = []
    real = exact.smith_normal_form

    def counted(A):
        calls.append((A.rows, A.cols))
        return real(A)

    monkeypatch.setattr(exact, "smith_normal_form", counted)
    for _ in range(2):
        C = K.chain_complex()
        degrees = range(C.min_degree, C.max_degree + 2)
        shapes = {(C.rank(n - 1), C.rank(n)): n for n in degrees}
        assert len(shapes) == len(degrees)
        calls.clear()
        for n in range(C.min_degree, C.max_degree + 1):
            homology(C, n)
            for coefficients in (ZCOEFF, zmod(2), QCOEFF):
                cohomology(C, coefficients, n)
        # each call is one degree's boundary, and no degree comes twice
        assert calls and set(calls) <= set(shapes)
        assert len(calls) == len(set(calls))


def count_transforms(monkeypatch):
    """(made, built): every Smith form made from now on, and the name of
    every transform replayed ("U", "U_inv" or "V"), in order."""
    made, built = [], []
    real_snf, real_replay = exact.smith_normal_form, exact._replay

    def counted_snf(A):
        made.append(real_snf(A))
        return made[-1]

    def counted_replay(n, ops, inverse=False):
        on_cols = any(ops is snf._col_ops for snf in made)
        built.append("V" if on_cols else "U_inv" if inverse else "U")
        return real_replay(n, ops, inverse)

    monkeypatch.setattr(exact, "smith_normal_form", counted_snf)
    monkeypatch.setattr(exact, "_replay", counted_replay)
    return made, built


def test_transforms_built_only_when_read(monkeypatch):
    """U, U_inv and V are replayed only for callers that read them."""
    made, built = count_transforms(monkeypatch)
    C = subdivide(OrderedSimplicialComplex.standard_simplex(3)).complex \
        .chain_complex()
    for n in range(C.min_degree, C.max_degree + 1):
        homology(C, n)
        for coefficients in (ZCOEFF, zmod(2), QCOEFF):
            cohomology(C, coefficients, n)
    G = Presentation(2, IntMatrix.from_rows([[2, 4], [6, 9]]))
    assert G.summary().torsion == (6,)
    assert made and built == []

    A = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    for basis, want in ((kernel_basis, ["V"]), (image_basis, ["U_inv"])):
        built.clear()
        basis(A)
        assert built == want
    # a failing membership test needs U only; a passing one also V
    for column, member, want in (((1, 0), False, ["U"]),
                                 ((4, 6), True, ["U", "V"])):
        built.clear()
        assert G.columns_are_zero(IntMatrix.column(column)) is member
        assert built == want

    snf = exact.smith_normal_form(A)
    built.clear()
    for name in ("U", "U_inv", "V"):
        assert getattr(snf, name) is getattr(snf, name)
    assert sorted(built) == ["U", "U_inv", "V"]


class TestCohomology:
    def test_hollow_triangle_z(self):
        h = cohomology(hollow_triangle(), ZCOEFF, 1)
        assert h.free_rank == 1 and h.torsion == ()

    def test_below_range_zero(self):
        h = cohomology(hollow_triangle(), ZCOEFF, -3)
        assert h.is_trivial()

    def test_hollow_triangle_mod2(self):
        h = cohomology(hollow_triangle(), zmod(2), 1)
        assert h.free_rank == 0 and h.torsion == (2,)

    def test_mod_zero_rejected(self):
        with pytest.raises(Exception):
            cohomology(hollow_triangle(), zmod(0), 1)

    def test_rational_ranks(self):
        h = cohomology(full_triangle(), QCOEFF, 1)
        assert h.free_rank == 0
        h0 = cohomology(full_triangle(), QCOEFF, 0)
        assert h0.free_rank == 1

    def test_universal_coefficients_consistency(self):
        # free complexes: H^n(Z) free part = H_n free part, torsion part =
        # torsion of H_{n-1}; H^n(Z/p) is (Z/p)^k with
        # k = b_n + t_p(H_n) + t_p(H_{n-1}), where t_p counts the torsion
        # coefficients divisible by p
        for C in uct_complexes():
            for n in range(C.min_degree, C.max_degree + 1):
                hn = homology(C, n)
                prev = homology(C, n - 1).torsion \
                    if n - 1 >= C.min_degree else ()
                co = cohomology(C, ZCOEFF, n)
                assert co.free_rank == hn.free_rank
                assert co.torsion == prev
                for p in (2, 3):
                    t_p = sum(1 for t in hn.torsion + prev if t % p == 0)
                    cop = cohomology(C, zmod(p), n)
                    assert cop.free_rank == 0
                    assert cop.torsion == (p,) * (hn.free_rank + t_p)


class TestSolveBoundary:
    def test_zero(self):
        C = full_triangle()
        x = solve_boundary(C, (0, 0, 0), 1)
        assert x == (0,) * 1 or all(v == 0 for v in x)

    def test_filler_in_full_triangle(self):
        C = full_triangle()
        cycle = (1, -1, 1)  # ab - ac + bc = boundary of the 2-face
        x = solve_boundary(C, cycle, 1)
        assert not isinstance(x, NotABoundary)
        assert C.boundary(2).apply(x) == cycle

    def test_not_a_boundary_in_hollow_triangle(self):
        C = hollow_triangle()
        res = solve_boundary(C, (1, -1, 1), 1)
        assert isinstance(res, NotABoundary)

    def test_non_cycle_rejected(self):
        C = full_triangle()
        with pytest.raises(NotACycleError):
            solve_boundary(C, (1, 0, 0), 1)

    def test_soundness_random(self):
        rng = random.Random(314)
        C = full_triangle()
        K = kernel_basis(C.boundary(1))
        for _ in range(30):
            coeffs = [rng.randint(-4, 4) for _ in range(K.cols)]
            cyc = K.apply(coeffs)
            res = solve_boundary(C, cyc, 1)
            if isinstance(res, NotABoundary):
                aug = C.boundary(2)
                assert solve_exact(aug, cyc) is None
            else:
                assert C.boundary(2).apply(res) == tuple(cyc)


class TestPresentations:
    def test_cyclic_summary(self):
        p = Presentation.cyclic(12)
        s = p.summary()
        assert s.free_rank == 0 and s.torsion == (12,)
        assert Presentation.cyclic(0).summary().free_rank == 1

    def test_direct_sum(self):
        p = direct_sum([Presentation.cyclic(2), Presentation.free(1),
                        Presentation(2, IntMatrix.from_rows([[3, 0],
                                                             [1, 5]]))])
        assert p.rank == 4
        assert p.relations == IntMatrix.from_rows(
            [[2, 0, 0], [0, 0, 0], [0, 3, 0], [0, 1, 5]])
        s = p.summary()
        assert s.free_rank == 1 and s.torsion == (30,)
        assert direct_sum([]) == Presentation.zero()

    def test_hom_well_defined(self):
        z4 = Presentation.cyclic(4)
        z2 = Presentation.cyclic(2)
        assert hom_is_well_defined(IntMatrix(1, 1, [1]), z4, z2)
        assert not hom_is_well_defined(IntMatrix(1, 1, [1]), z2, z4)
        assert hom_is_well_defined(IntMatrix(1, 1, [2]), z2, z4)

    def test_kernel_cokernel(self):
        z = Presentation.free(1)
        # multiplication by 3: Z -> Z
        mul3 = IntMatrix(1, 1, [3])
        ker, _ = hom_kernel(mul3, z, z)
        assert ker.is_trivial()
        cok = hom_cokernel(mul3, z, z)
        s = cok.summary()
        assert s.free_rank == 0 and s.torsion == (3,)
        assert not hom_is_surjective(mul3, z, z)
        assert hom_is_injective(mul3, z, z)

    def test_preimage(self):
        z6 = Presentation.cyclic(6)
        z3 = Presentation.cyclic(3)
        proj = IntMatrix(1, 1, [1])
        x = hom_preimage(proj, z6, z3, (2,))
        assert x is not None
        assert z3.columns_are_zero(IntMatrix.column((x[0] - 2,)))

    def test_presented_cohomology(self):
        # 0 -> Z --2--> Z -> 0 at the middle spot: Z/2
        g = [Presentation.zero(), Presentation.free(1), Presentation.free(1)]
        maps = [IntMatrix.zeros(1, 0), IntMatrix(1, 1, [2])]
        # cohomology at spot 1 of 0 -> Z -> Z is ker(2)/im(0) = 0
        s = presented_cohomology_at(g, maps, 1)
        assert s.is_trivial()
        g2 = [Presentation.free(1), Presentation.free(1), Presentation.zero()]
        maps2 = [IntMatrix(1, 1, [2]), IntMatrix.zeros(0, 1)]
        s2 = presented_cohomology_at(g2, maps2, 1)
        assert s2.torsion == (2,)


def random_relations(rng, rank):
    """Small-entry relations with torsion columns (a column times 2, 3 or
    4), zero columns and columns that repeat others."""
    cols = []
    for _ in range(rng.randint(0, rank + 2)):
        kind = rng.random()
        if kind < 0.2 or not rank:
            cols.append([0] * rank)
        elif kind < 0.3 and cols:
            cols.append(list(rng.choice(cols)))
        else:
            col = [rng.choice((0, 0, 1, -1, 2, -3, 5)) for _ in range(rank)]
            scale = rng.choice((1, 1, 2, 3, 4))
            cols.append([scale * v for v in col])
    return Presentation(rank, IntMatrix.from_columns(rank, cols))


def test_pruned_presentation_is_isomorphic():
    rng = random.Random(1602)
    seen = collections.Counter()
    for _ in range(200):
        G = random_relations(rng, rng.randint(0, 5))
        P, to_p, from_p = G.pruned()
        seen["torsion"] += bool(G.summary().torsion)
        seen["pruned"] += P.rank < G.rank
        seen["zero column"] += any(
            not any(G.relations.col(j)) for j in range(G.relations.cols))
        assert P.summary() == G.summary()
        assert to_p * from_p == IntMatrix.identity(P.rank)
        assert hom_is_well_defined(to_p, G, P)
        assert hom_is_well_defined(from_p, P, G)
        assert homs_equal(from_p * to_p, IntMatrix.identity(G.rank), G)
        assert all(d > 1 for d in smith_normal_form(P.relations).diagonal())
    assert min(seen.values()) >= 20, seen


def test_pruned_hand_cases():
    # Z/6 + Z + a unit relation: generators 3 -> 2, relations 3 -> 1
    G = Presentation(3, IntMatrix.from_columns(3, [(1, 1, 0), (0, 6, 0),
                                                   (0, 0, 0)]))
    P, _, _ = G.pruned()
    assert (P.rank, P.relations) == (2, IntMatrix(2, 1, [6, 0]))
    P, to_p, from_p = Presentation.free(2).pruned()
    assert P == Presentation.free(2)
    assert to_p == from_p == IntMatrix.identity(2)
    assert Presentation.zero().pruned()[0] == Presentation.zero()


def reference_presented_cohomology(groups, maps, degree):
    """The kernel-basis route: ker d1 on coker d0 through hom_kernel."""
    g0, g1, g2 = groups
    d0, d1 = maps
    H, _ = hom_kernel(d1, hom_cokernel(d0, g0, g1), g2)
    return H.summary(degree)


def random_matrix(rng, rows, cols):
    return IntMatrix(rows, cols, [rng.choice((0, 0, 1, -1, 2, -2, 3))
                                  for _ in range(rows * cols)])


def random_presented_complex(rng):
    """G0 -> G1 -> G2 on which d1 descends and d1 d0 = 0 in G2.

    Either R1 = [d0 R0 | extra] and R2 = [d1 R1 | d1 d0 | extra], so R2's
    columns are dependent, or G2 is free and d0 and R1 land in ker d1.
    The extras have torsion, zero and repeated columns.
    """
    r0, r1, r2 = (rng.randint(0, 4) for _ in range(3))
    d1 = random_matrix(rng, r2, r1)
    R0 = random_relations(rng, r0).relations
    if rng.random() < 0.3:
        K = kernel_basis(d1)
        d0 = K * random_matrix(rng, K.cols, r0)
        R1 = (d0 * R0).hstack(K * random_relations(rng, K.cols).relations)
        R2 = IntMatrix.zeros(r2, 0)
    else:
        d0 = random_matrix(rng, r1, r0)
        R1 = (d0 * R0).hstack(random_relations(rng, r1).relations)
        R2 = (d1 * R1).hstack(d1 * d0).hstack(
            random_relations(rng, r2).relations)
    groups = [Presentation(r, R) for r, R in ((r0, R0), (r1, R1), (r2, R2))]
    return groups, [d0, d1]


def test_presented_cohomology_matches_kernel_route():
    rng = random.Random(1602)
    seen = collections.Counter()
    for case in range(2000):
        groups, maps = random_presented_complex(rng)
        got = presented_cohomology_at(groups, maps, case % 4)
        assert got == reference_presented_cohomology(groups, maps, case % 4)
        R2 = groups[2].relations
        seen["torsion"] += bool(got.torsion)
        seen["free"] += got.free_rank > 0
        seen["trivial"] += got.is_trivial()
        seen["free target"] += not R2.cols
        seen["dependent R2"] += smith_normal_form(R2).rank() < R2.cols
        seen["zero column"] += any(not any(R2.col(j))
                                   for j in range(R2.cols))
        seen["rank-0 group"] += any(g.rank == 0 for g in groups)
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize("g1, g2, d0, d1", [
    # free G2: d1 d0 = 1, and a relation of G1 = Z/2 maps to 1
    (Presentation.free(1), Presentation.free(1), [1], [1]),
    (Presentation.cyclic(2), Presentation.free(1), [0], [1]),
    # torsion G2 = Z/4: d1 d0 = 2, and a relation of G1 = Z/3 maps to 3
    (Presentation.free(1), Presentation.cyclic(4), [1], [2]),
    (Presentation.cyclic(3), Presentation.cyclic(4), [0], [1]),
])
def test_presented_cohomology_fails_closed(g1, g2, d0, d1):
    """d1 must map coboundaries and G1's relations into im R2."""
    groups = [Presentation.free(1), g1, g2]
    maps = [IntMatrix(1, 1, d0), IntMatrix(1, 1, d1)]
    for route in (presented_cohomology_at, reference_presented_cohomology):
        with pytest.raises(ExactAlgebraError):
            route(groups, maps, 1)


def test_presented_cohomology_cost(monkeypatch):
    """Two Smith diagonals and no transform with a free G2; with relations
    a third Smith form, of R2, whose U and V alone are replayed."""
    made, built = count_transforms(monkeypatch)
    assert presented_cohomology(full_triangle(), 0, 1).is_trivial()
    assert len(made) == 2 and built == []
    made.clear()
    assert presented_cohomology(hollow_triangle(), 4, 0) == \
        exact.HomologySummary(0, 0, (4,))
    assert len(made) == 3 and built == ["U", "V"]


def test_relation_membership_runs_one_smith_form(monkeypatch):
    """hom_is_well_defined and homs_equal decide all their columns against
    one Smith form of the target's relations, and a target with no
    relations needs none."""
    calls = []
    real = exact.smith_normal_form

    def counted(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(exact, "smith_normal_form", counted)
    z2, z4 = Presentation.cyclic(2), Presentation.cyclic(4)
    # Z/2 + Z/3, and two maps from Z^3 whose difference has 3 columns
    G = Presentation(2, IntMatrix.from_columns(2, [(2, 0), (0, 3)]))
    A = IntMatrix.from_rows([[1, 2, 5], [0, 1, 7]])
    same = A - IntMatrix.from_rows([[2, 0, 4], [0, 3, 6]])
    other = A - IntMatrix.from_rows([[2, 0, 4], [0, 3, 5]])
    for check, want in (
            (lambda: hom_is_well_defined(IntMatrix(1, 1, [1]), z4, z4), True),
            (lambda: hom_is_well_defined(IntMatrix(1, 1, [1]), z2, z4), False),
            (lambda: homs_equal(A, same, G), True),
            (lambda: homs_equal(A, other, G), False)):
        calls.clear()
        assert check() is want
        assert len(calls) == 1
    calls.clear()
    free = Presentation.free(2)
    assert homs_equal(A, A, free) and not homs_equal(A, same, free)
    assert hom_is_well_defined(A, Presentation.free(3), free)
    assert calls == []
