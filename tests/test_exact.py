import random
from fractions import Fraction

import pytest

from nestrix.exact import (
    DegreeRangeError,
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
    homology,
    image_basis,
    kernel_basis,
    lattice_basis,
    lattice_contains,
    preimage_lattice,
    presented_cohomology_at,
    smith_normal_form,
    solve_boundary,
    solve_exact,
    sqrt_upper,
    zmod,
    ZCOEFF,
    QCOEFF,
)
from nestrix.simplicial import random_complex


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


class TestSmith:
    def test_empty(self):
        snf = check_smith(IntMatrix(0, 0, []))
        assert snf.D.rows == 0 and snf.D.cols == 0

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

    def test_preimage_lattice(self):
        A = IntMatrix.from_rows([[2, 0], [0, 3]])
        L = IntMatrix.from_rows([[4], [0]])
        P = preimage_lattice(A, L)
        # x with (2x1, 3x2) in span{(4,0)}: x2 = 0, 2x1 in 4Z -> x1 even
        assert lattice_contains(P, (2, 0))
        assert not lattice_contains(P, (1, 0))
        assert not lattice_contains(P, (0, 1))

    def test_lattice_sum_membership(self):
        b1 = lattice_basis(IntMatrix.from_rows([[2], [0]]))
        assert lattice_contains(b1, (4, 0))
        assert not lattice_contains(b1, (3, 0))


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
        complexes = [
            hollow_triangle(), full_triangle(), two_torsion(),
            # H_0 = Z/2 + Z/12
            FinChainComplex({0: 2, 1: 2}, {1: IntMatrix.diagonal([4, 6])}),
            # H_1 = Z/2 sits below degree 2
            FinChainComplex({0: 1, 1: 1, 2: 1},
                            {1: IntMatrix(1, 1, [0]), 2: IntMatrix(1, 1, [2])}),
        ] + [random_complex(seed, max_facets=8, max_dim=2).chain_complex()
             for seed in range(12)]
        for C in complexes:
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
        p, injs = direct_sum([Presentation.cyclic(2), Presentation.free(1)])
        s = p.summary()
        assert s.free_rank == 1 and s.torsion == (2,)
        assert len(injs) == 2

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
        assert z3.elements_equal((x[0],), (2,))

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


def test_sqrt_upper():
    for q in (Fraction(2), Fraction(1, 4), Fraction(0), Fraction(49)):
        u = sqrt_upper(q)
        assert u * u >= q
        if q > 0:
            assert (u * u) <= q * Fraction(1001, 1000) + Fraction(1, 1000)
