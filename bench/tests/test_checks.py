"""Every checker accepts the real answer and rejects a corrupted one."""

import dataclasses
import random
from fractions import Fraction

import pytest

import workloads
from checks import subdivided_f_vector
from nestrix import covering, simplicial
from nestrix.exact import HomologySummary
from nestrix.symbolic import AffineSimplex


def case_named(cases, name):
    return next(c for c in cases if c.name == name)


def replaced(summaries, degree, free_rank, torsion=()):
    out = list(summaries)
    out[degree] = HomologySummary(degree, free_rank, tuple(torsion))
    return out


@pytest.fixture(scope="module")
def sheaf_cases():
    return workloads.build_sheaf(1)


def test_stock_space_rejects_wrong_group(sheaf_cases):
    case = case_named(sheaf_cases, "pipelines-pseudocircle")
    answer = case.run()
    assert case.check(answer) == []
    for pipeline in ("nerve", "godement", "cech"):
        bad = dict(answer)
        bad[pipeline] = replaced(answer[pipeline], 1, 0)
        assert case.check(bad), pipeline
    # the same wrong group from every pipeline still misses the known answer
    bad = {k: replaced(v, 1, 2) for k, v in answer.items() if k != "compare"}
    bad["compare"] = dataclasses.replace(
        answer["compare"],
        sheaf_side=replaced(answer["compare"].sheaf_side, 1, 2),
        simplicial_side=replaced(answer["compare"].simplicial_side, 1, 2))
    assert case.check(bad)


def test_poset_case_rejects_wrong_group(sheaf_cases):
    case = case_named(sheaf_cases, "compare-poset-0")
    z, z2 = case.run()
    assert case.check((z, z2)) == []
    rank0 = z2.simplicial_side[0].torsion
    wrong_mod2 = replaced(z2.simplicial_side, 0, 0, rank0 + (2,))
    both = dataclasses.replace(z2, sheaf_side=wrong_mod2,
                               simplicial_side=wrong_mod2)
    assert any("universal coefficients" in p
               for p in case.check((z, both)))
    h1 = z.simplicial_side[1].free_rank
    wrong_z = replaced(z.simplicial_side, 1, h1 + 1)
    both = dataclasses.replace(z, sheaf_side=wrong_z, simplicial_side=wrong_z)
    assert any("Euler" in p for p in case.check((both, z2)))


def test_transcript_rejects_a_false_check(sheaf_cases):
    case = case_named(sheaf_cases, "example03-transcript")
    t = case.run()
    assert case.check(t) == []
    t["checks"][2]["ok"] = False
    assert case.check(t)


def test_random_posets_follow_the_seed():
    def draw(seed):
        rng = random.Random(seed)
        return [workloads.random_poset(rng) for _ in range(3)]

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)
    for points, less in draw(7):
        assert len(points) == workloads.POSET_POINTS


@pytest.fixture(scope="module")
def projection():
    k, r2 = 1, Fraction(2)
    eta = workloads._ball_nesting(k + 1, r2)
    return k, eta, covering.small_chain_projection(k, eta, n_cap=1)


def test_projection_rejects_chain_off_by_one_face(projection):
    k, eta, data = projection
    assert workloads.check_projection(data, k, eta) == []
    top = frozenset(range(k + 1))
    stray = AffineSimplex([(Fraction(1, 3), Fraction(2, 3)),
                           (Fraction(2, 3), Fraction(1, 3))])
    original = data.pi[top]
    data.pi[top] = original.add(stray)
    try:
        problems = workloads.check_projection(data, k, eta)
    finally:
        data.pi[top] = original
    assert any("d pi != pi d" in p for p in problems)
    assert any("dh + hd" in p for p in problems)


def test_projection_rejects_moved_vertex(projection):
    k, eta, data = projection
    v = frozenset([0])
    original = data.pi[v]
    data.pi[v] = type(original).single(AffineSimplex([(Fraction(1, 2),
                                                       Fraction(1, 2))]))
    try:
        problems = workloads.check_projection(data, k, eta)
    finally:
        data.pi[v] = original
    assert any("identity" in p for p in problems)


def test_boundary_case_rejects_chain_off_by_one_face():
    case = workloads._boundary_case("segment", ((0, 0), (1, 1)))
    x, small = case.run()
    assert case.check((x, small)) == []
    extra = AffineSimplex([(Fraction(0), Fraction(0)),
                           (Fraction(1, 2), Fraction(0))])
    assert any("dx != d sigma" in p
               for p in case.check((x.add(extra), small)))
    assert any("verdict" in p for p in case.check((x, False)))


def test_t_n_rejects_chain_off_by_one_face():
    K = workloads._simplex(1)
    result = simplicial.t_n_complex(K, 2)
    assert workloads.check_t_n(K, 2, result) == []
    total, Tn, subs = result
    top = frozenset({0, 1})
    dropped = dict(Tn.values[top])
    dropped.pop(next(iter(dropped)))
    Tn.values[top] = dropped
    assert workloads.check_t_n(K, 2, (total, Tn, subs))


def test_homology_rejects_wrong_group_and_face_count():
    case = next(c for c in workloads.build_homology(1)
                if c.name == "homology-S(bdD3)")
    SK, h, c = case.run()
    assert case.check((SK, h, c)) == []
    assert case.check((SK, replaced(h, 2, 0), c))
    assert case.check((SK, h, replaced(c, 1, 0, (2,))))
    fewer = simplicial.OrderedSimplicialComplex(
        dict(list(SK.faces.items())[1:]), check=False)
    assert any("face counts" in p for p in case.check((fewer, h, c)))


def test_mesh_rejects_wrong_mesh():
    pts = workloads.MESH_POINTS
    values = [simplicial.iterated_mesh_sq(pts, n) for n in range(4)]
    assert workloads.check_mesh(pts, values) == []
    wrong = list(values)
    wrong[1] += Fraction(1, 1000)
    assert any("built subdivision" in p
               for p in workloads.check_mesh(pts, wrong))
    wrong = list(values)
    wrong[3] = values[2]
    assert any("outside" in p for p in workloads.check_mesh(pts, wrong))


def test_subdivided_f_vector_of_a_triangle():
    # S(D2): 7 vertices, 12 edges, 6 triangles
    assert subdivided_f_vector([3, 3, 1], 1) == [7, 12, 6]
