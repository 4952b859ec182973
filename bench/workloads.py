"""The benchmark's three workloads, each a fixed list of cases.

A case is one question a user asks of nestrix.  ``run`` is the timed call
and returns the answer; ``check`` looks at the answer outside the timed
region and returns the problems it finds.  A case with ``known_fault``
set to (exception type, reason) raises that exception, with the reason in
its message, every time because of a fault in nestrix; it is counted as
failed until the fault is mended, after which its answer is checked like
any other.

``build(seed)`` makes every input of a workload.  The seed picks the
random posets of ``sheaf`` and the order in which each workload runs its
cases; the same seed gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Library calls go through the module attributes, so that the wrappers
# tracing.py installs in nestrix's namespaces see the benchmark's calls too.
from nestrix import (covering, exact, finite_space, nesting, sheaves,
                     simplicial, symbolic)
from nestrix.symbolic import AffineSimplex

import checks
from checks import (
    add_into,
    chain_boundary,
    check_agree,
    check_groups,
    check_poset_invariants,
    check_uct,
    f_vector,
    face_boundary,
    group,
    max_sq_edge,
    mesh_of_faces,
    subdivided_f_vector,
    sym_boundary,
)


@dataclass
class Case:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    known_fault: tuple[type, str] | None = None


def _shuffled(cases, seed):
    cases = list(cases)
    random.Random(seed).shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# sheaf: sheaf cohomology on finite spaces

SHEAF_DEGREE = 2
RANDOM_POSETS = 12
POSET_POINTS = 8
# Chains (faces of the order complex) per random poset.  compare_theorem's
# cost grows with this count, so a narrow band keeps a pass's cost nearly
# the same whatever the seed.
CHAIN_BAND = (22, 26)

# The stock spaces' specialization orders, written out by hand, and the
# groups H^0..H^2 of their constant Z sheaf known from topology.
STOCK_SPACES = {
    "sierpinski": (finite_space.sierpinski_space, (0, 1), {(0, 1)},
                   [(1, ()), (0, ()), (0, ())]),
    "pseudocircle": (finite_space.pseudocircle, ("x", "y", "c", "d"),
                     {("x", "c"), ("x", "d"), ("y", "c"), ("y", "d")},
                     [(1, ()), (1, ()), (0, ())]),
    "example03": (finite_space.example03_space, (1, 2, 3, 4, 5),
                  {(3, 2), (3, 4), (2, 1), (4, 1), (2, 5), (4, 5)},
                  [(1, ()), (0, ()), (0, ())]),
}


def random_poset(rng):
    """An 8-point poset of height at most 3, as (points, strict order).

    Points fall into three nonempty levels; each pair one level apart is
    related with probability 0.45, two levels apart with 0.2.  Posets whose
    chain count falls outside CHAIN_BAND are drawn again.  Height 3 keeps
    the order complex 2-dimensional, so degrees 0..2 hold all of its
    cohomology.
    """
    points = tuple(range(POSET_POINTS))
    while True:
        cut = sorted(rng.sample(range(1, POSET_POINTS), 2))
        level = [0] * cut[0] + [1] * (cut[1] - cut[0]) \
            + [2] * (POSET_POINTS - cut[1])
        rng.shuffle(level)
        pairs = set()
        for a in points:
            for b in points:
                gap = level[b] - level[a]
                if gap == 1 and rng.random() < 0.45:
                    pairs.add((a, b))
                elif gap == 2 and rng.random() < 0.2:
                    pairs.add((a, b))
        less = checks.transitive_closure(pairs)
        n_chains = sum(checks.chain_counts(points, less).values())
        if CHAIN_BAND[0] <= n_chains <= CHAIN_BAND[1]:
            return points, less


def _space_of(points, less):
    return finite_space.FiniteSpace.from_poset(
        points, lambda x, y: x == y or (x, y) in less)


def _transcript_case():
    def check(t):
        if not t["checks"]:
            return ["example03 transcript has no checks"]
        bad = [c["name"] for c in t["checks"] if c["ok"] is not True]
        problems = [f"example03 check {name} is not ok" for name in bad]
        if t["ok"] is not True:
            problems.append("example03 transcript ok is not true")
        return problems

    return Case("example03-transcript", sheaves.example03_reproduce, check)


def _stock_case(name, space, points, less, known):
    def run():
        return {
            "nerve": sheaves.sheaf_cohomology_nerve(
                sheaves.constant_sheaf(space, exact.ZCOEFF), SHEAF_DEGREE),
            "godement": sheaves.sheaf_cohomology_godement(
                sheaves.constant_sheaf(space, exact.ZCOEFF), SHEAF_DEGREE),
            "cech": sheaves.cech_cohomology(
                sheaves.constant_sheaf(space, exact.ZCOEFF),
                sheaves.minimal_open_cover(space), SHEAF_DEGREE),
            "compare": sheaves.compare_theorem(space, exact.ZCOEFF,
                                               SHEAF_DEGREE),
        }

    def check(r):
        problems = check_agree([
            ("nerve", r["nerve"]), ("godement", r["godement"]),
            ("cech", r["cech"]), ("compare-sheaf", r["compare"].sheaf_side),
            ("compare-simplicial", r["compare"].simplicial_side)])
        problems += check_groups(name, r["nerve"], known)
        problems += check_poset_invariants(
            name, [group(s) for s in r["nerve"]], points, less)
        return problems

    return Case(f"pipelines-{name}", run, check)


def _poset_case(index, space, points, less):
    def run():
        return (sheaves.compare_theorem(space, exact.ZCOEFF, SHEAF_DEGREE),
                sheaves.compare_theorem(space, exact.zmod(2), SHEAF_DEGREE))

    def check(r):
        z, z2 = r
        label = f"poset {index}"
        problems = check_agree([("Z sheaf", z.sheaf_side),
                                ("Z simplicial", z.simplicial_side)])
        problems += check_agree([("Z/2 sheaf", z2.sheaf_side),
                                 ("Z/2 simplicial", z2.simplicial_side)])
        z_groups = [group(s) for s in z.simplicial_side]
        problems += check_poset_invariants(label, z_groups, points, less)
        problems += check_uct(label, z_groups,
                              [group(s) for s in z2.simplicial_side])
        return problems

    return Case(f"compare-poset-{index}", run, check)


def build_sheaf(seed):
    cases = [_transcript_case()]
    for name, (make, points, less, known) in STOCK_SPACES.items():
        less = checks.transitive_closure(less)
        cases.append(_stock_case(name, make(), points, less, known))
    rng = random.Random(seed)
    for i in range(RANDOM_POSETS):
        points, less = random_poset(rng)
        cases.append(_poset_case(i, _space_of(points, less), points, less))
    return _shuffled(cases, seed)


# ---------------------------------------------------------------------------
# projection: coverings, the small-chain projection and its homotopy

N_CAP = 3
# (k, squared ball radius): radius 2 needs no subdivision, 1/2 and 1/4
# need one.
PROJECTIONS = [(1, Fraction(2)), (1, Fraction(1, 2)), (1, Fraction(1, 4)),
               (2, Fraction(2)), (2, Fraction(1, 2)), (2, Fraction(1, 4))]
# Needs n = 2, where _candidate_covering copies the seed target onto new
# 0-faces and every attempt fails zero-face-pin.
KNOWN_FAULT_PROJECTION = (1, Fraction(1, 8))
BOUNDARY_SQ_RADIUS = Fraction(1)
BOUNDARY_SIMPLICES = {"segment": ((0, 0), (1, 1)),
                      "triangle": ((0, 0), (1, 0), (0, 1))}


def _ball_nesting(dim, sq_radius):
    return nesting.cover_generated(nesting.PLRealm(dim),
                                   nesting.UniformBallRule(sq_radius))


def _basis_point(i, k):
    return tuple(Fraction(int(j == i)) for j in range(k + 1))


def check_projection(data, k, eta):
    """pi fixes vertices, is a chain map and lands in small chains, and
    dh + hd = id - pi on every face of the k-simplex."""
    problems = []
    if set(data.pi) != set(data.cyl.base_complex.faces):
        return ["pi is not defined on exactly the faces of the simplex"]
    for key, order in data.cyl.base_complex.faces.items():
        label = f"face {order}"
        pts = [_basis_point(v, k) for v in order]
        pi = data.pi[key].terms
        if len(order) == 1:
            terms = list(pi.items())
            if len(terms) != 1 or terms[0][1] != 1 \
                    or terms[0][0].evaluate((1,)) != pts[0]:
                problems.append(f"{label}: pi is not the identity on it")
        pi_of_boundary = {}
        h_of_boundary = {}
        for sub, c in face_boundary(order).items():
            add_into(pi_of_boundary, data.pi[sub].terms, c)
            add_into(h_of_boundary, data.h[sub].terms, c)
        if sym_boundary(pi) != pi_of_boundary:
            problems.append(f"{label}: d pi != pi d")
        lhs = add_into(sym_boundary(data.h[key].terms), h_of_boundary)
        rhs = add_into({AffineSimplex(pts): 1}, pi, -1)
        if lhs != rhs:
            problems.append(f"{label}: dh + hd != id - pi")
        if not symbolic.chain_in_c_eta(data.pi[key], eta):
            problems.append(f"{label}: pi is not a small chain")
    return problems


def _projection_case(k, sq_radius, known_fault=None):
    eta = _ball_nesting(k + 1, sq_radius)
    return Case(f"projection-k{k}-r2={sq_radius}",
                lambda: covering.small_chain_projection(k, eta, n_cap=N_CAP),
                lambda data: check_projection(data, k, eta),
                known_fault)


def _boundary_case(name, points):
    eta = _ball_nesting(len(points[0]), BOUNDARY_SQ_RADIUS)
    pts = [tuple(Fraction(c) for c in p) for p in points]

    # The question is "a small chain with the simplex's boundary, and is it
    # small": the smallness verdict is part of the timed answer.
    def run():
        x = covering.boundary_in_small_chains(points, eta, n_cap=N_CAP)
        return x, symbolic.chain_in_c_eta(x, eta)

    def check(r):
        x, small = r
        want = {AffineSimplex(pts[:i] + pts[i + 1:]): (-1) ** i
                for i in range(len(pts))}
        problems = []
        if sym_boundary(x.terms) != want:
            problems.append(f"{name}: dx != d sigma")
        if small is not True:
            problems.append(f"{name}: verdict says x is not a small chain")
        if not symbolic.chain_in_c_eta(x, eta):
            problems.append(f"{name}: x is not a small chain")
        return problems

    return Case(f"boundary-{name}", run, check)


def build_projection(seed):
    cases = [_projection_case(k, r) for k, r in PROJECTIONS]
    cases.append(_projection_case(
        *KNOWN_FAULT_PROJECTION,
        known_fault=(covering.CoveringError, "zero-face-pin")))
    cases += [_boundary_case(n, p) for n, p in BOUNDARY_SIMPLICES.items()]
    return _shuffled(cases, seed)


# ---------------------------------------------------------------------------
# homology: large sparse boundary matrices, T_n and iterated meshes

def _simplex(k):
    return simplicial.OrderedSimplicialComplex.standard_simplex(k)


def _boundary_of_tetrahedron():
    return simplicial.OrderedSimplicialComplex.from_facets(
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def _point_groups(dim, coeff_group):
    return [coeff_group] + [(0, ())] * dim


# (name, base complex, subdivisions, H_* over Z, H^* over Z/2)
HOMOLOGY = [
    ("S2(D2)", lambda: _simplex(2), 2,
     _point_groups(2, (1, ())), _point_groups(2, (0, (2,)))),
    ("S(D3)", lambda: _simplex(3), 1,
     _point_groups(3, (1, ())), _point_groups(3, (0, (2,)))),
    ("S5(D1)", lambda: _simplex(1), 5,
     _point_groups(1, (1, ())), _point_groups(1, (0, (2,)))),
    ("S(bdD3)", _boundary_of_tetrahedron, 1,
     [(1, ()), (0, ()), (1, ())], [(0, (2,)), (0, ()), (0, (2,))]),
]
T_N = [(2, 2), (3, 1)]
MESH_POINTS = ((0, 0), (1, 0), (0, 1))
MESH_DEPTH = 6
MESH_BUILT_DEPTH = 2


def _subdivided(K, n):
    for _ in range(n):
        K = simplicial.subdivide(K).complex
    return K


def _homology_case(name, K, n, want_h, want_c):
    def run():
        SK = _subdivided(K, n)
        C = SK.chain_complex()
        dims = range(SK.dim() + 1)
        return (SK, [exact.homology(C, d) for d in dims],
                [exact.cohomology(C, exact.zmod(2), d) for d in dims])

    def check(r):
        SK, h, c = r
        problems = []
        got = f_vector(SK.faces)
        want = subdivided_f_vector(f_vector(K.faces), n)
        if got != want:
            problems.append(f"{name}: face counts {got}, flag counts {want}")
        problems += check_groups(f"{name} H_*(Z)", h, want_h)
        problems += check_groups(f"{name} H^*(Z/2)", c, want_c)
        return problems

    return Case(f"homology-{name}", run, check)


def check_t_n(K, n, result):
    """dT_n + T_n d = i_a S^n - i_b on every face, a = 0 and b = 1."""
    total, Tn, subs = result
    problems = []
    for key, order in K.faces.items():
        sn = {key: 1}
        for sub in subs:
            nxt = {}
            for kk, c in sn.items():
                add_into(nxt, sub.chain_map.values[kk], c)
            sn = nxt
        want = {frozenset((v, Fraction(0)) for v in kk): c
                for kk, c in sn.items()}
        add_into(want, {frozenset((v, Fraction(1)) for v in key): 1}, -1)
        got = chain_boundary(Tn.values[key], total.faces)
        for sub, c in face_boundary(order).items():
            add_into(got, Tn.values[sub], c)
        if got != want:
            problems.append(f"T_{n} on face {order}: dT + Td != i_a S^n - i_b")
    if len(subs) != n:
        problems.append(f"T_{n} returned {len(subs)} subdivisions")
    return problems


def _t_n_case(k, n):
    K = _simplex(k)
    return Case(f"t_n-k{k}-n{n}", lambda: simplicial.t_n_complex(K, n),
                lambda r: check_t_n(K, n, r))


def check_mesh(points, values):
    """iterated_mesh_sq against meshes of built subdivisions for small n,
    and the (k/(k+1))^2 contraction per subdivision for every n."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    k = len(pts) - 1
    base = max_sq_edge([pts])
    problems = []
    K = _simplex(k)
    coords = dict(enumerate(pts))
    for n, value in enumerate(values):
        if n <= MESH_BUILT_DEPTH:
            built = mesh_of_faces(_subdivided(K, n).faces, coords)
            if value != built:
                problems.append(f"mesh at n={n} is {value}, built "
                                f"subdivision has {built}")
        if not 0 < value <= Fraction(k, k + 1) ** (2 * n) * base:
            problems.append(f"mesh at n={n} is {value}, outside "
                            f"(0, (k/(k+1))^2n mesh(K)]")
    return problems


def _mesh_case():
    return Case(f"iterated-mesh-n{MESH_DEPTH}",
                lambda: [simplicial.iterated_mesh_sq(MESH_POINTS, n)
                         for n in range(MESH_DEPTH + 1)],
                lambda values: check_mesh(MESH_POINTS, values))


def build_homology(seed):
    cases = [_homology_case(name, make(), n, h, c)
             for name, make, n, h, c in HOMOLOGY]
    cases += [_t_n_case(k, n) for k, n in T_N]
    cases.append(_mesh_case())
    return _shuffled(cases, seed)


WORKLOADS = {
    "sheaf": build_sheaf,
    "projection": build_projection,
    "homology": build_homology,
}
