"""Compatible coverings and the subdivision-and-deform pipeline.

A compatible covering assigns to each face of (a set of faces of) a
realized complex a convex covering set W and a target point t subject to

    i)   0-faces are pinned: t is the vertex itself,
    ii)  nested faces have nested covering sets,
    iii) along any strict chain of faces the smallest face's covering set
         sits inside the nesting's region at the chain's target points,

plus containment of the face and its target in the covering set.  The
validator checks every condition exactly (three-valued region inclusion,
undecided fails closed) in one walk over the faces, reporting failures in
face order, and it alone makes a candidate a compatible covering: no
construction here is trusted without it.  A nesting's region at a chain
is the intersection of the regions at its members (``nesting``), so
condition iii is asked once per face and coface: each face's covering set
must lie in the region at each coface's target.

``find_covering`` searches for the least subdivision depth at which a
candidate validates.  There is one candidate per depth and one rule: every
face gets its own hull as covering set and its own barycenter as target,
so the deformation is the identity on every face.

The mapping cylinder glues the simplex to a prism over its small-chain
subcomplex (L), subdivides L n times and stacks the n-step prism T_n on
[1, 2].  One build path serves both entry points: the part below level 1
is built once, and T_n is stacked once onto S^n(L), which
``cylinder_covering`` takes from its search on L.  The search's rule covers
the whole cylinder: every face, the top copy of T_n included, takes the
hull of its own points and is pinned at its own barycenter.  Every face of
the glued complex lies in S^n(L) or in T_n with all its faces, so the
search's validation and one of T_n's own complex decide the glued
covering.  The seam is shared by name: ``simplicial`` names a one-level
face's barycenter by its level, so S^n(L) and T_n carry the same level-1
ids and are glued by a union.  Geometry is read from coordinates, never
from vertex ids; only ``simplicial`` knows the id shapes.  The
projection-plus-homotopy data whose identities drive the small-chain
boundary constructions sit on top.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations

from .exact import frac, frac_str
from .nesting import NestingOracle, in_c_eta, pullback
from .regions import (
    AffineMap,
    Polytope,
    Region,
    Tri,
    contains_point,
    region_contains,
    simplex_in_region,
)
from .simplicial import (
    OrderedSimplicialComplex,
    Realization,
    SimplicialChainMap,
    add_into,
    check_depth,
    iterate_subdivide,
    mesh_sq,
    prism_complex,
    realize_vertices,
    sorted_faces,
    subdivision_levels,
    t_n_complex,
)
from .symbolic import AffineSimplex, FormalChain

# largest simplex dimension the cylinder and projection constructions take
K_CAP = 3


class CoveringError(Exception):
    """A covering could not be found or built.

    ``attempts`` lists the (n, first failure) of every depth a failed
    ``find_covering`` search tried, in order; it is empty for other
    errors.
    """

    def __init__(self, message, attempts=()):
        super().__init__(message)
        self.attempts = list(attempts)


@dataclass
class CompatibleCovering:
    """A (W, t) assignment on faces of a realized complex."""

    complex: OrderedSimplicialComplex
    realization: Realization
    assignments: dict  # face key -> (Region W, point t)

    def __post_init__(self):
        self.assignments = {frozenset(k): (w, tuple(frac(c) for c in t))
                            for k, (w, t) in self.assignments.items()}

    def W(self, key) -> Region:
        return self.assignments[frozenset(key)][0]

    def t(self, key):
        return self.assignments[frozenset(key)][1]


@dataclass
class CoveringValidation:
    passed: bool
    failures: list  # (condition, payload)

    def first(self):
        return self.failures[0] if self.failures else None


def validate_covering(covering: CompatibleCovering, eta: NestingOracle
                      ) -> CoveringValidation:
    """All covering conditions, exactly; undecided inclusions fail closed.

    One walk over the assigned faces, in face order, decides conditions ii
    and iii.  Each face ``top`` is the larger face of a nested pair with
    each of its assigned proper faces (condition ii), and the coface of a
    condition-iii pair with each of its assigned faces, ``top`` included:
    the face's covering set must lie in eta at the target of ``top``
    alone.  Since eta at a chain of targets is the intersection of the
    regions at its members, and a containment in an intersection is TRUE
    iff it is TRUE for every member and FALSE if it is FALSE for one, the
    pairs decide the condition on every strict chain of assigned faces,
    verdict for verdict.  The records are ``("chain-region", {"face",
    "coface", "verdict"})``.  Failures come out as condition i, then ii,
    then iii, each in face order of the larger face (``top``), then of the
    smaller, whatever the hash seed.  Face order is ``sorted_faces``'s one
    global order and every pair lies inside ``top``, so a covering that is
    the union of two face-closed parts fails exactly where its parts do,
    in the same order.  One cache of membership and inclusion verdicts
    (see ``regions.contains_point`` and ``regions.region_contains``) lives
    for the length of the call, so nothing outlives the validation.
    """
    failures, nested, chained = [], [], []
    cache = {}
    cx = covering.complex
    R = covering.realization
    assigned = covering.assignments
    faces = sorted_faces(assigned)
    for key in faces:
        W, t = assigned[key]
        order = cx.order(key)
        pts = [R.point(v) for v in order]
        if len(order) == 1 and t != pts[0]:
            failures.append(("zero-face-pin", {"face": order}))
        if not contains_point(W, t, cache):
            failures.append(("target-in-set", {"face": order}))
        res = simplex_in_region(pts, W, cache)
        if res is not Tri.TRUE:
            failures.append(("face-in-set", {"face": order,
                                             "verdict": res.value}))
    position = {key: i for i, key in enumerate(faces)}
    for top in faces:
        order = cx.order(top)
        W_top, t_top = assigned[top]
        # top's assigned faces, top included, in face order
        subfaces = sorted(
            (k for size in range(1, len(order) + 1)
             for k in map(frozenset, combinations(order, size))
             if k in assigned),
            key=position.__getitem__)
        region = eta.region((t_top,))
        for key in subfaces:
            W = assigned[key][0]
            if key != top:
                res = region_contains(W_top, W, cache)
                if res is not Tri.TRUE:
                    nested.append(("nested-sets", {
                        "small": cx.order(key), "large": order,
                        "verdict": res.value}))
            res = region_contains(region, W, cache)
            if res is not Tri.TRUE:
                chained.append(("chain-region", {
                    "face": cx.order(key), "coface": order,
                    "verdict": res.value}))
    failures += nested + chained
    return CoveringValidation(not failures, failures)


# ---------------------------------------------------------------------------
# the covering search

@dataclass
class CoveringSearchResult:
    n: int
    covering: CompatibleCovering
    subdivision_results: list
    chain_map: SimplicialChainMap


def _pinned(cx, R, keys):
    """Each face's own hull as covering set and own barycenter as target."""
    out = {}
    for key in keys:
        order = cx.order(key)
        out[key] = (Polytope(tuple(R.point(v) for v in order)),
                    R.barycenter(order))
    return out


def _candidate_covering(cx, R):
    return CompatibleCovering(cx, R, _pinned(cx, R, cx.all_faces()))


def find_covering(K: OrderedSimplicialComplex, R: Realization,
                  eta: NestingOracle, n_cap=6) -> CoveringSearchResult:
    """Least subdivision depth admitting a valid covering.

    Each depth makes one candidate: every face of S^n(K) gets its own
    convex hull as covering set and its own barycenter as target, so the
    deformation is the identity.  A candidate is returned only when
    ``validate_covering`` passes it in full.
    """
    check_depth(n_cap, "subdivision cap n_cap", CoveringError)
    attempts = []
    levels = subdivision_levels(K)
    for n in range(n_cap + 1):
        subs, chain_map = next(levels)
        cx = subs[-1].complex if subs else K
        real = R.extended_to(cx)
        cand = _candidate_covering(cx, real)
        report = validate_covering(cand, eta)
        if report.passed:
            return CoveringSearchResult(n, cand, subs, chain_map)
        attempts.append((n, report.first()))
    mesh = mesh_sq(K, R)
    raise CoveringError(
        f"no compatible covering within subdivision cap {n_cap}; "
        f"base squared mesh {frac_str(mesh)}; "
        f"last failure: {attempts[-1]!r}", attempts)


# ---------------------------------------------------------------------------
# the mapping cylinder

def delta_complex(k) -> tuple:
    """The standard k-simplex in the symmetric chart of Q^{k+1}."""
    K = OrderedSimplicialComplex.standard_simplex(k)
    coords = {i: tuple(Fraction(1 if j == i else 0) for j in range(k + 1))
              for i in range(k + 1)}
    return K, Realization(coords)


@dataclass
class MappingCylinder:
    n: int
    base_complex: OrderedSimplicialComplex     # the simplex
    base_realization: Realization
    accepted: OrderedSimplicialComplex         # small-chain subcomplex
    L: OrderedSimplicialComplex                # simplex glued to the prism
    L_realization: Realization
    Ln: OrderedSimplicialComplex               # S^n(L) glued to T_n
    Ln_realization: Realization
    q: AffineMap
    q_eta: NestingOracle
    sub_chain_map: SimplicialChainMap          # S^n on L
    prism_homotopy: dict                       # P values on accepted faces
    tn: SimplicialChainMap | None              # T_n, onto its own complex
    level0: dict                               # face of simplex -> face of L


def _accepted_subcomplex(K, R, eta):
    return K.subcomplex([key for key in K.all_faces() if in_c_eta(
        [R.point(v) for v in K.order(key)], eta)])


def _lower_cylinder(k, eta: NestingOracle) -> MappingCylinder:
    """The cylinder below level 1: the simplex, its small-chain
    subcomplex, L (the simplex at level 0 glued to the prism over that
    subcomplex on [0, 1]), q and q_eta.  ``_stacked`` fills in n, Ln,
    S^n and T_n; until then Ln is L and S^n is unset."""
    check_depth(k, "simplex dimension", CoveringError)
    if k > K_CAP:
        raise CoveringError(f"simplex dimension {k} exceeds cap {K_CAP}")
    q = AffineMap.projection_drop_last(k + 2)
    q_eta = pullback(q, eta)
    base, base_real = delta_complex(k)
    accepted = _accepted_subcomplex(base, base_real, eta)
    level0 = {key: frozenset((v, Fraction(0)) for v in key)
              for key in base.faces}
    L = base.relabel(lambda v: (v, Fraction(0)))
    prism_values = {}
    if accepted.faces:
        PK, P = prism_complex(accepted, 0, 1)
        L = L.union(PK)
        prism_values = P.values
    L_real = Realization(realize_vertices(L, base_real.coords))
    return MappingCylinder(
        n=0, base_complex=base, base_realization=base_real,
        accepted=accepted, L=L, L_realization=L_real, Ln=L,
        Ln_realization=L_real, q=q, q_eta=q_eta, sub_chain_map=None,
        prism_homotopy=prism_values, tn=None, level0=level0)


def _stacked(lower: MappingCylinder, n, Sn, Sn_real, chain_map
             ) -> MappingCylinder:
    """``lower`` with L subdivided n times (S^n(L), its realization and
    the chain map S^n) and T_n of the accepted subcomplex stacked on
    [1, 2], glued on along level 1.

    The seam is shared by name: subdivision names a one-level face's
    barycenter by its level, so S^n(L)'s level-1 part is T_n's bottom id
    for id, and the union raises ``OrderingConflict`` if a seam face came
    out with two orderings.
    """
    cyl = replace(lower, n=n, Ln=Sn, Ln_realization=Sn_real,
                  sub_chain_map=chain_map)
    accepted = cyl.accepted
    if not accepted.faces:
        return cyl
    if n == 0:
        # T_0 is the plain prism, oriented as T_n is: dT_0 + T_0 d = i_1 - i_2
        TnK, Tn = prism_complex(accepted, 2, 1)
    else:
        TnK, Tn, _ = t_n_complex(accepted, n, 1, 2)
    coords = {**Sn_real.coords,
              **realize_vertices(TnK, cyl.base_realization.coords)}
    return replace(cyl, Ln=Sn.union(TnK), Ln_realization=Realization(coords),
                   tn=Tn)


def mapping_cylinder(k, eta: NestingOracle, n) -> MappingCylinder:
    """Glue the simplex to a prism over its small-chain subcomplex, then
    subdivide n times and stack the n-step prism on [1, 2]."""
    check_depth(n, error=CoveringError)
    lower = _lower_cylinder(k, eta)
    subs, chain_map = iterate_subdivide(lower.L, n)
    Sn = subs[-1].complex if subs else lower.L
    return _stacked(lower, n, Sn, lower.L_realization.extended_to(Sn),
                    chain_map)


def cylinder_covering(k, eta: NestingOracle, n_cap=6):
    """Covering of the stacked cylinder by the search's rule: every face
    takes its own hull and its own barycenter.

    The cylinder below level 1 is built once, and T_n is stacked onto the
    search's own subdivision, so L is subdivided once and T_n built once.
    Faces below the seam and on it keep the search's data; each face of
    T_n gets the same rule, so the top copy is pinned at barycenters.

    The exact validator decides the glued covering in two parts.  Every
    face of S^n(L) has its faces in S^n(L), which the search validated in
    full against ``cyl.q_eta``; every face of T_n has its faces in T_n's
    own complex, validated here against that same oracle object.  The
    seam passed in the search and faces are reported in one global order,
    so T_n's failures are those of a full validation.
    """
    check_depth(n_cap, "subdivision cap n_cap", CoveringError)
    lower = _lower_cylinder(k, eta)
    res = find_covering(lower.L, lower.L_realization, lower.q_eta,
                        n_cap=n_cap)
    searched = res.covering
    cyl = _stacked(lower, res.n, searched.complex, searched.realization,
                   res.chain_map)
    assignments = searched.assignments
    if cyl.tn is not None:
        upper = _candidate_covering(cyl.tn.target, cyl.Ln_realization)
        report = validate_covering(upper, cyl.q_eta)
        if not report.passed:
            raise CoveringError(
                f"cylinder covering invalid: {report.first()!r}")
        assignments = {**upper.assignments, **assignments}
    glued = CompatibleCovering(cyl.Ln, cyl.Ln_realization, assignments)
    return res.n, glued, cyl


# ---------------------------------------------------------------------------
# projection and homotopy

@dataclass
class ProjectionData:
    k: int
    eta: NestingOracle
    n: int
    cyl: MappingCylinder
    covering: CompatibleCovering
    pi: dict        # face of the simplex -> FormalChain (small chains)
    h: dict         # all faces -> FormalChain (after the extension)


def _cylinder_homotopy(cyl: MappingCylinder, key):
    """S^n P - T_n on an accepted face, a chain of ``cyl.Ln``: the
    homotopy dh + hd = i_2 - S^n i_0 in the cylinder, before the
    projection q flattens it."""
    snp = cyl.sub_chain_map.apply(cyl.prism_homotopy[key])
    return add_into(snp, cyl.tn.values[key], -1)


def small_chain_projection(k, eta: NestingOracle, n_cap=6) -> ProjectionData:
    """The projection onto small chains together with both homotopies.

    The covering pins every face at its own barycenter, so its
    deformation is the identity: pi sends a face through n-fold
    subdivision, then projects the cylinder away, each face of S^n going
    to the affine simplex on the q-images of its points; it is the
    identity on 0-simplices.  h is the explicit prism homotopy between
    the embedding of the accepted subcomplex and pi, extended to every
    face by deterministic cone fillers.
    """
    n, covering, cyl = cylinder_covering(k, eta, n_cap)
    R = cyl.Ln_realization

    def delta_prime_chain(chain):
        # the projection q off the cylinder, face by face
        return FormalChain.image(chain, lambda key: AffineSimplex(
            [cyl.q.apply(R.point(v)) for v in cyl.Ln.order(key)]))

    # pi = delta' o S^n o (level-0 inclusion)
    pi = {}
    for key in cyl.base_complex.faces:
        lv = cyl.level0[key]
        sub_chain = cyl.sub_chain_map.values[lv]
        pi[key] = delta_prime_chain(sub_chain)

    h = {key: delta_prime_chain(_cylinder_homotopy(cyl, key))
         for key in cyl.accepted.faces}

    # extension over the remaining faces by cone fillers
    apex = cyl.base_realization.point(0)
    for key in cyl.base_complex.all_faces():
        if key in h:
            continue
        order = cyl.base_complex.order(key)
        target = {AffineSimplex(
            [cyl.base_realization.point(v) for v in order]): 1}
        add_into(target, pi[key].terms, -1)
        for sub, c in cyl.base_complex.boundary_of_face(key).items():
            add_into(target, h[sub].terms, -c)
        if not FormalChain(target).boundary().is_zero():
            raise CoveringError("homotopy extension target is not a cycle")
        h[key] = FormalChain.image(
            target, lambda s: AffineSimplex((apex,) + s.points))
    return ProjectionData(k=k, eta=eta, n=n, cyl=cyl, covering=covering,
                          pi=pi, h=h)


def boundary_in_small_chains(points, eta: NestingOracle, n_cap=6):
    """A small chain whose boundary equals the boundary of the given
    simplex; the simplex's boundary must already be small.

    Realizes the step-2 shape: push pi(top) + h(boundary) forward along
    the simplex's affine parameterization.
    """
    check_depth(n_cap, "subdivision cap n_cap", CoveringError)
    pts = [tuple(frac(c) for c in p) for p in points]
    if not pts:
        raise CoveringError("boundary_in_small_chains needs a point")
    if len({len(p) for p in pts}) > 1:
        raise CoveringError("points have different lengths")
    if len(pts) > K_CAP + 1:
        raise CoveringError(f"{len(pts)} points exceed the simplex "
                            f"dimension cap {K_CAP}")
    k = len(pts) - 1
    # affine parameterization from the symmetric chart
    rows = tuple(tuple(pts[i][j] for i in range(k + 1))
                 for j in range(len(pts[0])))
    f = AffineMap(rows, tuple(Fraction(0) for _ in range(len(pts[0]))))
    back = pullback(f, eta)
    for i in range(k + 1):
        face = pts[:i] + pts[i + 1:]
        if len(face) >= 1 and not in_c_eta(face, eta):
            raise CoveringError("boundary is not a small chain; "
                                "precondition violated")
    data = small_chain_projection(k, back, n_cap)
    top = frozenset(range(k + 1))
    x = dict(data.pi[top].terms)
    for sub, c in data.cyl.base_complex.boundary_of_face(top).items():
        add_into(x, data.h[sub].terms, c)
    x = FormalChain(x).push(f)
    want = FormalChain.single(AffineSimplex(pts)).boundary()
    if x.boundary() != want:
        raise CoveringError("boundary identity failed (internal)")
    return x
