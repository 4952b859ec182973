"""Compatible coverings and the subdivision-and-deform pipeline.

A compatible covering assigns to each face of (a set of faces of) a
realized complex a convex covering set W and a target point t subject to

    i)   0-faces are pinned: t is the vertex itself,
    ii)  nested faces have nested covering sets,
    iii) along any strict chain of faces the smallest face's covering set
         sits inside the nesting's region at the chain's target points,

plus containment of the face and its target in the covering set.  The
validator checks every condition exactly (three-valued region inclusion,
undecided fails closed).  ``find_covering`` searches for the least
subdivision depth at which a covering exists, pinning targets at
barycenters when possible (the deformation is then the identity) and at
lead vertices otherwise.  On top of that sit the mapping cylinder, the
cylinder covering with its pinned top, and the
projection-plus-homotopy data whose identities drive the small-chain
boundary constructions.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import frac, frac_str
from .nesting import (
    NestingOracle,
    face_in_c_eta,
    in_c_eta,
    pullback,
)
from .regions import (
    AffineMap,
    Polytope,
    Region,
    Tri,
    contains_point,
    region_contains,
    region_descriptor,
    simplex_in_region,
)
from .simplicial import (
    OrderedSimplicialComplex,
    Realization,
    SimplicialChainMap,
    chain_add,
    is_bvertex,
    is_level_vertex,
    iterate_subdivide,
    level_subcomplex,
    mesh_sq,
    prism_complex,
    resolve_vertex,
    sorted_vs,
    t_n_complex,
    vkey,
)
from .symbolic import (
    AffineSimplex,
    FormalChain,
    chains_equal,
    cone_simplex,
    deformed,
)

# largest simplex dimension the cylinder and projection constructions take
K_CAP = 3


class CoveringError(Exception):
    pass


@dataclass
class CompatibleCovering:
    complex: OrderedSimplicialComplex
    realization: Realization
    assignments: dict  # face key -> (Region W, point t)
    uid: str = field(default="")

    def __post_init__(self):
        self.assignments = {frozenset(k): (w, tuple(frac(c) for c in t))
                            for k, (w, t) in self.assignments.items()}
        if not self.uid:
            blob = json.dumps(
                [[sorted(map(repr, k)),
                  region_descriptor(w),
                  [frac_str(c) for c in t]]
                 for k, (w, t) in sorted(self.assignments.items(),
                                         key=lambda kv: sorted(map(repr, kv[0])))],
                sort_keys=True)
            self.uid = hashlib.sha256(blob.encode()).hexdigest()[:16]
        self._identity_memo = {}

    def faces(self):
        return set(self.assignments)

    def W(self, key) -> Region:
        return self.assignments[frozenset(key)][0]

    def t(self, key):
        return self.assignments[frozenset(key)][1]

    def is_identity_on(self, key):
        key = frozenset(key)
        memo = self._identity_memo
        if key not in memo:
            order = self.complex.order(key)
            ok = True
            for size in range(1, len(order) + 1):
                for sub in itertools.combinations(order, size):
                    sk = frozenset(sub)
                    if sk not in self.assignments:
                        ok = False
                        break
                    if self.t(sk) != self.realization.barycenter(
                            self.complex.order(sk)):
                        ok = False
                        break
                if not ok:
                    break
            memo[key] = ok
        return memo[key]


@dataclass
class CoveringValidation:
    passed: bool
    failures: list  # (condition, payload)

    def first(self):
        return self.failures[0] if self.failures else None


def _chains_within(complex_, face_set):
    """Strict ascending face chains inside the given face set."""
    face_set = {frozenset(k) for k in face_set}
    by_face = {k: [a for a in face_set if k < a] for k in face_set}
    chains = []

    def rec(chain):
        chains.append(tuple(chain))
        for nxt in by_face[chain[-1]]:
            if chain[-1] < nxt:
                chain.append(nxt)
                rec(chain)
                chain.pop()

    for k in sorted(face_set, key=lambda k: (len(k), tuple(
            vkey(v) for v in sorted_vs(k)))):
        rec([k])
    return chains


def validate_covering(covering: CompatibleCovering, eta: NestingOracle
                      ) -> CoveringValidation:
    """All covering conditions, exactly; undecided inclusions fail closed."""
    failures = []
    cx = covering.complex
    R = covering.realization
    for key in sorted(covering.faces(), key=lambda k: (len(k), tuple(
            vkey(v) for v in sorted_vs(k)))):
        W, t = covering.assignments[key]
        order = cx.order(key)
        pts = [R.point(v) for v in order]
        if len(order) == 1 and t != pts[0]:
            failures.append(("zero-face-pin", {"face": order}))
        if not contains_point(W, t):
            failures.append(("target-in-set", {"face": order}))
        res = simplex_in_region(pts, W)
        if res is not Tri.TRUE:
            failures.append(("face-in-set", {"face": order,
                                             "verdict": res.value}))
    # condition ii on nested pairs
    faces = covering.faces()
    for a in faces:
        for b in faces:
            if b < a:
                res = region_contains(covering.W(a), covering.W(b))
                if res is not Tri.TRUE:
                    failures.append(("nested-sets", {
                        "small": cx.order(b), "large": cx.order(a),
                        "verdict": res.value}))
    # condition iii on strict chains
    for chain in _chains_within(cx, faces):
        targets = [covering.t(k) for k in chain]
        region = eta.region(targets)
        res = region_contains(region, covering.W(chain[0]))
        if res is not Tri.TRUE:
            failures.append(("chain-region", {
                "chain": [cx.order(k) for k in chain],
                "verdict": res.value}))
    return CoveringValidation(not failures, failures)


def glue_coverings(a: CompatibleCovering, b: CompatibleCovering
                   ) -> CompatibleCovering:
    """Union of two coverings agreeing on shared faces."""
    merged = dict(a.assignments)
    for k, (w, t) in b.assignments.items():
        if k in merged:
            if merged[k][0] != w or merged[k][1] != t:
                raise CoveringError(
                    f"coverings disagree on {a.complex.order(k)}")
        merged[k] = (w, t)
    union = a.complex.union(b.complex)
    coords = dict(a.realization.coords)
    coords.update(b.realization.coords)
    return CompatibleCovering(union, Realization(coords), merged)


# ---------------------------------------------------------------------------
# the covering search

@dataclass
class CoveringSearchResult:
    n: int
    covering: CompatibleCovering
    complex: OrderedSimplicialComplex
    realization: Realization
    carrier: dict
    subdivision_results: list
    chain_map: SimplicialChainMap
    strategy: str


def _candidate_covering(cx, R, carrier, seed, strategy):
    assignments = {}
    for key in cx.all_faces():
        if seed is not None and carrier[key] in seed.faces():
            par = carrier[key]
            assignments[key] = (seed.W(par), seed.t(par))
            continue
        order = cx.order(key)
        pts = [R.point(v) for v in order]
        if strategy == "barycenter" or len(order) == 1:
            t = R.barycenter(order)
        else:
            t = pts[0]
        assignments[key] = (Polytope(tuple(pts)), t)
    return CompatibleCovering(cx, R, assignments)


def find_covering(K: OrderedSimplicialComplex, R: Realization,
                  eta: NestingOracle, seed: CompatibleCovering | None = None,
                  n_cap=6) -> CoveringSearchResult:
    """Least subdivision depth admitting a valid covering.

    New faces get their own convex hull as covering set, with the target
    pinned at the barycenter when that validates (making the deformation
    the identity there) and at the lead vertex otherwise.  Faces whose
    carrier lies in the seed inherit the seed data unchanged.
    """
    if seed is not None:
        for k in seed.faces():
            if k not in K.faces:
                raise CoveringError("seed assigns a face outside the complex")
        # seed must be upwards closed: any face containing a seed face is seeded
        for k in seed.faces():
            for other in K.faces:
                if k < other and other not in seed.faces():
                    raise CoveringError("seed face set is not upwards closed")
    attempts = []
    for n in range(n_cap + 1):
        subs, chain_map, carrier = iterate_subdivide(K, n)
        cx = subs[-1].complex if subs else K
        real = R.extended_to(cx)
        for strategy in ("barycenter", "vertex"):
            cand = _candidate_covering(cx, real, carrier, seed, strategy)
            report = validate_covering(cand, eta)
            if report.passed:
                return CoveringSearchResult(
                    n, cand, cx, real, carrier, subs, chain_map, strategy)
            attempts.append((n, strategy, report.first()))
    mesh = mesh_sq(K, R)
    raise CoveringError(
        f"no compatible covering within subdivision cap {n_cap}; "
        f"base squared mesh {frac_str(mesh)}; "
        f"last failure: {attempts[-1]!r}")


# ---------------------------------------------------------------------------
# the deformation chain map

def deformation_map(covering: CompatibleCovering):
    """Face -> formal chain of the covering's deformation; structurally a
    chain map since formal faces of a deformed face are the deformed
    subfaces."""
    def delta(face_key):
        return FormalChain.single(deformed(covering, face_key))

    return delta


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
    k: int
    n: int
    eta: NestingOracle
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
    sub_carrier: dict                          # face of S^n L -> face of L
    prism_homotopy: dict                       # P values on accepted faces
    tn_homotopy: dict                          # relabeled T_n values
    level0: dict                               # face of simplex -> face of L
    seam_faces: set


def _accepted_subcomplex(K, R, eta):
    keys = [k for k in K.all_faces() if face_in_c_eta(K, R, k, eta)]
    if not keys:
        return OrderedSimplicialComplex({}, check=False)
    return K.subcomplex(keys)


def _coordinate_bijection(cx_a, real_a, cx_b, real_b):
    """Vertex bijection b-side -> a-side by exact realized coordinates."""
    by_coord = {}
    for v in {w for key in cx_a.faces for w in key}:
        by_coord[real_a.point(v)] = v
    out = {}
    for v in {w for key in cx_b.faces for w in key}:
        pt = real_b.point(v)
        if pt not in by_coord:
            raise CoveringError(f"seam vertex {v!r} has no coordinate match")
        out[v] = by_coord[pt]
    return out


def mapping_cylinder(k, eta: NestingOracle, n) -> MappingCylinder:
    """Glue the simplex to a prism over its small-chain subcomplex, then
    subdivide n times and stack the n-step prism on [1, 2]."""
    if k > K_CAP:
        raise CoveringError(f"simplex dimension {k} exceeds cap {K_CAP}")
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
    base_coords = dict(base_real.coords)
    L_real = Realization({v: resolve_vertex(v, base_coords)
                          for key in L.faces for v in key})

    subs, chain_map, carrier = iterate_subdivide(L, n)
    Ln = subs[-1].complex if subs else L
    Ln_real = Realization({v: resolve_vertex(v, base_coords)
                           for key in Ln.faces for v in key})

    tn_values = {}
    seam_faces = set()
    if accepted.faces and n >= 0:
        TnK, Tn, _ = t_n_complex(accepted, max(n, 1), 1, 2) if n >= 1 else (None, None, None)
        if n == 0:
            # T_0 is the degenerate cylinder: glue the plain prism on [1, 2]
            TnK, TnMap = prism_complex(accepted, 1, 2)
            tn_raw = TnMap.values
        else:
            tn_raw = Tn.values
        seam_b = level_subcomplex(TnK, 1)
        seam_a_keys = [key for key in Ln.faces
                       if all(Ln_real.point(v)[-1] == 1 for v in key)]
        seam_a = Ln.subcomplex(seam_a_keys) if seam_a_keys else \
            OrderedSimplicialComplex({}, check=False)
        # realize the T_n part: vertices are (w, level) pairs over the
        # accepted subcomplex; resolve through the base coordinates
        tn_real = Realization({v: resolve_vertex(v, base_coords)
                               for key in TnK.faces for v in key})
        bij = _coordinate_bijection(seam_a, Ln_real, seam_b, tn_real)

        def rename(v):
            return bij.get(v, v)

        TnR = TnK.relabel(rename)
        # the seam must agree face-by-face, orderings included
        for key in seam_b.faces:
            nk = frozenset(rename(v) for v in key)
            if nk not in seam_a.faces or \
                    tuple(rename(v) for v in seam_b.order(key)) != \
                    seam_a.order(nk):
                raise CoveringError("cylinder seam mismatch")
        seam_faces = set(seam_a.faces)
        Ln = Ln.union(TnR)
        Ln_real = Realization({v: resolve_vertex(v, base_coords)
                               for key in Ln.faces for v in key})
        for key, chain in tn_raw.items():
            tn_values[key] = {frozenset(rename(v) for v in kk): c
                              for kk, c in chain.items()}

    q = AffineMap.projection_drop_last(k + 2)
    q_eta = pullback(q, eta)
    return MappingCylinder(
        k=k, n=n, eta=eta, base_complex=base, base_realization=base_real,
        accepted=accepted, L=L, L_realization=L_real, Ln=Ln,
        Ln_realization=Ln_real, q=q, q_eta=q_eta, sub_chain_map=chain_map,
        sub_carrier=carrier, prism_homotopy=prism_values,
        tn_homotopy=tn_values, level0=level0, seam_faces=seam_faces)


def _base_face_of(cyl: MappingCylinder, key):
    """Smallest face of the base simplex carrying a cylinder face."""
    def strip(v, acc):
        if is_bvertex(v):
            for x in v[1]:
                strip(x, acc)
        elif is_level_vertex(v):
            strip(v[0], acc)
        else:
            acc.add(v)

    acc = set()
    for v in key:
        strip(v, acc)
    return frozenset(acc)


def cylinder_covering(k, eta: NestingOracle, n_cap=6):
    """Covering of the stacked cylinder with the top pinned at barycenters.

    Seeds the prism faces touching the top of the first prism with
    base-face times full-interval sets, pushes the search through the
    subdivision, and extends over the n-step prism; the two coverings
    agree along the seam and glue.
    """
    probe = mapping_cylinder(k, eta, 0)
    accepted = probe.accepted
    if not accepted.faces:
        res = find_covering(probe.L, probe.L_realization, probe.q_eta,
                            n_cap=n_cap)
        cyl = mapping_cylinder(k, eta, res.n)
        return res.n, res.covering, cyl

    def prism_region(base_face):
        pts = []
        for v in sorted(base_face, key=vkey):
            p = probe.base_realization.point(v)
            pts.append(p + (Fraction(0),))
            pts.append(p + (Fraction(2),))
        return Polytope(tuple(pts))

    # seed: faces of the prism touching the top copy
    seed_assign = {}
    for key in probe.L.faces:
        if any(probe.L_realization.point(v)[-1] == 1 for v in key):
            base_face = _base_face_of(probe, key)
            seed_assign[key] = (prism_region(base_face),
                                probe.L_realization.barycenter(
                                    probe.L.order(key)))
    seed = CompatibleCovering(probe.L, probe.L_realization, seed_assign)
    res = find_covering(probe.L, probe.L_realization, probe.q_eta,
                        seed=seed, n_cap=n_cap)
    n = res.n
    cyl = mapping_cylinder(k, eta, n)

    # covering of the stacked prism part
    upper_assign = {}
    for key in cyl.Ln.faces:
        if key in res.covering.assignments and key not in cyl.seam_faces:
            continue
        if all(cyl.Ln_realization.point(v)[-1] >= 1 for v in key) and \
                any(cyl.Ln_realization.point(v)[-1] > 1 for v in key) or \
                key in cyl.seam_faces:
            base_face = _base_face_of(cyl, key)
            bar = cyl.Ln_realization.barycenter(cyl.Ln.order(key))
            t = cyl.base_realization.barycenter(
                cyl.base_complex.order(base_face)) + (bar[-1],)
            upper_assign[key] = (prism_region(base_face), t)
    lower = CompatibleCovering(res.complex, res.realization,
                               {key: v for key, v in
                                res.covering.assignments.items()})
    upper = CompatibleCovering(cyl.Ln, cyl.Ln_realization, upper_assign)
    glued = glue_coverings(lower, upper)
    report = validate_covering(glued, cyl.q_eta)
    if not report.passed:
        raise CoveringError(f"cylinder covering invalid: {report.first()!r}")
    # the top copy is pinned at barycenters exactly
    top_pin_failures = []
    for key in cyl.Ln.faces:
        if all(cyl.Ln_realization.point(v)[-1] == 2 for v in key):
            if glued.t(key) != cyl.Ln_realization.barycenter(
                    cyl.Ln.order(key)):
                top_pin_failures.append(key)
    if top_pin_failures:
        raise CoveringError("top faces not pinned at barycenters")
    return n, glued, cyl


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
    h0: dict        # accepted face -> FormalChain homotopy
    h: dict         # all faces -> FormalChain (after the extension)


def small_chain_projection(k, eta: NestingOracle, n_cap=6) -> ProjectionData:
    """The projection onto small chains together with both homotopies.

    pi sends a face through n-fold subdivision and the covering's
    deformation, then projects the cylinder away; it is the identity on
    0-simplices.  h0 is the explicit prism homotopy between the embedding
    of the accepted subcomplex and pi; h extends it to every face by
    deterministic cone fillers.
    """
    n, covering, cyl = cylinder_covering(k, eta, n_cap)
    delta = deformation_map(covering)
    q = cyl.q

    def delta_prime(face_key):
        return delta(face_key).push(q)

    def delta_prime_chain(chain):
        out = FormalChain.zero(None)
        for key, c in chain.items():
            out = out.add(delta_prime(frozenset(key)), c)
        return out

    # pi = delta' o S^n o (level-0 inclusion)
    pi = {}
    for key in cyl.base_complex.faces:
        lv = cyl.level0[key]
        sub_chain = cyl.sub_chain_map.values[lv]
        pi[key] = delta_prime_chain(sub_chain)

    # h0 = delta' o (S^n P - T_n) on accepted faces
    h0 = {}
    for key in cyl.accepted.faces:
        p_chain = cyl.prism_homotopy[key]
        snp = {}
        for kk, c in p_chain.items():
            snp = chain_add(snp, cyl.sub_chain_map.values[frozenset(kk)], c)
        combo = chain_add(snp, cyl.tn_homotopy[key], -1)
        h0[key] = delta_prime_chain(combo)

    # extension over the remaining faces by cone fillers
    h = dict(h0)
    apex = cyl.base_realization.point(0)
    for key in sorted(cyl.base_complex.all_faces(), key=len):
        if key in h:
            continue
        order = cyl.base_complex.order(key)
        target = FormalChain.single(AffineSimplex(
            [cyl.base_realization.point(v) for v in order]))
        target = target.add(pi[key], -1)
        for sub, c in cyl.base_complex.boundary_of_face(key).items():
            target = target.add(h[frozenset(sub)], -c)
        if not target.boundary().is_zero():
            raise CoveringError("homotopy extension target is not a cycle")
        if target.is_zero():
            h[key] = FormalChain.zero(target.dim + 1 if target.dim is not None
                                      else None)
        else:
            h[key] = target.map(lambda s: FormalChain.single(
                cone_simplex(apex, s)))
    return ProjectionData(k=k, eta=eta, n=n, cyl=cyl, covering=covering,
                          pi=pi, h0=h0, h=h)


def boundary_in_small_chains(points, eta: NestingOracle, n_cap=6):
    """A small chain whose boundary equals the boundary of the given
    simplex; the simplex's boundary must already be small.

    Realizes the step-2 shape: push pi(top) + h(boundary) forward along
    the simplex's affine parameterization.
    """
    pts = [tuple(frac(c) for c in p) for p in points]
    k = len(pts) - 1
    for i in range(k + 1):
        face = pts[:i] + pts[i + 1:]
        if len(face) >= 1 and not in_c_eta(face, eta):
            raise CoveringError("boundary is not a small chain; "
                                "precondition violated")
    # affine parameterization from the symmetric chart
    rows = tuple(tuple(pts[i][j] for i in range(k + 1))
                 for j in range(len(pts[0])))
    f = AffineMap(rows, tuple(Fraction(0) for _ in range(len(pts[0]))))
    back = pullback(f, eta)
    data = small_chain_projection(k, back, n_cap)
    top = frozenset(range(k + 1))
    x = data.pi[top]
    for sub, c in data.cyl.base_complex.boundary_of_face(top).items():
        x = x.add(data.h[frozenset(sub)], c)
    x = x.push(f)
    want = FormalChain.single(AffineSimplex(pts)).boundary()
    if not chains_equal(x.boundary(), want):
        raise CoveringError("boundary identity failed (internal)")
    return x
