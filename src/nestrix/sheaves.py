"""Presheaves and sheaves of finitely generated abelian groups on finite spaces.

Groups are carried as presentations (free rank plus relation matrix) and
all quotients, kernels and comparisons go through Smith normal form, so
every answer is exact, torsion included.

The minimal open U_x attains the germ colimit on a finite space, so the
stalk at x is F(U_x), and sheafification is the group of compatible
minimal-open stalk families.  A presheaf and its sheafification agree on
every minimal open.  Three independent sheaf-cohomology pipelines are
provided, plus the comparison against the order complex's simplicial
cohomology:

* the specialization-chain complex of stalks;
* Godement's canonical flasque resolution.  It reads only stalks, so each
  level takes the envelope of the plain presheaf cokernel, with no
  sheafification, and prunes each envelope stalk once
  (``Presentation.pruned``): the groups carry no relation of invariant
  factor 1;
* the alternating Cech complex of an open cover.

The chain and Cech complexes are built by one alternating-cochain routine.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .exact import (
    ExactAlgebraError,
    HomologySummary,
    IntMatrix,
    NotABoundary,
    Presentation,
    _back_substitute,
    cohomology as complex_cohomology,
    coefficient_modulus,
    cokernel_witness,
    direct_sum,
    hom_cokernel,
    hom_is_injective,
    hom_is_surjective,
    hom_is_well_defined,
    hom_kernel,
    hom_preimage,
    homs_equal,
    lattice_coordinates,
    presented_cohomology_at,
    smith_normal_form,
    solve_exact,
    ZCOEFF,
)
from .finite_space import FiniteSpace, example03_space
from .simplicial import sorted_faces, vkey

# largest degree the Godement pipeline takes
GODEMENT_DEGREE_CAP = 3


class SheafError(Exception):
    pass


class CoverCapExceeded(SheafError):
    def __init__(self, cap, needed, where):
        self.cap = cap
        self.needed = needed
        super().__init__(
            f"cover enumeration over {where} needs {needed}, cap is {cap}")


def coefficient_presentation(coeff) -> Presentation:
    """Z for ``ZCOEFF``, Z/m for ``("Zmod", m)``; anything else is refused."""
    try:
        m = coefficient_modulus(coeff)
    except ExactAlgebraError as exc:
        raise SheafError(str(exc)) from exc
    if m is None:
        raise SheafError(f"unsupported coefficient descriptor {coeff!r}")
    return Presentation.cyclic(m)


class Presheaf:
    """Lazy presheaf: groups and restriction matrices computed on demand.

    ``group_fn(U) -> Presentation`` and ``res_fn(U, V) -> IntMatrix`` for
    V contained in U; values are memoized per open / per inclusion.
    """

    def __init__(self, space: FiniteSpace, group_fn, res_fn, name="presheaf"):
        self.space = space
        self.name = name
        self._group_fn = group_fn
        self._res_fn = res_fn
        self._groups = {}
        self._res = {}

    def group(self, U) -> Presentation:
        U = frozenset(U)
        if U not in self._groups:
            if not self.space.is_open(U):
                raise SheafError(f"{set(U)!r} is not open")
            g = self._group_fn(U)
            if not U and g.rank != 0:
                raise SheafError("value on the empty open must be the zero group")
            self._groups[U] = g
        return self._groups[U]

    def restriction(self, U, V) -> IntMatrix:
        U, V = frozenset(U), frozenset(V)
        if not V <= U:
            raise SheafError("restriction requires V inside U")
        key = (U, V)
        if key not in self._res:
            if U == V:
                mat = IntMatrix.identity(self.group(U).rank)
            else:
                mat = self._res_fn(U, V)
            self._res[key] = mat
        return self._res[key]

    def stalk(self, x) -> Presentation:
        return self.group(self.space.minimal_open(x))


def _stacked_restrictions(F: Presheaf, U, opens) -> IntMatrix:
    """F(U) -> the direct sum of F(V) over ``opens``, one block per V."""
    rows = [row for V in opens for row in F.restriction(U, V).rows_list()]
    return IntMatrix(len(rows), F.group(U).rank, rows)


def _germs(F: Presheaf, U) -> IntMatrix:
    """F(U) -> the product of the stalks at U's points, in vkey order."""
    return _stacked_restrictions(
        F, U, [F.space.minimal_open(x) for x in sorted(U, key=vkey)])


def _offsets(sizes):
    """Start of each block when blocks of the given sizes sit end to end."""
    return list(itertools.accumulate(sizes, initial=0))


def _block_matrix(row_sizes, col_sizes, blocks) -> IntMatrix:
    """Block matrix on the given block sizes; each (r, c, sign, M) in
    ``blocks`` adds sign * M into block row r, block column c."""
    row_off, col_off = _offsets(row_sizes), _offsets(col_sizes)
    mat = [[0] * col_off[-1] for _ in range(row_off[-1])]
    for r, c, sign, block in blocks:
        for a in range(block.rows):
            row = mat[row_off[r] + a]
            for b in range(block.cols):
                row[col_off[c] + b] += sign * block.entry(a, b)
    return IntMatrix(row_off[-1], col_off[-1], mat)


def check_presheaf(F: Presheaf):
    """Functoriality and zero-on-empty, exactly, over the whole lattice."""
    opens = F.space.opens_sorted()
    if F.group(frozenset()).rank != 0:
        raise SheafError("F(empty) is not zero")
    for U in opens:
        gU = F.group(U)
        for V in opens:
            if not V <= U:
                continue
            rUV = F.restriction(U, V)
            if rUV.cols != gU.rank or rUV.rows != F.group(V).rank:
                raise SheafError(f"restriction shape mismatch {U}->{V}")
            if not hom_is_well_defined(rUV, gU, F.group(V)):
                raise SheafError(f"restriction ill-defined on {set(U)}->{set(V)}")
            for W in opens:
                if W <= V:
                    lhs = F.restriction(V, W) * rUV
                    if not homs_equal(lhs, F.restriction(U, W), F.group(W)):
                        raise SheafError(
                            f"functoriality fails on {set(U)}>{set(V)}>{set(W)}")


# ---------------------------------------------------------------------------
# stock presheaves

def constant_presheaf(space, coeff) -> Presheaf:
    """A on every nonempty open, identity restrictions (not a sheaf)."""
    base = coefficient_presentation(coeff)

    def group_fn(U):
        return base if U else Presentation.zero()

    def res_fn(U, V):
        if V:
            return IntMatrix.identity(base.rank)
        return IntMatrix.zeros(0, base.rank)

    return Presheaf(space, group_fn, res_fn, name="constant-presheaf")


def constant_sheaf(space, coeff) -> Presheaf:
    """Locally constant functions: F(U) = A^{#components(U)}."""
    base = coefficient_presentation(coeff)

    @functools.cache
    def comps(U):
        return space.components(U) if U else []

    def group_fn(U):
        return direct_sum([base] * len(comps(U)))

    def res_fn(U, V):
        cu, cv = comps(U), comps(V)
        r = base.rank
        rows = len(cv) * r
        cols = len(cu) * r
        mat = [[0] * cols for _ in range(rows)]
        for i, cv_i in enumerate(cv):
            j = next(jj for jj, cu_j in enumerate(cu) if cv_i <= cu_j)
            for t in range(r):
                mat[i * r + t][j * r + t] = 1
        return IntMatrix(rows, cols, [e for row in mat for e in row])

    return Presheaf(space, group_fn, res_fn, name="constant-sheaf")


def skyscraper_sheaf(space, point, coeff) -> Presheaf:
    base = coefficient_presentation(coeff)

    def group_fn(U):
        return base if point in U else Presentation.zero()

    def res_fn(U, V):
        if point in V:
            return IntMatrix.identity(base.rank)
        return IntMatrix.zeros(0, base.rank if point in U else 0)

    return Presheaf(space, group_fn, res_fn, name=f"skyscraper@{point}")


def image_cochain_presheaf(space, degree, coeff) -> Presheaf:
    """Functions on nonempty connected subsets of U (on points in degree 0).

    This is the image-determined model of degree-``degree`` cochains: the
    image of a singular n-simplex (n >= 1) in a finite space is exactly a
    nonempty connected subset, and a cochain depending only on images is a
    function on those.  No coboundary is defined on this model; it exists
    for sheafification and lifting experiments.
    """
    if degree < 0:
        raise SheafError("cochain degree must be nonnegative")
    base = coefficient_presentation(coeff)
    if base.rank != 1:
        raise SheafError("cyclic coefficients only")

    def domains(U):
        if not U:
            return []
        if degree == 0:
            return [frozenset([p]) for p in sorted(U, key=vkey)]
        return space.connected_subsets(U)

    def group_fn(U):
        return direct_sum([base] * len(domains(U)))

    def res_fn(U, V):
        du, dv = domains(U), domains(V)
        index = {d: j for j, d in enumerate(du)}
        rows, cols = len(dv), len(du)
        mat = [[0] * cols for _ in range(rows)]
        for i, d in enumerate(dv):
            mat[i][index[d]] = 1
        return IntMatrix(rows, cols, [e for row in mat for e in row])

    F = Presheaf(space, group_fn, res_fn, name=f"image-cochain-{degree}")
    F.domains = domains
    return F


# ---------------------------------------------------------------------------
# sheafification by compatible minimal-open stalk families

@dataclass
class SheafificationResult:
    source: Presheaf
    plus: Presheaf
    _embeddings: dict = field(default_factory=dict)  # U -> basis in stalk sum
    _units: dict = field(default_factory=dict)       # U -> unit matrix

    def embedding(self, U):
        self.plus.group(U)
        return self._embeddings[frozenset(U)]

    def unit_matrix(self, U) -> IntMatrix:
        """F(U) -> F^+(U) in the computed coordinates."""
        U = frozenset(U)
        if U not in self._units:
            self._units[U] = lattice_coordinates(self.embedding(U),
                                                 _germs(self.source, U))
        return self._units[U]

    def family_coordinates(self, U, stalk_vectors):
        """Coordinates in F^+(U) of a compatible family, or None."""
        U = frozenset(U)
        pts = sorted(U, key=vkey)
        vec = []
        for x in pts:
            vec.extend(stalk_vectors[x])
        basis = self.embedding(U)
        return solve_exact(basis, tuple(vec))

    def unit_is_iso(self, U) -> bool:
        m = self.unit_matrix(U)
        src = self.source.group(U)
        dst = self.plus.group(U)
        return hom_is_injective(m, src, dst) and hom_is_surjective(m, src, dst)


def sheafify(F: Presheaf) -> SheafificationResult:
    """F^+(U) = compatible families (s_x in F(U_x))_{x in U}; lazy per open."""
    sp = F.space
    result = SheafificationResult(F, None)

    def family_kernel(U):
        pts = sorted(U, key=vkey)
        stalks = [F.stalk(x) for x in pts]
        col = {x: i for i, x in enumerate(pts)}
        # constraints: x in U_y (x != y)  =>  res_{U_y -> U_x}(s_y) = s_x
        blocks = []
        targets = []
        for y in pts:
            Uy = sp.minimal_open(y)
            for x in pts:
                if x == y or x not in Uy:
                    continue
                gx = F.stalk(x)
                r = len(targets)
                blocks.append((r, col[y], 1,
                               F.restriction(Uy, sp.minimal_open(x))))
                blocks.append((r, col[x], -1, IntMatrix.identity(gx.rank)))
                targets.append(gx)
        phi = _block_matrix([g.rank for g in targets],
                            [g.rank for g in stalks], blocks)
        return hom_kernel(phi, direct_sum(stalks),
                          direct_sum(targets))

    def group_fn(U):
        if not U:
            result._embeddings[frozenset()] = IntMatrix.zeros(0, 0)
            return Presentation.zero()
        pres, basis = family_kernel(U)
        result._embeddings[frozenset(U)] = basis
        return pres

    def res_fn(U, V):
        # project the stalk-sum coordinates of U onto those of V
        ptsU = sorted(U, key=vkey)
        start = dict(zip(ptsU, _offsets([F.stalk(x).rank for x in ptsU])))
        keep_rows = [start[x] + i for x in sorted(V, key=vkey)
                     for i in range(F.stalk(x).rank)]
        return lattice_coordinates(result.embedding(V),
                                   result.embedding(U).take_rows(keep_rows))

    result.plus = Presheaf(sp, group_fn, res_fn, name=f"{F.name}+")
    return result


def global_sections_summary(F: Presheaf) -> HomologySummary:
    """Compatible stalk families over X, computed directly."""
    res = sheafify(F)
    return res.plus.group(frozenset(F.space.points)).summary(0)


# ---------------------------------------------------------------------------
# flasqueness and gluability

def is_flasque(F: Presheaf):
    """All restrictions from global sections surjective; else a witness."""
    sp = F.space
    X = frozenset(sp.points)
    gX = F.group(X)
    for U in sp.opens_sorted():
        m = F.restriction(X, U)
        gU = F.group(U)
        cok = hom_cokernel(m, gX, gU)
        if not cok.is_trivial():
            wit = cokernel_witness(m, gX, gU)
            return False, (U, wit)
    return True, None


def _antichain_covers(space, U, cap):
    """Irredundant covers of U by opens: antichains with union U."""
    below = [O for O in space.opens_sorted() if O and O <= U]
    if len(below) > cap:
        raise CoverCapExceeded(cap, len(below), f"open {sorted(map(str, U))}")
    below.sort(key=len, reverse=True)
    out = []

    def rec(idx, chosen, union):
        if union == U and chosen:
            out.append(tuple(chosen))
            # extensions would be redundant only if comparable; still allow
        if idx == len(below):
            return
        cand = below[idx]
        rec(idx + 1, chosen, union)
        if not any(cand <= c or c <= cand for c in chosen):
            chosen.append(cand)
            rec(idx + 1, chosen, union | cand)
            chosen.pop()

    rec(0, [], frozenset())
    # dedupe (the recursion can emit a cover before exhausting extensions)
    seen = set()
    covers = []
    for c in out:
        key = frozenset(c)
        if key not in seen:
            seen.add(key)
            covers.append(sorted_faces(key))
    return covers


def _matching_families(F: Presheaf, cover):
    """Embedding basis of the matching families over ``cover`` (kernel of
    the pairwise differences) and the direct sum they live in."""
    parts = [F.group(V) for V in cover]
    blocks = []
    targets = []
    for i, j in itertools.combinations(range(len(cover)), 2):
        W = cover[i] & cover[j]
        gW = F.group(W)
        if gW.rank == 0:
            continue
        r = len(targets)
        blocks.append((r, i, 1, F.restriction(cover[i], W)))
        blocks.append((r, j, -1, F.restriction(cover[j], W)))
        targets.append(gW)
    big = direct_sum(parts)
    phi = _block_matrix([g.rank for g in targets], [g.rank for g in parts],
                        blocks)
    _, basis = hom_kernel(phi, big, direct_sum(targets))
    return basis, big


def _unglued_family(F: Presheaf, U, cover):
    """A matching family over ``cover`` that no section over U restricts
    to, or None when every one glues."""
    basis, big = _matching_families(F, cover)
    aug = _stacked_restrictions(F, U, cover).hstack(big.relations)
    X = _back_substitute(smith_normal_form(aug), basis)
    return basis.col(X.column) if isinstance(X, NotABoundary) else None


def satisfies_gluability(F: Presheaf, cover_cap=24):
    """Every matching family over every irredundant cover glues; else witness.

    Covers refine to the antichain of their maximal members with the same
    matching data, so checking antichain covers decides all covers.
    """
    sp = F.space
    for U in sp.opens_sorted():
        if not U:
            continue
        for cover in _antichain_covers(sp, U, cover_cap):
            fam = _unglued_family(F, U, cover)
            if fam is not None:
                return False, (U, cover, fam)
    return True, None


def is_sheaf(F: Presheaf) -> bool:
    """Identity + gluability against minimal-open covers of every open.

    On Alexandrov spaces these covers decide the sheaf condition: any
    section is determined by, and glued from, its minimal-open germs.
    """
    sp = F.space
    for U in sp.opens_sorted():
        if not U:
            if F.group(U).rank != 0:
                return False
            continue
        cover = [sp.minimal_open(x) for x in sorted(U, key=vkey)]
        big = direct_sum([F.group(V) for V in cover])
        if not hom_is_injective(_stacked_restrictions(F, U, cover),
                                F.group(U), big):
            return False
        if _unglued_family(F, U, cover) is not None:
            return False
    return True


# ---------------------------------------------------------------------------
# cohomology pipelines

def _cochain_cohomology(groups, diffs) -> list:
    """H^0 .. H^{len(diffs) - 1} of G_0 -> G_1 -> ... with d_n: G_n -> G_{n+1}."""
    groups = [Presentation.zero()] + groups
    diffs = [IntMatrix.zeros(groups[1].rank, 0)] + diffs
    return [presented_cohomology_at(groups[n:n + 3], diffs[n:n + 2], n)
            for n in range(len(diffs) - 1)]


def _alternating_cohomology(F: Presheaf, simplices, open_of) -> list:
    """Cohomology of the alternating cochain complex of F over ``simplices``.

    Degree p is the direct sum of F(open_of(s)) over ``simplices[p]``, a
    list of tuples closed under dropping an entry.  Dropping entry i of t
    enters d(t) with sign (-1)^i through F's restriction from
    open_of(face) to open_of(t).
    """
    parts = [[F.group(open_of(s)) for s in simps] for simps in simplices]
    diffs = []
    for p in range(len(simplices) - 1):
        index = {s: i for i, s in enumerate(simplices[p])}
        blocks = []
        for r, t in enumerate(simplices[p + 1]):
            for i in range(len(t)):
                face = t[:i] + t[i + 1:]
                blocks.append((r, index[face], (-1) ** i,
                               F.restriction(open_of(face), open_of(t))))
        diffs.append(_block_matrix([g.rank for g in parts[p + 1]],
                                   [g.rank for g in parts[p]], blocks))
    return _cochain_cohomology([direct_sum(ps) for ps in parts], diffs)


def sheaf_cohomology_nerve(F: Presheaf, max_degree) -> list:
    """Cohomology of the specialization-chain cochain complex of stalks.

    A chain c carries the stalk F(U_{c[0]}); dropping an entry other than
    c[0] keeps that open, so its block is the identity.  Degree-0 cocycles
    are exactly the compatible stalk families, so H^0 is the global-section
    group; agreement with the Godement and Cech methods anchors the higher
    degrees.
    """
    sp = F.space
    chains = [[] for _ in range(max_degree + 2)]
    for c in sp.chains(max_len=max_degree + 2):
        chains[len(c) - 1].append(c)
    return _alternating_cohomology(F, chains,
                                   lambda c: sp.minimal_open(c[0]))


def godement_envelope(F: Presheaf):
    """G(F)(U) = product of the stalks F(U_x) over x in U, with the unit.

    G(F)'s groups and restrictions read F only on minimal opens, where F
    and its sheafification agree, so G(F) is also the envelope of F's
    sheafification.  Each stalk
    is pruned once (``Presentation.pruned``): G(F)(U) has no relation with
    invariant factor 1, and the unit F(U) -> G(F)(U) is the germ map
    followed by each stalk's pruning isomorphism.
    """
    sp = F.space
    stalks = {}

    def stalk(x):
        if x not in stalks:
            stalks[x] = F.stalk(x).pruned()
        return stalks[x]

    def group_fn(U):
        return direct_sum([stalk(x)[0] for x in sorted(U, key=vkey)])

    def res_fn(U, V):
        ptsU = sorted(U, key=vkey)
        col = {x: i for i, x in enumerate(ptsU)}
        ptsV = sorted(V, key=vkey)
        return _block_matrix(
            [stalk(x)[0].rank for x in ptsV],
            [stalk(x)[0].rank for x in ptsU],
            [(i, col[x], 1, IntMatrix.identity(stalk(x)[0].rank))
             for i, x in enumerate(ptsV)])

    def unit(U):
        rows = [row for x in sorted(U, key=vkey)
                for row in (stalk(x)[1] * F.restriction(
                    U, sp.minimal_open(x))).rows_list()]
        return IntMatrix(len(rows), F.group(U).rank, rows)

    G = Presheaf(sp, group_fn, res_fn, name=f"G({F.name})")
    return G, unit


def _coker_presheaf(F: Presheaf, G: Presheaf, unit) -> Presheaf:
    """Presheaf cokernel of a unit F -> G.

    Q(U) = G(U) / (unit(U) columns + G(U)'s relations), in G(U)'s
    coordinates, with G's restrictions.  Q is neither sheafified nor
    pruned: the next envelope reads only its stalks, and prunes those.
    """
    return Presheaf(F.space,
                    lambda U: hom_cokernel(unit(U), F.group(U), G.group(U)),
                    G.restriction, name=f"coker({F.name})")


def sheaf_cohomology_godement(F: Presheaf, max_degree) -> list:
    """Global sections of Godement's canonical flasque resolution.

    G_0 is the envelope of F, and G_{k+1} that of the presheaf cokernel
    Q_k = G_k / F_k, where F_0 = F and F_{k+1} = Q_k.  The textbook
    resolution takes the envelope of Q_k's sheafification, but an
    envelope reads only stalks Q_k(U_x), where a presheaf and its
    sheafification agree.  So d^k: G_k(X) -> G_{k+1}(X) is Q_k's unit at
    X, each point x through G_k's restriction to U_x.  Every envelope
    stalk is pruned, so the matrices stay the size of the groups they
    present instead of carrying the images of every earlier level.
    """
    if max_degree > GODEMENT_DEGREE_CAP:
        raise CoverCapExceeded(GODEMENT_DEGREE_CAP, max_degree,
                               "godement degree")
    X = frozenset(F.space.points)
    cur = F
    G, unit = godement_envelope(F)
    gs_groups = [G.group(X)]
    gs_diffs = []
    for _ in range(max_degree + 1):
        cur = _coker_presheaf(cur, G, unit)
        G, unit = godement_envelope(cur)
        gs_groups.append(G.group(X))
        gs_diffs.append(unit(X))
    return _cochain_cohomology(gs_groups, gs_diffs)


def cech_cohomology(F: Presheaf, cover, max_degree) -> list:
    """Alternating Cech complex of the given open cover."""
    sp = F.space
    cover = [frozenset(c) for c in cover]
    for c in cover:
        if not sp.is_open(c):
            raise SheafError(f"cover member {set(c)!r} is not open")
    union = frozenset().union(*cover) if cover else frozenset()
    if union != frozenset(sp.points):
        raise SheafError("cover does not cover the space")
    tuples = [list(itertools.combinations(range(len(cover)), p + 1))
              for p in range(max_degree + 2)]
    return _alternating_cohomology(
        F, tuples, lambda t: frozenset.intersection(*(cover[i] for i in t)))


def minimal_open_cover(space: FiniteSpace):
    mins = space.minimal_opens()
    seen = []
    for x in space.points:
        if mins[x] not in seen:
            seen.append(mins[x])
    # drop members contained in other members
    return [m for m in seen if not any(m < other for other in seen)]


# ---------------------------------------------------------------------------
# the comparison report

@dataclass
class ComparisonReport:
    space_points: tuple
    coefficients: tuple
    degrees: list
    sheaf_side: list
    simplicial_side: list

    def agree(self) -> bool:
        return all(a.same_group(b)
                   for a, b in zip(self.sheaf_side, self.simplicial_side))

    def rows(self):
        return [(n, a.group_label(), b.group_label(), a.same_group(b))
                for n, a, b in zip(self.degrees, self.sheaf_side,
                                   self.simplicial_side)]


def compare_theorem(space: FiniteSpace, coeff, max_degree) -> ComparisonReport:
    """Constant-sheaf cohomology vs order-complex simplicial cohomology.

    The simplicial side runs through the chain-complex pipeline, an
    independent code path; identifying it with the singular cohomology of
    the space is the documented weak-equivalence bridge.
    """
    F = constant_sheaf(space, coeff)
    sheaf_side = sheaf_cohomology_nerve(F, max_degree)
    K = space.order_complex()
    C = K.chain_complex()
    simp_side = [complex_cohomology(C, coeff, n) for n in range(max_degree + 1)]
    return ComparisonReport(space.points, coeff, list(range(max_degree + 1)),
                            sheaf_side, simp_side)


# ---------------------------------------------------------------------------
# the bundled counterexample: a sheafification section with no global lift

def example03_reproduce() -> dict:
    """Builds the five-point space and the two cochains, checks germ
    agreement, membership in the sheafification, and non-liftability.

    Returns a machine-checkable transcript; every ``ok`` field must be True.
    """
    X = example03_space()
    F = image_cochain_presheaf(X, 1, ZCOEFF)
    U1 = frozenset({1, 2, 3, 4})
    U2 = frozenset({2, 3, 4, 5})
    A = frozenset({2, 3})
    B = frozenset({3, 4})

    def rule_f1(C):
        return 1 if (C <= A or C <= B) else 0

    def rule_f2(C):
        return 1 if (C <= A or C <= B) else 2

    dom1 = F.domains(U1)
    dom2 = F.domains(U2)
    f1 = tuple(rule_f1(C) for C in dom1)
    f2 = tuple(rule_f2(C) for C in dom2)

    t = {"space": {"points": list(map(str, X.points)),
                   "opens": len(X.opens)},
         "checks": []}

    def record(name, ok, detail):
        t["checks"].append({"name": name, "ok": bool(ok), "detail": detail})

    # (a) the defining rule values, and the disagreement on U1 cap U2
    inter = frozenset({2, 3, 4})
    conn_inter = X.is_connected_subset(inter)
    v1 = rule_f1(inter)
    v2 = rule_f2(inter)
    record("rule-values", rule_f1(A) == 1 and rule_f1(inter) == 0
           and rule_f2(inter) == 2,
           {"f1[{2,3}]": rule_f1(A), "f1[{2,3,4}]": rule_f1(inter),
            "f2[{2,3,4}]": rule_f2(inter)})
    record("surjective-1-simplex-image-exists", conn_inter,
           {"connected": conn_inter, "subset": sorted(inter)})
    record("cochains-disagree-on-intersection", v1 != v2,
           {"f1": v1, "f2": v2})

    # (b) same germs on U1 cap U2: equality after restriction to the cover
    ra = F.restriction(U1, A).apply(f1) == F.restriction(U2, A).apply(f2)
    rb = F.restriction(U1, B).apply(f1) == F.restriction(U2, B).apply(f2)
    record("germ-agreement-on-cover", ra and rb,
           {"agree-on-{2,3}": ra, "agree-on-{3,4}": rb})
    germs_ok = True
    for x in sorted(inter):
        Ux = X.minimal_open(x)
        gx = F.restriction(U1, Ux).apply(f1) == F.restriction(U2, Ux).apply(f2)
        germs_ok = germs_ok and gx
    record("germ-agreement-at-each-point", germs_ok, {"points": sorted(inter)})

    # (c) the pair defines a section of the sheafification over X
    res = sheafify(F)
    stalk_vectors = {}
    for x in X.points:
        Ux = X.minimal_open(x)
        if x == 5:
            stalk_vectors[x] = F.restriction(U2, Ux).apply(f2)
        else:
            stalk_vectors[x] = F.restriction(U1, Ux).apply(f1)
    coords = res.family_coordinates(frozenset(X.points), stalk_vectors)
    record("is-section-of-sheafification", coords is not None,
           {"coordinates-found": coords is not None})

    # (d) non-liftability, by the forcing argument made algorithmic
    forced = {"minimal-open-of-1-is-U1": X.minimal_open(1) == U1,
              "minimal-open-of-5-is-U2": X.minimal_open(5) == U2}
    # any global preimage restricts to f1 on U1 and to f2 on U2, hence
    # assigns both v1 and v2 to the connected set {2,3,4}
    forced["forced-conflict"] = conn_inter and v1 != v2
    record("forcing-argument", all(forced.values()), forced)

    lift = None
    if coords is not None:
        unit = res.unit_matrix(frozenset(X.points))
        lift = hom_preimage(unit, F.group(frozenset(X.points)),
                            res.plus.group(frozenset(X.points)), coords)
    record("no-global-lift", coords is not None and lift is None,
           {"preimage-exists": lift is not None})

    # unit at X is not surjective (the sheafification strictly grows)
    gX = F.group(frozenset(X.points))
    pX = res.plus.group(frozenset(X.points))
    unit = res.unit_matrix(frozenset(X.points))
    cok = hom_cokernel(unit, gX, pX)
    record("unit-not-surjective", not cok.is_trivial(),
           {"cokernel": cok.summary().group_label()})

    t["ok"] = all(c["ok"] for c in t["checks"])
    return t
