"""Reference answers for the benchmark's correctness checks.

Nothing here imports nestrix.  Every answer is either computed apart from
the library (poset components and chains, f-vectors of subdivisions,
alternating boundaries from vertex orders, squared meshes from
coordinates) or is an identity the constructions must satisfy.  A checker
returns a list of problems; an empty list means the answer is correct.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# posets, given as points plus a strict order (a set of pairs a < b)

def transitive_closure(pairs):
    less = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(less):
            for c, d in list(less):
                if b == c and (a, d) not in less:
                    less.add((a, d))
                    changed = True
    return frozenset(less)


def component_count(points, less):
    parent = {p: p for p in points}

    def find(p):
        while parent[p] != p:
            p = parent[p]
        return p

    for a, b in less:
        parent[find(a)] = find(b)
    return len({find(p) for p in points})


def chain_counts(points, less):
    """Number of nonempty strict chains of each length."""
    above = {p: [b for a, b in less if a == p] for p in points}
    counts = {}

    def walk(p, length):
        counts[length] = counts.get(length, 0) + 1
        for q in above[p]:
            walk(q, length + 1)

    for p in points:
        walk(p, 1)
    return counts


def euler_characteristic(points, less):
    """Alternating count of chains: chi of the order complex."""
    return sum((-1) ** (length - 1) * n
               for length, n in chain_counts(points, less).items())


# ---------------------------------------------------------------------------
# group answers, read off summaries as (free rank, torsion tuple)

def group(summary):
    return summary.free_rank, tuple(summary.torsion)


def uct_mod2_rank(z_groups, n):
    """dim H^n(X; Z/2) from integral cohomology by universal coefficients:
    H^n(Z) (x) Z/2  plus  Tor(H^{n+1}(Z), Z/2)."""
    def even_torsion(g):
        return sum(1 for t in g[1] if t % 2 == 0)

    here = z_groups[n]
    nxt = z_groups[n + 1] if n + 1 < len(z_groups) else (0, ())
    return here[0] + even_torsion(here) + even_torsion(nxt)


def check_groups(label, got, want):
    """got: summaries; want: list of (free rank, torsion) per degree."""
    problems = []
    if len(got) != len(want):
        return [f"{label}: {len(got)} degrees, expected {len(want)}"]
    for n, (g, w) in enumerate(zip(got, want)):
        if group(g) != tuple(w):
            problems.append(f"{label}: degree {n} is {group(g)}, expected {w}")
    return problems


def check_agree(labels_and_groups):
    """All pipelines give the same group in every degree."""
    (ref_label, ref), *rest = labels_and_groups
    problems = []
    for label, other in rest:
        if len(other) != len(ref):
            problems.append(f"{label} has {len(other)} degrees, "
                            f"{ref_label} has {len(ref)}")
            continue
        for n, (a, b) in enumerate(zip(ref, other)):
            if group(a) != group(b):
                problems.append(f"degree {n}: {ref_label} {group(a)} "
                                f"!= {label} {group(b)}")
    return problems


def check_poset_invariants(label, z_groups, points, less):
    """H^0 rank is the component count; the Euler characteristic of the
    ranks is the alternating chain count.  The degrees given must reach the
    top of the order complex."""
    problems = []
    comps = component_count(points, less)
    if z_groups[0] != (comps, ()):
        problems.append(f"{label}: H^0 is {z_groups[0]}, the poset has "
                        f"{comps} components")
    top = max(chain_counts(points, less))
    if top > len(z_groups):
        problems.append(f"{label}: order complex has dimension {top - 1}, "
                        f"only {len(z_groups)} degrees computed")
    chi = sum((-1) ** n * g[0] for n, g in enumerate(z_groups))
    want = euler_characteristic(points, less)
    if chi != want:
        problems.append(f"{label}: Euler characteristic {chi}, alternating "
                        f"chain count {want}")
    return problems


def check_uct(label, z_groups, mod2_groups):
    problems = []
    for n, g in enumerate(mod2_groups):
        if g[0] != 0 or any(t != 2 for t in g[1]):
            problems.append(f"{label}: degree {n} mod 2 group {g} is not a "
                            "Z/2 vector space")
            continue
        want = uct_mod2_rank(z_groups, n)
        if len(g[1]) != want:
            problems.append(f"{label}: degree {n} has Z/2 rank {len(g[1])}, "
                            f"universal coefficients give {want}")
    return problems


# ---------------------------------------------------------------------------
# simplicial chains: dict face-key (frozenset) -> int

def face_boundary(order):
    """Alternating boundary of an ordered face, from its vertex order."""
    if len(order) == 1:
        return {}
    out = {}
    for i in range(len(order)):
        sub = frozenset(order[:i] + order[i + 1:])
        out[sub] = out.get(sub, 0) + (-1) ** i
    return {k: c for k, c in out.items() if c}


def add_into(acc, chain, scale=1):
    for k, c in chain.items():
        v = acc.get(k, 0) + scale * c
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)
    return acc


def chain_boundary(chain, orders):
    out = {}
    for key, c in chain.items():
        add_into(out, face_boundary(orders[key]), c)
    return out


def stirling2(n, k):
    return sum((-1) ** i * math.comb(k, i) * (k - i) ** n
               for i in range(k + 1)) // math.factorial(k)


def subdivided_f_vector(f, n):
    """Face counts of S^n(K) from those of K.

    A d-face of S(K) is a flag of d+1 faces of K; flags topped by a given
    j-face are the ordered partitions of its j+1 vertices into d+1 blocks,
    (d+1)! S(j+1, d+1) of them.
    """
    for _ in range(n):
        f = [sum(f[j] * math.factorial(d + 1) * stirling2(j + 1, d + 1)
                 for j in range(d, len(f)))
             for d in range(len(f))]
    return f


def f_vector(faces):
    dim = max(len(k) for k in faces) - 1
    out = [0] * (dim + 1)
    for k in faces:
        out[len(k) - 1] += 1
    return out


# ---------------------------------------------------------------------------
# coordinates

def barycenter(points):
    n = len(points)
    return tuple(sum(p[i] for p in points) / n for i in range(len(points[0])))


def resolve(v, coords):
    """Coordinates of a subdivision vertex ("b", members) over base coords."""
    if v in coords:
        return coords[v]
    if isinstance(v, tuple) and len(v) == 2 and v[0] == "b":
        return barycenter([resolve(w, coords) for w in v[1]])
    raise ValueError(f"no coordinates for vertex {v!r}")


def sqdist(p, q):
    return sum((a - b) ** 2 for a, b in zip(p, q))


def max_sq_edge(point_sets):
    return max((sqdist(p, q) for pts in point_sets
                for p, q in itertools.combinations(pts, 2)),
               default=Fraction(0))


def mesh_of_faces(faces, coords):
    """Largest squared edge over the given faces (vertex ids)."""
    return max_sq_edge([[resolve(v, coords) for v in key] for key in faces])


# ---------------------------------------------------------------------------
# symbolic chains: dict simplex -> int, faces taken from the simplices

def sym_boundary(terms):
    out = {}
    for s, c in terms.items():
        for i in range(s.dim + 1 if s.dim else 0):
            add_into(out, {s.face(i): (-1) ** i * c})
    return out
