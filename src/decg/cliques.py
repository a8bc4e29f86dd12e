"""Monochromatic clique analysis of colored complete graphs.

Each color class is searched with an exact branch-and-bound maximum clique
solver (pivoting, bitset adjacency) whose vertices are seeded in
degeneracy order.  That order comes from a bucket queue with a
(degree, index) tie-break, so it costs O(q + m) bitmask updates per class.
The overall maximum over colors upper-bounds the opposite-Ramsey number of
the graph's parameters, and the winning clique doubles as a separation
certificate: shifting its vertices by the winning color must leave them
pairwise 1/(4*alpha) apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .action import LatticeVector, diff_mask, shift_min_diff, shifted_exponent
from .colorer import ColoredGraph
from .errors import CapExceeded

DEFAULT_CLIQUE_CAP = 5000


def color_classes(graph: ColoredGraph) -> dict[int, list[int]]:
    """Adjacency bitmasks of every color class the graph uses, by color
    index in ascending order, in one pass.  An unused color has no entry."""
    q = graph.vertex_count
    classes = {c: [0] * q for c in sorted(graph.colors_used())}
    colors = graph.edge_colors
    end = 0
    for i in range(q):
        bit = 1 << i
        start, end = end, end + q - 1 - i
        for j, c in enumerate(colors[start:end], i + 1):
            masks = classes[c]
            masks[i] |= 1 << j
            masks[j] |= bit
    return classes


def max_clique(adjacency: Sequence[int], cap: int = DEFAULT_CLIQUE_CAP) -> tuple[int, list[int]]:
    """Exact maximum clique order and one witness clique.

    `adjacency` is symmetric: bit j of adjacency[i] is set iff {i, j} is
    an edge (bit i of adjacency[i] is ignored).  Branch and bound with
    pivoting; vertices are seeded in degeneracy order.  Deterministic:
    the witness is the first maximum found by the fixed branch order.
    Raises CapExceeded above `cap` vertices.
    """
    q = len(adjacency)
    if q == 0:
        return 0, []
    if q > cap:
        raise CapExceeded(f"{q} vertices exceeds clique search cap {cap}")
    masks = [adjacency[v] & ~(1 << v) for v in range(q)]

    order = _degeneracy_order(masks)
    pos = [0] * q
    for i, v in enumerate(order):
        pos[v] = i
    radj = [0] * q
    for v in range(q):
        m = masks[v]
        nm = 0
        while m:
            low = m & -m
            nm |= 1 << pos[low.bit_length() - 1]
            m ^= low
        radj[pos[v]] = nm

    best = 1
    best_clique = [0]

    def expand(r: list[int], p: int):
        # p is never empty: the branch loop below settles leaves itself,
        # and the seed loop skips empty candidate sets
        nonlocal best, best_clique
        if len(r) + p.bit_count() <= best:
            return
        pivot = _pick_pivot(p, radj)
        cand = p & ~radj[pivot]
        while cand:
            if len(r) + p.bit_count() <= best:
                return
            low = cand & -cand
            v = low.bit_length() - 1
            r.append(v)
            grown = p & radj[v]
            if grown:
                expand(r, grown)
            elif len(r) > best:
                best = len(r)
                best_clique = r.copy()
            r.pop()
            p &= ~low
            cand ^= low
        # remaining vertices all neighbor the pivot; any clique among them
        # extends by the pivot, which was branched above

    for i in range(q):
        later = ((1 << q) - 1) >> (i + 1) << (i + 1)
        p = radj[i] & later
        if 1 + p.bit_count() <= best:
            continue
        expand([i], p)

    witness = sorted(order[i] for i in best_clique)
    return best, witness


def _degeneracy_order(masks: Sequence[int]) -> list[int]:
    """Smallest-last order: repeatedly remove the remaining vertex of least
    (remaining degree, index).

    Bucket queue (Matula & Beck 1983): buckets[d] is the bitmask of the
    remaining vertices of current degree d, so each pick is the lowest bit
    of the lowest nonempty bucket.  Removing v moves each remaining
    neighbour down one bucket, so the bucket pointer steps back by at most
    one.
    """
    q = len(masks)
    degree = [m.bit_count() for m in masks]
    buckets = [0] * q  # degrees run from 0 to q - 1
    for v, d in enumerate(degree):
        buckets[d] |= 1 << v
    remaining = (1 << q) - 1
    order = []
    d = 0
    for _ in range(q):
        while not buckets[d]:
            d += 1
        bucket = buckets[d]
        low = bucket & -bucket
        buckets[d] = bucket ^ low
        remaining ^= low
        v = low.bit_length() - 1
        order.append(v)
        m = masks[v] & remaining
        while m:
            bit = m & -m
            u = bit.bit_length() - 1
            du = degree[u]
            buckets[du] ^= bit
            buckets[du - 1] |= bit
            degree[u] = du - 1
            m ^= bit
        if d:
            d -= 1
    return order


def _pick_pivot(p: int, radj: Sequence[int]) -> int:
    best_v = -1
    best_count = -1
    m = p
    while m:
        low = m & -m
        v = low.bit_length() - 1
        c = (p & radj[v]).bit_count()
        if c > best_count:
            best_count = c
            best_v = v
        m ^= low
    return best_v


@dataclass(frozen=True)
class ColorCliqueEntry:
    index: int
    vector: LatticeVector
    order: int
    witness: tuple[int, ...]


@dataclass(frozen=True)
class CliqueReport:
    """Per-color maximum cliques and the separation certificate of the
    winning one.

    `attained_exponent` is the exponent of the smallest pairwise distance
    of the winning clique's image under the winning shift (None for a
    one-vertex witness); passing means it is at most the threshold.
    """

    colors: tuple[ColorCliqueEntry, ...]
    overall_max: int
    winning_color: int
    threshold_exponent: int
    attained_exponent: int | None
    separation_passed: bool

    def to_json(self) -> dict:
        return {
            "colors": [
                {
                    "index": e.index,
                    "v": [e.vector.x, e.vector.y],
                    "order": e.order,
                    "witness": list(e.witness),
                }
                for e in self.colors
            ],
            "overall_max": self.overall_max,
            "certificate": {
                "winning_color": self.winning_color,
                "threshold_exponent": self.threshold_exponent,
                "attained_exponent": self.attained_exponent,
                "separation_passed": self.separation_passed,
            },
        }


def mono_clique_report(graph: ColoredGraph, cap: int = DEFAULT_CLIQUE_CAP) -> CliqueReport:
    """Run max_clique on every used color class and certify the winner.

    The winning clique's image under the winning color's shift is
    re-checked to be pairwise separated at the 1/(4*alpha) threshold.
    """
    classes = color_classes(graph)
    entries = []
    for c in range(len(graph.colors)):
        # An unused color's class has no edges: max_clique gives it order 1
        # and witness [0], so it needs neither masks nor a search.
        order, witness = max_clique(classes[c], cap) if c in classes else (1, [0])
        entries.append(ColorCliqueEntry(c, graph.colors[c], order, tuple(witness)))
    overall = max(e.order for e in entries)
    winner = next(e for e in entries if e.order == overall)
    system = graph.system
    images = [system.apply(winner.vector, graph.vertices[i]) for i in winner.witness]
    t = system.threshold_exponent
    exps = [shift_min_diff(a, b).exponent for a, b in combinations(images, 2)]  # None: identical
    ok = all(e is not None and e <= t for e in exps)
    attained = None if None in exps else max(exps, default=None)
    return CliqueReport(
        colors=tuple(entries),
        overall_max=overall,
        winning_color=winner.index,
        threshold_exponent=t,
        attained_exponent=attained,
        separation_passed=ok,
    )


def revalidate_edges(graph: ColoredGraph):
    """Independently recheck every edge's witness.

    For each edge {x, y} colored v, grows coset-norm windows around v until
    one meets the pair's diff mask, which gives the exact achieved
    exponent; the edge is valid when that exponent is at
    most the threshold and equals the stored value.  Returns None when all
    edges pass, else (i, j, reason) for the first bad edge.
    """
    # Coset-norm windows, never the colorer's lowest-bit lookup: the two
    # share only the cell numbering, so the check does not repeat the logic
    # it checks.
    t = graph.system.threshold_exponent
    vectors = {c: graph.colors[c] for c in graph.colors_used()}
    verts = graph.vertices
    q = graph.vertex_count
    width = verts[0].width
    for i in range(q):
        x = verts[i]
        base = i * (2 * q - i - 1) // 2 - i - 1
        for j in range(i + 1, q):
            e = base + j
            stored = graph.edge_quality[e]
            achieved = shifted_exponent(
                diff_mask(x, verts[j]), width, vectors[graph.edge_colors[e]]
            )
            if achieved is None:
                return (i, j, "endpoints are identical points")
            if achieved > t:
                return (i, j, f"achieved exponent {achieved} exceeds threshold {t}")
            if achieved != stored:
                return (i, j, f"stored exponent {stored}, recomputed {achieved}")
    return None


@dataclass(frozen=True)
class BoundCertificate:
    """Machine-checkable record that a concrete coloring of K_q with p
    colors has no monochromatic clique of order `bound` + 1, hence the
    p-color Ramsey number of `bound` + 1 exceeds q."""

    bound: int
    p: int
    k: int
    q: int
    statement: str
    graph_checksum: str
    verified: bool

    def to_json(self) -> dict:
        return {
            "kind": "ramsey_lower_bound",
            "statement": self.statement,
            "p": self.p,
            "k": self.k,
            "q": self.q,
            "graph_checksum": self.graph_checksum,
            "verified": self.verified,
        }


def opposite_upper_bound(
    report: CliqueReport, graph: ColoredGraph, revalidated: bool | None = None
) -> BoundCertificate | None:
    """Turn a clique report into the classical-bound certificate.

    Returns None for graphs with no edges (nothing to certify).  When
    `revalidated` is None the edge witnesses are rechecked here; pass the
    outcome of an earlier `revalidate_edges` run to skip the repeat.
    """
    q = graph.vertex_count
    if q < 2:
        return None
    if revalidated is None:
        revalidated = revalidate_edges(graph) is None
    r = report.overall_max
    p = len(graph.colors)
    return BoundCertificate(
        bound=r,
        p=p,
        k=r + 1,
        q=q,
        statement=f"R_{p}({r + 1}) > {q}",
        graph_checksum=graph.checksum_hex(),
        verified=bool(revalidated) and report.separation_passed,
    )
