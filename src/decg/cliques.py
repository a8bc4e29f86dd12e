"""Monochromatic clique analysis of colored complete graphs.

Each color class is searched with an exact branch-and-bound maximum clique
solver (pivoting, bitset adjacency) on the vertices' own labels.  It seeds
and branches in smallest-last (degeneracy) order, which a bucket queue with
a (degree, index) tie-break builds only as far as the search reads it, and
the paper's pigeonhole bound ends the search early.
The overall maximum over colors upper-bounds the opposite-Ramsey number of
the graph's parameters, and the winning clique doubles as a separation
certificate: shifting its vertices by the winning color must leave them
pairwise 1/(4*alpha) apart.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, combinations
from operator import and_
from typing import Callable, Iterator, Sequence

from .action import LatticeVector, shift_min_diff, shifted_exponent, window_mask
from .colorer import CLIQUE_CAP, ColoredGraph
from .errors import CapExceeded
from .record import count, stage


def color_classes(graph: ColoredGraph) -> Callable[[int], list[int]]:
    """A symmetric q x q matrix of the colors, a byte plane per byte of the
    typecode, and a function building one class's adjacency masks from it:
    row v lists the colors of (v, q-1), ..., (v, 0), so v's mask in class c
    reads as 1 where the row's bytes are c's."""
    q = graph.vertex_count
    typecode, width = graph.edge_colors.typecode, graph.edge_colors.itemsize
    planes = [bytearray(q * q) for _ in range(width)]
    for i, colors, _ in graph.rows():
        raw = colors.tobytes()
        for b, plane in enumerate(planes):
            lane = raw[b::width]
            plane[i * q : i * q + len(lane)] = lane[::-1]  # the row
            plane[(i + 1) * q + q - 1 - i :: q] = lane  # its column

    def masks(c: int) -> list[int]:
        tables = [bytes(48 + (x == b) for x in range(256)) for b in array(typecode, [c]).tobytes()]
        out = []
        for v in range(q):
            mask = ~(1 << v)  # the diagonal reads as color 0
            for plane, table in zip(planes, tables):
                mask &= int(plane[v * q : (v + 1) * q].translate(table), 2)
            out.append(mask)
        return out

    return masks


def max_clique(adjacency: Sequence[int], parts: Sequence[int] = ()) -> tuple[int, list[int]]:
    """Exact maximum clique order and one witness clique.

    `adjacency` is symmetric: bit j of adjacency[i] is set iff {i, j} is
    an edge (bit i of adjacency[i] is ignored).  Branch and bound with
    pivoting on the vertices' own labels: seeds and branches are taken in
    smallest-last order, and a pivot tie goes to the vertex that comes
    first in it, so the order is built only as far as the search reads it.
    Deterministic: the witness is the first maximum found by the fixed
    branch order.  Raises CapExceeded above CLIQUE_CAP vertices.

    `parts` is an optional hint: vertex bitmasks that partition the
    vertices into independent sets, checked with one AND per vertex and
    ignored if improper.  A clique meets each part at most once, so the
    search stops at the first clique meeting every nonempty part: the
    witness the full search reports, as it only replaces a witness by a
    larger one.
    """
    q = len(adjacency)
    if q == 0:
        return 0, []
    if q > CLIQUE_CAP:
        raise CapExceeded(f"{q} vertices exceeds clique search cap {CLIQUE_CAP}")
    masks = [adjacency[v] & ~(1 << v) for v in range(q)]
    bound = _partition_bound(masks, parts)
    limit = q if bound is None else bound  # no clique has more vertices
    lazy = _LazyOrder(masks)
    ranked = lazy.ranked

    best = 1
    best_clique = [0]
    bar = best  # a branch that cannot beat it is pruned: best, or q once best is the limit
    nodes = 0

    def expand(r: list[int], p: int):
        # p is never empty: the branch loop below settles leaves itself,
        # and the seed loop skips empty candidate sets
        nonlocal best, best_clique, bar, nodes
        nodes += 1
        if len(r) + p.bit_count() <= bar:
            return
        most, ties = -1, 0  # the members of p with the most neighbours in p
        m = p
        while m:
            low = m & -m
            c = (p & masks[low.bit_length() - 1]).bit_count()
            if c > most:
                most, ties = c, low
            elif c == most:
                ties |= low
            m ^= low
        for v in ranked(p & ~masks[next(ranked(ties))]):
            r.append(v)
            grown = p & masks[v]
            if grown:
                expand(r, grown)
            elif len(r) > best:
                best = len(r)
                best_clique = r.copy()
                bar = q if best == limit else best
            r.pop()
            p &= ~(1 << v)
            if len(r) + p.bit_count() <= bar:
                return
        # remaining vertices all neighbor the pivot; any clique among them
        # extends by the pivot, which was branched above

    later = (1 << q) - 1
    for v in ranked(later):
        later ^= 1 << v
        p = masks[v] & later
        if 1 + p.bit_count() > best:
            expand([v], p)
            if best == limit:
                break
    del expand  # the closure refers to itself; freeing it frees the order and masks now

    count("clique_nodes", nodes)
    count("order_positions", len(lazy.order))
    if best == bound:
        count("hint_stops")
    return best, sorted(best_clique)


def _partition_bound(masks: Sequence[int], parts: Sequence[int]) -> int | None:
    """The number of nonempty parts when `parts` partitions the vertices
    into independent sets, else None."""
    q = len(masks)
    union = 0
    for part in parts:
        if union & part:
            return None  # a vertex in two parts
        union |= part
    if union != (1 << q) - 1:
        return None  # a vertex in no part, or a bit past the last vertex
    for part in parts:
        m = part
        while m:
            low = m & -m
            if masks[low.bit_length() - 1] & part:
                return None  # an edge inside the part
            m ^= low
    return sum(1 for part in parts if part)


class _LazyOrder:
    """Smallest-last order, built only as far as it is read: repeatedly
    remove the remaining vertex of least (remaining degree, index).

    Bucket queue (Matula & Beck 1983): buckets[d] is the bitmask of the
    remaining vertices of current degree d, so each pick is the lowest bit
    of the lowest nonempty bucket.  Removing v moves each remaining
    neighbour down one bucket, so the bucket pointer steps back by at most
    one.
    """

    __slots__ = ("masks", "degree", "buckets", "d", "remaining", "order", "pos")

    def __init__(self, masks: Sequence[int]):
        q = len(masks)
        self.masks = masks
        self.degree = [m.bit_count() for m in masks]
        self.buckets = [0] * q  # degrees run from 0 to q - 1
        for v, d in enumerate(self.degree):
            self.buckets[d] |= 1 << v
        self.d = 0
        self.remaining = (1 << q) - 1
        self.order: list[int] = []
        self.pos = [0] * q

    def ranked(self, s: int) -> Iterator[int]:
        """The members of s in smallest-last order: those already placed,
        sorted once by position, then the rest as the queue reaches them.
        The caller may read the order between two members; a member placed
        meanwhile comes before any the queue has not reached.  A member
        left alone needs no placing."""
        rest = s & self.remaining
        members = []
        m = s ^ rest  # the members already placed
        while m:
            low = m & -m
            members.append(low.bit_length() - 1)
            m ^= low
        members.sort(key=self.pos.__getitem__)
        return chain(members, self._reach(rest, len(self.order))) if rest else iter(members)

    def _reach(self, s: int, i: int) -> Iterator[int]:
        """The members of s, none placed before position i, in order."""
        order = self.order
        while s:
            if not s & (s - 1):
                yield s.bit_length() - 1
                return
            if i == len(order):
                self._place()
            v = order[i]
            i += 1
            if s >> v & 1:
                s ^= 1 << v
                yield v

    def _place(self) -> None:
        buckets, degree = self.buckets, self.degree
        d = self.d
        while not buckets[d]:
            d += 1
        low = buckets[d] & -buckets[d]
        buckets[d] ^= low
        self.remaining ^= low
        v = low.bit_length() - 1
        self.pos[v] = len(self.order)
        self.order.append(v)
        m = self.masks[v] & self.remaining
        while m:
            bit = m & -m
            u = bit.bit_length() - 1
            du = degree[u]
            buckets[du] ^= bit
            buckets[du - 1] |= bit
            degree[u] = du - 1
            m ^= bit
        self.d = d - 1 if d else 0


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


def mono_clique_report(graph: ColoredGraph) -> CliqueReport:
    """Run max_clique on every used color class and certify the winner.

    Each class's search gets the paper's pigeonhole hint, read from the
    raw patterns: an edge of color v joins patterns that differ at v, so
    splitting the vertices by their symbol at v is a proper coloring.  The
    winning clique's image under the winning color's shift is re-checked
    to be pairwise separated at the 1/(4*alpha) threshold.
    """
    with stage("color_classes"):
        class_masks = color_classes(graph)
        count("classes", len(used := graph.colors_used()))
    entries = []
    with stage("clique_search"):
        for c in range(len(graph.colors)):
            # An unused color's class has no edges: max_clique gives it order 1
            # and witness [0], so it needs neither masks nor a search.
            order, witness = (
                max_clique(class_masks(c), parts=_symbol_parts(graph, c)) if c in used else (1, [0])
            )
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


def _symbol_parts(graph: ColoredGraph, c: int) -> list[int]:
    """Vertex bitmasks by the symbol each pattern holds at color c's vector."""
    v = graph.colors[c]
    parts: dict[int, int] = {}
    for i, x in enumerate(graph.vertices):
        s = x.at(v.x, v.y)
        parts[s] = parts.get(s, 0) | 1 << i
    return list(parts.values())


def revalidate_edges(graph: ColoredGraph):
    """Independently recheck every edge's witness.

    For each edge {x, y} colored v with stored exponent e, the edge is
    valid when e is at most the threshold and is the exact exponent the
    pair achieves after shifting by v.  Row i's diff masks come from one
    pass over the bit-plane columns.  An edge with e = 0 passes at once
    when its diff mask meets v's cell, a row of them in one pass; every
    other edge is measured by growing coset-norm windows around v, which
    also names what is wrong, and counted as `edges_measured`.
    The graph's constructor has checked its vertices against its shift.
    Returns None when all edges pass, and counts them as
    `edges_revalidated`, else (i, j, reason) for the first bad edge.
    """
    # Coset-norm windows, never the colorer's lowest-bit lookup: the two
    # share only the cell numbering, so the check does not repeat the logic
    # it checks.
    t = graph.system.threshold_exponent
    vectors = {c: graph.colors[c] for c in graph.colors_used()}
    verts = graph.vertices
    width = verts[0].width
    sites = {c: window_mask(width, v, 0) for c, v in vectors.items()}  # radius 0: v's cell
    columns = list(zip(*(x.planes for x in verts)))  # plane j of every vertex
    measured = 0
    try:
        for i, colors, exponents in graph.rows():
            own = columns[0][i]
            diffs = [own ^ other for other in columns[0][i + 1 :]]  # diff masks of (i, j > i)
            for column in columns[1:]:
                own = column[i]
                diffs = [d | own ^ other for d, other in zip(diffs, column[i + 1 :])]
            if not any(exponents) and all(map(and_, diffs, map(sites.__getitem__, colors))):
                continue
            for j, (diff, c, stored) in enumerate(zip(diffs, colors, exponents), i + 1):
                if not stored and diff & sites[c]:
                    continue
                measured += 1
                achieved = shifted_exponent(diff, width, vectors[c])
                if achieved is None:
                    return (i, j, "endpoints are identical points")
                if achieved > t:
                    return (i, j, f"achieved exponent {achieved} exceeds threshold {t}")
                if achieved != stored:
                    return (i, j, f"stored exponent {stored}, recomputed {achieved}")
    finally:
        count("edges_measured", measured)
    count("edges_revalidated", graph.edge_count)
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
