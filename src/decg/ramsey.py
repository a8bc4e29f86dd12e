"""Exact opposite-Ramsey numbers on tiny instances, and classical bounds.

The opposite-Ramsey number r(p, q) is the minimum over all p-colorings of
the edges of K_q of the largest monochromatic clique order.  The oracle
is a depth-first search over the edges in (i < j) order, with
color-relabeling symmetry broken (a fresh color may only be introduced as
the smallest unused index, which preserves both the minimum and the
lexicographically first extremal coloring, since relabeling colors never
changes clique structure and only lowers lexicographic rank).  It prunes
any prefix that already forces a clique at least as large as the running
minimum `best`:

- the bounded forced order: the clique search through a new edge only
  looks between the prefix's current order and best, and with best <= 3
  a shared neighbour alone decides;
- propagation: once every color is in use, each assignment recomputes,
  against best, the colors every still uncolored edge may take.  An edge
  with none drops the prefix; an edge with one is forced into that class
  and the recomputation repeats until nothing changes.  The search then
  tries only the forced color at that edge.

Classes only grow along a prefix and best only falls, so every dropped
subtree and every color a forcing skips holds only colorings that could
not lower best.

Vertex-relabeling symmetry is broken by lex-leader constraints (Crawford,
Ginsberg, Luks & Roy, 1996) on the swaps of adjacent vertices (Codish,
Miller, Prosser & Stuckey, 2019): a coloring c is kept only if c <= g(c)
in edge order for the swap g of every two vertices a and a + 1.  c and
g(c) differ only where (i, a) meets (i, a + 1), i < a, and then where
(a, j) meets (a + 1, j), j > a + 1, and these pairs complete in edge
order.  While every completed pair of a swap is equal, the edge that
completes the next one, chosen or forced, drops the prefix when its
partner, colored earlier, has the larger color.  Every dropped coloring
fails some c <= g(c).  The coloring the unpruned enumeration finds, the
lexicographically first extremal c in first-use color order, never
does: g(c) is extremal, so is its first-use relabeling canon(g(c)), and
that relabeling never raises lexicographic rank, so
c <= canon(g(c)) <= g(c).  So r and the first extremal coloring are
those of the unpruned enumeration.  ramsey_holds runs the same search
with best starting at k: the colorings with no monochromatic K_k are
closed under relabeling, so one exists iff a lex-leader one does.

`cap` bounds the work, not the input: a search that reaches its
(cap + 1)-th node raises CapExceeded.  Instances with more edges than
MAX_SEARCH_EDGES, which the search cannot hold, are refused before
anything is allocated.  Fresh colors enter one per edge, so at most
min(p, edges) classes are ever used, and only that many are held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import cliques as _cliques
from .colorer import ColoredGraph
from .errors import CapExceeded, InconsistentCertificate
from .intlog import floor_ln
from .record import count

# search nodes; (2, 10) needs 292, (2, 16) 45 369 in about 8 s on a
# 2-core host under CPython 3.11
DEFAULT_ORACLE_CAP = 100_000

# The search recurses once per edge.  K_32 has 496 edges, so this keeps the
# depth at half the default recursion limit of 1000, with room for the
# caller's frames and the bounded clique search's.
MAX_SEARCH_EDGES = 500


def edge_list(q: int) -> tuple[tuple[int, int], ...]:
    """Edges of K_q in (i < j) lexicographic order."""
    return tuple((i, j) for i in range(q) for j in range(i + 1, q))


@dataclass(frozen=True)
class OppositeRamseyResult:
    p: int
    q: int
    r: int
    extremal_coloring: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "r": self.r,
            "extremal_coloring": list(self.extremal_coloring),
            "edge_order": [list(e) for e in edge_list(self.q)],
        }


def _forced_order(rows, a: int, b: int, cur: int, best: int) -> int:
    """max(cur, order of the largest clique through edge (a, b) once it
    joins the color class `rows`), exact below `best`.

    Any value >= best only says the color is barred for the edge: the
    search in the common neighbourhood looks for cliques larger than
    cur - 2 and stops at the first of order best - 2.  With best <= 3 a
    nonempty common neighbourhood decides that alone.
    """
    common = rows[a] & rows[b]
    if not common:
        return cur if cur > 2 else 2
    if best <= 3:
        return 3
    found = cur - 2
    if common.bit_count() <= found:  # too few vertices to beat cur
        return cur
    goal = best - 2

    def go(depth: int, p: int) -> bool:
        nonlocal found
        if p == 0:
            if depth > found:
                found = depth
            return False
        if depth + 1 >= goal:  # any vertex of p completes one
            found = goal
            return True
        while p:
            if depth + p.bit_count() <= found:
                return False
            low = p & -p
            if go(depth + 1, p & rows[low.bit_length() - 1]):
                return True
            p ^= low
        return False

    go(0, common)
    return 2 + found


def _search(p: int, q: int, best: int, stop: int, cap: int) -> tuple[int, tuple[int, ...] | None]:
    """Least largest-monochromatic-clique order below `best` over the
    p-colorings of K_q, and the first coloring in enumeration order that
    attains it (None when no coloring goes below `best`).  Counts the
    search nodes it visits as `oracle_nodes`.  The search ends as soon as
    the minimum is at most `stop`, and raises CapExceeded on its
    (cap + 1)-th node or when K_q has more than MAX_SEARCH_EDGES edges.
    """
    total = q * (q - 1) // 2
    if total > MAX_SEARCH_EDGES:
        raise CapExceeded(
            f"K_{q} has {total} edges; the oracle searches at most {MAX_SEARCH_EDGES}"
        )
    edges = edge_list(q)
    p = min(p, total)  # colors past the edge count are never used
    adj = [[0] * q for _ in range(p)]
    col = [0] * total
    forced = [-1] * total  # class a propagation put the edge in, or -1
    trail: list[int] = []  # forced edges, in forcing order
    best_col = None
    nodes = 0
    # lex[t]: the lex-leader pairs edge t completes, as (a, s): the swap of
    # vertices a and a + 1 compares edge s, colored earlier, with edge t
    index = {e: t for t, e in enumerate(edges)}
    lex = [
        ([(j - 1, index[i, j - 1])] if i < j - 1 else [])
        + ([(i - 1, index[i - 1, j])] if i else [])
        for i, j in edges
    ]

    def lead(t: int, c: int, tied: int) -> int:
        # `tied` has bit a while every completed pair of swap a is equal;
        # rec passes it down, so backtracking restores it.  Returns it
        # updated for edge t in color c, or -1 when that makes the
        # coloring lexicographically larger than its image.
        for a, s in lex[t]:
            if tied >> a & 1:
                x = col[s]
                if x > c:
                    return -1
                if x < c:
                    tied ^= 1 << a
        return tied

    def propagate(t: int, cur: int) -> int:
        # Every color is in use, so an open edge may only take a color
        # whose class it would not close a clique of order >= best in.
        # An edge with no such color ends the prefix (returns best); an
        # edge with exactly one is added to that class, its clique folded
        # into cur.  Passes repeat until one forces nothing.
        changed = True
        while changed:
            changed = False
            for u in range(t + 1, total):
                if forced[u] >= 0:
                    continue
                a, b = edges[u]
                only = -1
                for c in range(p):
                    if _forced_order(adj[c], a, b, best - 1, best) < best:
                        if only >= 0:
                            break
                        only = c
                else:
                    if only < 0:
                        return best
                    rows = adj[only]
                    cur = _forced_order(rows, a, b, cur, best)
                    rows[a] |= 1 << b
                    rows[b] |= 1 << a
                    forced[u] = only
                    trail.append(u)
                    changed = True
        return cur

    def rec(t: int, cur: int, used: int, tied: int):
        nonlocal best, best_col, nodes
        nodes += 1
        if nodes > cap:
            raise CapExceeded(f"oracle search exceeds its budget of {cap} nodes")
        if t == total:
            best = cur
            best_col = tuple(col)
            return
        c = forced[t]
        if c >= 0:
            # Propagation put the edge in class c (c < used == p, so the
            # symmetry rule holds) and folded its clique into cur.  The
            # nearest unforced edge above checked cur < best after that,
            # and no leaf lies between, so best has not fallen since.
            assert cur < best
            tied = lead(t, c, tied)
            if tied >= 0:
                col[t] = c
                rec(t + 1, cur, used, tied)
            return
        i, j = edges[t]
        bi, bj = 1 << j, 1 << i
        for c in range(min(used + 1, p)):
            if best <= stop:
                return
            now = lead(t, c, tied)
            if now < 0:
                continue
            rows = adj[c]
            new = _forced_order(rows, i, j, cur, best)
            if new >= best:
                continue
            rows[i] |= bi
            rows[j] |= bj
            col[t] = c
            nxt = used if c < used else used + 1
            mark = len(trail)
            if nxt == p:
                new = propagate(t, new)
            if new < best:
                rec(t + 1, new, nxt, now)
            while len(trail) > mark:
                u = trail.pop()
                a, b = edges[u]
                undo = adj[forced[u]]
                undo[a] &= ~(1 << b)
                undo[b] &= ~(1 << a)
                forced[u] = -1
            rows[i] &= ~bi
            rows[j] &= ~bj

    rec(0, 1, 0, (1 << (q - 1)) - 1)
    count("oracle_nodes", nodes)
    return best, best_col


def opposite_ramsey_exact(
    p: int, q: int, cap: int = DEFAULT_ORACLE_CAP
) -> OppositeRamseyResult:
    """Exact r(p, q) with the first extremal coloring in enumeration order.

    The stored extremal coloring attains the minimum: every p-coloring of
    K_q has a monochromatic clique of order r, and this one has none of
    order r + 1.  Raises CapExceeded when the search needs more than `cap`
    nodes.
    """
    if p < 1:
        raise ValueError("need at least one color")
    if q < 2:
        raise ValueError("need at least two vertices")
    # every coloring has a monochromatic K_2, so a minimum of 2 is final
    r, coloring = _search(p, q, q + 1, 2, cap)
    assert coloring is not None
    return OppositeRamseyResult(p, q, r, coloring)


def ramsey_holds(p: int, k: int, q: int, cap: int = DEFAULT_ORACLE_CAP) -> bool:
    """True iff every p-coloring of K_q has a monochromatic K_k.

    Runs the opposite_ramsey_exact search with the running minimum
    starting at k, and stops at the first coloring with no monochromatic
    K_k.  Raises CapExceeded when that takes more than `cap` nodes.
    """
    if p < 1 or q < 2 or k < 1:
        raise ValueError("parameters must satisfy p >= 1, k >= 1, q >= 2")
    if k <= 2:
        return True  # any edge is a monochromatic K_2, and q >= 2 has one
    return _search(p, q, k, k - 1, cap)[1] is None


def verify_extremal(result: OppositeRamseyResult) -> bool:
    """Re-check the stored extremal coloring through the clique engine:
    its largest monochromatic clique must be exactly r.  Only the classes
    the coloring uses are built: an unused one has no edge, and an
    edgeless K_q (q <= 1) has largest clique q."""
    masks: dict[int, list[int]] = {}
    for (i, j), c in zip(edge_list(result.q), result.extremal_coloring):
        if c not in masks:
            masks[c] = [0] * result.q
        masks[c][i] |= 1 << j
        masks[c][j] |= 1 << i
    orders = [_cliques.max_clique(m)[0] for m in masks.values()]
    return max(orders, default=result.q) == result.r


def gg_upper(g: int, k: int) -> int:
    """The classical product-coloring upper bound g**(g*k) for the g-color
    Ramsey number of K_k, as an exact big integer."""
    if g < 1 or k < 1:
        raise ValueError("g and k must be >= 1")
    return g ** (g * k)


def lr_lower(g: int, k: int, c: Fraction | int = 1) -> int:
    """The probabilistic lower bound 2**ceil(c*g*k), exact.

    The hidden constant is caller-supplied (default 1) and is illustrative
    only; reports must label it as such.
    """
    if g < 1 or k < 1:
        raise ValueError("g and k must be >= 1")
    c = Fraction(c)
    if c <= 0:
        raise ValueError("constant must be positive")
    return 2 ** math.ceil(c * g * k)


@dataclass(frozen=True)
class BoundsRecord:
    g: int
    k: int
    lr_constant: Fraction
    gg_upper: int
    lr_lower: int

    def to_json(self) -> dict:
        return {
            "g": self.g,
            "k": self.k,
            "lr_constant": str(self.lr_constant),
            "lr_constant_note": "illustrative; the true constant is not pinned down",
            "gg_upper": self.gg_upper,
            "lr_lower": self.lr_lower,
        }


def bounds_record(g: int, k: int, c: Fraction | int = 1) -> BoundsRecord:
    return BoundsRecord(g, k, Fraction(c), gg_upper(g, k), lr_lower(g, k, c))


@dataclass(frozen=True)
class SandwichReport:
    """Classical statements implied by a concrete coloring certificate or an
    exact opposite-Ramsey value, compared against the known bounds."""

    p: int
    q: int
    r_upper: int
    exact: bool
    statements: tuple[str, ...]
    gg_at: int
    lr_at: int
    lr_constant: Fraction
    certificate_weaker_than_lr: bool


def sandwich_report(
    p: int,
    q: int,
    r_upper: int,
    certificate: "_cliques.BoundCertificate | None" = None,
    graph: ColoredGraph | None = None,
    exact: bool = False,
    lr_constant: Fraction | int = 1,
) -> SandwichReport:
    """Emit the classical statements implied by the parameters.

    A coloring with largest monochromatic clique r_upper shows that the
    p-color Ramsey number of K_{r_upper+1} exceeds q.  When r_upper is the
    exact opposite-Ramsey value, q also bounds the p-color Ramsey number
    of K_{r_upper} from above.  The comparison against lr_lower at the
    same parameters records honestly whether the desk-scale certificate is
    weaker than the probabilistic bound.
    """
    if certificate is not None:
        if certificate.p != p or certificate.q != q or certificate.bound != r_upper:
            raise InconsistentCertificate(
                f"certificate is for (p={certificate.p}, q={certificate.q}, "
                f"bound={certificate.bound}), not (p={p}, q={q}, bound={r_upper})"
            )
        if graph is not None and certificate.graph_checksum != graph.checksum_hex():
            raise InconsistentCertificate(
                f"certificate checksum {certificate.graph_checksum} does not match "
                f"graph checksum {graph.checksum_hex()}"
            )
    statements = [f"R_{p}({r_upper + 1}) > {q}"]
    if exact:
        statements.append(f"R_{p}({r_upper}) <= {q}")
    c = Fraction(lr_constant)
    k = r_upper + 1
    gg = gg_upper(p, k)
    lr = lr_lower(p, k, c)
    return SandwichReport(
        p=p,
        q=q,
        r_upper=r_upper,
        exact=exact,
        statements=tuple(statements),
        gg_at=gg,
        lr_at=lr,
        lr_constant=c,
        certificate_weaker_than_lr=q < lr,
    )


def floor_log_shift(n: int) -> int:
    """floor(ln n) + 1 for integer n >= 1, by exact rational bracketing of
    powers of e (no floating-point boundary errors)."""
    return floor_ln(n) + 1
