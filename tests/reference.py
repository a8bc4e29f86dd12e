"""Reference oracles for decg's fast paths.

Most are the cell-by-cell tuple scans that decg ran before configurations
gained a packed bit-plane form; they share no code with the package's
masks and scan ranks, so the cross-check tests compare the two.
`color_vectors` is the palette table that `ColorSet` indexed before it
became arithmetic, `degeneracy_order` the quadratic rescan that the
clique engine ran before its bucket queue, `color_class_adjacency` the
per-color edge scan that `color_classes` replaced, and
`opposite_ramsey_reference` the enumerator the opposite-Ramsey oracle ran
before its bounded clique search, forward checking and propagation.
"""

from decg import (
    ColoredGraph,
    LatticeVector,
    ShiftDistance,
    UnknownColor,
    ball_vectors,
    ring_vectors,
)
from decg.ramsey import edge_list


def fnv1a64(data: bytes) -> int:
    """FNV-1a, 64-bit, over the whole input."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) % (1 << 64)
    return h


def diff_cells(x, y) -> list[tuple[int, int]]:
    w = x.width
    cx, cy = x.cells, y.cells
    return [(a, b) for a in range(w) for b in range(w) if cx[a * w + b] != cy[a * w + b]]


def coset_norm(a: int, b: int, w: int) -> int:
    """Least sup norm over the coset (a, b) + w*Z^2."""
    am = a % w
    bm = b % w
    return max(min(am, w - am), min(bm, w - bm))


def shifted_exponent(diff, v, w: int) -> int:
    """Exponent of the distance after shifting both points by v: the least
    sup norm of a differing site of the translated pair."""
    vx, vy = v
    return min(coset_norm(a - vx, b - vy, w) for a, b in diff)


def min_diff_vector(x, y):
    """Ring-by-ring scan for the first differing site."""
    if x.cells == y.cells:
        return None, ShiftDistance.zero()
    w = x.width
    cx, cy = x.cells, y.cells
    for r in range(w + 1):
        for v in ring_vectors(r):
            idx = (v.x % w) * w + (v.y % w)
            if cx[idx] != cy[idx]:
                return v, ShiftDistance(r)
    raise AssertionError("distinct periodic points must differ within one period")


def distance_at_least(x, y, exponent: int) -> bool:
    """Early-exit window scan for distance(x, y) >= alpha**-exponent."""
    if x.cells == y.cells:
        return False
    w = x.width
    cx, cy = x.cells, y.cells
    for v in ball_vectors(min(exponent, w)):
        idx = (v.x % w) * w + (v.y % w)
        if cx[idx] != cy[idx]:
            return True
    return False


def color_vectors(n: int) -> tuple[LatticeVector, ...]:
    """The palette of C_n as the materialized row-major table."""
    return tuple(LatticeVector(x, y) for x in range(-n, n + 1) for y in range(-n, n + 1))


def scan_table(width: int, n: int) -> list[tuple[int, int]]:
    """(flat cell index, color index) for each ball vector in scan order."""
    index = {v: c for c, v in enumerate(color_vectors(n))}
    return [((v.x % width) * width + (v.y % width), index[v]) for v in ball_vectors(n)]


def scan_witness(x, y, table) -> int | None:
    """The colorer's table walk: color index of the first differing entry."""
    for idx, cidx in table:
        if x.cells[idx] != y.cells[idx]:
            return cidx
    return None


def revalidation_exponent(x, y, v) -> int | None:
    """Ring scan around v: the exponent the pair achieves after shifting by v."""
    w = x.width
    for r in range(w + 1):
        for u in ring_vectors(r):
            idx = ((u.x + v[0]) % w) * w + ((u.y + v[1]) % w)
            if x.cells[idx] != y.cells[idx]:
                return r
    return None


def degeneracy_order(masks) -> list[int]:
    """Smallest-last order by rescanning every remaining vertex per pick:
    the least remaining degree wins, ties to the lowest index."""
    q = len(masks)
    remaining = (1 << q) - 1
    order = []
    for _ in range(q):
        best_v = -1
        best_deg = q + 1
        m = remaining
        while m:
            low = m & -m
            v = low.bit_length() - 1
            deg = (masks[v] & remaining).bit_count()
            if deg < best_deg:
                best_deg = deg
                best_v = v
            m ^= low
        order.append(best_v)
        remaining &= ~(1 << best_v)
    return order


def color_class_adjacency(graph: ColoredGraph, color_index: int) -> list[int]:
    """Bitmask adjacency (one int per vertex) of the edges in one color."""
    if not 0 <= color_index < len(graph.colors):
        raise UnknownColor(
            f"color {color_index} outside palette of {len(graph.colors)}"
        )
    masks = [0] * graph.vertex_count
    for i, j, c, _ in graph.iter_edges():
        if c == color_index:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return masks


def _mask_clique(mask: int, rows) -> int:
    """Max clique order within the vertex bitmask, tiny-instance brute force."""
    best = 0

    def go(depth: int, p: int):
        nonlocal best
        if p == 0:
            if depth > best:
                best = depth
            return
        while p:
            if depth + p.bit_count() <= best:
                return
            low = p & -p
            v = low.bit_length() - 1
            go(depth + 1, p & rows[v])
            p ^= low

    go(0, mask)
    return best


def _forced_order(rows, i: int, j: int) -> int:
    """Largest monochromatic clique through edge (i, j) after adding it."""
    common = rows[i] & rows[j]
    if common == 0:
        return 2
    return 2 + _mask_clique(common, rows)


def opposite_ramsey_reference(p: int, q: int) -> tuple[int, tuple[int, ...]]:
    """(r, first extremal coloring) by the enumerator the oracle ran before
    its bounded clique search and forward checking: every candidate color
    pays a full clique search through the new edge."""
    edges = edge_list(q)
    total = len(edges)
    adj = [[0] * q for _ in range(p)]
    col = [0] * total
    best = q + 1
    best_col = None

    def rec(t: int, cur: int, used: int):
        nonlocal best, best_col
        if t == total:
            if cur < best:
                best = cur
                best_col = tuple(col)
            return
        i, j = edges[t]
        bi, bj = 1 << j, 1 << i
        for c in range(min(used + 1, p)):
            rows = adj[c]
            forced = _forced_order(rows, i, j)
            new = cur if cur >= forced else forced
            if new >= best:
                continue
            rows[i] |= bi
            rows[j] |= bj
            col[t] = c
            rec(t + 1, new, used if c < used else used + 1)
            rows[i] &= ~bi
            rows[j] &= ~bj

    rec(0, 1, 0)
    return best, best_col
