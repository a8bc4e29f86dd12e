"""Reference oracles for decg's fast paths.

Most are the cell-by-cell tuple scans that decg ran before configurations
gained a packed bit-plane form; they share no code with the package's
masks and scan ranks, so the cross-check tests compare the two.
`degeneracy_order` is the quadratic rescan that the clique engine ran
before its bucket queue.
"""

from decg import ShiftDistance, ball_vectors, build_color_set, ring_vectors


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


def scan_table(width: int, n: int) -> list[tuple[int, int]]:
    """(flat cell index, color index) for each ball vector in scan order."""
    colors = build_color_set(n)
    return [
        ((v.x % width) * width + (v.y % width), colors.index_of(v)) for v in ball_vectors(n)
    ]


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
