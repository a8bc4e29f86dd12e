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
`greedy_separated` is the pairwise first-fit loop that the keyed greedy
replaced, and `read_decg` the whole-text DECG v1 reader that the streaming
one replaced.
"""

import re
from fractions import Fraction

from decg import (
    BadFormat,
    ChecksumMismatch,
    ColoredGraph,
    ColorSet,
    LatticeVector,
    PeriodicConfiguration,
    ShiftDistance,
    ShiftSystem,
    UnknownColor,
    ball_vectors,
    parse_pattern,
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


def greedy_separated(system, points, exponent: int) -> list:
    """First-fit greedy by one pairwise distance test against every kept point."""
    kept = []
    for p in points:
        if all(system.distance_at_least(p, q, exponent) for q in kept):
            kept.append(p)
    return kept


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


# --- the DECG v1 reader before it streamed -------------------------------------

DECG_VERSION = 1
SYSTEM_RE = re.compile(r"^system shift k=(\d+) alpha=(\d+)/(\d+)$")
HEADER4_RE = re.compile(r"^vertices (\d+)  colors (\d+)  sampled (full|subsampled seed=\d+)$")


def fail(line_no: int, message: str):
    raise BadFormat(line_no, message)


def header_int(line_no: int, digits: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:
        fail(line_no, str(exc))


def read_decg(source) -> ColoredGraph:
    """Parse DECG text from a path or bytes, holding the whole text and its
    list of lines at once.

    Re-verifies the grammar, the header arithmetic (edge count equals
    q*(q-1)/2, palette size equals (2n+1)**2, color indices match their
    vectors) and the trailer checksum.  Memory grows with the body, never
    with the header's palette.  Witness validity is not checked here;
    `cliques.revalidate_edges` does that.
    """
    if isinstance(source, bytes):
        data = source
    else:
        with open(source, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BadFormat(0, f"not UTF-8: {exc}") from None
    if not text.endswith("\n"):
        fail(text.count("\n") + 1, "file truncated: missing final newline")
    lines = text.split("\n")[:-1]

    def need(idx: int) -> str:
        if idx >= len(lines):
            fail(len(lines) + 1, "file truncated")
        return lines[idx]

    if need(0) != f"decg {DECG_VERSION}":
        fail(1, f"expected 'decg {DECG_VERSION}' header")
    m = SYSTEM_RE.match(need(1))
    if m is None:
        fail(2, "malformed system line")
    try:
        k = int(m.group(1))
        system = ShiftSystem(alphabet_size=k, alpha=Fraction(int(m.group(2)), int(m.group(3))))
    except (ValueError, ZeroDivisionError) as exc:
        fail(2, f"bad system parameters: {exc}")
    line3 = need(2)
    if not line3.startswith("n ") or not line3[2:].isdigit():
        fail(3, "malformed n line")
    n = header_int(3, line3[2:])
    m4 = HEADER4_RE.match(need(3))
    if m4 is None:
        fail(4, "malformed vertices/colors/sampled line")
    q = header_int(4, m4.group(1))
    palette = header_int(4, m4.group(2))
    sampled = m4.group(3)
    if q < 1:
        fail(4, "vertex count must be positive")
    if palette != (2 * n + 1) ** 2:
        fail(4, f"colors {palette} does not equal (2n+1)^2 = {(2 * n + 1) ** 2}")

    colors = ColorSet(n)
    decoded: dict[int, LatticeVector] = {}  # the colors the body uses

    vertices: list[PeriodicConfiguration] = []
    width = None
    for i in range(q):
        line_no = 5 + i
        parts = need(4 + i).split(" ")
        if len(parts) != 3 or parts[0] != "v":
            fail(line_no, "malformed vertex line")
        if parts[1] != str(i):
            fail(line_no, f"vertex index {parts[1]} out of order, expected {i}")
        try:
            p = parse_pattern(parts[2])
        except ValueError as exc:
            fail(line_no, str(exc))
        if p.alphabet_size != k:
            fail(line_no, f"vertex alphabet {p.alphabet_size} does not match header k={k}")
        if width is None:
            width = p.width
        elif p.width != width:
            fail(line_no, f"vertex period {p.width} differs from {width}")
        vertices.append(p)

    edge_total = q * (q - 1) // 2
    edge_colors: list[int] = []
    edge_quality: list[int] = []
    base = 4 + q
    e = 0
    for i in range(q):
        for j in range(i + 1, q):
            line_no = base + e + 1
            parts = need(base + e).split(" ")
            if len(parts) != 7 or parts[0] != "e":
                fail(line_no, "malformed edge line")
            if parts[1] != str(i) or parts[2] != str(j):
                fail(line_no, f"edge ({parts[1]}, {parts[2]}) out of order, expected ({i}, {j})")
            try:
                c = int(parts[3])
                vx, vy = int(parts[4]), int(parts[5])
                quality = int(parts[6])
            except ValueError:
                fail(line_no, "non-integer edge fields")
            if not 0 <= c < palette:
                fail(line_no, f"color index {c} outside palette of {palette}")
            v = decoded.get(c)
            if v is None:
                v = decoded[c] = colors[c]
            if v != (vx, vy):
                fail(line_no, f"color index {c} does not encode vector ({vx}, {vy})")
            if quality < 0:
                fail(line_no, "achieved exponent must be >= 0")
            edge_colors.append(c)
            edge_quality.append(quality)
            e += 1

    end_no = base + edge_total + 1
    end_line = need(base + edge_total)
    if not re.fullmatch(r"end [0-9a-f]{16}", end_line):
        fail(end_no, "malformed end line")
    if len(lines) != base + edge_total + 1:
        fail(end_no + 1, "trailing content after end line")
    # The end line is ASCII: the body is every byte before it and its newline.
    actual = f"{fnv1a64(data[: len(data) - len(end_line) - 1]):016x}"
    stored = end_line[4:]
    if actual != stored:
        raise ChecksumMismatch(f"stored checksum {stored}, recomputed {actual}")

    return ColoredGraph(
        system=system,
        n=n,
        vertices=tuple(vertices),
        edge_colors=tuple(edge_colors),
        edge_quality=tuple(edge_quality),
        sampled=sampled,
        _checksum=stored,
    )
