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
replaced, over this file's `distance_at_least` scan, `read_decg` the
whole-text DECG v1 reader that the streaming one replaced, `decg_dumps`
the writer that formatted one edge line at a time before rows were mapped
to their tails and joined, and
`probe_question` the norm-range search that the probe's single
construction replaced, re-checked by this file's `min_diff_vector` and
`shifted_exponent` rather than the package's masks.  `max_clique` is the
clique search before it took a partition hint and searched the vertices'
own labels over a lazily built order: it relabels every row up front into
the order of `degeneracy_order`, so it shares no order code with the
package.
`revalidate_edges` rechecks each edge by the ring scan
`revalidation_exponent`, so it shares no mask code with the package's.
`color_classes` is the one-pass build of every class's masks that the
byte matrix replaced.
`ring_vectors`, `ball_vectors` and `scan_order` are the row-by-row ring
walk, the ring concatenation and the first-reach table that the
package's one stable sort by norm replaced; every scan in this file runs
over them, not over the package's vectors.
"""

import functools
import math
import re
from array import array
from fractions import Fraction

from decg import (
    BadFormat,
    CapExceeded,
    ChecksumMismatch,
    ColoredGraph,
    ColorSet,
    Counterexample,
    LatticeVector,
    MismatchedSystems,
    PeriodicConfiguration,
    ShiftDistance,
    ShiftSystem,
    UnknownColor,
    encode_pattern,
    parse_pattern,
)
from decg.ramsey import edge_list


def fnv1a64(data: bytes) -> int:
    """FNV-1a, 64-bit, over the whole input."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) % (1 << 64)
    return h


def ring_vectors(radius: int):
    """Vectors of sup norm exactly `radius`, in (x, y) lexicographic order,
    walked row by row: whole edge rows, two ends of every inner row."""
    if radius == 0:
        yield LatticeVector(0, 0)
        return
    for a in range(-radius, radius + 1):
        if abs(a) == radius:
            for b in range(-radius, radius + 1):
                yield LatticeVector(a, b)
        else:
            yield LatticeVector(a, -radius)
            yield LatticeVector(a, radius)


@functools.lru_cache(maxsize=None)
def ball_vectors(radius: int) -> tuple[LatticeVector, ...]:
    """All vectors of sup norm <= radius, the rings concatenated."""
    out: list[LatticeVector] = []
    for r in range(radius + 1):
        out.extend(ring_vectors(r))
    return tuple(out)


def scan_order(width: int):
    """(vectors, bit) as the package's `scan_order`: each cell of period
    `width` keeps the first vector of ball_vectors(width // 2) that reaches
    it, and is numbered by the order of first reach."""
    reached: dict[int, LatticeVector] = {}
    for v in ball_vectors(width // 2):
        reached.setdefault((v.x % width) * width + v.y % width, v)
    bit = [0] * (width * width)
    for rank, cell in enumerate(reached):
        bit[cell] = rank
    return tuple(reached.values()), tuple(bit)


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
    """First-fit greedy by one pairwise `distance_at_least` scan against every
    kept point.  A point over another alphabet than the system's, or of
    another period than the first point, raises MismatchedSystems."""
    kept = []
    for p in points:
        if p.alphabet_size != system.alphabet_size or (kept and p.width != kept[0].width):
            raise MismatchedSystems(f"(w={p.width}, k={p.alphabet_size}) is off the stream's shift")
        if all(distance_at_least(p, q, exponent) for q in kept):
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


def probe_question(system: ShiftSystem, n: int):
    """The recovery-scale probe as a search over norms s in
    [n + t + 1, n*n], each candidate re-verified by this file's ring and
    coset scans of the pair's differing cells, with no translated copies."""
    if n < 1:
        raise ValueError("n must be >= 1")
    t = system.threshold_exponent
    k = system.alphabet_size
    for s in range(n + t + 1, n * n + 1):
        width = 2 * s + 1
        x = PeriodicConfiguration.constant(k, width)
        y = x.with_cell(s, 0, 1)
        d = min_diff_vector(x, y)[1]
        if not d >= ShiftDistance(n * n):
            continue
        cells = diff_cells(x, y)
        best = None
        ok = True
        for v in ball_vectors(n):
            dv = ShiftDistance(shifted_exponent(cells, v, width))
            if best is None or dv > best:
                best = dv
            if dv >= system.threshold:
                ok = False
                break
        if ok:
            return Counterexample(
                x=x,
                y=y,
                n=n,
                distance=d,
                required_at_least=ShiftDistance(n * n),
                best_shifted=best,
                threshold=system.threshold,
            )
    return None


# --- the DECG v1 reader before it streamed -------------------------------------

DECG_VERSION = 1
# every integer field is in the writer's form: ASCII digits, no leading zero
UINT = "(0|[1-9][0-9]*)"
SYSTEM_RE = re.compile(f"system shift k={UINT} alpha={UINT}/{UINT}")
N_RE = re.compile(f"n {UINT}")
HEADER4_RE = re.compile(f"vertices {UINT}  colors {UINT}  sampled (full|subsampled seed={UINT})")


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

    Re-verifies the grammar (each line is the writer's formatting of its
    values: integers in ASCII digits with no leading zero, alpha in lowest
    terms), the header arithmetic (edge count equals q*(q-1)/2, palette
    size equals (2n+1)**2, color indices match their vectors) and the
    trailer checksum.  Memory grows with the body, never with the header's
    palette.  Witness validity is not checked here;
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
    m = SYSTEM_RE.fullmatch(need(1))
    if m is None:
        fail(2, "malformed system line")
    try:
        k = int(m.group(1))
        system = ShiftSystem(alphabet_size=k, alpha=Fraction(int(m.group(2)), int(m.group(3))))
    except (ValueError, ZeroDivisionError) as exc:
        fail(2, f"bad system parameters: {exc}")
    if math.gcd(int(m.group(2)), int(m.group(3))) != 1:
        fail(2, "alpha is not in lowest terms")
    m3 = N_RE.fullmatch(need(2))
    if m3 is None:
        fail(3, "malformed n line")
    n = header_int(3, m3.group(1))
    m4 = HEADER4_RE.fullmatch(need(3))
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
            if parts[3:] != [str(c), str(vx), str(vy), str(quality)]:
                fail(line_no, "edge fields are not integers as the writer formats them")
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

    graph = ColoredGraph(
        system=system,
        n=n,
        vertices=tuple(vertices),
        edge_colors=array(colors.typecode, edge_colors),
        edge_quality={e: x for e, x in enumerate(edge_quality) if x},
        sampled=sampled,
    )
    object.__setattr__(graph, "_checksum", stored)
    return graph


def decg_dumps(graph: ColoredGraph) -> str:
    """DECG v1 text formatted one line at a time from the palette table,
    signed by this file's byte-wise `fnv1a64`."""
    a = graph.system.alpha
    vectors = color_vectors(graph.n)
    lines = [
        "decg 1",
        f"system shift k={graph.system.alphabet_size} alpha={a.numerator}/{a.denominator}",
        f"n {graph.n}",
        f"vertices {graph.vertex_count}  colors {len(vectors)}  sampled {graph.sampled}",
    ]
    lines += [f"v {i} {encode_pattern(p)}" for i, p in enumerate(graph.vertices)]
    for i, j, c, e in graph.iter_edges():
        lines.append(f"e {i} {j} {c} {vectors[c].x} {vectors[c].y} {e}")
    body = "".join(line + "\n" for line in lines)
    return body + f"end {fnv1a64(body.encode()):016x}\n"


# --- the clique search and the edge check before the pigeonhole hint ---------


def max_clique(adjacency, cap: int = 5000) -> tuple[int, list[int]]:
    """Exact maximum clique order and the first maximum witness, by
    branch and bound with pivoting over every row relabelled up front
    into the order of `degeneracy_order`."""
    q = len(adjacency)
    if q == 0:
        return 0, []
    if q > cap:
        raise CapExceeded(f"{q} vertices exceeds clique search cap {cap}")
    masks = [adjacency[v] & ~(1 << v) for v in range(q)]

    order = degeneracy_order(masks)
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

    for i in range(q):
        later = ((1 << q) - 1) >> (i + 1) << (i + 1)
        p = radj[i] & later
        if 1 + p.bit_count() <= best:
            continue
        expand([i], p)

    witness = sorted(order[i] for i in best_clique)
    return best, witness


def _pick_pivot(p: int, radj) -> int:
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


def revalidate_edges(graph: ColoredGraph):
    """Recheck every edge on its own by the cell-by-cell ring scan around
    the edge's color vector, `revalidation_exponent`.  None when every
    edge passes, else (i, j, reason) for the first bad edge."""
    t = graph.system.threshold_exponent
    verts = graph.vertices
    for i, colors, exponents in graph.rows():
        x = verts[i]
        for j, (c, stored) in enumerate(zip(colors, exponents), i + 1):
            achieved = revalidation_exponent(x, verts[j], graph.colors[c])
            if achieved is None:
                return (i, j, "endpoints are identical points")
            if achieved > t:
                return (i, j, f"achieved exponent {achieved} exceeds threshold {t}")
            if achieved != stored:
                return (i, j, f"stored exponent {stored}, recomputed {achieved}")
    return None


# --- the class build before the byte matrix ---------------------------------


def color_classes(graph: ColoredGraph) -> dict[int, list[int]]:
    """Adjacency bitmasks of every color class the graph uses, by color
    index in ascending order, in one pass.  An unused color has no entry."""
    q = graph.vertex_count
    classes = {c: [0] * q for c in sorted(graph.colors_used())}
    for i, colors, _ in graph.rows():
        bit = 1 << i
        for j, c in enumerate(colors, i + 1):
            masks = classes[c]
            masks[i] |= 1 << j
            masks[j] |= bit
    return classes
