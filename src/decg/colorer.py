"""Edge-coloring of complete graphs on separated point sets.

Every unordered pair of an alpha**-n-separated set is separated to
1/(4*alpha) by some group element of norm <= n; that element is the edge's
color.  Colors live in the square window C_n = {v : |v| <= n}, ordered
row-major from (-n, -n) to (n, n) and decoded by arithmetic, never from a
table.  Graphs serialize to the DECG text format, a line-oriented file
with an FNV-1a-64 trailer checksum.

FNV-1a's xor touches only the low byte of the state, so for any byte
string s and 64-bit state h, fnv1a64(s, h) == (h * P**len(s) +
A_s[h & 255]) mod 2**64, with P the FNV prime and a 256-entry step table
A_s[l] = fnv1a64(s, l) - l * P**len(s).  The writer and the reader hash
each edge line "e i j tail" by three or four such steps (the row prefix
"e i ", j as one or two base-100 groups, the tail) instead of about 19
byte steps; `fnv1a64` hashes everything else, byte by byte.
"""

from __future__ import annotations

import io
import re
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .action import (
    ORIGIN,
    LatticeVector,
    PeriodicConfiguration,
    ShiftSystem,
    encode_pattern,
    parse_pattern,
    scan_order,
    window_mask,
)
from .errors import BadFormat, ChecksumMismatch, MismatchedSystems, NoWitness, UnknownColor
from .sepset import SeparatedSet

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

DECG_VERSION = 1


def fnv1a64(data: bytes, state: int = _FNV_OFFSET) -> int:
    """FNV-1a, 64-bit; given a prefix's hash as `state`, continues that hash over `data`."""
    h = state
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class ColorSet:
    """The window {v : |v| <= n}, row-major from (-n, -n) to (n, n): color c
    is divmod(c, 2n+1) - (n, n), so no palette size costs any memory."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be >= 0")

    def __len__(self) -> int:
        return (2 * self.n + 1) ** 2

    def __getitem__(self, c: int) -> LatticeVector:
        n, side = self.n, 2 * self.n + 1
        if not 0 <= c < side * side:
            raise UnknownColor(f"color index {c} outside palette of {side * side}")
        x, y = divmod(c, side)
        return LatticeVector(x - n, y - n)

    def __iter__(self) -> Iterator[LatticeVector]:
        return map(self.__getitem__, range(len(self)))

    def index_of(self, v: LatticeVector) -> int:
        n = self.n
        x, y = v
        if max(abs(x), abs(y)) > n:
            raise UnknownColor(f"vector {v} outside |v| <= {n}")
        return (x + n) * (2 * n + 1) + (y + n)


@dataclass
class ColoredGraph:
    """A complete graph with a total edge -> color map and witness metadata.

    Edges are stored densely in upper-triangular order (i < j ascending).
    `edge_quality[e]` is the distance exponent achieved after shifting the
    endpoints by the edge's color vector; 0 is the best possible.
    """

    system: ShiftSystem
    n: int
    vertices: tuple[PeriodicConfiguration, ...]
    edge_colors: tuple[int, ...]
    edge_quality: tuple[int, ...]
    sampled: str = "full"
    _checksum: str | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        q = len(self.vertices)
        if q < 1:
            raise ValueError("graph needs at least one vertex")
        expected = q * (q - 1) // 2
        if len(self.edge_colors) != expected or len(self.edge_quality) != expected:
            raise ValueError(f"complete graph on {q} vertices needs {expected} edges")
        if not re.fullmatch(r"full|subsampled seed=\d+", self.sampled):
            raise ValueError(f"bad sampled tag {self.sampled!r}")

    @property
    def colors(self) -> ColorSet:
        return ColorSet(self.n)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edge_colors)

    def edge_index(self, i: int, j: int) -> int:
        if not 0 <= i < j < self.vertex_count:
            raise IndexError(f"bad edge ({i}, {j})")
        q = self.vertex_count
        return i * (2 * q - i - 1) // 2 + (j - i - 1)

    def color_of(self, i: int, j: int) -> int:
        return self.edge_colors[self.edge_index(i, j)]

    def iter_edges(self) -> Iterator[tuple[int, int, int, int]]:
        """Yield (i, j, color index, achieved exponent) in storage order."""
        e = 0
        q = self.vertex_count
        for i in range(q):
            for j in range(i + 1, q):
                yield i, j, self.edge_colors[e], self.edge_quality[e]
                e += 1

    def colors_used(self) -> set[int]:
        return set(self.edge_colors)

    def checksum_hex(self) -> str:
        if self._checksum is None:
            for _ in _signed_pieces(self):  # hashes the text one row at a time; sets the cache
                pass
        assert self._checksum is not None
        return self._checksum


def color_graph(
    system: ShiftSystem,
    vertices,
    n: int,
    sampled: str = "full",
) -> ColoredGraph:
    """Color the complete graph on `vertices` with the window C_n.

    Each edge's color is the witness vector from find_witness: the
    differing site of least norm in scan order, which always achieves
    exponent 0.  A pair with no differing site in the window, which means
    the input is not alpha**-n-separated, raises NoWitness.  Output is
    deterministic.
    """
    points = tuple(vertices.points if isinstance(vertices, SeparatedSet) else vertices)
    if not points:
        raise ValueError("graph needs at least one vertex")
    for p in points:
        system.check_point(p)
    widths = {p.width for p in points}
    if len(widths) != 1:
        raise MismatchedSystems(f"vertices mix periods {sorted(widths)}")
    (width,) = widths
    window = window_mask(width, ORIGIN, n)  # the scan ranks below window.bit_length()
    vectors = scan_order(width)[0][: window.bit_length()]
    color_of_rank = [ColorSet(n).index_of(v) for v in vectors]
    q = len(points)
    colors: list[int] = []
    columns = [  # plane j of every vertex, cut to the window
        [plane & window for plane in column] for column in zip(*(p.planes for p in points))
    ]
    for i in range(q):
        diffs = [0] * (q - i - 1)  # windowed diff masks of the pairs (i, j > i)
        for column in columns:
            own = column[i]
            diffs = [d | own ^ other for d, other in zip(diffs, column[i + 1 :])]
        row = [(d & -d).bit_length() - 1 for d in diffs]  # scan rank of the witness, or -1
        if -1 in row:
            j = i + 1 + row.index(-1)
            raise NoWitness(
                f"vertices {i} and {j} agree on the whole color window; "
                "the input set is not separated at alpha**-n",
                pair=(i, j),
            )
        colors.extend([color_of_rank[r] for r in row])
    return ColoredGraph(
        system=system,
        n=n,
        vertices=points,
        edge_colors=tuple(colors),
        edge_quality=(0,) * len(colors),
        sampled=sampled,
    )


# --- DECG serialization ----------------------------------------------------

_HEADER4_RE = re.compile(
    r"^vertices (\d+)  colors (\d+)  sampled (full|subsampled seed=\d+)$"
)
_SYSTEM_RE = re.compile(r"^system shift k=(\d+) alpha=(\d+)/(\d+)$")
_END_RE = re.compile(r"end [0-9a-f]{16}")


# Edge-line tails ("c vx vy quality\n") the reader remembers as checked, the
# writer as formatted and the hasher as counted.  An honest file has one per
# color used; the cap bounds what a distinct tail on every line can make any
# of them hold.
_CHECKED_TAILS_CAP = 1 << 12


def _step_table(token: bytes) -> tuple[int, memoryview]:
    """(P**len(token), A) such that fnv1a64(token, h) == (h * P**len(token)
    + A[h & 255]) mod 2**64 for every 64-bit state h.  A packs its 256
    entries into 2 KB."""
    states = list(range(256))  # fnv1a64 of the token so far, from each low byte
    for b in token:
        states = [((s ^ b) * _FNV_PRIME) & _MASK64 for s in states]
    power = pow(_FNV_PRIME, len(token), 1 << 64)
    steps = struct.pack("256Q", *[(s - low * power) & _MASK64 for low, s in enumerate(states)])
    return power, memoryview(steps).cast("Q")


# A tail gets a step table once this many edge lines have ended in it (the
# table costs about as much as hashing the tail 256 times byte by byte), and
# at most this many tails get one, so a file or graph with a distinct tail
# on every edge line builds none.
_TAIL_TABLE_USES = 256
_TAIL_TABLES_CAP = 1024


class _EdgeHasher:
    """Continues an FNV-1a-64 state over the edge lines of one DECG body,
    "e i j tail" with tail = "c vx vy quality\\n", by step tables.

    Index tables grow with the largest j hashed, never with a header's
    vertex count: "j " for j < 100, else the group "j // 100" followed by
    "jj " (j % 100, two digits), at most about 110 + q/100 tables.
    """

    def __init__(self):
        self.small: list[tuple[int, memoryview]] = []  # "j " for j < 100
        self.low: list[tuple[int, memoryview]] = []  # "jj " for j % 100, once some j >= 100
        self.high: list[tuple[int, memoryview]] = []  # "h" for h = j // 100 (high[0] unused)
        # "e " and "e h" for h = i // 100: a row prefix less its last index
        # group, with the low byte each table's step leaves behind
        self.heads: list[tuple[int, memoryview, bytes]] = []
        self.tails: dict[bytes, tuple[int, memoryview]] = {}
        self._uses: dict[bytes, int] = {}  # lines seen so far of tails with no table

    def row(self, state: int, i: int, tails: list[bytes]) -> int:
        """`state` continued over the edge lines (i, i+1), (i, i+2), ...,
        the k-th of which ends in tails[k]."""
        return self._steps(state, self._prepare(i, tails), i, tails)

    def _prepare(self, i: int, tails: list[bytes]) -> tuple[int, list[int]]:
        """Build every table the row needs; returns the row prefix's."""
        last = i + len(tails)
        small, high, heads = self.small, self.high, self.heads
        while len(small) <= min(last, 99):
            small.append(_step_table(b"%d " % len(small)))
        if last >= 100:
            if not self.low:  # "jj " is "j " from 10 on
                self.low = [_step_table(b"%02d " % d) for d in range(10)] + small[10:]
            while len(high) <= last // 100:
                high.append(_step_table(b"%d" % len(high)))
        while len(heads) <= i // 100:
            power, steps = _step_table(b"e %d" % len(heads) if heads else b"e ")
            after = bytes([(low * power + a) & 255 for low, a in enumerate(steps)])
            heads.append((power, steps, after))
        tables, seen = self.tails, self._uses
        for tail in tails:
            if tail in tables or len(tables) >= _TAIL_TABLES_CAP:
                continue
            uses = seen.get(tail, 0) + 1
            if uses == _TAIL_TABLE_USES:
                seen.pop(tail, None)
                tables[tail] = _step_table(tail)
            elif uses > 1 or len(seen) < _CHECKED_TAILS_CAP:
                seen[tail] = uses
        # The head's step from low byte l gives h * m1 + a1[l], whose low
        # byte is after[l]; the index group's step follows from there.
        m1, a1, after = heads[i // 100]
        m2, a2 = small[i] if i < 100 else self.low[i % 100]
        return (m1 * m2) & _MASK64, [(a * m2 + a2[n]) & _MASK64 for a, n in zip(a1, after)]

    def _steps(self, h: int, prefix: tuple[int, list[int]], i: int, tails: list[bytes]) -> int:
        """The step arithmetic of `row`, once `_prepare` has built its tables."""
        pm, pa = prefix
        small, low, high, tables = self.small, self.low, self.high, self.tails
        for j, tail in enumerate(tails, i + 1):
            # reduced mod 2**64 once per line: the low byte is the same either way
            h = h * pm + pa[h & 255]
            if j < 100:
                m, a = small[j]
            else:
                m, a = high[j // 100]
                h = h * m + a[h & 255]
                m, a = low[j % 100]
            h = h * m + a[h & 255]
            step = tables.get(tail)
            if step is None:
                h = fnv1a64(tail, h & _MASK64)
            else:
                m, a = step
                h = (h * m + a[h & 255]) & _MASK64
        return h


def _head_piece(graph: ColoredGraph) -> bytes:
    """The header and vertex lines of the DECG text, as UTF-8."""
    a = graph.system.alpha
    head = [
        f"decg {DECG_VERSION}",
        f"system shift k={graph.system.alphabet_size} alpha={a.numerator}/{a.denominator}",
        f"n {graph.n}",
        f"vertices {graph.vertex_count}  colors {len(graph.colors)}  sampled {graph.sampled}",
    ]
    head += [f"v {i} {encode_pattern(p)}" for i, p in enumerate(graph.vertices)]
    return "".join(line + "\n" for line in head).encode("utf-8")


def _edge_rows(graph: ColoredGraph) -> Iterator[tuple[int, list[bytes]]]:
    """(i, the tails "c vx vy quality\\n" of the edge lines (i, i+1..q-1))
    for each row i."""
    vectors = {c: graph.colors[c] for c in graph.colors_used()}
    known: dict[tuple[int, int], bytes] = {}  # capped like the reader's, for the same reason

    def tail(key: tuple[int, int]) -> bytes:
        c, e = key
        text = b"%d %d %d %d\n" % (c, *vectors[c], e)
        if len(known) < _CHECKED_TAILS_CAP:
            known[key] = text
        return text

    colors, quality = graph.edge_colors, graph.edge_quality
    q = graph.vertex_count
    end = 0
    for i in range(q - 1):
        start, end = end, end + q - 1 - i
        yield i, [known.get(key) or tail(key) for key in zip(colors[start:end], quality[start:end])]


def _signed_pieces(graph: ColoredGraph) -> Iterator[bytes]:
    """The DECG text as UTF-8 pieces: the header and vertex lines, one
    piece per row i holding the edges (i, i+1..q-1), then the end line.
    Each piece before the end line is hashed as it passes, and the body
    checksum is cached on the graph."""
    head = _head_piece(graph)
    h = fnv1a64(head)
    yield head
    hasher = _EdgeHasher()
    indices = [b"%d " % j for j in range(graph.vertex_count)]
    for i, tails in _edge_rows(graph):
        h = hasher.row(h, i, tails)
        prefix = b"e %d " % i
        yield b"".join([prefix + j + tail for j, tail in zip(indices[i + 1 :], tails)])
    graph._checksum = f"{h:016x}"
    yield f"end {graph._checksum}\n".encode("ascii")


def decg_dumps(graph: ColoredGraph) -> str:
    """Serialize to DECG text, version 1.  Bit-exact: one `v` line per
    vertex, one `e` line per pair (i < j ascending), LF line endings, and
    an FNV-1a-64 checksum of every preceding line (newlines included)."""
    return b"".join(_signed_pieces(graph)).decode("utf-8")


def write_decg(graph: ColoredGraph, path) -> None:
    """Write the DECG text of `decg_dumps` to a path, one row at a time,
    so memory stays flat in the file size."""
    with open(path, "wb") as fh:
        fh.writelines(_signed_pieces(graph))


def _fail(line_no: int, message: str):
    raise BadFormat(line_no, message)


def _header_int(line_no: int, digits: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # isdigit passes superscripts; int refuses very long digit runs
        _fail(line_no, str(exc))


def _line_text(line_no: int, raw: bytes) -> str:
    """A line as read, without its newline, decoded.  End of file, a
    missing final newline and non-UTF-8 bytes fail at `line_no`."""
    if not raw.endswith(b"\n"):
        _fail(line_no, "file truncated: missing final newline" if raw else "file truncated")
    try:
        return raw[:-1].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BadFormat(line_no, f"not UTF-8: {exc}") from None


def _edge_fields(line_no: int, raw: bytes, i: int, j: int, colors: ColorSet) -> tuple[int, int]:
    """(color index, achieved exponent) of edge line (i, j), fully checked."""
    parts = _line_text(line_no, raw).split(" ")
    if len(parts) != 7 or parts[0] != "e":
        _fail(line_no, "malformed edge line")
    if parts[1] != str(i) or parts[2] != str(j):
        _fail(line_no, f"edge ({parts[1]}, {parts[2]}) out of order, expected ({i}, {j})")
    try:
        c = int(parts[3])
        vx, vy = int(parts[4]), int(parts[5])
        quality = int(parts[6])
    except ValueError:
        _fail(line_no, "non-integer edge fields")
    palette = len(colors)
    if not 0 <= c < palette:
        _fail(line_no, f"color index {c} outside palette of {palette}")
    if colors[c] != (vx, vy):
        _fail(line_no, f"color index {c} does not encode vector ({vx}, {vy})")
    if quality < 0:
        _fail(line_no, "achieved exponent must be >= 0")
    return c, quality


def _read_edges(fh, q: int, colors: ColorSet, state: int) -> tuple[tuple, tuple, int]:
    """The edge lines of a q-vertex body, checked and hashed one row at a
    time: (colors, achieved exponents, the hash continued from `state`).

    An edge line whose prefix is "e i j " and whose tail was already
    checked on an earlier line passes the same checks, so it skips them.
    Either way an accepted line is exactly that prefix and its tail, which
    is what the row's step tables hash.
    """
    checked: dict[bytes, tuple[int, int]] = {}
    hasher = _EdgeHasher()
    edge_colors: list[int] = []
    edge_quality: list[int] = []
    readline = fh.readline
    line_no = 4 + q
    for i in range(q - 1):
        tails: list[bytes] = []
        for j in range(i + 1, q):
            line_no += 1
            raw = readline()
            prefix = b"e %d %d " % (i, j)
            tail = raw[len(prefix) :]
            fields = checked.get(tail) if raw.startswith(prefix) else None
            if fields is None:
                fields = _edge_fields(line_no, raw, i, j, colors)
                if len(checked) < _CHECKED_TAILS_CAP:
                    checked[tail] = fields
            edge_colors.append(fields[0])
            edge_quality.append(fields[1])
            tails.append(tail)
        state = hasher.row(state, i, tails)
    edge_colors = tuple(edge_colors)  # rebound, so each list is freed once copied
    return edge_colors, tuple(edge_quality), state


def read_decg(source) -> ColoredGraph:
    """Parse DECG text from a path or bytes.

    Re-verifies the grammar, the header arithmetic (edge count equals
    q*(q-1)/2, palette size equals (2n+1)**2, color indices match their
    vectors) and the trailer checksum.  Lines are read and hashed one row
    at a time, so memory grows with the edge count, never with the text
    or the header's palette.  Witness validity is not checked here;
    `cliques.revalidate_edges` does that.
    """
    if isinstance(source, bytes):
        return _read_lines(io.BytesIO(source))
    with open(source, "rb") as fh:
        return _read_lines(fh)


def _read_lines(fh) -> ColoredGraph:
    head: list[bytes] = []  # header and vertex lines, hashed as one piece

    def line(line_no: int) -> str:
        raw = fh.readline()
        head.append(raw)
        return _line_text(line_no, raw)

    if line(1) != f"decg {DECG_VERSION}":
        _fail(1, f"expected 'decg {DECG_VERSION}' header")
    m = _SYSTEM_RE.match(line(2))
    if m is None:
        _fail(2, "malformed system line")
    try:
        k = int(m.group(1))
        system = ShiftSystem(alphabet_size=k, alpha=Fraction(int(m.group(2)), int(m.group(3))))
    except (ValueError, ZeroDivisionError) as exc:
        _fail(2, f"bad system parameters: {exc}")
    line3 = line(3)
    if not line3.startswith("n ") or not line3[2:].isdigit():
        _fail(3, "malformed n line")
    n = _header_int(3, line3[2:])
    m4 = _HEADER4_RE.match(line(4))
    if m4 is None:
        _fail(4, "malformed vertices/colors/sampled line")
    q = _header_int(4, m4.group(1))
    palette = _header_int(4, m4.group(2))
    sampled = m4.group(3)
    if q < 1:
        _fail(4, "vertex count must be positive")
    if palette != (2 * n + 1) ** 2:
        _fail(4, f"colors {palette} does not equal (2n+1)^2 = {(2 * n + 1) ** 2}")
    colors = ColorSet(n)

    # q is untrusted until its vertex lines have been read: nothing is sized by it.
    vertices: list[PeriodicConfiguration] = []
    width = None
    for i in range(q):
        line_no = 5 + i
        parts = line(line_no).split(" ")
        if len(parts) != 3 or parts[0] != "v":
            _fail(line_no, "malformed vertex line")
        if parts[1] != str(i):
            _fail(line_no, f"vertex index {parts[1]} out of order, expected {i}")
        try:
            p = parse_pattern(parts[2])
        except ValueError as exc:
            _fail(line_no, str(exc))
        if p.alphabet_size != k:
            _fail(line_no, f"vertex alphabet {p.alphabet_size} does not match header k={k}")
        if width is None:
            width = p.width
        elif p.width != width:
            _fail(line_no, f"vertex period {p.width} differs from {width}")
        vertices.append(p)
    edge_colors, edge_quality, state = _read_edges(fh, q, colors, fnv1a64(b"".join(head)))

    end_no = 5 + q + q * (q - 1) // 2
    end_line = _line_text(end_no, fh.readline())
    if not _END_RE.fullmatch(end_line):
        _fail(end_no, "malformed end line")
    if fh.read(1):
        _fail(end_no + 1, "trailing content after end line")
    actual = f"{state:016x}"
    stored = end_line[4:]
    if actual != stored:
        raise ChecksumMismatch(f"stored checksum {stored}, recomputed {actual}")

    return ColoredGraph(
        system=system,
        n=n,
        vertices=tuple(vertices),
        edge_colors=edge_colors,
        edge_quality=edge_quality,
        sampled=sampled,
        _checksum=stored,
    )
