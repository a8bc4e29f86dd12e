"""Edge-coloring of complete graphs on separated point sets.

Every unordered pair of an alpha**-n-separated set is separated to
1/(4*alpha) by some group element of norm <= n; that element is the edge's
color.  Colors live in the square window C_n = {v : |v| <= n}, ordered
row-major from (-n, -n) to (n, n) and decoded by arithmetic, never from a
table.  Graphs serialize to the DECG text format, a line-oriented file
with an FNV-1a-64 trailer checksum.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .action import (
    LatticeVector,
    PeriodicConfiguration,
    ShiftSystem,
    encode_pattern,
    lowest_rank,
    parse_pattern,
    scan_ranks,
)
from .errors import BadFormat, ChecksumMismatch, MismatchedSystems, NoWitness, UnknownColor
from .sepset import SeparatedSet

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325

DECG_VERSION = 1


def fnv1a64(data: bytes, state: int = _FNV_OFFSET) -> int:
    """FNV-1a, 64-bit; given a prefix's hash as `state`, continues that hash over `data`."""
    h = state
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & _MASK64
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
    vectors, runs = scan_ranks(width, n)
    color_of_rank = [ColorSet(n).index_of(v) for v in vectors]
    q = len(points)
    colors: list[int] = []
    columns = list(zip(*(p.planes for p in points)))  # plane j of every vertex
    for i in range(q):
        diffs = [0] * (q - i - 1)  # diff masks of the pairs (i, j > i)
        for column in columns:
            own = column[i]
            diffs = [d | own ^ other for d, other in zip(diffs, column[i + 1 :])]
        row = [lowest_rank(d, runs) for d in diffs]
        if None in row:
            j = i + 1 + row.index(None)
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


def _body_pieces(graph: ColoredGraph) -> Iterator[bytes]:
    """The DECG text before the end line, as UTF-8 pieces: the header and
    vertex lines, then one piece per row i holding the edges (i, i+1..q-1)."""
    a = graph.system.alpha
    head = [
        f"decg {DECG_VERSION}",
        f"system shift k={graph.system.alphabet_size} alpha={a.numerator}/{a.denominator}",
        f"n {graph.n}",
        f"vertices {graph.vertex_count}  colors {len(graph.colors)}  sampled {graph.sampled}",
    ]
    head += [f"v {i} {encode_pattern(p)}" for i, p in enumerate(graph.vertices)]
    yield "".join(line + "\n" for line in head).encode("utf-8")
    fields = {c: "{} {} {}".format(c, *graph.colors[c]) for c in graph.colors_used()}
    colors, quality = graph.edge_colors, graph.edge_quality
    q = graph.vertex_count
    end = 0
    for i in range(q - 1):
        start, end = end, end + q - 1 - i
        yield "".join(
            f"e {i} {j} {fields[c]} {e}\n"
            for j, c, e in zip(range(i + 1, q), colors[start:end], quality[start:end])
        ).encode("utf-8")


def _signed_pieces(graph: ColoredGraph) -> Iterator[bytes]:
    """The body pieces, each hashed as it passes, then the end line; caches
    the body checksum on the graph."""
    h = _FNV_OFFSET
    for piece in _body_pieces(graph):
        h = fnv1a64(piece, h)
        yield piece
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


# Edge-line tails ("c vx vy quality\n") the reader remembers as checked.  An
# honest file has one per color used; the cap bounds what a hostile file
# with a distinct tail on every line can make the reader hold.
_CHECKED_TAILS_CAP = 1 << 12


def _read_edges(fh, q: int, colors: ColorSet, state: int) -> tuple[tuple, tuple, int]:
    """The edge lines of a q-vertex body, checked and hashed one row at a
    time: (colors, achieved exponents, the hash continued from `state`).

    An edge line whose prefix is "e i j " and whose tail was already
    checked on an earlier line passes the same checks, so it skips them.
    """
    checked: dict[bytes, tuple[int, int]] = {}
    edge_colors: list[int] = []
    edge_quality: list[int] = []
    readline = fh.readline
    line_no = 4 + q
    for i in range(q - 1):
        row: list[bytes] = []
        for j in range(i + 1, q):
            line_no += 1
            raw = readline()
            prefix = b"e %d %d " % (i, j)
            fields = checked.get(raw[len(prefix) :]) if raw.startswith(prefix) else None
            if fields is None:
                fields = _edge_fields(line_no, raw, i, j, colors)
                if len(checked) < _CHECKED_TAILS_CAP:
                    checked[raw[len(prefix) :]] = fields
            edge_colors.append(fields[0])
            edge_quality.append(fields[1])
            row.append(raw)
        state = fnv1a64(b"".join(row), state)
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
