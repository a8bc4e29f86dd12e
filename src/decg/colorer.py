"""Edge-coloring of complete graphs on separated point sets.

Every unordered pair of an alpha**-n-separated set is separated to
1/(4*alpha) by some group element of norm <= n; that element is the edge's
color.  Colors live in the square window C_n = {v : |v| <= n}, ordered
row-major from (-n, -n) to (n, n) and decoded by arithmetic, never from a
table.  Graphs serialize to the DECG text format, a line-oriented file
with an FNV-1a-64 trailer checksum.
"""

from __future__ import annotations

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

DECG_VERSION = 1


def fnv1a64(data: bytes, state: int = 0xCBF29CE484222325) -> int:
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
            decg_dumps(self)  # sets the cache
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


def decg_dumps(graph: ColoredGraph) -> str:
    """Serialize to DECG text, version 1.  Bit-exact: one `v` line per
    vertex, one `e` line per pair (i < j ascending), LF line endings, and
    an FNV-1a-64 checksum of every preceding line (newlines included)."""
    a = graph.system.alpha
    lines = [
        f"decg {DECG_VERSION}",
        f"system shift k={graph.system.alphabet_size} alpha={a.numerator}/{a.denominator}",
        f"n {graph.n}",
        f"vertices {graph.vertex_count}  colors {len(graph.colors)}  sampled {graph.sampled}",
    ]
    for i, p in enumerate(graph.vertices):
        lines.append(f"v {i} {encode_pattern(p)}")
    fields = {c: "{} {} {}".format(c, *graph.colors[c]) for c in graph.colors_used()}
    for i, j, c, e in graph.iter_edges():
        lines.append(f"e {i} {j} {fields[c]} {e}")
    body = "".join(line + "\n" for line in lines)
    checksum = fnv1a64(body.encode("utf-8"))
    graph._checksum = f"{checksum:016x}"
    return body + f"end {graph._checksum}\n"


def write_decg(graph: ColoredGraph, path) -> None:
    """Write DECG text to a path."""
    with open(path, "wb") as fh:
        fh.write(decg_dumps(graph).encode("utf-8"))


def _fail(line_no: int, message: str):
    raise BadFormat(line_no, message)


def _header_int(line_no: int, digits: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # isdigit passes superscripts; int refuses very long digit runs
        _fail(line_no, str(exc))


def read_decg(source) -> ColoredGraph:
    """Parse DECG text from a path or bytes.

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
        _fail(text.count("\n") + 1, "file truncated: missing final newline")
    lines = text.split("\n")[:-1]

    def need(idx: int) -> str:
        if idx >= len(lines):
            _fail(len(lines) + 1, "file truncated")
        return lines[idx]

    if need(0) != f"decg {DECG_VERSION}":
        _fail(1, f"expected 'decg {DECG_VERSION}' header")
    m = _SYSTEM_RE.match(need(1))
    if m is None:
        _fail(2, "malformed system line")
    try:
        k = int(m.group(1))
        system = ShiftSystem(alphabet_size=k, alpha=Fraction(int(m.group(2)), int(m.group(3))))
    except (ValueError, ZeroDivisionError) as exc:
        _fail(2, f"bad system parameters: {exc}")
    line3 = need(2)
    if not line3.startswith("n ") or not line3[2:].isdigit():
        _fail(3, "malformed n line")
    n = _header_int(3, line3[2:])
    m4 = _HEADER4_RE.match(need(3))
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
    decoded: dict[int, LatticeVector] = {}  # the colors the body uses

    vertices: list[PeriodicConfiguration] = []
    width = None
    for i in range(q):
        line_no = 5 + i
        parts = need(4 + i).split(" ")
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
                _fail(line_no, "malformed edge line")
            if parts[1] != str(i) or parts[2] != str(j):
                _fail(line_no, f"edge ({parts[1]}, {parts[2]}) out of order, expected ({i}, {j})")
            try:
                c = int(parts[3])
                vx, vy = int(parts[4]), int(parts[5])
                quality = int(parts[6])
            except ValueError:
                _fail(line_no, "non-integer edge fields")
            if not 0 <= c < palette:
                _fail(line_no, f"color index {c} outside palette of {palette}")
            v = decoded.get(c)
            if v is None:
                v = decoded[c] = colors[c]
            if v != (vx, vy):
                _fail(line_no, f"color index {c} does not encode vector ({vx}, {vy})")
            if quality < 0:
                _fail(line_no, "achieved exponent must be >= 0")
            edge_colors.append(c)
            edge_quality.append(quality)
            e += 1

    end_no = base + edge_total + 1
    end_line = need(base + edge_total)
    if not re.fullmatch(r"end [0-9a-f]{16}", end_line):
        _fail(end_no, "malformed end line")
    if len(lines) != base + edge_total + 1:
        _fail(end_no + 1, "trailing content after end line")
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
