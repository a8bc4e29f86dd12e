"""Edge-coloring of complete graphs on separated point sets.

Every unordered pair of an alpha**-n-separated set is separated to
1/(4*alpha) by some group element of norm <= n; that element is the edge's
color.  Colors live in the square window C_n = {v : |v| <= n}, ordered
row-major from (-n, -n) to (n, n) and decoded by arithmetic, never from a
table (`decg.action.ColorSet`).  Graphs serialize to the DECG text format, a line-oriented file
with an FNV-1a-64 trailer checksum.  The writer joins the rows of tails
that `_hashed_rows` maps and hashes; the reader takes the edge lines in
batches of about 4 KB, passes a batch's lines of one row whole when each
is "e i j " and a tail it has already checked, and otherwise walks them,
checking on its own each line that is not; it holds at most one batch of
unchecked lines plus one line, and checks the trailer against the
checksum of the graph it parsed.

FNV-1a's xor touches only the low byte of the state, so for any byte
string s and 64-bit state h, fnv1a64(s, h) == (h * P**len(s) +
A_s[h & 255]) mod 2**64, with P the FNV prime and a 256-entry step table
A_s[l] = fnv1a64(s, l) - l * P**len(s).  `_EdgeHasher` hashes each
edge line "e i j tail" by three or four such steps (the row prefix
"e i ", j as one or two base-100 groups, the tail) instead of about 19
byte steps, from index tables it builds once from the vertex count;
`fnv1a64` hashes everything else, byte by byte.
"""

from __future__ import annotations

import io
import re
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import takewhile
from typing import Iterator, Sequence

from .action import (
    ColorSet,
    PeriodicConfiguration,
    ShiftSystem,
    encode_pattern,
    parse_pattern,
    scan_order,
)
from .errors import BadFormat, CapExceeded, ChecksumMismatch, NoWitness
from .record import count
from .sepset import SeparatedSet

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

DECG_VERSION = 1

# The most vertices a ColoredGraph holds, so the DECG reader refuses a
# larger header at once and `decg cliques` can analyse every graph there is.
CLIQUE_CAP = 5000

# An integer as the writer formats it: ASCII digits, no leading zero.  The
# reader's patterns take integers only in this form.
_UINT = "(0|[1-9][0-9]*)"
_SAMPLED = f"full|subsampled seed={_UINT}"


def fnv1a64(data: bytes, state: int = _FNV_OFFSET) -> int:
    """FNV-1a, 64-bit; given a prefix's hash as `state`, continues that hash over `data`."""
    h = state
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class ColoredGraph:
    """A complete graph with a total edge -> color map and witness metadata.

    Edges are stored densely in upper-triangular order (i < j ascending),
    their colors in an array of the palette's typecode.  `edge_quality`
    maps an edge's index to the distance exponent achieved after shifting
    the endpoints by its color vector, where that is not 0 (the best).
    Its vertices, at most CLIQUE_CAP of them, pass `system.check_point`
    with one period, so DECG reads what it writes.
    Fields cannot be assigned, and `dataclasses.replace` drops the cached
    checksum and set of colors used, so the caches name this graph's own
    text and colors unless the edge array or exponent dict is edited in
    place.
    """

    system: ShiftSystem
    n: int
    vertices: tuple[PeriodicConfiguration, ...]
    edge_colors: array
    edge_quality: dict[int, int]
    sampled: str = "full"
    _checksum: str | None = field(default=None, init=False, repr=False, compare=False)
    _used: frozenset[int] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        q = len(self.vertices)
        _check_vertex_count(q)
        for x in self.vertices:
            self.system.check_point(x, self.vertices[0].width)
        expected = q * (q - 1) // 2
        if len(self.edge_colors) != expected:
            raise ValueError(f"complete graph on {q} vertices needs {expected} edges")
        typecode = self.colors.typecode
        if not isinstance(self.edge_colors, array) or self.edge_colors.typecode != typecode:
            raise ValueError(f"edge colors must be an array of typecode {typecode!r}")
        if not isinstance(self.edge_quality, dict) or not all(
            0 <= e < expected and x > 0 for e, x in self.edge_quality.items()
        ):
            raise ValueError(f"edge quality must map edge indices below {expected} to exponents >= 1")
        if not re.fullmatch(_SAMPLED, self.sampled):
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

    def rows(self) -> Iterator[tuple[int, Sequence[int], Sequence[int]]]:
        """Yield (i, colors, exponents) of the edges (i, i+1..q-1) for each
        row i in storage order.  Every row-wise reader of the edges uses this."""
        q = self.vertex_count
        quality = self.edge_quality
        end = 0
        for i in range(q - 1):
            start, end = end, end + q - 1 - i
            exps = [quality.get(e, 0) for e in range(start, end)] if quality else bytes(end - start)
            yield i, self.edge_colors[start:end], exps

    def iter_edges(self) -> Iterator[tuple[int, int, int, int]]:
        """Yield (i, j, color index, achieved exponent) in storage order."""
        for i, colors, exponents in self.rows():
            for j, (c, e) in enumerate(zip(colors, exponents), i + 1):
                yield i, j, c, e

    def colors_used(self) -> frozenset[int]:
        if self._used is None:
            object.__setattr__(self, "_used", frozenset(self.edge_colors))
        return self._used

    def checksum_hex(self) -> str:
        if self._checksum is None:
            for _ in _hashed_rows(self, _head_piece(self)):  # hashes row by row; sets the cache
                pass
        assert self._checksum is not None
        return self._checksum


def _check_vertex_count(q: int) -> None:
    if q < 1:
        raise ValueError("graph needs at least one vertex")
    if q > CLIQUE_CAP:
        raise CapExceeded(f"{q} vertices exceeds cap {CLIQUE_CAP}")


def color_graph(
    system: ShiftSystem,
    vertices,
    n: int,
    sampled: str = "full",
) -> ColoredGraph:
    """Color the complete graph on `vertices` with the window C_n.

    Each edge's color is the witness vector that `min_diff_vector` and
    `find_witness` return: the differing site of least norm in scan order,
    which always achieves exponent 0.  A pair with no differing site in
    the window, which means the input is not alpha**-n-separated, raises
    NoWitness, and a palette of more than sys.maxsize colors raises
    ValueError.  More than CLIQUE_CAP points raise CapExceeded before any
    edge is colored.  Output is deterministic.
    """
    palette = ColorSet(n)
    colors = array(palette.typecode)
    points = tuple(vertices.points if isinstance(vertices, SeparatedSet) else vertices)
    _check_vertex_count(len(points))
    width = points[0].width
    for p in points:
        system.check_point(p, width)
    # Scan order goes ring by ring, so the window's cells take the lowest ranks.
    vectors = takewhile(lambda v: v.norm <= n, scan_order(width)[0])
    color_of_bit = {1 << r: palette.index_of(v) for r, v in enumerate(vectors)}  # by cell bit
    window = (1 << len(color_of_bit)) - 1
    q = len(points)
    columns = [  # plane j of every vertex, cut to the window
        [plane & window for plane in column] for column in zip(*(p.planes for p in points))
    ]
    for i in range(q):
        own = columns[0][i]
        diffs = [own ^ other for other in columns[0][i + 1 :]]  # windowed diff masks of (i, j > i)
        for column in columns[1:]:
            own = column[i]
            diffs = [d | own ^ other for d, other in zip(diffs, column[i + 1 :])]
        row = [color_of_bit.get(d & -d) for d in diffs]  # the witness's color, or None
        if None in row:
            j = i + 1 + row.index(None)
            raise NoWitness(
                f"vertices {i} and {j} agree on the whole color window; "
                "the input set is not separated at alpha**-n",
                pair=(i, j),
            )
        colors.fromlist(row)
    return ColoredGraph(system, n, points, colors, {}, sampled)


# --- DECG serialization ----------------------------------------------------

_SYSTEM_RE = re.compile(f"system shift k={_UINT} alpha={_UINT}/{_UINT}")
_N_RE = re.compile(f"n {_UINT}")
_HEADER4_RE = re.compile(f"vertices {_UINT}  colors {_UINT}  sampled ({_SAMPLED})")
_END_RE = re.compile(r"end [0-9a-f]{16}")


def _step_table(token: bytes) -> tuple[int, array]:
    """(P**len(token), A) such that fnv1a64(token, h) == (h * P**len(token)
    + A[h & 255]) mod 2**64 for every 64-bit state h.  A packs its 256
    entries into 2 KB."""
    states = list(range(256))  # fnv1a64 of the token so far, from each low byte
    for b in token:
        states = [((s ^ b) * _FNV_PRIME) & _MASK64 for s in states]
    power = pow(_FNV_PRIME, len(token), 1 << 64)
    return power, array("Q", [(s - low * power) & _MASK64 for low, s in enumerate(states)])


# Edge-line tails ("c vx vy quality\n") `_hashed_rows` builds step tables
# for, and the reader remembers as checked with exponent 0: the first this
# many of each, at their first lines.  Other tails are hashed byte by byte and
# checked on every line.  A `decg color` file has one tail per color used
# (9 at n = 1, 20 at n = 2 on 1000 samples, at most 49 up to n = 3), so
# the cap never binds on it.  A file with a distinct tail on every line
# builds 64 tables and no more: 128 KB, and about the time of hashing
# 16 000 tails byte by byte (a table costs about 256 of them).
_TAIL_CAP = 64


class _EdgeHasher:
    """Continues an FNV-1a-64 state over the edge lines of the DECG body of
    a q-vertex graph, "e i j tail" with tail = "c vx vy quality\\n", by
    step tables.

    The index tables are built once, from q: "j " for j < 100 and, when
    q > 100, the group "j // 100" and "jj " (j % 100, two digits), plus
    the row heads "e " and "e h" for h = i // 100, about 110 + q/50
    tables.  Tail tables are built at each tail's first line.
    """

    def __init__(self, q: int):
        self.small = [_step_table(b"%d " % j) for j in range(min(q, 100))]  # "j " for j < 100
        self.low: list[tuple[int, array]] = []  # "jj " for j % 100, when q > 100
        self.high: list[tuple[int, array]] = []  # "h" for h = j // 100 (high[0] unused)
        if q > 100:  # "jj " is "j " from 10 on
            self.low = [_step_table(b"%02d " % d) for d in range(10)] + self.small[10:]
            self.high = [_step_table(b"%d" % h) for h in range((q - 1) // 100 + 1)]
        # "e " and "e h" for h = i // 100: a row prefix less its last index
        # group, with the low byte each table's step leaves behind
        self.heads: list[tuple[int, array, bytes]] = []
        for h in range((q - 2) // 100 + 1):
            power, steps = _step_table(b"e %d" % h if h else b"e ")
            after = bytes([(low * power + a) & 255 for low, a in enumerate(steps)])
            self.heads.append((power, steps, after))
        self.tails: dict[bytes, tuple[int, array]] = {}

    def row(self, h: int, i: int, tails: list[bytes]) -> int:
        """`h` continued over the edge lines (i, i+1), (i, i+2), ..., the
        k-th of which ends in tails[k]."""
        small, low, high, tables = self.small, self.low, self.high, self.tails
        # The row prefix "e i " as one step: the head's step from low byte l
        # gives h * m1 + a1[l], whose low byte is after[l]; the index
        # group's step follows from there.
        m1, a1, after = self.heads[i // 100]
        m2, a2 = small[i] if i < 100 else low[i % 100]
        pm = (m1 * m2) & _MASK64
        pa = [(a * m2 + a2[n]) & _MASK64 for a, n in zip(a1, after)]
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
            if step is None and len(tables) < _TAIL_CAP:
                step = tables[tail] = _step_table(tail)
            if step is None:
                h = fnv1a64(tail, h & _MASK64)
            else:
                m, a = step
                h = (h * m + a[h & 255]) & _MASK64
        return h


def _system_line(system: ShiftSystem) -> str:
    a = system.alpha
    return f"system shift k={system.alphabet_size} alpha={a.numerator}/{a.denominator}"


def _head_piece(graph: ColoredGraph) -> bytes:
    """The header and vertex lines of the DECG text, as UTF-8."""
    head = [
        f"decg {DECG_VERSION}",
        _system_line(graph.system),
        f"n {graph.n}",
        f"vertices {graph.vertex_count}  colors {len(graph.colors)}  sampled {graph.sampled}",
    ]
    head += [f"v {i} {encode_pattern(p)}" for i, p in enumerate(graph.vertices)]
    return "".join(line + "\n" for line in head).encode("utf-8")


def _hashed_rows(graph: ColoredGraph, head: bytes) -> Iterator[tuple[int, list[bytes]]]:
    """(i, the tails "c vx vy quality\\n" of the edge lines (i, i+1..q-1))
    for each row i, hashing the body from `head`, the graph's `_head_piece`,
    over each row once it is yielded and caching the checksum on the graph
    after the last.  A row with no nonzero exponent maps its colors to
    their exponent-0 tails in one pass."""
    h = fnv1a64(head)
    hasher = _EdgeHasher(graph.vertex_count)
    vectors = graph.colors
    known = {c: b"%d %d %d 0\n" % (c, *vectors[c]) for c in graph.colors_used()}
    for i, colors, exps in graph.rows():
        if any(exps):
            tails = [
                b"%d %d %d %d\n" % (c, *vectors[c], e) if e else known[c]
                for c, e in zip(colors, exps)
            ]
        else:
            tails = list(map(known.__getitem__, colors))
        yield i, tails
        h = hasher.row(h, i, tails)
    object.__setattr__(graph, "_checksum", f"{h:016x}")


def _signed_pieces(graph: ColoredGraph) -> Iterator[bytes]:
    """The DECG text as UTF-8 pieces: the header and vertex lines, one
    piece per row i holding the edges (i, i+1..q-1), then the end line.
    Each piece before the end line is hashed by `_hashed_rows` and
    counted as `bytes_hashed`."""
    head = _head_piece(graph)
    count("bytes_hashed", len(head))
    yield head
    indices = [b"%d " % j for j in range(graph.vertex_count)]
    for i, tails in _hashed_rows(graph, head):
        parts = [b"e %d " % i] * (3 * len(tails))  # each line's "e i ", "j " and tail
        parts[1::3] = indices[i + 1 :]
        parts[2::3] = tails
        piece = b"".join(parts)
        count("bytes_hashed", len(piece))
        yield piece
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
    except ValueError as exc:  # int refuses digit runs past the interpreter's limit
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
        c, vx, vy, quality = map(int, parts[3:])
    except ValueError:
        _fail(line_no, "non-integer edge fields")
    if parts[3:] != [str(c), str(vx), str(vy), str(quality)]:
        _fail(line_no, "edge fields are not integers as the writer formats them")
    palette = len(colors)
    if not 0 <= c < palette:
        _fail(line_no, f"color index {c} outside palette of {palette}")
    if colors[c] != (vx, vy):
        _fail(line_no, f"color index {c} does not encode vector ({vx}, {vy})")
    if quality < 0:
        _fail(line_no, "achieved exponent must be >= 0")
    return c, quality


def _read_edges(fh, q: int, colors: ColorSet) -> tuple[array, dict[int, int]]:
    """The edge lines of a q-vertex body, checked one row at a time:
    (colors, nonzero exponents by edge index).

    Lines come in batches of about 4 KB, never past the last edge line of
    a well-formed body (a shorter line fails before any past it).  A
    segment, a batch's lines of one row, passes whole when each starts
    with its "e i j " and ends in a tail already checked with exponent 0,
    as such a line passes the same checks.  Otherwise its lines take that
    test in order against the memo as it stands, and one that fails it is
    checked on its own by `_edge_fields`, which fails it if it lacks that
    prefix, so an accepted line is exactly the writer's line of its edge.
    """
    zero: dict[bytes, int] = {}  # the checked tails of exponent 0, by color
    edge_colors = array(colors.typecode)
    edge_quality: dict[int, int] = {}
    batch: list[bytes] = []
    singly = hashed = end = 0
    for i in range(q - 1):
        head = b"e %d %%d " % i
        end += q - 1 - i  # the edge index past row i
        while len(edge_colors) < end:
            if not batch:  # no edge line is shorter than "e 0 1 0 0 0 0\n": none is read past
                left = q * (q - 1) // 2 - len(edge_colors)
                batch = fh.readlines(min(4096, 14 * left - 1)) or [b""]
                hashed += sum(map(len, batch))
            j = q - end + len(edge_colors)  # the next line's column
            segment, batch = batch[: q - j], batch[q - j :]  # the batch's lines of row i
            pre = list(map(head.__mod__, range(j, j + len(segment))))  # their "e i j "
            known = list(map(bytes.removeprefix, segment, pre))
            found = list(map(zero.get, known))
            if all(map(bytes.startswith, segment, pre)) and None not in found:
                edge_colors.extend(found)
                continue
            for j, raw, p, tail in zip(range(j, q), segment, pre, known):
                c = zero.get(tail) if raw.startswith(p) else None  # live: sees this segment's checks
                if c is None:
                    singly += 1
                    c, quality = _edge_fields(5 + q + len(edge_colors), raw, i, j, colors)
                    if quality:
                        edge_quality[len(edge_colors)] = quality
                    elif len(zero) < _TAIL_CAP:
                        zero[tail] = c
                edge_colors.append(c)
    count("bytes_hashed", hashed)
    count("lines_checked_singly", singly)
    return edge_colors, edge_quality


def read_decg(source) -> ColoredGraph:
    """Parse DECG text from a path or bytes.

    Re-verifies the grammar (each line is the writer's formatting of its
    values: integers in ASCII digits with no leading zero, alpha in lowest
    terms), the header arithmetic (1 <= q <= CLIQUE_CAP, edge count equals
    q*(q-1)/2, palette size equals (2n+1)**2, color indices match their
    vectors) and the trailer, against the `checksum_hex` of the graph
    parsed: a text that passes the other checks is the writer's text of
    that graph.  Edge lines are read in batches of about 4 KB, so the
    reader holds at most one batch of unchecked lines plus one line, and
    memory grows with the edge count, never with the text or the header's
    palette.  The bytes read before the end line are counted as
    `bytes_hashed`.  The first bad line is named by its number.  Witness
    validity is not checked here; `cliques.revalidate_edges` does that.
    """
    if isinstance(source, bytes):
        return _read_lines(io.BytesIO(source))
    with open(source, "rb") as fh:
        return _read_lines(fh)


def _read_lines(fh) -> ColoredGraph:
    def line(line_no: int) -> str:
        raw = fh.readline()
        count("bytes_hashed", len(raw))
        return _line_text(line_no, raw)

    def match(line_no: int, pattern: re.Pattern, what: str) -> re.Match:
        m = pattern.fullmatch(line(line_no))
        if m is None:
            _fail(line_no, f"malformed {what} line")
        return m

    if line(1) != f"decg {DECG_VERSION}":
        _fail(1, f"expected 'decg {DECG_VERSION}' header")
    m = match(2, _SYSTEM_RE, "system")
    try:
        k = int(m.group(1))
        system = ShiftSystem(alphabet_size=k, alpha=Fraction(int(m.group(2)), int(m.group(3))))
    except (ValueError, ZeroDivisionError) as exc:
        _fail(2, f"bad system parameters: {exc}")
    if m.string != _system_line(system):
        _fail(2, f"alpha {m.group(2)}/{m.group(3)} is not in lowest terms")
    n = _header_int(3, match(3, _N_RE, "n").group(1))
    m = match(4, _HEADER4_RE, "vertices/colors/sampled")
    q = _header_int(4, m.group(1))
    palette = _header_int(4, m.group(2))
    sampled = m.group(3)
    if not 1 <= q <= CLIQUE_CAP:
        _fail(4, f"vertex count {q} is not between 1 and the cap {CLIQUE_CAP}")
    if palette != (2 * n + 1) ** 2:
        _fail(4, f"colors {palette} does not equal (2n+1)^2 = {(2 * n + 1) ** 2}")
    try:
        colors = ColorSet(n)
    except ValueError as exc:
        _fail(4, str(exc))

    # q is untrusted until its vertex lines have been read: nothing is sized by it.
    vertices: list[PeriodicConfiguration] = []
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
        if vertices and p.width != vertices[0].width:
            _fail(line_no, f"vertex period {p.width} differs from {vertices[0].width}")
        vertices.append(p)
    edge_colors, edge_quality = _read_edges(fh, q, colors)

    end_no = 5 + q + q * (q - 1) // 2
    end_line = _line_text(end_no, fh.readline())
    if not _END_RE.fullmatch(end_line):
        _fail(end_no, "malformed end line")
    if fh.read(1):
        _fail(end_no + 1, "trailing content after end line")
    graph = ColoredGraph(system, n, tuple(vertices), edge_colors, edge_quality, sampled)
    actual = graph.checksum_hex()
    stored = end_line[4:]
    if actual != stored:
        raise ChecksumMismatch(f"stored checksum {stored}, recomputed {actual}")
    return graph
