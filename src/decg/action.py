"""The Z^2-action of the two-dimensional full shift, with exact arithmetic.

The shift acts on doubly periodic configurations: a point is a w x w
fundamental domain of symbols tiled over Z^2, so every metric quantity is
a finite, exact computation.  Shift distances are powers alpha**-m and are
stored as integer exponents (log domain), never floats, so all comparisons
downstream are exact.  `ColorSet` is the window of shifts of norm <= n
that colors a graph's edges, indexed by arithmetic.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import re
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import Iterator, NamedTuple

from .errors import CapExceeded, MismatchedSystems, UnknownColor

ENUMERATION_CAP = 1 << 25

# The most cells (w*w) any pattern may hold: width 64, so --n up to 31 for
# `color`.  PeriodicConfiguration refuses a wider pattern before it checks
# a cell, and `decg color` and `decg probe` refuse a width before any
# pattern of it is allocated.
MAX_PATTERN_CELLS = 1 << 12

_MASK64 = (1 << 64) - 1
_BASE36 = "0123456789abcdefghijklmnopqrstuvwxyz"
_BASE36_INDEX = {ch: i for i, ch in enumerate(_BASE36)}
_PATTERN_RE = re.compile(r"^k(0|[1-9][0-9]*):w(0|[1-9][0-9]*):([0-9a-z]+)\Z")


class LatticeVector(NamedTuple):
    """An element of Z^2 under the sup norm; both a shift and a color."""

    x: int
    y: int

    @property
    def norm(self) -> int:
        return max(abs(self.x), abs(self.y))

    def __add__(self, other):  # type: ignore[override]
        return LatticeVector(self.x + other[0], self.y + other[1])

    def __sub__(self, other):
        return LatticeVector(self.x - other[0], self.y - other[1])

    def __neg__(self):
        return LatticeVector(-self.x, -self.y)


ORIGIN = LatticeVector(0, 0)


@dataclass(frozen=True)
class ColorSet:
    """The window {v : |v| <= n}, row-major from (-n, -n) to (n, n): color c
    is divmod(c, 2n+1) - (n, n), so no palette size costs any memory."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if (2 * self.n + 1) ** 2 > sys.maxsize:  # len() and the arrays cannot hold it
            raise ValueError(f"a palette of {(2 * self.n + 1) ** 2} colors exceeds {sys.maxsize}")

    def __len__(self) -> int:
        return (2 * self.n + 1) ** 2

    @property
    def typecode(self) -> str:
        """The smallest array typecode that holds every color index."""
        return next(t for t in "BHIQ" if (2 * self.n + 1) ** 2 <= 1 << 8 * array(t).itemsize)

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


def _scan(side: range) -> tuple[LatticeVector, ...]:
    """side x side ring by ring, (x, y) order within a ring: the scan order
    used everywhere a deterministic choice among vectors is needed."""
    vectors = itertools.starmap(LatticeVector, itertools.product(side, side))
    return tuple(sorted(vectors, key=attrgetter("norm")))  # stable


@functools.lru_cache(maxsize=16)
def ball_vectors(radius: int) -> tuple[LatticeVector, ...]:
    """All vectors of sup norm <= radius, in scan order."""
    return _scan(range(-radius, radius + 1))


def ring_vectors(radius: int) -> tuple[LatticeVector, ...]:
    """Vectors of sup norm exactly `radius`, in (x, y) lexicographic order:
    the ball's tail past the (2r - 1)**2 vectors of the smaller rings."""
    return ball_vectors(radius)[max(2 * radius - 1, 0) ** 2 :]


@functools.total_ordering
@dataclass(frozen=True, slots=True)
class ShiftDistance:
    """A value alpha**-exponent of the shift ultrametric, held exactly.

    `exponent is None` encodes distance zero (identical points).  Ordering
    is by exponent alone, reversed: a smaller exponent is a larger
    distance, and zero is below every positive value.  Instances from
    systems with different alpha must not be compared.
    """

    exponent: int | None

    def __post_init__(self):
        if self.exponent is not None and self.exponent < 0:
            raise ValueError("distance exponent must be >= 0")

    @classmethod
    def zero(cls) -> "ShiftDistance":
        return cls(None)

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    def __lt__(self, other):
        if not isinstance(other, ShiftDistance):
            return NotImplemented
        # zero is the least distance; otherwise a larger exponent is smaller
        if other.exponent is None:
            return False
        return self.exponent is None or self.exponent > other.exponent

    def __repr__(self):
        if self.exponent is None:
            return "ShiftDistance(zero)"
        return f"ShiftDistance(alpha**-{self.exponent})"


@functools.lru_cache(maxsize=16)
def scan_order(width: int) -> tuple[tuple[LatticeVector, ...], tuple[int, ...]]:
    """(vectors, bit): the w*w cells of period `width` numbered by the rank
    at which the scan first reaches them (vectors act modulo w), which it
    does at coordinates in range(-(w // 2), (w + 1) // 2).  `vectors[r]`
    first reaches the cell of rank r, and row-major cell i has rank
    `bit[i]`, a bijection onto range(w*w).  A smaller ball visits a prefix
    of this order, so the lowest set bit of a diff mask is the pair's
    first differing site at every radius."""
    vectors = _scan(range(-(width // 2), (width + 1) // 2))
    bit = [0] * (width * width)
    for rank, v in enumerate(vectors):
        bit[(v.x % width) * width + v.y % width] = rank
    return vectors, tuple(bit)


@dataclass(frozen=True)
class PeriodicConfiguration:
    """A doubly periodic point of the full shift.

    `cells` is the w x w fundamental domain in row-major order: the symbol
    at lattice site (x, y) is cells[(x mod w) * w + (y mod w)].
    """

    width: int
    alphabet_size: int
    cells: tuple[int, ...]

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be a positive integer")
        if not 2 <= self.alphabet_size <= 36:
            raise ValueError("alphabet size must be in 2..36 (base-36 text encoding)")
        w = self.width
        if w * w > MAX_PATTERN_CELLS:
            raise ValueError(f"{w}x{w} = {w * w} cells exceeds the cap of {MAX_PATTERN_CELLS}")
        if len(self.cells) != self.width * self.width:
            raise ValueError(
                f"expected {self.width * self.width} cells, got {len(self.cells)}"
            )
        for s in self.cells:
            if not 0 <= s < self.alphabet_size:
                raise ValueError(f"cell symbol {s} outside 0..{self.alphabet_size - 1}")

    @functools.cached_property
    def planes(self) -> tuple[int, ...]:
        """Packed form, built on first use: ceil(log2 k) bit-planes; bit
        scan_order(w)[1][i] of plane j is bit j of row-major cell i."""
        bit = scan_order(self.width)[1]
        return tuple(
            sum(1 << b for b, s in zip(bit, self.cells) if s >> j & 1)
            for j in range((self.alphabet_size - 1).bit_length())
        )

    def at(self, x: int, y: int) -> int:
        w = self.width
        return self.cells[(x % w) * w + (y % w)]

    def translated(self, v: LatticeVector) -> "PeriodicConfiguration":
        """The point u -> self(u + v)."""
        w = self.width
        cells = self.cells
        vx, vy = v[0] % w, v[1] % w
        new = tuple(
            cells[((a + vx) % w) * w + ((b + vy) % w)]
            for a in range(w)
            for b in range(w)
        )
        return PeriodicConfiguration(w, self.alphabet_size, new)

    def with_cell(self, x: int, y: int, symbol: int) -> "PeriodicConfiguration":
        w = self.width
        idx = (x % w) * w + (y % w)
        cells = list(self.cells)
        cells[idx] = symbol
        return PeriodicConfiguration(w, self.alphabet_size, tuple(cells))

    @classmethod
    def constant(cls, alphabet_size: int, width: int, symbol: int = 0):
        return cls(width, alphabet_size, (symbol,) * (width * width))


def encode_pattern(point: PeriodicConfiguration) -> str:
    """Text form `k<k>:w<w>:<w*w base-36 digits, row-major>`."""
    digits = "".join(_BASE36[s] for s in point.cells)
    return f"k{point.alphabet_size}:w{point.width}:{digits}"


def parse_pattern(text: str) -> PeriodicConfiguration:
    m = _PATTERN_RE.match(text)
    if m is None:
        raise ValueError(f"malformed pattern encoding: {text!r}")
    k, w, digits = int(m.group(1)), int(m.group(2)), m.group(3)
    if len(digits) != w * w:
        raise ValueError(f"pattern encoding has {len(digits)} digits, expected {w * w}")
    cells = tuple(_BASE36_INDEX[ch] for ch in digits)
    return PeriodicConfiguration(w, k, cells)


def diff_mask(x: PeriodicConfiguration, y: PeriodicConfiguration) -> int:
    """Cells where x and y differ, as scan-order bits: the OR of the XORs
    of their bit-planes."""
    if x.width != y.width or x.alphabet_size != y.alphabet_size:
        raise MismatchedSystems(
            f"points live in different shifts: (w={x.width}, k={x.alphabet_size}) "
            f"vs (w={y.width}, k={y.alphabet_size})"
        )
    xp, yp = x.planes, y.planes
    out = xp[0] ^ yp[0]
    for j in range(1, len(xp)):
        out |= xp[j] ^ yp[j]
    return out


@functools.lru_cache(maxsize=1 << 12)
def window_mask(width: int, v: LatticeVector, radius: int) -> int:
    """Cells whose coset, shifted by -v, has sup norm <= radius: a pair is at
    distance >= alpha**-radius after shifting by v iff its diff_mask meets it."""
    vx, vy = v
    rows = [a for a in range(width) if min((a - vx) % width, (vx - a) % width) <= radius]
    cols = [b for b in range(width) if min((b - vy) % width, (vy - b) % width) <= radius]
    bit = scan_order(width)[1]
    return sum(1 << bit[a * width + b] for a in rows for b in cols)


def shifted_exponent(diff: int, width: int, v: LatticeVector) -> int | None:
    """Distance exponent after shifting by v of a pair with this diff_mask
    (None for identical points), by growing the window around v."""
    r = 0
    while diff and not diff & window_mask(width, v, r):
        r += 1
    return r if diff else None


def min_diff_vector(
    x: PeriodicConfiguration, y: PeriodicConfiguration
) -> tuple[LatticeVector | None, ShiftDistance]:
    """First lattice site where x and y differ, in ball scan order.

    Returns (None, zero) for identical points, else (v0, alpha**-|v0|)
    where v0 is the differing site of least sup norm, ties broken by the
    module-wide scan order.
    """
    diff = diff_mask(x, y)
    if not diff:
        return None, ShiftDistance.zero()
    v = scan_order(x.width)[0][(diff & -diff).bit_length() - 1]
    return v, ShiftDistance(v.norm)


def shift_min_diff(x: PeriodicConfiguration, y: PeriodicConfiguration) -> ShiftDistance:
    """The shift ultrametric alpha**-m, m = min sup norm of a differing site."""
    return min_diff_vector(x, y)[1]


MAX_THRESHOLD_EXPONENT = 4096


def _threshold_exponent(alpha: Fraction) -> int:
    """Least t with alpha**t >= 4*alpha, so alpha**-t <= 1/(4*alpha).

    "Distance at least 1/(4*alpha)" is taken to mean "exponent at most
    t"; for the default alpha = 2 the two agree exactly (t = 3,
    2**-3 = 1/8).  With alpha = a/b and s = t - 1 the test is
    a**s >= 4 * b**s, decided in exact integers and monotone in s since
    a > b.  It is tried once at s = MAX_THRESHOLD_EXPONENT - 1, which
    refuses every alpha too close to 1 in one pair of powers; otherwise
    one bisection over [1, MAX_THRESHOLD_EXPONENT - 1] finds the least s
    that passes.  Raises ValueError when a or b exceeds 64 bits or t
    exceeds MAX_THRESHOLD_EXPONENT.
    """
    a, b = alpha.numerator, alpha.denominator
    if max(a, b).bit_length() > 64:
        raise ValueError("alpha's numerator and denominator must fit in 64 bits")
    top = MAX_THRESHOLD_EXPONENT - 1
    if a**top < 4 * b**top:
        raise ValueError(
            f"alpha is too close to 1: its threshold exponent exceeds {MAX_THRESHOLD_EXPONENT}"
        )
    s = 1 + bisect.bisect_left(range(1, top), True, key=lambda e: a**e >= 4 * b**e)
    return s + 1


@dataclass(frozen=True)
class ShiftSystem:
    """The full shift over k symbols with base-alpha log-domain metric.

    `threshold_exponent` (see `_threshold_exponent`) is computed once, here."""

    alphabet_size: int = 2
    alpha: Fraction = Fraction(2)
    threshold_exponent: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 2 <= self.alphabet_size <= 36:
            raise ValueError("alphabet size must be in 2..36")
        alpha = self.alpha if isinstance(self.alpha, Fraction) else Fraction(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if alpha <= 1:
            raise ValueError("alpha must exceed 1")
        object.__setattr__(self, "threshold_exponent", _threshold_exponent(alpha))

    @property
    def threshold(self) -> ShiftDistance:
        return ShiftDistance(self.threshold_exponent)

    def epsilon(self, n: int) -> ShiftDistance:
        """The separation scale alpha**-n."""
        return ShiftDistance(n)

    def check_point(self, x: PeriodicConfiguration, width: int | None = None) -> None:
        """The membership rule: x is a point of this shift, of period `width` if given."""
        if x.alphabet_size != self.alphabet_size:
            raise MismatchedSystems(
                f"point over {x.alphabet_size} symbols in a "
                f"{self.alphabet_size}-symbol shift"
            )
        if width is not None and x.width != width:
            raise MismatchedSystems(f"point of period {x.width} among points of period {width}")

    def apply(self, v: LatticeVector, x: PeriodicConfiguration) -> PeriodicConfiguration:
        """The action: apply(v, x) at u equals x at u + v."""
        self.check_point(x)
        return x.translated(v)

    def distance_at_least(
        self, x: PeriodicConfiguration, y: PeriodicConfiguration, exponent: int
    ) -> bool:
        """Exact test distance(x, y) >= alpha**-exponent: one AND of the
        pair's diff mask with the radius-`exponent` window."""
        self.check_point(x)
        return bool(diff_mask(x, y) & window_mask(x.width, ORIGIN, exponent))


def enumerate_periodic_points(alphabet_size: int, width: int) -> Iterator[PeriodicConfiguration]:
    """All k**(w*w) periodic points in lexicographic cell order.

    The first pattern is all-zero and the last is all-(k-1).  Raises
    CapExceeded when the universe is larger than ENUMERATION_CAP.
    """
    total = alphabet_size ** (width * width)
    if total > ENUMERATION_CAP:
        raise CapExceeded(
            f"{alphabet_size}^{width * width} = {total} patterns exceeds cap {ENUMERATION_CAP}"
        )
    for combo in itertools.product(range(alphabet_size), repeat=width * width):
        yield PeriodicConfiguration(width, alphabet_size, combo)


def mix64(seed: int, index: int) -> int:
    """Deterministic 64-bit mixer used for all seeded sampling.

    Bit-exact definition (all arithmetic mod 2**64):

        z = seed + (index + 1) * 0x9E3779B97F4A7C15
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        return z ^ (z >> 31)

    This is the SplitMix64 finalizer over seed plus a golden-ratio
    multiple of (index + 1).
    """
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def sample_periodic_points(
    alphabet_size: int, width: int, count: int, seed: int
) -> list[PeriodicConfiguration]:
    """`count` distinct periodic points, deterministic in (k, w, count, seed).

    Draw i uses the per-item seed mix64(seed, i); cell j of the draw is
    mix64(item_seed, j) mod k.  Duplicate draws are skipped, so the output
    order is the order of first appearance.
    """
    universe = alphabet_size ** (width * width)
    if count > universe:
        raise CapExceeded(
            f"requested {count} distinct patterns but only {universe} exist"
        )
    seed &= _MASK64
    cells_per = width * width
    # Generous stall guard; duplicate churn only matters when the request
    # covers most of a small universe.
    if universe <= (1 << 22):
        attempt_cap = 64 * universe + 256
    else:
        attempt_cap = 64 * count + 65536
    seen: set[tuple[int, ...]] = set()
    out: list[PeriodicConfiguration] = []
    index = 0
    while len(out) < count:
        if index >= attempt_cap:
            raise CapExceeded(
                f"sampling stalled after {index} draws for {count} patterns"
            )
        item = mix64(seed, index)
        cells = tuple(mix64(item, j) % alphabet_size for j in range(cells_per))
        index += 1
        if cells in seen:
            continue
        seen.add(cells)
        out.append(PeriodicConfiguration(width, alphabet_size, cells))
    return out

