"""The Z^2-action of the two-dimensional full shift, with exact arithmetic.

The shift acts on doubly periodic configurations: a point is a w x w
fundamental domain of symbols tiled over Z^2, so every metric quantity is
a finite, exact computation.  Shift distances are powers alpha**-m and are
stored as integer exponents (log domain), never floats, so all comparisons
downstream are exact.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

from .errors import CapExceeded, MismatchedSystems

DEFAULT_ENUMERATION_CAP = 1 << 25

_MASK64 = (1 << 64) - 1
_BASE36 = "0123456789abcdefghijklmnopqrstuvwxyz"
_BASE36_INDEX = {ch: i for i, ch in enumerate(_BASE36)}
_PATTERN_RE = re.compile(r"^k([0-9]+):w([0-9]+):([0-9a-z]+)$")


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

def ring_vectors(radius: int) -> Iterator[LatticeVector]:
    """Vectors of sup norm exactly `radius`, in (x, y) lexicographic order."""
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


@functools.lru_cache(maxsize=16)
def ball_vectors(radius: int) -> tuple[LatticeVector, ...]:
    """All vectors of sup norm <= radius, ring by ring, lexicographic in
    each ring.  This is the scan order used everywhere a deterministic
    choice among vectors is needed."""
    out: list[LatticeVector] = []
    for r in range(radius + 1):
        out.extend(ring_vectors(r))
    return tuple(out)


@functools.total_ordering
class ShiftDistance:
    """A value alpha**-exponent of the shift ultrametric, held exactly.

    `exponent is None` encodes distance zero (identical points).  Ordering
    is by exponent alone, reversed: a smaller exponent is a larger
    distance, and zero is below every positive value.  Instances from
    systems with different alpha must not be compared.
    """

    __slots__ = ("exponent",)

    def __init__(self, exponent: int | None):
        if exponent is not None and exponent < 0:
            raise ValueError("distance exponent must be >= 0")
        self.exponent = exponent

    @classmethod
    def zero(cls) -> "ShiftDistance":
        return cls(None)

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    def __eq__(self, other):
        if not isinstance(other, ShiftDistance):
            return NotImplemented
        return self.exponent == other.exponent

    def __lt__(self, other):
        if not isinstance(other, ShiftDistance):
            return NotImplemented
        # zero is the least distance; otherwise a larger exponent is smaller
        if other.exponent is None:
            return False
        return self.exponent is None or self.exponent > other.exponent

    def __hash__(self):
        return hash(("ShiftDistance", self.exponent))

    def __repr__(self):
        if self.exponent is None:
            return "ShiftDistance(zero)"
        return f"ShiftDistance(alpha**-{self.exponent})"


@functools.lru_cache(maxsize=16)
def scan_order(width: int) -> tuple[tuple[LatticeVector, ...], tuple[int, ...]]:
    """(vectors, bit): the w*w cells of period `width` numbered by scan rank,
    the order in which ball_vectors(width // 2) first reaches them (vectors
    act modulo w).  `vectors[r]` first reaches the cell of rank r, and
    row-major cell i has rank `bit[i]`, a bijection onto range(w*w).  A
    smaller ball visits a prefix of this order, so the lowest set bit of a
    diff mask is the pair's first differing site at every radius."""
    reached: dict[int, LatticeVector] = {}
    for v in ball_vectors(width // 2):
        reached.setdefault((v.x % width) * width + v.y % width, v)
    bit = [0] * (width * width)
    for rank, cell in enumerate(reached):
        bit[cell] = rank
    return tuple(reached.values()), tuple(bit)


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


@dataclass(frozen=True)
class ShiftSystem:
    """The full shift over k symbols with base-alpha log-domain metric."""

    alphabet_size: int = 2
    alpha: Fraction = Fraction(2)

    def __post_init__(self):
        if not 2 <= self.alphabet_size <= 36:
            raise ValueError("alphabet size must be in 2..36")
        alpha = self.alpha if isinstance(self.alpha, Fraction) else Fraction(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if alpha <= 1:
            raise ValueError("alpha must exceed 1")

    @property
    def threshold_exponent(self) -> int:
        """Least t with alpha**t >= 4*alpha, so alpha**-t <= 1/(4*alpha).

        "Distance at least 1/(4*alpha)" is taken to mean "exponent at most
        t"; for the default alpha = 2 the two agree exactly (t = 3,
        2**-3 = 1/8)."""
        t = 0
        p = Fraction(1)
        bound = 4 * self.alpha
        while p < bound:
            p *= self.alpha
            t += 1
        return t

    @property
    def threshold(self) -> ShiftDistance:
        return ShiftDistance(self.threshold_exponent)

    def epsilon(self, n: int) -> ShiftDistance:
        """The separation scale alpha**-n."""
        return ShiftDistance(n)

    def check_point(self, x: PeriodicConfiguration) -> None:
        if x.alphabet_size != self.alphabet_size:
            raise MismatchedSystems(
                f"point over {x.alphabet_size} symbols in a "
                f"{self.alphabet_size}-symbol shift"
            )

    def apply(self, v: LatticeVector, x: PeriodicConfiguration) -> PeriodicConfiguration:
        """The action: apply(v, x) at u equals x at u + v."""
        self.check_point(x)
        return x.translated(v)

    def distance_at_least(
        self, x: PeriodicConfiguration, y: PeriodicConfiguration, exponent: int
    ) -> bool:
        """Exact test distance(x, y) >= alpha**-exponent: one AND of the
        pair's diff mask with the radius-`exponent` window."""
        return bool(diff_mask(x, y) & window_mask(x.width, ORIGIN, exponent))


def enumerate_periodic_points(
    alphabet_size: int, width: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[PeriodicConfiguration]:
    """All k**(w*w) periodic points in lexicographic cell order.

    The first pattern is all-zero and the last is all-(k-1).  Raises
    CapExceeded when the universe is larger than `cap`.
    """
    total = alphabet_size ** (width * width)
    if total > cap:
        raise CapExceeded(
            f"{alphabet_size}^{width * width} = {total} patterns exceeds cap {cap}"
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

