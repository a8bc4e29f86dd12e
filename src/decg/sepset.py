"""Separated sets, exact separated counts, and growth diagnostics.

A maximal alpha**-n-separated set of the full shift is realized exactly by
the k**((2n+1)**2) periodic points of period 2n+1: the radius-n window is a
fundamental domain, so distinct patterns always differ inside it, and no
larger set fits.  Growth checks compare those counts against exponential
and polynomial yardsticks entirely in the log domain, with exact big
integer arithmetic wherever counts are available exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .action import ORIGIN, ShiftDistance, ShiftSystem, window_mask
from .errors import RangeTooSmall
from .intlog import ceil_exp, floor_ln

Count = int | tuple[int, int]  # exact integer, or (base, exponent)


@dataclass(frozen=True)
class SeparatedSet:
    """Points certified pairwise at distance >= epsilon.

    `maximal_wrt` records what the set is maximal against: "exhaustive"
    when the input stream enumerated an entire universe, "stream"
    otherwise.  Maximality never extends past what was actually seen.
    """

    points: tuple
    epsilon: ShiftDistance
    maximal_wrt: str = "stream"

    def __post_init__(self):
        if self.maximal_wrt not in ("exhaustive", "stream"):
            raise ValueError("maximal_wrt must be 'exhaustive' or 'stream'")

    def __len__(self):
        return len(self.points)


def _positive_exponent(epsilon: ShiftDistance) -> int:
    """The exponent of a positive separation scale; zero is refused."""
    e = epsilon.exponent
    if e is None:
        raise ValueError("epsilon must be positive")
    return e


def greedy_separated(
    system: ShiftSystem, points: Iterable, epsilon: ShiftDistance, universe: str = "stream"
) -> SeparatedSet:
    """First-fit greedy: keep a point iff it is >= epsilon from every kept one.

    The result is maximal with respect to the stream: every rejected point
    was within < epsilon of some kept point.  Stream order decides which
    member of each cluster survives, so the output is deterministic for a
    deterministic stream.

    Two points are closer than alpha**-e iff they agree on the radius-e
    window, an equivalence, so a point is kept iff its bit-planes masked to
    that window are new: one set lookup per point, not one test per kept one.
    """
    e = _positive_exponent(epsilon)
    kept: list = []
    seen: set[tuple[int, ...]] = set()
    for p in points:
        if not kept:
            width, window = p.width, window_mask(p.width, ORIGIN, e)
        system.check_point(p, width)
        key = tuple(plane & window for plane in p.planes)
        if key not in seen:
            seen.add(key)
            kept.append(p)
    return SeparatedSet(tuple(kept), epsilon, universe)


def separation_check(system: ShiftSystem, points: Sequence, epsilon: ShiftDistance):
    """Re-verify the pairwise bound.  Returns (True, None) or
    (False, (i, j)) with the first violating index pair in scan order.
    A point of another shift raises MismatchedSystems."""
    e = _positive_exponent(epsilon)
    for p in points:
        system.check_point(p, points[0].width)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if not system.distance_at_least(points[i], points[j], e):
                return False, (i, j)
    return True, None


def s_count_shift_exact(alphabet_size: int, n: int) -> int:
    """Exact maximal alpha**-n-separated count of the k-symbol full shift.

    Equals k**((2n+1)**2): period-(2n+1) patterns pairwise differ inside
    the radius-n window, and any larger set contains two points agreeing
    on that window, hence closer than alpha**-n.
    """
    if alphabet_size < 2:
        raise ValueError("alphabet size must be >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    return alphabet_size ** ((2 * n + 1) ** 2)


@dataclass(frozen=True)
class GrowthSequence:
    """Counts q(n) = S(alpha**-n) along strictly increasing n.

    A count is an exact big integer or a (base, exponent) pair; the pair
    form keeps astronomically large counts in the log domain.
    """

    entries: tuple[tuple[int, Count], ...]

    def __post_init__(self):
        last = None
        for n, c in self.entries:
            if last is not None and n <= last:
                raise ValueError("n values must be strictly increasing")
            last = n
            if isinstance(c, tuple):
                base, exp = c
                if base < 2 or exp < 0:
                    raise ValueError(f"bad (base, exponent) count {c}")
            elif c < 1:
                raise ValueError(f"counts must be positive, got {c}")

    @classmethod
    def shift_closed_form(cls, alphabet_size: int, n_max: int) -> "GrowthSequence":
        return cls(
            tuple((n, (alphabet_size, (2 * n + 1) ** 2)) for n in range(1, n_max + 1))
        )

    def count_at(self, n: int) -> Count:
        for m, c in self.entries:
            if m == n:
                return c
        raise RangeTooSmall(f"growth sequence does not cover n = {n}")

    def __len__(self):
        return len(self.entries)


def _log_count(c: Count) -> float:
    if isinstance(c, tuple):
        return c[1] * math.log(c[0])
    return math.log(c)


def _log2_count(c: Count) -> float:
    if isinstance(c, tuple):
        return c[1] * math.log2(c[0])
    return math.log2(c)


def _as_int(c: Count) -> int:
    if isinstance(c, tuple):
        return c[0] ** c[1]
    return c


def dimension_sequence(counts: GrowthSequence, alpha: Fraction) -> list[float]:
    """Terms log S(alpha**-n) / log(alpha**n) of the lower box dimension.

    For the shift closed form this is (2n+1)**2 * log k / (n * log alpha).
    """
    if not counts.entries:
        raise ValueError("empty growth sequence")
    alpha = Fraction(alpha)
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    log_alpha = math.log(alpha.numerator) - math.log(alpha.denominator)
    return [_log_count(c) / (n * log_alpha) for n, c in counts.entries]


@dataclass(frozen=True)
class SuperpolyReport:
    """Verdict of a growth check, with the log-domain gaps inspected."""

    mode: str
    parameter: object
    n0: int
    established: bool
    samples: tuple[tuple[int, float], ...]
    detail: str


def superpoly_check(
    q: GrowthSequence,
    mode: str,
    parameter,
    n0: int = 1,
    grid_limit: int = 10**6,
) -> SuperpolyReport:
    """Check that q outgrows an exponential or polynomial yardstick.

    mode="exponential-ratio": parameter is a base A; verifies that
    log q(n) - n*log A is positive and strictly increasing for supplied
    n >= n0.  All verdict comparisons are exact big-integer comparisons
    (q(n) > A**n, and q(n)*A**m > q(m)*A**n for consecutive samples).

    mode="log-composition": parameter is a polynomial degree d; samples a
    geometric grid n_j = ceil(e**j) up to grid_limit and verifies that
    log q(floor(ln n) + 1) - d*log n strictly increases along the grid,
    again by exact cross-multiplied integer comparisons.
    """
    if len(q) < 3:
        raise RangeTooSmall(f"need at least 3 sample points, got {len(q)}")
    if mode == "exponential-ratio":
        return _check_exponential_ratio(q, parameter, n0)
    if mode == "log-composition":
        return _check_log_composition(q, parameter, n0, grid_limit)
    raise ValueError(f"unknown mode {mode!r}")


def _check_exponential_ratio(q: GrowthSequence, base_a, n0: int) -> SuperpolyReport:
    a = Fraction(base_a)
    if a <= 0:
        raise ValueError("comparison base must be positive")
    log_a = math.log(a.numerator) - math.log(a.denominator)
    samples = tuple((n, _log_count(c) - n * log_a) for n, c in q.entries)
    established = True
    detail = "gap positive and strictly increasing on the tested range"
    tested = [(n, c) for n, c in q.entries if n >= n0]
    prev: tuple[int, Count] | None = None
    for n, c in tested:
        # positivity: q(n) > a**n
        if not _as_int(c) * a.denominator**n > a.numerator**n:
            established = False
            detail = f"gap not positive at n = {n}"
            break
        if prev is not None:
            m, cm = prev
            lhs = _as_int(c) * a.numerator**m * a.denominator**n
            rhs = _as_int(cm) * a.numerator**n * a.denominator**m
            if not lhs > rhs:
                established = False
                detail = f"gap not increasing at n = {n}"
                break
        prev = (n, c)
    if established and len(tested) < 2:
        established = False
        detail = f"fewer than 2 samples at n >= {n0}"
    return SuperpolyReport("exponential-ratio", base_a, n0, established, samples, detail)


def _check_log_composition(
    q: GrowthSequence, degree: int, n0: int, grid_limit: int
) -> SuperpolyReport:
    if degree < 1:
        raise ValueError("polynomial degree must be >= 1")
    grid: list[int] = []
    j = 0
    while True:
        nj = ceil_exp(j)
        if nj > grid_limit:
            break
        if nj >= n0 and (not grid or nj > grid[-1]):
            grid.append(nj)
        j += 1
    if len(grid) < 3:
        raise RangeTooSmall(f"geometric grid up to {grid_limit} has {len(grid)} points")
    samples = []
    established = True
    detail = "composed value strictly increasing along the geometric grid"
    prev: tuple[int, Count] | None = None
    for n in grid:
        c = q.count_at(floor_ln(n) + 1)
        samples.append((n, _log_count(c) - degree * math.log(n)))
        if prev is not None:
            pn, pc = prev
            if not _as_int(c) * pn**degree > _as_int(pc) * n**degree:
                established = False
                detail = f"composed value not increasing at n = {n}"
                break
        prev = (n, c)
    return SuperpolyReport(
        "log-composition", degree, n0, established, tuple(samples), detail
    )


def growth_csv(counts: GrowthSequence, alpha: Fraction) -> str:
    """CSV serialization: header `n,count_log2,term`, one row per n."""
    terms = dimension_sequence(counts, alpha)
    lines = ["n,count_log2,term"]
    for (n, c), term in zip(counts.entries, terms):
        lines.append(f"{n},{_log2_count(c)!r},{term!r}")
    return "\n".join(lines) + "\n"
