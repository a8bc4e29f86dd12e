"""Witness search and the separation-recovery contract.

The contract under test: whenever two points are at distance >= alpha**-n,
some group element v with |v| <= n pushes them at least 1/(4*alpha) apart.
On the full shift this holds exactly (the minimal differing site is the
witness and achieves distance alpha**0 = 1); `verify_recovery` checks it
over arbitrary pair streams, and `probe_question` builds the pair that
defeats the much stronger alpha**-(n*n) hypothesis, when one exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .action import (
    MAX_PATTERN_CELLS,
    ORIGIN,
    LatticeVector,
    PeriodicConfiguration,
    ShiftDistance,
    ShiftSystem,
    ball_vectors,
    diff_mask,
    min_diff_vector,
    shift_min_diff,
    shifted_exponent,
    window_mask,
)
from .errors import InconsistentCertificate, NoWitness


@dataclass(frozen=True)
class WitnessResult:
    """A separating vector and the distance it achieved."""

    vector: LatticeVector
    achieved: ShiftDistance


@dataclass
class RecoveryReport:
    """Outcome of checking the recovery contract over a pair stream."""

    pairs_checked: int = 0
    skipped: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def find_witness(system: ShiftSystem, x, y, n: int) -> WitnessResult:
    """Search |v| <= n for a vector separating x and y to 1/(4*alpha).

    Any pair with distance exponent m <= n is separated by the minimal
    differing site itself, to the maximum possible distance (exponent 0);
    that vector is returned.  Raises NoWitness when no vector in the ball
    reaches the threshold, which can only happen when the distance
    precondition d(x, y) >= alpha**-n fails.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    system.check_point(x)
    v0, d = min_diff_vector(x, y)
    if v0 is None:
        raise NoWitness(
            "identical points can never be separated",
            pair=(x, y),
            achieved=ShiftDistance.zero(),
        )
    if d.exponent <= n:
        return WitnessResult(v0, ShiftDistance(0))
    # Precondition failed; exhaust the ball anyway in case some shift
    # still clears the threshold.
    diff = diff_mask(x, y)
    best_v, best_e = min(
        ((v, shifted_exponent(diff, x.width, v)) for v in ball_vectors(n)),
        key=lambda ve: ve[1],
    )
    if best_e <= system.threshold_exponent:
        return WitnessResult(best_v, ShiftDistance(best_e))
    raise NoWitness(
        f"no |v| <= {n} reaches distance exponent <= {system.threshold_exponent} "
        f"(best achieved exponent {best_e})",
        pair=(x, y),
        achieved=ShiftDistance(best_e),
    )


def verify_recovery(system: ShiftSystem, pairs: Iterable, n: int) -> RecoveryReport:
    """Check the recovery contract for every pair at scale alpha**-n.

    Pairs with distance below alpha**-n do not satisfy the hypothesis;
    they are skipped and counted.  Failures are recorded as
    (x, y, best achieved distance), never raised.  A point of another
    shift raises MismatchedSystems.
    """
    report = RecoveryReport()
    t = system.threshold_exponent
    width, k = None, system.alphabet_size
    for x, y in pairs:
        diff = diff_mask(x, y)
        if x.width != width or x.alphabet_size != k:
            system.check_point(x)
            width = x.width
            hypothesis = window_mask(width, ORIGIN, n)
            # v acts through its residue mod w; ball(w // 2) holds every residue
            ball = ball_vectors(min(n, width // 2))
            # some v's window meets the diff iff their union does
            recovered = 0
            for v in ball:
                recovered |= window_mask(width, v, t)
        if not diff & hypothesis:
            report.skipped += 1
            continue
        report.pairs_checked += 1
        if not diff & recovered:
            best = min(shifted_exponent(diff, width, v) for v in ball)
            report.failures.append((x, y, ShiftDistance(best)))
    return report


@dataclass(frozen=True)
class Counterexample:
    """A pair defeating the strengthened alpha**-(n*n) hypothesis, with the
    evidence that both defining inequalities were independently rechecked."""

    x: PeriodicConfiguration
    y: PeriodicConfiguration
    n: int
    distance: ShiftDistance
    required_at_least: ShiftDistance
    best_shifted: ShiftDistance
    threshold: ShiftDistance


def probe_question(system: ShiftSystem, n: int):
    """The pair with d(x, y) >= alpha**-(n*n) that no |v| <= n separates to
    1/(4*alpha), or None when no such pair exists.

    One construction answers it.  With t the threshold exponent and
    s = n + t + 1, x and y differ only on the coset of (s, 0) in period
    2s + 1, so d(x, y) = alpha**-s; every |v| <= n leaves that site at
    norm >= s - n = t + 1.  A pair whose nearest differing site has norm
    at most n + t is recovered by the standard contract, so `None` means
    n + t + 1 > n*n.  The pair is re-verified by translating and scanning
    it, not by the norm arithmetic above; a failed re-check raises
    InconsistentCertificate.  A pair above MAX_PATTERN_CELLS cells raises
    ValueError before either pattern is built; the cap keeps n <= 28, so
    the re-check scans at most 57**2 shifts of a 63x63 pair.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    s = n + system.threshold_exponent + 1
    if s > n * n:
        return None
    cells = (2 * s + 1) ** 2
    if cells > MAX_PATTERN_CELLS:
        raise ValueError(
            f"the probe pair at n = {n} has {cells} cells per pattern, "
            f"above the cap of {MAX_PATTERN_CELLS}"
        )
    x = PeriodicConfiguration.constant(system.alphabet_size, 2 * s + 1)
    y = x.with_cell(s, 0, 1)
    d = shift_min_diff(x, y)
    best = max(shift_min_diff(system.apply(v, x), system.apply(v, y)) for v in ball_vectors(n))
    if not d >= ShiftDistance(n * n) or best >= system.threshold:
        raise InconsistentCertificate(
            f"the norm-{s} pair fails its re-check at n = {n}: distance {d}, "
            f"best shifted distance {best}"
        )
    return Counterexample(
        x=x,
        y=y,
        n=n,
        distance=d,
        required_at_least=ShiftDistance(n * n),
        best_shifted=best,
        threshold=system.threshold,
    )
