"""Witness search and the separation-recovery contract.

The contract under test: whenever two points are at distance >= alpha**-n,
some group element v with |v| <= n pushes them at least 1/(4*alpha) apart.
On the full shift this holds exactly (the minimal differing site is the
witness and achieves distance alpha**0 = 1); `verify_recovery` checks it
over arbitrary pair streams, and `probe_question` searches for systems and
scales where the much stronger alpha**-(n*n) hypothesis fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

from .action import (
    ORIGIN,
    LatticeVector,
    PeriodicConfiguration,
    ShiftDistance,
    ShiftSystem,
    TorusSystem,
    ball_vectors,
    diff_mask,
    min_diff_vector,
    shift_min_diff,
    shifted_exponent,
    window_mask,
)
from .errors import CapExceeded, NoWitness


@dataclass(frozen=True)
class WitnessResult:
    """A separating vector and the distance it achieved."""

    vector: LatticeVector
    achieved: ShiftDistance | float


@dataclass
class RecoveryReport:
    """Outcome of checking the recovery contract over a pair stream."""

    pairs_checked: int = 0
    skipped: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def find_witness(system, x, y, n: int) -> WitnessResult:
    """Search |v| <= n for a vector separating x and y to 1/(4*alpha).

    On the shift, any pair with distance exponent m <= n is separated by
    the minimal differing site itself, to the maximum possible distance
    (exponent 0); that vector is returned.  Raises NoWitness when no
    vector in the ball reaches the threshold, which can only happen when
    the distance precondition d(x, y) >= alpha**-n fails (and is always
    possible on the torus).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if isinstance(system, ShiftSystem):
        return _find_witness_shift(system, x, y, n)
    if isinstance(system, TorusSystem):
        return _find_witness_torus(system, x, y, n)
    raise TypeError(f"unsupported system {type(system).__name__}")


def _find_witness_shift(system: ShiftSystem, x, y, n: int) -> WitnessResult:
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


def _find_witness_torus(system: TorusSystem, x, y, n: int) -> WitnessResult:
    best_v: LatticeVector | None = None
    best = -1.0
    for v in ball_vectors(n):
        d = system.distance(system.apply(v, x), system.apply(v, y))
        if d > best:
            best_v, best = v, d
    assert best_v is not None
    if best >= system.threshold:
        return WitnessResult(best_v, best)
    raise NoWitness(
        f"no |v| <= {n} reaches the torus threshold {system.threshold}",
        pair=(x, y),
        achieved=best,
    )


def verify_recovery(system, pairs: Iterable, n: int) -> RecoveryReport:
    """Check the recovery contract for every pair at scale alpha**-n.

    Pairs with distance below alpha**-n do not satisfy the hypothesis;
    they are skipped and counted.  Failures are recorded as
    (x, y, best achieved distance), never raised.
    """
    if isinstance(system, ShiftSystem):
        return _verify_recovery_shift(system, pairs, n)
    report = RecoveryReport()
    eps = system.epsilon(n)
    thr = system.threshold
    for x, y in pairs:
        if system.distance(x, y) < eps:
            report.skipped += 1
            continue
        report.pairs_checked += 1
        best = 0.0
        for v in ball_vectors(n):
            d = system.distance(system.apply(v, x), system.apply(v, y))
            if d > best:
                best = d
            if best >= thr:
                break
        if best < thr:
            report.failures.append((x, y, best))
    return report


def _verify_recovery_shift(system: ShiftSystem, pairs, n: int) -> RecoveryReport:
    report = RecoveryReport()
    t = system.threshold_exponent
    width = None
    for x, y in pairs:
        diff = diff_mask(x, y)
        if x.width != width:
            width = x.width
            hypothesis = window_mask(width, ORIGIN, n)
            # v acts through its residue mod w; ball(w // 2) holds every residue
            ball = ball_vectors(min(n, width // 2))
            recovered = [window_mask(width, v, t) for v in ball]
        if not diff & hypothesis:
            report.skipped += 1
            continue
        report.pairs_checked += 1
        for mask in recovered:
            if diff & mask:
                break
        else:
            best = min(shifted_exponent(diff, width, v) for v in ball)
            report.failures.append((x, y, ShiftDistance(best)))
    return report


@dataclass(frozen=True)
class Counterexample:
    """A pair defeating the strengthened alpha**-(n*n) hypothesis, with the
    evidence that both defining inequalities were independently rechecked."""

    x: object
    y: object
    n: int
    distance: ShiftDistance | float
    required_at_least: ShiftDistance | float
    best_shifted: ShiftDistance | float
    threshold: ShiftDistance | float


def probe_question(system, n: int, budget: int = 10**6, seed: int = 0):
    """Search for a pair with d(x, y) >= alpha**-(n*n) that no |v| <= n
    separates to 1/(4*alpha).

    On the shift the search is a deterministic construction: patterns
    differing exactly on the coset of a single site of norm s, for s in
    [n + t + 1, n*n] (t the threshold exponent).  Smaller s is recovered
    by the standard contract, larger s violates the distance hypothesis,
    so the range is exhaustive: `None` means no counterexample exists at
    this n.  Every returned counterexample is re-verified by a full
    independent scan before being returned.

    On the torus the search is seeded random pairs refined by bisection;
    the budget counts metric evaluations and exhausting it raises
    CapExceeded (absence is never certified on the torus).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(system, ShiftSystem):
        return _probe_question_shift(system, n)
    if isinstance(system, TorusSystem):
        return _probe_question_torus(system, n, budget, seed)
    raise TypeError(f"unsupported system {type(system).__name__}")


def _probe_question_shift(system: ShiftSystem, n: int):
    t = system.threshold_exponent
    k = system.alphabet_size
    for s in range(n + t + 1, n * n + 1):
        width = 2 * s + 1
        x = PeriodicConfiguration.constant(k, width)
        y = x.with_cell(s, 0, 1)
        # Independent verification via translate-and-scan, not the norm
        # arithmetic that motivated the construction.
        d = shift_min_diff(x, y)
        if not d >= ShiftDistance(n * n):
            continue
        best: ShiftDistance | None = None
        ok = True
        for v in ball_vectors(n):
            dv = shift_min_diff(system.apply(v, x), system.apply(v, y))
            if best is None or dv > best:
                best = dv
            if dv >= system.threshold:
                ok = False
                break
        if ok:
            assert best is not None
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


def _torus_midpoint(x, y):
    # Halve the displacement along the shortest arc, coordinate-wise.
    out = []
    for a, b in zip(x, y):
        d = (b - a) % 1.0
        if d > 0.5:
            d -= 1.0
        out.append((a + d / 2.0) % 1.0)
    return tuple(out)


def _probe_question_torus(system: TorusSystem, n: int, budget: int, seed: int):
    rng = random.Random(seed)
    required = float(system.alpha) ** (-n * n)
    thr = system.threshold
    evals = 0
    ball = ball_vectors(n)
    while True:
        x = (rng.random(), rng.random())
        y = (rng.random(), rng.random())
        for _ in range(64):
            best = 0.0
            for v in ball:
                d = system.distance(system.apply(v, x), system.apply(v, y))
                evals += 1
                if d > best:
                    best = d
                if best >= thr:
                    break
            if evals > budget:
                raise CapExceeded(
                    f"probe budget {budget} exhausted without a torus counterexample"
                )
            if best < thr:
                d0 = system.distance(x, y)
                evals += 1
                if d0 >= required:
                    return Counterexample(
                        x=x,
                        y=y,
                        n=n,
                        distance=d0,
                        required_at_least=required,
                        best_shifted=best,
                        threshold=thr,
                    )
                break
            y = _torus_midpoint(x, y)
