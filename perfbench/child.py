"""One timed command of the decg benchmark, run in its own process.

    python3 child.py REPORT.json [--trace] cli DECG-ARGS...
    python3 child.py REPORT.json [--trace] recovery SEED COUNT N OUT.json

`cli` does what the installed `decg` console script does.  `recovery` is
one step of the library workload: sample COUNT width-5 patterns from SEED
and check the recovery contract on every pair at scale N, writing the
report as JSON.
When the command ends the child writes REPORT.json: its own peak RSS and,
with --trace, the spans and counters of tracing decg from outside (see
tracer.py).  decg must be importable, e.g. with PYTHONPATH=src.
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction


def recovery(seed: int, count: int, n: int, out_path: str) -> int:
    import decg.action
    import decg.metric

    system = decg.action.ShiftSystem(alphabet_size=2, alpha=Fraction(2))
    points = decg.action.sample_periodic_points(2, 5, count, seed)
    report = decg.metric.verify_recovery(system, itertools.combinations(points, 2), n)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "seed": seed,
                "count": len(points),
                "n": n,
                "ok": report.ok,
                "pairs_checked": report.pairs_checked,
                "skipped": report.skipped,
                "failures": len(report.failures),
            },
            fh,
        )
    return 0


def peak_rss_kb() -> int:
    """This process's own RSS high-water mark.  The rusage a parent gets from
    wait4 cannot be used: Linux folds the RSS of the process that forked the
    child into the child's ru_maxrss."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    report_path, argv = argv[0], argv[1:]
    traced = argv[:1] == ["--trace"]
    if traced:
        argv = argv[1:]
    kind, rest = argv[0], argv[1:]
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if kind == "cli":
            import decg.cli

            return decg.cli.main(rest)
        if kind == "recovery":
            return recovery(int(rest[0]), int(rest[1]), int(rest[2]), rest[3])
        raise SystemExit(f"unknown command kind {kind!r}")
    finally:
        report = {"peak_rss_kb": peak_rss_kb()}
        if tracer is not None:
            report |= tracer.dump()
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
