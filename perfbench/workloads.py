"""The decg benchmark's workloads and the checks on their outputs.

Every timed command runs in its own child process (child.py), one at a
time, from the checkout root with PYTHONPATH=src.  A step's wall time
covers the child from spawn to exit, interpreter start included, because
a user of the batch tool pays that on every command.  Output checks run
after the child has exited, outside the timed region; a non-zero exit or
a failed check marks the step failed.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

CHILD = Path(__file__).resolve().with_name("child.py")
WORK = ".perfbench_work"

# Whole-file FNV-1a-64 checksums of the DECG files the seed program writes
# (the `outputs` entry of the color manifest).  Primary outputs are
# byte-deterministic, so any later revision must reproduce them.
PIN_N1_FULL = "43bc3d89ab4e5347"
PIN_N2_SEED7 = "e589f633a6284dd2"

# On a shared host the CPU's speed drifts by tens of percent over minutes,
# and every decg command slows down with it: ten runs of one workload spread
# wider than any useful regression bound.  The runner therefore times a
# fixed pure-Python probe shaped like decg's own work (format edge lines,
# FNV-hash, parse them back, build bitmasks) before and after every child,
# and gives each child the scale PROBE_NOMINAL_S / mean(probe before, probe
# after).  A time so scaled is seconds on a host where the probe takes
# PROBE_NOMINAL_S.  The program cannot change the probe.
PROBE_NOMINAL_S = 0.1

# `opposite --p 3 --q 9` enumerates far fewer than 3**36 colorings, but the
# nominal p**edges cap (default 2**26) refuses it with exit 3.
ORACLE_CAP = 10**18


@dataclass
class Step:
    """One timed child process and the verdict on its output."""

    name: str
    argv: list[str]
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    scale: float = 1.0
    error: str | None = None
    trace: dict | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


class Runner:
    """Spawns child commands from the checkout root and reads back their outputs."""

    def __init__(self, root: Path, work: Path | None = None):
        self.root = root
        self.work = root / WORK if work is None else work
        self.work.mkdir(exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.probes: list[float] = []

    def path(self, name: str) -> str:
        """A work file's path relative to the root, as passed to children."""
        return os.path.relpath(self.work / name, self.root)

    def spawn(self, argv: list[str]) -> tuple[float, int, str, float]:
        """Run argv to completion: (wall s, exit code, stderr tail, speed scale)."""
        if not self.probes:
            self.probes.append(probe_s())
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            code = proc.wait()
            wall = time.perf_counter() - start
        self.probes.append(probe_s())
        scale = PROBE_NOMINAL_S / statistics.mean(self.probes[-2:])
        tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
        return wall, code, "".join(tail), scale

    def run(self, name: str, args: list[str], trace: bool = False) -> Step:
        report_path = self.work / f"{name}.child.json"
        report_path.unlink(missing_ok=True)
        argv = [sys.executable, os.path.relpath(CHILD, self.root), self.path(report_path.name)]
        argv += ["--trace", *args] if trace else args
        wall, code, stderr, scale = self.spawn(argv)
        step = Step(name, argv, wall, 0.0, code, scale)
        if code != 0:
            step.error = f"exit {code}: {stderr}"
        try:
            report = json.loads(report_path.read_text())
        except (OSError, ValueError) as exc:
            step.error = step.error or f"no child report: {exc}"
            return step
        step.peak_rss_mb = report["peak_rss_kb"] / 1024
        if trace:
            step.trace = report
        return step

    def check(self, step: Step, verdict) -> Step:
        """Apply an output check to a step that exited cleanly."""
        if not step.failed:
            try:
                step.error = verdict()
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                step.error = f"unreadable output: {type(exc).__name__}: {exc}"
        return step

    def read_json(self, rel: str):
        return json.loads((self.root / rel).read_text(encoding="utf-8"))


def probe_s() -> float:
    """Time of a fixed piece of pure-Python work, a gauge of the host's speed."""
    start = time.perf_counter()
    text = "".join(f"e {i} {j} {(i ^ j) % 25} {i % 5 - 2} {j % 5 - 2} 0\n"
                   for i in range(100) for j in range(i + 1, 500))
    data = text.encode()
    h = 0xCBF29CE484222325
    for b in data[:150_000]:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    colors = [int(line.split(" ")[3]) for line in data.decode().split("\n")[:-1]]
    masks = [0] * 25
    for k, c in enumerate(colors):
        masks[c] |= 1 << (k % 1000)
    if sum(m.bit_count() for m in masks) + (h & 1) < 0:
        raise AssertionError("unreachable; keeps the work observable")
    return time.perf_counter() - start


class Pipeline:
    """`decg color` then `decg cliques` on the file it wrote."""

    def __init__(self, runner: Runner, seed: int, *, name: str, n: int,
                 max_vertices: int | None, statement: str, pins: dict):
        self.runner = runner
        self.decg = runner.path(f"{name}.decg")
        self.report = runner.path(f"{name}.report.json")
        self.color_args = ["cli", "color", "--k", "2", "--n", str(n)]
        if max_vertices is not None:
            self.color_args += ["--max-vertices", str(max_vertices), "--seed", str(seed)]
        self.color_args += ["--out", self.decg]
        self.statement = statement
        # None pins a checksum that holds for every seed.
        self.expected = pins.get(seed, pins.get(None))

    def iteration(self, trace: bool) -> list[Step]:
        color = self.runner.check(self.runner.run("color", self.color_args, trace), self.check_color)
        if color.failed:
            return [color]
        cliques = self.runner.run("cliques", ["cli", "cliques", self.decg, "--out", self.report], trace)
        return [color, self.runner.check(cliques, self.check_cliques)]

    def check_color(self) -> str | None:
        checksum = self.runner.read_json(self.decg + ".manifest.json")["outputs"][self.decg]
        if self.expected is None:
            self.expected = checksum  # unpinned seed: later iterations must repeat it
        if checksum != self.expected:
            return f"DECG checksum {checksum}, expected {self.expected}"
        with open(self.runner.root / self.decg, "rb") as fh:
            fh.seek(-21, os.SEEK_END)
            tail = fh.read()
        if re.fullmatch(rb"end [0-9a-f]{16}\n", tail) is None:
            return f"DECG file ends in {tail!r}, not an end line"
        self.body_checksum = tail[4:20].decode()
        return None

    def check_cliques(self) -> str | None:
        payload = self.runner.read_json(self.report)
        report, cert = payload["clique_report"], payload["bound_certificate"]
        inputs = self.runner.read_json(self.report + ".manifest.json")["inputs"]
        problems = [
            f"overall_max {report['overall_max']}, expected 2" if report["overall_max"] != 2 else None,
            None if report["certificate"]["separation_passed"] is True else "separation check failed",
            None if cert["verified"] is True else "certificate not verified",
            f"statement {cert['statement']!r}" if cert["statement"] != self.statement else None,
            None if cert["graph_checksum"] == self.body_checksum else "certificate names another graph",
            None if inputs.get(self.decg) == self.expected else "manifest input checksum differs from color output",
        ]
        return "; ".join(p for p in problems if p) or None


class Oracle:
    """`decg opposite`: the exact opposite-Ramsey number and an extremal coloring."""

    def __init__(self, runner: Runner, seed: int, *, name: str, p: int, q: int, r: int):
        self.runner = runner
        self.p, self.q, self.r = p, q, r
        self.out = runner.path(f"{name}.json")
        self.args = ["cli", "opposite", "--p", str(p), "--q", str(q),
                     "--cap", str(ORACLE_CAP), "--out", self.out]

    def iteration(self, trace: bool) -> list[Step]:
        return [self.runner.check(self.runner.run("opposite", self.args, trace), self.check)]

    def check(self) -> str | None:
        from decg.ramsey import OppositeRamseyResult, verify_extremal

        data = self.runner.read_json(self.out)
        coloring = tuple(data["extremal_coloring"])
        if (data["p"], data["q"], data["r"]) != (self.p, self.q, self.r):
            return f"got r({data['p']}, {data['q']}) = {data['r']}, expected {self.r}"
        if largest_mono_clique(self.q, coloring, self.p) != self.r:
            return "extremal coloring does not attain r (brute force)"
        if not verify_extremal(OppositeRamseyResult(self.p, self.q, self.r, coloring)):
            return "verify_extremal rejects the extremal coloring"
        return None


def largest_mono_clique(q: int, coloring, p: int) -> int:
    """Brute-force oracle over vertex subsets, independent of decg's clique code."""
    color = dict(zip(itertools.combinations(range(q), 2), coloring))
    if len(color) != q * (q - 1) // 2 or not all(0 <= c < p for c in coloring):
        return -1
    best = 1
    for size in range(2, q + 1):
        if not any(
            len({color[e] for e in itertools.combinations(sub, 2)}) == 1
            for sub in itertools.combinations(range(q), size)
        ):
            break
        best = size
    return best


class Recovery:
    """Library calls: the recovery contract on every pair of a w=5 sample.

    Each scale n = 1..5 runs as its own 2-3 s child, so that the speed
    probe read around it describes the host while it ran."""

    SCALES = range(1, 6)

    def __init__(self, runner: Runner, seed: int, *, name: str, count: int):
        self.runner = runner
        self.seed = seed
        self.count = count
        self.out = runner.path(f"{name}.json")
        self.checked: dict[int, int] = {}

    def iteration(self, trace: bool) -> list[Step]:
        steps = []
        for n in self.SCALES:
            args = ["recovery", str(self.seed), str(self.count), str(n), self.out]
            step = self.runner.run(f"verify_n{n}", args, trace)
            steps.append(self.runner.check(step, functools.partial(self.check, n)))
        return steps

    def check(self, n: int) -> str | None:
        r = self.runner.read_json(self.out)
        pairs = self.count * (self.count - 1) // 2
        if (r["count"], r["n"]) != (self.count, n):
            return f"recovery output covers {r['count']} patterns at n={r['n']}"
        if not r["ok"] or r["failures"]:
            return f"n={n}: {r['failures']} recovery failures"
        if r["pairs_checked"] + r["skipped"] != pairs:
            return f"n={n}: checked + skipped = {r['pairs_checked'] + r['skipped']}, expected {pairs}"
        first = self.checked.setdefault(n, r["pairs_checked"])
        if r["pairs_checked"] != first:
            return f"n={n}: pairs checked {r['pairs_checked']} differ from the first repetition's {first}"
        return None


WORKLOADS = {
    "pipeline-n2": functools.partial(
        Pipeline, name="pipeline-n2", n=2, max_vertices=1000,
        statement="R_25(3) > 1000", pins={7: PIN_N2_SEED7},
    ),
    "pipeline-n1-full": functools.partial(
        Pipeline, name="pipeline-n1-full", n=1, max_vertices=None,
        statement="R_9(3) > 512", pins={None: PIN_N1_FULL},
    ),
    "oracle-p3-q9": functools.partial(Oracle, name="oracle-p3-q9", p=3, q=9, r=2),
    "recovery-w5": functools.partial(Recovery, name="recovery-w5", count=500),
}
