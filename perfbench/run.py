"""decg benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload pipeline-n2 --seed 7 --seconds 30 --trace 0

Run from the root of a checkout; decg is imported from ./src.  The seed
fixes every generated input.  The workload is repeated, one command at a
time, while another repetition still fits in --seconds (at least once), and
timings are medians over the repetitions.

--trace 0 prints the end-to-end metrics: setup_s (interpreter start plus
`import decg.cli`, median of several spawns), wall_s (one repetition's
commands, summed), peak_rss_mb (the largest child peak RSS of a
repetition), and, by name, color_s, cliques_s and fail_ratio.  Times are
reported at reference speed (see workloads.probe_s), raw seconds beside
them.  --trace 1 alternates untraced and traced repetitions and
prints the per-layer metrics of the traced ones (see tracer.py) plus the
tracing overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Each run also leaves a record with its metadata,
every sample and the traces in .perfbench_work/.  Exits 2 without a
result when ./src/decg is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import PROBE_NOMINAL_S, WORKLOADS, Runner

SETUP_SAMPLES = 7

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
TRACE_EXTRA = (("trace.wall_s", "s"), ("trace.overhead_s", "s"))


def median(values):
    return statistics.median(values) if values else 0.0


def measure_setup(runner: Runner) -> list[tuple[float, float]]:
    """(raw seconds, speed scale) of each set-up spawn."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        wall, code, stderr, scale = runner.spawn([sys.executable, "-c", "import decg.cli"])
        if code != 0:
            raise RuntimeError(f"import decg.cli failed with exit {code}: {stderr}")
        samples.append((wall, scale))
    return samples


def repeat(workload, seconds: float, trace: bool):
    """(traced, steps) per repetition; stop before one would overrun `seconds`."""
    modes = (False, True) if trace else (False,)
    done = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        cycle = time.perf_counter()
        done += [(traced, workload.iteration(traced)) for traced in modes]
        now = time.perf_counter()
        longest = max(longest, now - cycle)
        if now - start + longest > seconds:
            return done


def step_metrics(steps, scaled: bool = False) -> dict:
    times = {s.name: s.wall_s * (s.scale if scaled else 1.0) for s in steps}
    return {
        "wall_s": sum(times.values()),
        "peak_rss_mb": max(s.peak_rss_mb for s in steps),
        **{f"{name}_s": t for name, t in times.items()},
    }


def layer_metrics(reps, errors: list[str]) -> dict[str, float]:
    traced = [steps for flag, steps in reps if flag]
    plain = [steps for flag, steps in reps if not flag]
    layers = [tracer.summarize(s.trace for s in steps if s.trace) for steps in traced]
    for later in layers[1:]:
        moved = [c for c in tracer.COUNTERS if later[c] != layers[0][c]]
        if moved:
            errors.append(f"counters differ between traced repetitions: {moved}")
    out = {name: median([m[name] for m in layers]) for name, _ in tracer.PER_LAYER}
    traced_wall = median([step_metrics(s)["wall_s"] for s in traced])
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - median([step_metrics(s)["wall_s"] for s in plain])
    return out


def git_revision(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unknown ({exc})"
    return done.stdout.strip() or "unknown"


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "decg").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(root: Path, name: str, args) -> dict:
    import decg

    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(root),
        "source_sha256": source_digest(root),
        "decg_version": decg.__version__,
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(setup_samples, reps, scaled: bool) -> dict[str, float]:
    """Medians over the untraced repetitions, at reference speed or raw."""
    plain = [step_metrics(steps, scaled) for flag, steps in reps if not flag]
    # Per-command times (color_s, cliques_s) are shown where a repetition has several.
    stages = sorted({k for m in plain for k in m} - {"wall_s", "peak_rss_mb"})
    stages = stages if len(stages) > 1 else []
    return {
        "setup_s": median([wall * (scale if scaled else 1.0) for wall, scale in setup_samples]),
        "wall_s": median([m["wall_s"] for m in plain]),
        "peak_rss_mb": median([m["peak_rss_mb"] for m in plain]),
        **{k: median([m[k] for m in plain if k in m]) for k in stages},
    }


def run_workload(root: Path, name: str, args) -> dict:
    runner = Runner(root)
    setup_samples = measure_setup(runner)
    workload = WORKLOADS[name](runner, args.seed)
    reps = repeat(workload, args.seconds, bool(args.trace))
    steps = [s for _, rep in reps for s in rep]
    errors = [f"{s.name}: {s.error}" for s in steps if s.failed]
    shown = end_to_end(setup_samples, reps, scaled=True)
    raw = end_to_end(setup_samples, reps, scaled=False)
    failed = sum(s.failed for s in steps)
    if args.trace:
        before = len(errors)
        metrics = layer_metrics(reps, errors)
        failed += len(errors) - before
        units = dict(tracer.PER_LAYER + TRACE_EXTRA)
    else:
        metrics = {k: shown[k] for k, _ in END_TO_END}
        units = dict(END_TO_END)
    attempted = len(steps)

    untraced = sum(not flag for flag, _ in reps)
    print(f"decg benchmark: workload {name}, seed {args.seed}, "
          f"{untraced} untraced repetition(s), trace {args.trace}")
    print(f"  {'metric':<24} {'ref speed':>12} {'raw':>12}")
    for key, value in shown.items():
        unit = "MB" if key == "peak_rss_mb" else "s"
        print(f"  {key:<24} {value:12.4f} {raw[key]:12.4f} {unit}")
    print(f"  {'fail_ratio':<24} {failed / attempted:12.4f} ({failed} of {attempted} operations)")
    print(f"  speed probe {median(runner.probes):.4f} s median of {len(runner.probes)}, "
          f"nominal {PROBE_NOMINAL_S} s")
    if args.trace:
        for key, value in metrics.items():
            print(f"  {key:<36} {value:16.6f} {units[key]}")
    for error in errors:
        print(f"  FAILED {error}")
    for step in {s.name: s for s in steps}.values():
        print(f"  argv {step.name}: {' '.join(step.argv)}")

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "meta": metadata(root, name, args),
        "result": result,
        "end_to_end": shown,
        "end_to_end_raw": raw,
        "probes_s": runner.probes,
        "setup_samples": [{"wall_s": wall, "scale": scale} for wall, scale in setup_samples],
        "repetitions": [
            {"traced": flag, "steps": [
                {"name": s.name, "argv": s.argv, "wall_s": s.wall_s, "scale": s.scale,
                 "peak_rss_mb": s.peak_rss_mb,
                 "exit_code": s.exit_code, "error": s.error, "trace": s.trace} for s in rep]}
            for flag, rep in reps
        ],
    }
    out = runner.work / f"record-{name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("  meta " + json.dumps(record["meta"]))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "decg" / "cli.py").is_file():
        print(f"error: no decg source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(root, name, args) for name in names}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
