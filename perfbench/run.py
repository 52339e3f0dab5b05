"""posscore benchmark: one workload, one seed, a fixed measuring window.

    python3 perfbench/run.py --workload eval_short --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from any directory; the program is taken from ``src/posscore`` next to
this directory, and every file the benchmark writes goes under
``.perfbench-work/`` there.

Each repetition runs one CLI command in a fresh child process, one at a
time (a closed loop with one client), until the window is used up. Every
repetition's output file must equal the expected bytes computed through
the library (``expected.py``); a non-zero exit or any difference counts
as a failed repetition. ``--trace 0`` reports the end-to-end metrics as
medians over the repetitions; ``--trace 1`` spends half the window
untraced and half traced and reports the per-layer metrics. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(HERE))

from layers import layer_metrics  # noqa: E402
from workloads import SHAPES, Inputs, generate  # noqa: E402

#: A command that has not finished after this long is killed and fails.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (as opposed to a failed run)."""


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@dataclass
class Rep:
    """One child process: its timings, exit code and output check."""

    wall_s: float
    traced: bool
    ok: bool
    setup_s: float | None = None
    peak_rss_mb: float | None = None
    layers: dict[str, float] | None = None
    detail: str = ""


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def run_rep(inputs: Inputs, expected: bytes, workdir: Path, trace: bool) -> Rep:
    """Run the workload's command once in a child and check its output.

    A traced repetition's spans are reduced to per-layer metrics here,
    outside the child's measured lifetime."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "out.csv"
    report_path = workdir / "report.json"
    spans_path = workdir / "spans.npz"
    for p in (out, report_path, spans_path):
        p.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--report", str(report_path)]
    if trace:
        cmd += ["--trace", str(inputs.vocab), str(spans_path)]
    cmd += ["--", *inputs.cli_args(out)]
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "POSSCORE_DATA_DIR")}
    env["PYTHONPATH"] = str(SRC)
    with open(workdir / "stderr.txt", "wb") as err:
        previous = signal.signal(signal.SIGALRM, _alarm)
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, cwd=workdir)
        try:
            signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
            _, status, _ = os.wait4(proc.pid, 0)
            signal.setitimer(signal.ITIMER_REAL, 0)
        except BaseException as exc:
            # a hung child, or the benchmark itself interrupted: never leave it running
            signal.setitimer(signal.ITIMER_REAL, 0)
            proc.kill()
            _, status, _ = os.wait4(proc.pid, 0)
            if not isinstance(exc, _Timeout):
                raise
        finally:
            signal.signal(signal.SIGALRM, previous)
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    rep = Rep(wall_s=wall, traced=trace, ok=False)
    if proc.returncode != 0:
        rep.detail = f"exit {proc.returncode}: " + (workdir / "stderr.txt").read_text(errors="replace")[-500:]
        return rep
    report = json.loads(report_path.read_text())
    if not out.exists() or out.read_bytes() != expected:
        rep.detail = "output differs from the expected file"
        return rep
    rep.ok = True
    if not trace:
        if report["first_score"] is None:
            raise BenchError("no scoring function was called; the set-up hook never fired")
        rep.setup_s = report["first_score"] - t0
        rep.peak_rss_mb = report["peak_rss_mb"]
    else:
        import numpy as np

        with np.load(spans_path) as spans:
            rep.layers = layer_metrics(inputs.shape.name, dict(spans), report["observations"], inputs.info)
    return rep


def repeat(inputs: Inputs, expected: bytes, workdir: Path, trace: bool, seconds: float) -> list[Rep]:
    """Repeat until the next repetition would end after the window."""
    reps: list[Rep] = []
    start = time.monotonic()
    while True:
        reps.append(run_rep(inputs, expected, workdir, trace))
        typical = statistics.median(r.wall_s for r in reps)
        if time.monotonic() - start + typical > seconds:
            return reps


def end_to_end(inputs: Inputs, reps: list[Rep]) -> dict[str, float]:
    good = [r for r in reps if r.ok]
    if not good:
        raise BenchError("every repetition failed: " + reps[0].detail)
    shape = inputs.shape
    scores = shape.sets * 2 * len(shape.metrics.split(","))
    return {
        "wall_s": statistics.median(r.wall_s for r in good),
        "setup_s": statistics.median(r.setup_s for r in good),
        "scores_per_s": statistics.median(scores / (r.wall_s - r.setup_s) for r in good),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in good),
    }


def traced(inputs: Inputs, plain: list[Rep], reps: list[Rep]) -> dict[str, float]:
    good = [r for r in reps if r.ok]
    if not good:
        raise BenchError("every traced repetition failed: " + reps[0].detail)
    metrics = {name: statistics.median(r.layers[name] for r in good) for name in good[0].layers}
    untraced = end_to_end(inputs, plain)["wall_s"]
    metrics["trace.overhead_s"] = statistics.median(r.wall_s for r in good) - untraced
    return metrics


def prepare(workload: str, seed: int):
    """Generate (or reuse) the inputs and compute the expected output."""
    if not (SRC / "posscore" / "__init__.py").is_file():
        raise BenchError(f"program source not found: {SRC / 'posscore'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import posscore

    if Path(posscore.__file__).resolve().parent != (SRC / "posscore").resolve():
        raise BenchError(f"imported posscore from {posscore.__file__}, not from {SRC}")
    compileall.compile_dir(str(SRC / "posscore"), quiet=1)
    from expected import expected_output

    inputs = generate(SHAPES[workload], seed, WORK / "cache")
    return inputs, expected_output(inputs)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs, expected = prepare(workload, seed)
    workdir = WORK / "run" / workload
    if not trace:
        reps = repeat(inputs, expected, workdir, False, seconds)
        metrics, want = end_to_end(inputs, reps), units("end_to_end")
    else:
        plain = repeat(inputs, expected, workdir, False, seconds / 2)
        tr = repeat(inputs, expected, workdir, True, seconds / 2)
        reps = plain + tr
        metrics, want = traced(inputs, plain, tr), units("per_layer")
    failed = sum(1 for r in reps if not r.ok)
    (workdir / "reps.json").write_text(json.dumps(
        [{"wall_s": r.wall_s, "setup_s": r.setup_s, "peak_rss_mb": r.peak_rss_mb, "ok": r.ok,
          "traced": r.traced} for r in reps], indent=1))
    for r in reps:
        if not r.ok:
            print(f"{workload}: failed repetition: {r.detail}", file=sys.stderr)
    if set(metrics) != set(want):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(want))} do not match BENCHMARK.json")
    return {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": want[name]} for name in want},
    }


def _print_human(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:15s} {name:40s} {m['value']:.6g} {m['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"{workload:15s} {'error_rate':40s} {rate:.6g} fraction "
          f"({result['failed']} of {result['attempted']} runs)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*SHAPES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(SHAPES) if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    for w, result in results.items():
        _print_human(w, result)
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
