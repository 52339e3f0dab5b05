"""One measured invocation of the posscore CLI, run in a fresh process.

Usage: child.py --report FILE [--trace VOCAB SPANS] -- <posscore arguments>

Without --trace, a one-shot hook records the clock at the first scoring
call (the end of set-up) and then removes itself. With --trace, every
public function of every layer is wrapped, and the spans and the kept
arguments and results are reduced to counts and written when the command
returns. The untraced report holds the first scoring call's clock reading
and the process's peak RSS; the traced report holds the observations.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np


def peak_rss_mb() -> float:
    """This process's peak RSS since exec (VmHWM).

    ``ru_maxrss`` is no use here: Linux carries the parent's high-water mark
    across fork and exec into the child's figure.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _observations(tracer, vocab_path: str) -> dict:
    kept = tracer.kept
    stems = [args[0] for args in kept["stem.porter_stem"]]
    splits = [args[:2] for args in kept["posmetrics.pos_split"]]
    obs = {
        "porter_stem_calls": len(stems),
        "porter_stem_distinct": len(set(stems)),
        "pos_split_calls": len(splits),
        "pos_split_distinct": len(set(splits)),
        "meteor_inexact": sum(
            1 for r in kept["basemetrics.meteor"] if r.details.get("exact_alignment") == 0.0
        ),
        "tagged_tokens": sum(len(s) for result in kept["postag.load_tagged"] for s in result),
    }
    if kept["embed.load_vec"]:
        table = kept["embed.load_vec"][-1]
        with open(vocab_path, encoding="utf-8") as fh:
            found = [w for w in fh.read().split() if w in table]
        obs["table_rows"] = len(table)
        obs["table_dim"] = table.dim
        obs["table_found"] = len(found)
        obs["table_itemsize"] = np.asarray(table.get(found[0])).itemsize if found else 0
    return obs


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", nargs=2, metavar=("VOCAB", "SPANS"))
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import posscore.cli
    from tracing import SetupHook, Tracer

    if args.trace is None:
        hook = SetupHook()
        try:
            code = posscore.cli.main(cli_args)
        finally:
            hook.restore()
        report = {"first_score": hook.fired_at, "peak_rss_mb": peak_rss_mb()}
    else:
        tracer = Tracer()
        try:
            code = posscore.cli.main(cli_args)
        finally:
            tracer.restore()
        vocab_path, spans_path = args.trace
        np.savez(
            spans_path,
            names=np.array(tracer.names),
            name_id=np.frombuffer(tracer.name_id, dtype=np.int32),
            parent=np.frombuffer(tracer.parent, dtype=np.int32),
            start=np.frombuffer(tracer.start, dtype=np.float64),
            end=np.frombuffer(tracer.end, dtype=np.float64),
        )
        report = {"observations": _observations(tracer, vocab_path)}
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
