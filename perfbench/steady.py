"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload grid --seeds 11 12 13 14 15

For every metric it prints the median of the runs and the distance
between the first and third quartile as a share of that median, next
to the metric's ``bound`` from BENCHMARK.json.  A spread above a third
of its bound is flagged (``setup_s`` is only reported: its runs are
compared by median).  ``--json FILE`` also writes the raw results;
give two such files to ``--compare`` to check that the second set's
medians are no worse than the first's by more than each bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    config = spec()
    command = config["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(config["run_seconds"]),
                                   "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def report(runs: list[dict], bounds: dict) -> bool:
    steady = True
    for name in runs[0]:
        median, share = spread([r[name] for r in runs])
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and share > bound / 3:
            flag, steady = "  <-- above a third of its bound", False
        shown = f"{bound:.2f}" if bound is not None else "-"
        print(f"{name:<36} median {median:>14.6g}  spread {share:7.3%}  bound {shown}{flag}")
    return steady


def compare(first: list[dict], second: list[dict], metrics: list[dict]) -> bool:
    ok = True
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        a = statistics.median(r[name] for r in first)
        b = statistics.median(r[name] for r in second)
        worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
        flag = "" if worse <= bound else "  <-- worse by more than its bound"
        ok = ok and not flag
        print(f"{name:<36} {a:>14.6g} -> {b:>14.6g}  worse by {worse:7.3%}  bound {bound:.2f}{flag}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write the raw results here")
    parser.add_argument("--compare", nargs=2, metavar="FILE",
                        help="compare the medians of two --json result files")
    args = parser.parse_args(argv)
    metrics = spec()["end_to_end"]
    if args.compare:
        first, second = (json.loads(Path(f).read_text()) for f in args.compare)
        return 0 if compare(first, second, metrics) else 1
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    runs = []
    for seed in args.seeds:
        runs.append(run(args.workload, seed, args.trace))
        print(f"seed {seed} done", file=sys.stderr, flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(runs))
    bounds = {m["name"]: m["bound"] for m in metrics} if not args.trace else {}
    return 0 if report(runs, bounds) else 1


if __name__ == "__main__":
    sys.exit(main())
