"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``run.py`` once per seed, one process after another, and prints for
each metric the median and the distance between the first and third
quartile as a share of the median, next to the bound in BENCHMARK.json::

    python3 bench/spread.py --workload comm-planted --seeds 1 2 3 4 5

``--out FILE`` also writes every run's result and detail lines as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "detail": json.loads(lines[-2])["detail"],
            "result": json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    runs = []
    for workload in args.workload:
        for seed in args.seeds:
            run = run_once(workload, seed, args.seconds, 0)
            run["workload"] = workload
            runs.append(run)
            print(f"{workload} seed {seed}: failed {run['result']['failed']} of "
                  f"{run['result']['attempted']}, first-round answers "
                  f"{run['detail']['answers_digest_round0']}",
                  file=sys.stderr)
        print(f"\n{workload} ({len(args.seeds)} seeds)")
        for m in config["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"]
                      for r in runs if r["workload"] == workload]
            med, share = spread(values)
            print(f"  {m['name']:<14} median {med:12.6g} {m['unit']:<6} "
                  f"spread {share:7.2%}  bound {m['bound']:.0%}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
