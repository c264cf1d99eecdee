"""Run the benchmark over several seeds and report each metric's spread.

Run from the root of a checkout::

    python3 perfbench/spread.py --workloads solve-large,sim-halo --seeds 1-10

Each (workload, seed) is one ``perfbench/run.py`` run for
``BENCHMARK.json``'s ``run_seconds``, made one after another.  For every
metric the table gives the quartiles of its values as
``statistics.quantiles(values, n=4)`` computes them, and the distance
between the first and the third quartile as a share of the median beside
the metric's bound.  A spread is marked steady when it is below a third
of the bound.  ``--out`` also saves every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``"1-5,9"`` -> ``[1, 2, 3, 4, 5, 9]``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", help="write every run's result here as JSON")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT))
    from perfbench.stats import quartile_spread

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    print("| workload | metric | q1 | median | q3 | spread | bound | steady |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in args.workloads.split(","):
        results = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, spec["run_seconds"])
            result["seed"] = seed
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']}", file=sys.stderr)
        runs[workload] = results
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3, spread = quartile_spread(values)
            bound = bounds[name]
            steady = "yes" if spread < bound / 3 else "NO"
            print(
                f"| {workload} | {name} | {q1:.6g} | {med:.6g} | {q3:.6g} | "
                f"{spread:.4f} | {bound} | {steady} |",
                flush=True,
            )
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
