"""End-to-end benchmark of the ORP pipeline: annealed solve and fluid NPB simulation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 20 --trace 0

Workloads are listed in ``BENCHMARK.json`` and defined in
:mod:`perfbench.workloads`.  One run imports the package once, then
repeats the workload's operation ``min_reps`` times and, after that, for
as long as a further repetition still ends within ``--seconds``.
Repetition ``i`` gets inputs generated from ``(seed, i)``, so the same
seed gives the same inputs.  Every output is checked, and a failed check
counts in ``failed``.  Timings are medians over the repetitions.

Before every repetition, and once after the last, a fresh interpreter
times the import of the workload's modules and a fixed reference
computation (see :data:`PROBE_CODE`); times are reported at the
reference speed.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs every repetition twice, untraced and traced, and
reports the per-layer metrics of :mod:`perfbench.layers`; the spans are
written to ``.perfbench/trace-<workload>.jsonl.gz`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

#: No repetition starts once the run would then exceed this many seconds.
TIME_CAP_S = 150.0

#: Set-ups timed per run at least: after the repetitions, further inputs
#: are set up, and only timed, until there are this many samples.
SETUP_SAMPLES = 8

#: Iterations of the two halves of the reference computation: a
#: pure-Python integer loop, and NumPy operations on a small array, the
#: mix the program's hot loops are made of.  On a shared host the speed
#: of a core can drift by tens of percent over minutes, which moves every
#: timing of a run alike.  ``wall_s``, ``setup_s`` and ``ops_per_s`` are
#: therefore reported at a fixed reference speed, scaled by
#: ``REF_NOMINAL_S`` over the run's mean reference time; the raw wall time
#: is in the per-layer report as ``trace.untraced_wall_s``.
REF_PY_ITERATIONS = 150_000
REF_NP_ITERATIONS = 1_500
REF_SAMPLES = 8

#: Seconds one reference sample takes at the reference speed.
REF_NOMINAL_S = 0.025

#: A probe is a fresh interpreter that times the import of the workload's
#: modules, then ``REF_SAMPLES`` runs of the reference computation.  So
#: neither is coloured by the state of the measuring process.
PROBE_CODE = """\
import sys, time
t = time.perf_counter()
for name in sys.argv[4:]:
    __import__(name)
print(time.perf_counter() - t)
import numpy as np
a = np.arange(256, dtype=np.uint64)
for _ in range(int(sys.argv[1])):
    t = time.perf_counter()
    acc = 0
    for i in range(int(sys.argv[2])):
        acc += i * i
    for _ in range(int(sys.argv[3])):
        b = np.bitwise_or(a, a >> np.uint64(1))
        acc += int(np.count_nonzero(b & a))
    print(time.perf_counter() - t)
"""

#: ``(name, unit, better)`` of every end-to-end metric.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("ideal_fraction", "ratio", "higher"),
)


def rep_seed(seed: int, rep: int) -> int:
    """Input seed of repetition ``rep`` of a run seeded with ``seed``."""
    import numpy as np

    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


def probe(modules: tuple[str, ...]) -> tuple[float, list[float]]:
    """``(import seconds, reference seconds)`` measured in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", PROBE_CODE, str(REF_SAMPLES), str(REF_PY_ITERATIONS),
         str(REF_NP_ITERATIONS), *modules],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    times = [float(line) for line in done.stdout.split()]
    return times[0], times[1:]


def _timed(workload, inputs):
    gc.collect()
    t0 = perf_counter()
    result = workload.run(inputs)
    return result, perf_counter() - t0


def measure(workload, seed: int, seconds: int, trace: bool, tracer=None) -> dict:
    """Run one benchmark measurement; returns the result object to print."""
    from perfbench import layers
    from perfbench.stats import median

    attempted = failed = 0
    setups, walls, rates, fractions, imports, refs = [], [], [], [], [], []
    infos: list[dict[str, float]] = []
    per_layer: list[dict[str, float]] = []
    # The probes time the imports; set-up is timed without them.
    for module in workload.imports:
        importlib.import_module(module)
    run_t0 = perf_counter()
    last_rep = 0.0

    def checked(inputs, result) -> object | None:
        nonlocal failed
        outcome = workload.check(inputs, result)
        if outcome.problems:
            failed += 1
            for problem in outcome.problems:
                print(f"check failed: {workload.name}: {problem}", file=sys.stderr)
            return None
        return outcome

    for rep in itertools.count():
        # Past min_reps, start a repetition only if, at the last one's pace,
        # it ends within --seconds.
        elapsed = perf_counter() - run_t0
        if rep >= workload.min_reps and elapsed + last_rep > seconds:
            break
        if rep and elapsed + last_rep > TIME_CAP_S:
            break
        rep_t0 = perf_counter()
        if not trace:
            import_s, ref_s = probe(workload.imports)
            imports.append(import_s)
            refs.extend(ref_s)
        inputs_seed = rep_seed(seed, rep)
        t0 = perf_counter()
        inputs = workload.setup(inputs_seed)
        setups.append(perf_counter() - t0)
        attempted += 1
        try:
            result, wall = _timed(workload, inputs)
            outcome = checked(inputs, result)
        except Exception:  # a failing operation is counted, not fatal
            failed += 1
            traceback.print_exc()
            outcome = None
        if outcome is not None:
            walls.append(wall)
            rates.append(outcome.ops / wall)
            fractions.append(outcome.ideal_fraction)
            infos.append(outcome.info)
        if trace and outcome is not None:
            attempted += 1
            try:
                layer = _traced_rep(workload, inputs, tracer,
                                    f"{workload.name}/seed{seed}/rep{rep}",
                                    untraced_wall=wall, checked=checked)
            except Exception:
                failed += 1
                traceback.print_exc()
                layer = None
            if layer is not None:
                per_layer.append(layer)
        last_rep = perf_counter() - rep_t0

    if trace:
        names = [name for name, _, _ in layers.LAYER_METRICS]
        units = {name: unit for name, unit, _ in layers.LAYER_METRICS}
        values = {n: median([m[n] for m in per_layer]) if per_layer else 0.0 for n in names}
    else:
        names = [name for name, _, _ in END_TO_END]
        units = {name: unit for name, unit, _ in END_TO_END}
        for rep in range(len(setups), SETUP_SAMPLES):
            inputs_seed = rep_seed(seed, rep)
            t0 = perf_counter()
            workload.setup(inputs_seed)
            setups.append(perf_counter() - t0)
        import_s, ref_s = probe(workload.imports)
        imports.append(import_s)
        refs.extend(ref_s)
        # The mean, not the median: the host switches between a fast and a
        # slow state, and a repetition's time follows the share of time
        # spent in each, which the mean tracks.
        scale = REF_NOMINAL_S / statistics.fmean(refs)  # host seconds -> reference seconds
        print(f"info {workload.name} host_slowdown {1 / scale:.6g}")
        if walls:
            print(f"info {workload.name} raw_wall_s {median(walls):.6g}")
        values = {
            "wall_s": median(walls) * scale if walls else 0.0,
            # The fastest import: the slower ones differ from it by the
            # host's noise, not by work the program does.
            "setup_s": (min(imports) + median(setups)) * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_per_s": median(rates) / scale if rates else 0.0,
            "ideal_fraction": median(fractions) if fractions else 0.0,
        }
    for key in sorted({k for info in infos for k in info}):
        print(f"info {workload.name} {key} {median([i[key] for i in infos]):.6g}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }


def _traced_rep(workload, inputs, tracer, label: str, *, untraced_wall: float, checked):
    """One traced repetition; returns its per-layer metrics, or None if its check failed."""
    from perfbench import layers
    from repro.obs import TelemetryRegistry

    telemetry = TelemetryRegistry("perfbench") if workload.kind == "solve" else None
    probe = None if workload.kind == "solve" else layers.SimProbe()
    gc.collect()
    lo = tracer.begin_run(label)
    try:
        if probe is None:
            layers.install_solve(tracer)
        else:
            layers.install_sim(tracer, probe)
        t0 = perf_counter()
        root = tracer.begin(workload.root)
        try:
            result = workload.run(inputs, telemetry)
        finally:
            tracer.finish(root)
        wall = perf_counter() - t0
    finally:
        tracer.restore()
    hi = len(tracer)
    outcome = checked(inputs, result)
    if outcome is None:
        return None
    return layers.rep_metrics(
        tracer, lo, hi,
        traced_wall=wall,
        untraced_wall=untraced_wall,
        telemetry=telemetry.snapshot() if telemetry is not None else None,
        accept_ratio=outcome.info.get("accept_ratio", 0.0),
        probe=probe,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Measure the program's defaults, whatever the caller's environment says.
    for var in ("REPRO_KERNEL_BACKEND", "REPRO_CONTRACTS"):
        os.environ.pop(var, None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    tracer = Tracer() if args.trace else None
    result = measure(workload, args.seed, args.seconds, bool(args.trace), tracer)
    if tracer is not None:
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write_jsonl_gz(str(out_dir / f"trace-{workload.name}.jsonl.gz"))
    for name, metric in result["metrics"].items():
        print(f"{workload.name} {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
