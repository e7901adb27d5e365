#!/usr/bin/env python3
"""wiretaplab benchmark: one workload end to end, or its traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere inside a source tree; the package is imported from the
tree's ``src/``.  Workloads: mc-k16, mc-k8, lpn-roundtrip, secrecy-analysis.

With --trace 0 the last stdout line is one JSON object with the end-to-end
metrics (setup_s, items_per_s, cli_s, peak_rss_mb); with --trace 1 it holds
the per-layer metrics instead.  Every output is checked against references
computed apart from the program (``checks.py``); a failed check prints
``"correct": false`` and exits 1.  The full result, with the per-function
trace table of a traced run, is also written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("mc-k16", "mc-k8", "lpn-roundtrip", "secrecy-analysis")

IMPORT_PROBES = 15  # fresh interpreters for cli.import_ms in a traced run
CLI_MAIN_REPEATS = 5  # in-process repeats of the sequence for cli.main_ms
# A bare interpreter start, which no code of the tree can change, measures
# how fast the shared machine starts processes during the run.  Start-up
# times are scaled by REFERENCE_START_S over its median, a round figure for
# the bare start on the reference VM (22-25 ms), so that drift in that speed
# between runs cancels out of setup_s and of the start-up part of cli_s.
REFERENCE_ARGV = (sys.executable, "-I", "-c", "pass")
REFERENCE_START_S = 0.025
REFERENCE_STARTS = 3  # per cycle of launches: short, and their median divides every start-up


def per_layer_units() -> dict:
    """{name: unit} of the per-layer metrics, as BENCHMARK.json lists them."""
    definition = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in definition["per_layer"]}


def child_env() -> dict:
    env = dict(os.environ)
    # The package does no BLAS work, but numpy's import starts a BLAS thread
    # per core; on a small shared machine those threads double the spread of
    # a launch's wall time without doing anything for the program.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_program():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import wiretaplab

    if Path(wiretaplab.__file__).resolve().parent != SRC / "wiretaplab":
        raise SystemExit(f"imported wiretaplab from {wiretaplab.__file__}, not {SRC}")
    import workloads

    return workloads


def probe_in_child(kind: str, workload: str, seed: int) -> None:
    """Runs in a fresh interpreter: print the seconds the program's own work
    took.  That is `import wiretaplab` (with its CLI, for 'import'), and for
    'setup' also building the workload's inputs.  Importing the benchmark's
    own modules between the two is not timed."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    if kind == "import":
        import wiretaplab.cli  # noqa: F401
    else:
        import wiretaplab  # noqa: F401
    seconds = time.perf_counter() - start
    if kind == "setup":
        work = import_program().WORKLOADS[workload](seed)
        start = time.perf_counter()
        work.build()
        seconds += time.perf_counter() - start
    print(seconds)


def probe(kind: str, args) -> float:
    """Seconds a fresh interpreter reports for `kind` (see probe_in_child)."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe", kind,
         "--workload", args.workload, "--seed", str(args.seed)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def timed_rounds(work, deadline=None, rounds=None, between=None):
    """Run whole rounds until the deadline (or for a fixed count), calling
    between(seconds inside rounds so far) after each; returns (per-round
    items/s, attempted, failed, seconds inside rounds)."""
    rates, attempted, failed, busy = [], 0, 0, 0.0
    while True:
        start = time.perf_counter()
        failed += work.run_round()
        elapsed = time.perf_counter() - start
        work.after_round()
        attempted += work.round_items
        busy += elapsed
        rates.append(work.round_items / elapsed)
        if between is not None:
            between(busy)
        if rounds is not None and len(rates) >= rounds:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return rates, attempted, failed, busy


def run_command(argv, outputs, result) -> float:
    """One CLI launch in a fresh interpreter; adds its stdout to `outputs`
    and returns its wall seconds."""
    command = [sys.executable, "-m", "wiretaplab.cli", *argv]
    start = time.perf_counter()
    proc = subprocess.run(command, env=child_env(), cwd=ROOT, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    result["attempted"] += 1
    if proc.returncode != 0:
        result["failed"] += 1
        print(f"cli: {' '.join(argv)}: exit {proc.returncode}: {proc.stderr}", file=sys.stderr)
    else:
        outputs.add(proc.stdout)
    return seconds


def reference_start() -> float:
    """Wall seconds of one bare interpreter start (REFERENCE_ARGV)."""
    start = time.perf_counter()
    subprocess.run(REFERENCE_ARGV, cwd=ROOT, capture_output=True, check=True)
    return time.perf_counter() - start


def cli_start() -> float:
    """Wall seconds of a CLI launch that only starts up: `--help`."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "wiretaplab.cli", "--help"],
                   env=child_env(), cwd=ROOT, capture_output=True, check=True)
    return time.perf_counter() - start


def run_cli_main(sequence, checks_mod):
    """The same sequence through wiretaplab.cli.main in this process."""
    import wiretaplab.cli

    total = 0.0
    for argv, expected in sequence:
        expected = expected()
        buffer = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = wiretaplab.cli.main(argv)
        total += time.perf_counter() - start
        checks_mod.require(code == 0, f"cli main {' '.join(argv)} exited {code}")
        checks_mod.check_cli_output(argv, buffer.getvalue(), expected)
    return total


def untraced(args, work, checks_mod, workdir, result):
    """Timed rounds take half the run; fresh-interpreter launches (reference
    starts, a bare CLI start, setup probes and each CLI command in turn) take
    the other half, interleaved with the rounds so that slow drifts in
    process start-up cost average out over the whole run instead of landing
    on one metric."""
    sequence = work.cli_sequence(workdir)
    reference_times, start_times, setup_times = [], [], []
    cli_times = [[] for _ in sequence]
    cli_outputs = [set() for _ in sequence]
    # -3 reference starts, -2 a bare CLI start, -1 a setup probe
    tasks = itertools.cycle(range(-3, len(sequence)))
    launch_s = 0.0

    def launch(round_s):
        nonlocal launch_s
        while launch_s < round_s or min(len(setup_times), *map(len, cli_times)) == 0:
            task = next(tasks)
            start = time.perf_counter()
            if task == -3:
                reference_times.extend(reference_start() for _ in range(REFERENCE_STARTS))
            elif task == -2:
                start_times.append(cli_start())
            elif task == -1:
                setup_times.append(probe("setup", args))
            else:
                cli_times[task].append(run_command(sequence[task][0], cli_outputs[task], result))
            launch_s += time.perf_counter() - start

    rates, attempted, failed, _ = timed_rounds(
        work, deadline=time.perf_counter() + args.seconds, between=launch
    )
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["attempted"] += attempted
    result["failed"] += failed
    result["samples"] = {"rounds": len(rates), "reference": len(reference_times),
                         "cli_start": len(start_times), "setup": len(setup_times),
                         "cli": [len(times) for times in cli_times]}
    wall_setup_s = statistics.median(setup_times)
    wall_cli_s = sum(statistics.median(times) for times in cli_times)
    cli_start_s = statistics.median(start_times)
    scale = REFERENCE_START_S / statistics.median(reference_times)
    result["metrics"] = {
        "setup_s": {"value": scale * wall_setup_s, "unit": "s"},
        "items_per_s": {"value": statistics.median(rates), "unit": "items/s"},
        # Each command's start-up is scaled, the work after it is not.
        "cli_s": {"value": wall_cli_s + len(sequence) * cli_start_s * (scale - 1), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }
    result["unscaled"] = {"setup_s": wall_setup_s, "cli_s": wall_cli_s,
                          "cli_start_s": cli_start_s, "speed_scale": scale}
    result["raw"] = {"reference_s": reference_times, "cli_start_s": start_times,
                     "setup_s": setup_times, "cli_s": cli_times, "items_per_s": rates}
    for (argv, expected), outputs in zip(sequence, cli_outputs):
        expected = expected()
        for output in outputs:
            checks_mod.check_cli_output(argv, output, expected)
    work.check()


def traced(args, work, checks_mod, workdir, result):
    import spans

    units = per_layer_units()
    values = {}
    rates, attempted, failed, _ = timed_rounds(
        work, deadline=time.perf_counter() + args.seconds / 2.0
    )
    untraced_rate = statistics.median(rates)
    tracer = spans.Tracer()
    tracer.calibrate()
    tracer.install()
    gc.disable()  # collections over the growing span list would land in random spans
    try:
        t_rates, t_attempted, t_failed, busy = timed_rounds(work, rounds=work.traced_rounds)
    finally:
        gc.enable()
        tracer.uninstall()
    result["attempted"] += attempted + t_attempted
    result["failed"] += failed + t_failed
    items = t_attempted
    by_name, by_layer, cost_ns = tracer.analyse()
    for layer in ("prng", "gf2", "coset", "infometrics", "channels", "lpn"):
        values[f"{layer}.self_us_per_item"] = by_layer[layer]["self_ns"] / 1e3 / items
    for layer in ("prng", "gf2"):
        values[f"{layer}.calls_per_item"] = by_layer[layer]["entries"] / items
    values["prng.bits_per_item"] = tracer.bits / items

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    def inclusive_ns(name):
        return by_name.get(name, {}).get("inclusive_ns", 0.0)

    values["gf2.transpose_calls_per_item"] = calls("gf2.BitMatrix.transpose") / items
    values["channels.normal_cdf_calls_per_item"] = calls("channels.normal_cdf") / items
    mi_calls = calls("infometrics.awgn_mutual_information")
    values["infometrics.density_evals_per_call"] = (
        calls("infometrics.mixture_density") / mi_calls if mi_calls else 0.0
    )
    wall_ns = busy * 1e9 - cost_ns
    values["share.coset_posterior_pct"] = 100 * inclusive_ns("coset._posterior_entropy_bits") / wall_ns
    values["share.prng_pct"] = 100 * by_layer["prng"]["self_ns"] / wall_ns
    # Diagnostic only: the span cost that would account for the whole loss of
    # the traced rounds against the untraced ones (drift included), as a
    # multiple of the calibrated cost, and the PRNG share under that cost.
    lost_ns_per_span = (busy / items - 1.0 / untraced_rate) * 1e9 * items / len(tracer.spans)
    cost_scale = lost_ns_per_span / (tracer.c_in + tracer.c_out)
    _, fitted_layers, fitted_cost_ns = tracer.analyse(max(cost_scale, 1.0))
    fitted_prng_pct = 100 * fitted_layers["prng"]["self_ns"] / (busy * 1e9 - fitted_cost_ns)
    values["share.quadrature_pct"] = 100 * inclusive_ns("infometrics.awgn_mutual_information") / wall_ns
    values["share.quantized_mi_pct"] = (
        100 * inclusive_ns("infometrics.quantized_mutual_information") / wall_ns
    )
    values["trace.overhead_pct"] = 100 * (1 - statistics.median(t_rates) / untraced_rate)
    values.update(work.layer_timings())
    values["cli.import_ms"] = 1e3 * statistics.median(probe("import", args) for _ in range(IMPORT_PROBES))
    sequence = work.cli_sequence(workdir)
    values["cli.main_ms"] = 1e3 * statistics.median(
        run_cli_main(sequence, checks_mod) for _ in range(CLI_MAIN_REPEATS)
    )
    result["attempted"] += CLI_MAIN_REPEATS * len(sequence)
    work.check()
    # A metric the workload does not time (another workload's function) reads 0.
    result["metrics"] = {name: {"value": values.pop(name, 0.0), "unit": unit} for name, unit in units.items()}
    if values:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(values)}")
    result["trace"] = {
        "items": items,
        "spans": len(tracer.spans),
        "span_cost_ns": {"inside": tracer.c_in, "outside": tracer.c_out},
        "fitted_cost_scale": cost_scale,
        "fitted_prng_pct": fitted_prng_pct,
        "untraced_items_per_s": untraced_rate,
        "traced_items_per_s": statistics.median(t_rates),
        "functions": by_name,
    }


def run_workload(args) -> int:
    if not (SRC / "wiretaplab" / "__init__.py").is_file():
        print(f"error: no wiretaplab source tree at {SRC}", file=sys.stderr)
        return 2
    workloads = import_program()
    import checks

    work = workloads.WORKLOADS[args.workload](args.seed)
    work.build()
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    workdir = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        (traced if args.trace else untraced)(args, work, checks, workdir, result)
    except checks.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        result["correct"] = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only once no other run is using it
    details = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                   python=sys.version.split()[0], cpus=os.cpu_count())
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}")
    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            combined["correct"] = False
            continue
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for metric, value in part["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "import"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe:
        probe_in_child(args.probe, args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
