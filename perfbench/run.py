"""Benchmark of temperedwalk: one workload per run, in a fresh interpreter.

    python3 perfbench/run.py --workload walk --seed 1 --seconds 38 --trace 0

drives the program in-process through ``temperedwalk.cli.run([...])``: a
closed loop with one caller that repeats whole rounds of the workload's
subcommand calls for about ``--seconds`` seconds, checks every call's output,
rescales call times by the speed probe of ``probe.py`` and prints, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds
and reports the per-layer metrics of the traced ones plus the tracing
overhead.  Without ``--workload`` every workload runs once, each in its own
child interpreter.  See README.md.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUPS = 3

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import temperedwalk.cli; print(time.perf_counter() - t)"
)


def _import_seconds():
    """Import time of the program's CLI in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _load_program():
    if not (SRC / "temperedwalk" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    from temperedwalk import cli

    if Path(cli.__file__).resolve().parent != SRC / "temperedwalk":
        raise SystemExit(f"perfbench: imported temperedwalk from {cli.__file__}, not {SRC}")
    return cli


def _outcome(call, cli, probe, tracer):
    """Run and check one call.

    Returns (seconds in ``cli.run`` less the probe's own time, problems,
    exited 0); no problems on success.
    """
    threads = int(call.argv[call.argv.index("--threads") + 1])
    armed = probe.armed() if threads == 1 and not tracer else contextlib.nullcontext()
    first = len(probe.samples)
    span = tracer.begin("cli.run", {"command": call.argv[0]}) if tracer else None
    started = time.perf_counter()
    try:
        with armed:
            code = cli.run(call.argv)
    except Exception:  # an escaped exception is a failed call, not a dead run
        traceback.print_exc()
        code = None
    finally:
        elapsed = time.perf_counter() - started
        if span:
            tracer.end(span)
    elapsed -= sum(probe.samples[first:])
    if code != 0:
        what = "raised" if code is None else f"exited {code}"
        return elapsed, [f"{call.argv[0]} {what}"], False
    try:
        return elapsed, call.check(), True
    except Exception:  # unreadable or missing output
        traceback.print_exc()
        return elapsed, [f"{call.argv[0]}: output could not be checked"], True


def _round(cli, workload, times, probe, tracer=None):
    """One pass over the workload's calls.

    Returns (attempted, failed, wrong): a call fails on a nonzero exit code or
    a failed output check, and is wrong when it exited 0 with bad output.
    """
    failed = wrong = 0
    for call in workload.calls:
        elapsed, problems, exited_ok = _outcome(call, cli, probe, tracer)
        times.setdefault(call.slot, []).append(elapsed)
        failed += bool(problems)
        wrong += bool(problems) and exited_ok
        for p in problems:
            print(f"perfbench: {workload.name}: {p}", file=sys.stderr)
    return len(workload.calls), failed, wrong


def _set_up(workload):
    """One set-up: the workload's own program calls plus a fresh import."""
    started = time.perf_counter()
    workload.setup()
    return time.perf_counter() - started + _import_seconds()


def _measure(cli, workload, seconds, trace):
    """Whole rounds for about ``seconds``; odd rounds are traced when ``trace``.

    Returns (attempted, failed, wrong, untraced call times, probe samples
    taken during them, traced call times, per-layer metrics of each traced
    round).
    """
    from probe import Probe
    from tracing import Tracer, layer_metrics

    probe, tracer = Probe(), Tracer()
    times, traced_times, layers = {}, {}, []
    attempted = failed = wrong = rounds = 0
    began = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if trace and rounds % 2 == 1:
            first = len(tracer.spans)
            tracer.install()
            try:
                a, f, w = _round(cli, workload, traced_times, probe, tracer)
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer.spans[first:]))
        else:
            a, f, w = _round(cli, workload, times, probe)
        attempted, failed, wrong, rounds = attempted + a, failed + f, wrong + w, rounds + 1
        now = time.perf_counter()
        # Stop before a round that would end past the budget; a traced run
        # needs one untraced and one traced round.
        if rounds >= (2 if trace else 1) and now - began + (now - round_start) > seconds:
            break
    if trace:
        tracer.write(OUT / f"trace-{workload.name}-seed{workload.seed}.json")
    return attempted, failed, wrong, times, probe.samples, traced_times, layers


def run_workload(name, seed, seconds, trace):
    cli = _load_program()
    import workloads
    from probe import REF_S
    from tracing import UNITS

    work = OUT / f"{name}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[name](work, seed)
        setups = [_set_up(workload) for _ in range(SETUPS)]
        attempted, failed, wrong, times, gauge, traced_times, layers = _measure(
            cli, workload, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for slot, values in sorted({**times, "setup_s": setups, "probe": gauge}.items()):
        print(f"perfbench: {name}: {slot} wall samples {values}", file=sys.stderr)
    if trace:
        metrics = {k: {"value": statistics.median(m[k] for m in layers), "unit": UNITS[k]}
                   for k in layers[0]}
        untraced = sum(statistics.median(v) for v in times.values())
        traced = sum(statistics.median(v) for v in traced_times.values())
        metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    else:
        # Call times are rescaled by the probe (see probe.py); set-up, which
        # runs unprobed and mostly in a child interpreter, is not.
        scale = REF_S / statistics.fmean(gauge)
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        for slot in sorted(times):
            metrics[slot] = {"value": scale * statistics.fmean(times[slot]), "unit": "s"}
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(seed, seconds, trace):
    """Every workload once, each in a child interpreter; one summary line."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: workload {name} exited {done.returncode}")
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
        print(name, json.dumps(results[name]), flush=True)
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="walk, walk-small-n or limit-law; all when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
