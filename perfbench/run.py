"""Benchmark command: one workload, one seed, run-level metrics.

    python3 perfbench/run.py --workload {accept,large,cli} --seed N
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its
``src``.  The workload's inputs are made from the seed, then whole rounds
of the workload's fixed job list run until ``--seconds`` have passed, each
round in a fresh single-threaded process (``worker.py``), so no cache
carries from one round to the next.  Reported figures are medians over
the rounds.  ``setup_s`` is the median of several further fresh starts
that stop once the first job is ready.  Every time is in reference
seconds: ``worker.py`` scales it by a calibration kernel timed in the
same process, so that drift in the shared host's speed cancels out.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced rounds alternate and it carries the
per-layer metrics of the traced rounds plus ``trace.overhead_s``.  Spans of
traced rounds are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import inputs
import layertrace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 11
ROUND_TIMEOUT_S = 120
#: stop starting rounds past this, so a run ends well within 180 s
RUN_CAP_S = 150

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))


class RoundError(RuntimeError):
    pass


def _spawn(workload, inputs_path, extra):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    # set-up is measured with cached bytecode, as an installed package has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
             "--inputs", inputs_path, "--t0", repr(t0)] + extra,
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"a {workload} round ran past {ROUND_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"{workload} worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def write_inputs(workload, seed, work):
    os.makedirs(work, exist_ok=True)
    if workload == "large":
        data = inputs.large_inputs(seed)
    elif workload == "cli":
        data = {"requests": inputs.cli_requests(seed, os.path.join(work, "fixtures"))}
    else:
        data = {}  # the acceptance criteria carry their own fixed inputs
    path = os.path.join(work, "inputs.json")
    with open(path, "w") as handle:
        json.dump(data, handle)
    return path


def measure(workload, seed, seconds, traced):
    work = os.path.join(OUT, f"work-{workload}-{seed}-{os.getpid()}")
    try:
        inputs_path = write_inputs(workload, seed, work)
        _spawn(workload, inputs_path, ["--setup-only"])  # compiles bytecode once
        plain, layered = [], []
        start = time.monotonic()
        while True:
            round_start = time.monotonic()
            plain.append(_spawn(workload, inputs_path, []))
            if traced:
                spans = os.path.join(OUT, f"spans-{workload}-seed{seed}-round{len(layered)}.jsonl")
                layered.append(_spawn(workload, inputs_path, ["--trace", "--spans", spans]))
            now = time.monotonic()
            if now - start >= seconds or now + (now - round_start) - start > RUN_CAP_S:
                break
        probes = [] if traced else [
            _spawn(workload, inputs_path, ["--setup-only"]) for _ in range(SETUP_PROBES)
        ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return plain, layered, probes


def summarize(plain, layered, probes):
    rounds = plain + layered
    summary = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }
    if layered:
        # counts repeat exactly; median_low keeps them whole
        metrics = {
            name: {"value": (statistics.median if unit == "s" else statistics.median_low)(
                r["layers"][name] for r in layered), "unit": unit}
            for name, unit in layertrace.METRICS
        }
        overhead = (statistics.median(r["wall_s"] for r in layered)
                    - statistics.median(r["wall_s"] for r in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {"setup_s": {"value": statistics.median(p["setup_s"] for p in probes),
                               "unit": "s"}}
        for name, unit in END_TO_END[1:]:
            metrics[name] = {"value": statistics.median(r[name] for r in plain), "unit": unit}
    summary["metrics"] = metrics
    host = {
        "measured wall_s": statistics.median(r["raw_wall_s"] for r in plain),
        "speed factor": statistics.median(r["speed"] for r in plain),
    }
    if probes:
        host["measured setup_s"] = statistics.median(p["raw_setup_s"] for p in probes)
    return summary, host, [note for r in rounds for note in r["notes"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cstardom", "__init__.py")):
        print(f"no package source at {os.path.join(ROOT, 'src', 'cstardom')}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    # on SIGTERM, unwind: the running round is killed and the inputs removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        plain, layered, probes = measure(args.workload, args.seed, args.seconds,
                                         bool(args.trace))
    except RoundError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    summary, host, notes = summarize(plain, layered, probes)
    for note in notes:
        print(f"wrong output: {note}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(layered)} traced round(s)")
    for name, metric in summary["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  attempted {summary['attempted']}, failed {summary['failed']}, "
          f"correct {summary['correct']}")
    print("  host: " + ", ".join(f"{name} {value:.4g}" for name, value in host.items()))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
