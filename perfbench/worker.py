"""One round of one workload, in a fresh process.

Started by ``run.py`` with ``PYTHONPATH`` set to the checkout's ``src``.
It imports the package, decodes the workload's inputs and builds the job
list (the set-up), then runs every job once and checks each output outside
the timed spans.  The result is one JSON line on stdout.

Times are scaled to a reference host speed.  On the shared machine the
benchmark was built on, the speed of the same code drifted by up to 2.3x
within an hour, far more than any regression bound.  So while the jobs
run, a timer signal runs a fixed calibration kernel that uses no package
code every ``SAMPLE_EVERY_S`` of wall time.  Every time is multiplied by
``REFERENCE_KERNEL_S`` over the kernel's mean time in the same process,
and the time spent in the handler is left out of the jobs' times.  A
change to the package moves the jobs' times and not the kernel's.

    python3 perfbench/worker.py --workload W --inputs FILE --t0 T
        [--setup-only] [--trace --spans FILE]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

#: kernel time that defines the reference speed (a quiet 2-core x86-64 host)
REFERENCE_KERNEL_S = 0.00082
SAMPLE_EVERY_S = 0.1
SETUP_KERNELS = 5


#: the kernel's one container, allocated once: a kernel run that asked the
#: allocator for blocks outside the small-object pools would fragment the
#: program's heap and raise its peak memory
_COUNTS = [0] * 61


def calibration_kernel():
    """Fixed pure-Python work of the package's kind: Fraction arithmetic,
    indexed updates, bitmask operations and small strings."""
    start = time.perf_counter()
    acc, mask = Fraction(0), 0
    for i in range(1, 500):
        acc += Fraction(1, i % 89 + 2)
        _COUNTS[i % 61] += len(str(i))
        mask |= 1 << (i % 40)
        mask &= ~(1 << (i * 7 % 40))
    return time.perf_counter() - start


def speed_factor(samples):
    """Multiplier that turns this process's seconds into reference seconds."""
    return REFERENCE_KERNEL_S * len(samples) / sum(samples)


class SpeedSampler:
    """Runs the calibration kernel from a SIGALRM handler, so that the
    host's speed is sampled all through long jobs, and adds up the wall
    and CPU time the handler takes so that job timings can leave it out."""

    def __init__(self):
        # running totals, not a growing list: see _COUNTS
        self.kernel_s = self.kernels = 0
        self.wall = self.cpu = 0.0

    def _tick(self, signum, frame):
        start, cpu0 = time.perf_counter(), time.process_time()
        self.kernel_s += calibration_kernel()
        self.kernels += 1
        self.wall += time.perf_counter() - start
        self.cpu += time.process_time() - cpu0

    def factor(self):
        """Multiplier that turns this process's seconds into reference seconds."""
        return REFERENCE_KERNEL_S * self.kernels / self.kernel_s

    def __enter__(self):
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    import cstardom

    src = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    if not os.path.realpath(cstardom.__file__).startswith(src + os.sep):
        print(f"cstardom was imported from {cstardom.__file__}, not {src}", file=sys.stderr)
        return 3
    import jobs

    with open(args.inputs) as handle:
        data = json.load(handle)
    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
    job_list = jobs.build(args.workload, data, tracer)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        factor = speed_factor([calibration_kernel() for _ in range(SETUP_KERNELS)])
        print(json.dumps({"setup_s": setup_s * factor, "raw_setup_s": setup_s}))
        return 0
    if tracer is not None:
        tracer.install()

    wall = cpu = 0.0
    attempted = failed = 0
    correct = True
    notes = []
    with SpeedSampler() as sampler:
        for index, (name, run, check) in enumerate(job_list):
            if tracer is not None:
                tracer.job = index
            gc.collect()
            cpu0, child0 = time.process_time(), _children_cpu()
            start = time.perf_counter()
            sampled_wall, sampled_cpu = sampler.wall, sampler.cpu
            output = run()
            wall += time.perf_counter() - start - (sampler.wall - sampled_wall)
            cpu += (time.process_time() - cpu0 + _children_cpu() - child0
                    - (sampler.cpu - sampled_cpu))
            try:
                outcomes = check(output)
            except Exception as exc:  # an unreadable output is a wrong output
                outcomes = [[f"output not readable: {type(exc).__name__}: {exc}"]]
            for problems in outcomes:
                attempted += 1
                if problems:
                    failed += 1
                    if not name.startswith("fault:"):
                        correct = False
                        notes.append(f"{name}: {'; '.join(problems)}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    factor = sampler.factor()
    result = {
        "wall_s": wall * factor,
        "cpu_s": cpu * factor,
        "peak_rss_mb": peak_rss_mb,
        "raw_wall_s": wall,
        "speed": factor,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "notes": notes[:20],
    }
    if tracer is not None:
        result["layers"] = {name: value * factor if name.endswith("_s") else value
                            for name, value in tracer.metrics().items()}
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
