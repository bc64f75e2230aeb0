"""One pass of a workload, in a fresh interpreter started by run.py.

Argument: a JSON object with the workload, seed, pass index, request limit,
whether to trace, whether this is only a set-up probe, and where to write
spans.  Prints one JSON line: when the first request started (the
system-wide monotonic clock, so the parent can subtract its spawn time), the
pass's wall time, peak RSS, the speed samples, and per request its start,
exit code, output and latency.  A traced pass adds the per-layer metrics.

Speed samples: on a shared host the speed of a core swings by up to a third within
a minute, so from its first line the child times a fixed snippet of
Fraction arithmetic (the program's own staple) every SAMPLE_INTERVAL_S, from
a SIGALRM handler.  run.py scales each time by the samples around it.
"""

import signal
import time
from fractions import Fraction

SAMPLE_INTERVAL_S = 0.02
SAMPLE_STEPS = 60
samples = []


def _snippet() -> None:
    acc, step = Fraction(0), Fraction(3, 7)
    for i in range(1, SAMPLE_STEPS):
        acc = acc * step + Fraction(i, 11)


def speed_sample(signum=None, frame=None) -> None:
    # the untimed first run warms the caches the program just used, so the
    # sample tracks the core's speed rather than the program's footprint
    _snippet()
    start = time.monotonic()
    _snippet()
    samples.append((start, time.monotonic() - start))


signal.signal(signal.SIGALRM, speed_sample)
signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from common import call  # noqa: E402
from workloads import requests  # noqa: E402

import feitlab.cli  # noqa: E402 - part of the measured set-up

# a probe stops after set-up; this many direct samples stand in for the pass
PROBE_SAMPLES = 20


def main() -> int:
    cfg = json.loads(sys.argv[1])
    reqs = requests(cfg["workload"], cfg["seed"], cfg["pass"])
    if cfg["limit"]:
        reqs = reqs[: cfg["limit"]]
    tracer = None
    if cfg["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    first = time.monotonic()
    if cfg["probe"]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        for _ in range(PROBE_SAMPLES):
            speed_sample()
        print(json.dumps({"first": first, "samples": samples}))
        return 0
    results = []
    for i, argv in enumerate(reqs):
        if tracer is not None:
            tracer.request = i
        results.append((time.monotonic(), *call(feitlab.cli.main, argv)))
    wall = time.monotonic() - first
    signal.setitimer(signal.ITIMER_REAL, 0)
    out = {
        "first": first,
        "wall_s": wall,
        "samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "requests": [[argv, *result] for argv, result in zip(reqs, results)],
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["spans"] = len(tracer.spans)
        tracer.write_spans(cfg["spans_path"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
