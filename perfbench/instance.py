"""One workload instance in a fresh interpreter; prints one JSON line.

Started by ``run.py`` once per measured instance, so every instance pays the
imports a CLI user pays and starts with empty in-process caches (the
screen-verdict LRU, the compiled-schedule memo).  ``--input-seed`` selects the
inputs.  ``--spawned-at`` is the parent's ``time.monotonic()`` just before the
spawn; ``raw_setup_s`` runs from it to the end of imports and input
construction, ``raw_wall_s`` is the timed work.

The CPU speed of a shared host drifts by up to 2x over seconds to minutes,
invisibly to the guest: no steal time is booked and CPU time tracks wall time.
So an untraced instance also measures the host: a :class:`HostSpeed` probe
times a fixed loop of dict lookups and attribute stores every
``PROBE_INTERVAL_S`` of wall time, from a timer signal, during set-up and
during the timed work.  ``setup_s`` and ``wall_s`` are the raw times minus the
probes' own time, scaled by the phase's mean host speed relative to
``NOMINAL_PROBE_S``: seconds at the reference speed.  Across a 2x swing of the
host the interpreter-bound workloads slowed as the probe did (wall time went as
the probe's speed to the power 1.0-1.1); ``search-wide``, whose screen runs in
numpy, slowed more (power 1.2), so part of a swing still shows there.  A pure
arithmetic loop tracked worse (power 1.6 on ``search-wide``).  The probe
touches only its own preallocated cells and allocates no container, so it
never runs the program's garbage collector.  Traced instances run without
probes.

    python3 perfbench/instance.py --workload dist-queue --input-seed 0 \
        --workdir .perfbench_tmp --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Wall time between host-speed probes; each probe costs about 5% of it.
PROBE_INTERVAL_S = 0.05
PROBE_ROUNDS = 12_000
PROBE_CELLS = 512
#: The probe time (s) that defines the reference speed.  Any fixed value
#: serves, since runs are compared with each other, not with it.
NOMINAL_PROBE_S = 0.0025


class _Cell:
    __slots__ = ("value",)


class HostSpeed:
    """Samples the host's speed with a fixed loop run from a timer signal.

    A disabled probe never samples and reports the reference speed.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.samples: List[float] = []
        self._cells = {i: _Cell() for i in range(PROBE_CELLS)}

    def _probe(self, signum: int = 0, frame: object = None) -> None:
        started = time.perf_counter()
        cells = self._cells
        total = 0
        for i in range(PROBE_ROUNDS):
            cell = cells[(i * 7) % PROBE_CELLS]
            cell.value = i
            total += cell.value & 7
        self.samples.append(time.perf_counter() - started)

    def start(self) -> None:
        """Begin a phase: probe every ``PROBE_INTERVAL_S`` until :meth:`stop`."""
        self.samples = []
        if not self.enabled:
            return
        signal.signal(signal.SIGALRM, self._probe)
        # Restart interrupted system calls (SQLite's among them) after a probe.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> Tuple[float, float]:
        """End the phase: (seconds spent probing, mean speed relative to the reference)."""
        if not self.enabled:
            return 0.0, 1.0
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        probing_s = sum(self.samples)
        if not self.samples:
            self._probe()
        return probing_s, statistics.fmean(NOMINAL_PROBE_S / s for s in self.samples)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--input-seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    probe = HostSpeed(enabled=not args.trace)
    probe.start()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy
    from workloads import WORKLOADS, install
    from repro.search.engine import screen_cache_stats
    from tracer import Tracer

    workload = WORKLOADS[args.workload]
    inputs = workload.prepare(args.input_seed, args.workdir)
    tracer = Tracer()
    if args.trace:
        install(tracer)
    setup_probing_s, setup_speed = probe.stop()
    setup_s = time.monotonic() - args.spawned_at - setup_probing_s

    probe.start()
    started = time.perf_counter_ns()
    outcome = workload.execute(inputs)
    wall_ns = time.perf_counter_ns() - started
    wall_probing_s, wall_speed = probe.stop()
    tracer.restore()
    wall_s = wall_ns / 1e9 - wall_probing_s

    result = {
        "raw_setup_s": setup_s,
        "raw_wall_s": wall_s,
        "setup_s": setup_s * setup_speed,
        "wall_s": wall_s * wall_speed,
        "host_speed": wall_speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": outcome.ops,
        "failed": outcome.failed,
        "work": outcome.work,
        "items": outcome.items,
        "notes": outcome.notes,
        "screen_cache": screen_cache_stats(),
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    }
    if args.trace:
        result["layers"] = tracer.layers
        result["unattributed_frac"] = 1 - tracer.top_level_ns / wall_ns
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
