"""The benchmark trajectory: pinned perf measurements, persisted across PRs.

``repro bench`` runs the pinned kernel and campaign benchmarks and writes
``BENCH_kernel.json`` / ``BENCH_campaign.json`` — machine info, per-case
median ns/step, speedups — which are committed at the repository root.  Every
future performance PR regenerates them on the same pinned cases, so perf
claims in this repository are falsifiable against a recorded baseline instead
of living only in PR descriptions.

Absolute ns/step numbers are machine-specific; the *ratios* between cases
(batched vs. streamed, fast vs. instrumented) are structural and portable,
which is what the CI regression check compares (see :func:`check_regression`).
"""

from .trajectory import (
    BENCH_CAMPAIGN_FILENAME,
    BENCH_KERNEL_FILENAME,
    WORKLOADS,
    bench_campaign,
    bench_kernel,
    check_regression,
    compare_trajectories,
    load_trajectory,
    machine_info,
    performance_markdown,
    write_trajectory,
)

__all__ = [
    "BENCH_CAMPAIGN_FILENAME",
    "BENCH_KERNEL_FILENAME",
    "WORKLOADS",
    "bench_campaign",
    "bench_kernel",
    "check_regression",
    "compare_trajectories",
    "load_trajectory",
    "machine_info",
    "performance_markdown",
    "write_trajectory",
]
