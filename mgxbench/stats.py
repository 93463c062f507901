"""Percentiles and report digests for the benchmark's checks."""

from __future__ import annotations

import hashlib
import math
import re

#: The figure CLI's per-section timing footer, e.g. ``[fig03 completed in
#: 6.3s]`` — the only part of a report that differs between runs.
TIMING_LINE = re.compile(r"^\[[^\]\n]* completed in [0-9.]+s\]$", re.MULTILINE)


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a
    ``q`` share of the samples at or below it (``q`` in ``(0, 1]``)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def strip_timing(text: str) -> str:
    """Drop the report's timing footer lines, keep everything else."""
    return TIMING_LINE.sub("", text)


def report_digest(text: str) -> str:
    """SHA-256 of a report section with its timing lines removed."""
    return hashlib.sha256(strip_timing(text).encode()).hexdigest()
