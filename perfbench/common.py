"""Paths, statistics and resource helpers shared by the benchmark modules."""

from __future__ import annotations

import math
import resource
import statistics
import sys
from pathlib import Path

#: Root of the checkout the benchmark measures (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch state (daemon state directories, span files) lives under here.
WORK = ROOT / ".perfbench-work"


def use_repo_sources() -> None:
    """Import ``repro`` from ``<root>/src``; exit non-zero when it is absent.

    The benchmark measures the program of the checkout it sits in, never an
    installed copy, so a directory without ``src/repro`` is an error.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src / 'repro'}")
    for entry in (str(src), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports kilobytes
