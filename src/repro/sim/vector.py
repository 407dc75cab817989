"""Vectorized busy-phase kernels (DESIGN.md section 10).

The dense inner loops of the busy phase — the ARQ's all-entries
comparator match and strided bank-timing queries across a vault's
banks — are batched here as array-style kernels.  Each kernel has a
pure-Python fallback with identical results, so the vectorized path is
an optimization, never a semantic switch: the hypothesis equivalence
suite runs the suite with the kernels both on and off and asserts
bit-identical outcomes.

Gating: ``REPRO_SIM_VECTOR`` (default on).  Set ``REPRO_SIM_VECTOR=0``
to force the pure-Python fallbacks — CI runs tier-1 both ways.  When
numpy is unavailable the fallbacks are used regardless of the flag.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence

try:  # numpy ships with the toolchain; degrade gracefully without it.
    import numpy as _np
except ImportError:  # pragma: no cover - toolchain always has numpy
    _np = None

#: Environment knob: ``REPRO_SIM_VECTOR=0`` disables the numpy kernels.
VECTOR_ENV_VAR = "REPRO_SIM_VECTOR"

#: Kernel-dispatch counters for the self-profiler (how often each
#: vectorized path actually fired).  Incremented only while a
#: :class:`repro.obs.profiler.SimProfiler` has switched profiling on —
#: the hot kernels stay increment-free on unprofiled runs.
_PROFILING = False
_COUNTS: Dict[str, int] = {
    "oldest_match": 0,
    "busy_count": 0,
    "max_ready": 0,
}


def set_profiling(flag: bool) -> None:
    """Switch kernel hit counting on or off (profiler lifecycle hook)."""
    global _PROFILING
    _PROFILING = bool(flag)


def kernel_counters() -> Dict[str, int]:
    """Snapshot of the per-kernel vectorized-dispatch counts."""
    return dict(_COUNTS)


def reset_kernel_counters() -> None:
    """Zero the dispatch counters (tests and fresh profiling sessions)."""
    for key in _COUNTS:
        _COUNTS[key] = 0


def have_numpy() -> bool:
    """Whether numpy is importable in this environment."""
    return _np is not None


def enabled() -> bool:
    """Whether the vectorized kernels are active (env-gated, default on)."""
    if _np is None:
        return False
    return os.environ.get(VECTOR_ENV_VAR, "1") not in ("", "0")


# ---------------------------------------------------------------------------
# ARQ comparator match (all entries at once)
# ---------------------------------------------------------------------------


def oldest_match(keys: Sequence[int], key: int) -> Optional[int]:
    """Index of the *oldest* (lowest-index) entry whose key matches.

    The hardware comparator bank compares the candidate key against all
    ARQ entries simultaneously and a priority encoder picks the oldest
    hit; this is the argmax-style batch form of that match.  ``keys``
    is the comparator-visible key per entry, oldest first, with
    non-mergeable slots masked out as ``None``.
    """
    if _np is not None and enabled() and len(keys) >= 8:
        if _PROFILING:
            _COUNTS["oldest_match"] += 1
        arr = _np.fromiter(
            (k if k is not None else -(1 << 62) for k in keys),
            dtype=_np.int64,
            count=len(keys),
        )
        hits = _np.nonzero(arr == key)[0]
        return int(hits[0]) if hits.size else None
    for i, k in enumerate(keys):
        if k == key:
            return i
    return None


# ---------------------------------------------------------------------------
# Strided bank-timing queries (vault/device introspection)
# ---------------------------------------------------------------------------


def busy_count(ready_cycles: Sequence[int], now: int) -> int:
    """How many of the given next-free stamps are still in the future."""
    if _np is not None and enabled() and len(ready_cycles) >= 8:
        if _PROFILING:
            _COUNTS["busy_count"] += 1
        return int(
            (_np.fromiter(ready_cycles, dtype=_np.int64, count=len(ready_cycles)) > now).sum()
        )
    return sum(1 for r in ready_cycles if r > now)


def max_ready(ready_cycles: Sequence[int]) -> int:
    """Latest next-free stamp across a strided bank-timing array."""
    if _np is not None and enabled() and len(ready_cycles) >= 8:
        if _PROFILING:
            _COUNTS["max_ready"] += 1
        return int(
            _np.fromiter(ready_cycles, dtype=_np.int64, count=len(ready_cycles)).max()
        )
    return max(ready_cycles, default=0)


__all__ = [
    "VECTOR_ENV_VAR",
    "have_numpy",
    "enabled",
    "oldest_match",
    "busy_count",
    "max_ready",
    "set_profiling",
    "kernel_counters",
    "reset_kernel_counters",
]
