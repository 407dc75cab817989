"""Outside-in span tracing for the benchmark's traced run.

The benchmark never edits the program to trace it.  Instead it replaces
the public entry point of each layer, by name, with a wrapper that
records one span per call: the layer name, start and end in
``perf_counter_ns`` and the index of the enclosing span.  Spans are kept
in memory in flat typed arrays and written out once, after the run.

A target is ``"module:Qualified.name"``.  Module-level functions are
rebound in every loaded ``repro`` module that imported them by name
(``from x import f`` copies the binding), methods are replaced on their
class.  A target that no longer exists is reported as absent, so a
change that deletes a function does not break the traced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Optional per-call tally: maps a call's return value to a count added to
#: the layer's ``items`` (rejected submits, generated records, ...).
Tally = Callable[[Any], int]


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        #: Per-name sum of the wrapper's tally over every call.
        self.items: List[int] = []
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def name_index(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.items.append(0)
        return nid

    def wrap(self, name: str, fn: Callable, tally: Optional[Tally] = None) -> Callable:
        """Return ``fn`` wrapped so each call records one span named ``name``.

        Generator functions are drained inside the span, so the span
        covers the work rather than the creation of a lazy iterator;
        every wrapped generator's caller consumes it whole.
        """
        nid = self.name_index(name)
        names, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, items, clock = self._stack, self.items, self.clock
        drain = inspect.isgeneratorfunction(fn)

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            starts.append(clock())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = list(result)
            finally:
                ends[idx] = clock()
                stack.pop()
            if tally is not None:
                items[nid] += tally(result)
            return iter(result) if drain else result

        return functools.update_wrapper(traced, fn)

    def add(self, name: str, start: int, end: int, parent: int = -1) -> int:
        """Append one finished span directly (tests, synthetic traces)."""
        idx = len(self.start)
        self.name_id.append(self.name_index(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return idx

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "total_s", "self_s", "items"}}`` over all spans."""
        calls, total_ns, self_ns = span_totals(
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
            len(self.names),
        )
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total_ns[i]) / 1e9,
                "self_s": float(self_ns[i]) / 1e9,
                "items": self.items[i],
            }
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span (columnar, compressed) once the run is over."""
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def span_totals(
    name_id: np.ndarray,
    parent: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    n_names: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-name call count, total time and self time of a span set.

    A span's self time is its duration minus the durations of its direct
    children (spans whose ``parent`` is its index); a child's own
    children are charged to the child, not the grandparent.
    """
    dur = end - start
    calls = np.bincount(name_id, minlength=n_names)
    total = np.bincount(name_id, weights=dur, minlength=n_names)
    has_parent = parent >= 0
    child_of = np.bincount(
        name_id[parent[has_parent]], weights=dur[has_parent], minlength=n_names
    )
    return calls, total, total - child_of


class Patcher:
    """Installs and removes the span wrappers on the program's targets."""

    def __init__(self, recorder: SpanRecorder, package: str = "repro") -> None:
        self.recorder = recorder
        self.package = package
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    def install(
        self, targets: Sequence[Tuple[str, str, Optional[Tally]]]
    ) -> List[str]:
        """Wrap each ``(layer name, target, tally)``; return absent targets."""
        absent = []
        for name, target, tally in targets:
            if not self._wrap_one(name, target, tally):
                absent.append(target)
        return absent

    def _wrap_one(self, name: str, target: str, tally: Optional[Tally]) -> bool:
        modname, _, qual = target.partition(":")
        try:
            owner: Any = importlib.import_module(modname)
        except ImportError:
            return False
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        fn = getattr(owner, attr, None)
        if fn is None or not callable(fn):
            return False
        wrapped = self.recorder.wrap(name, fn, tally)
        if path:  # a method: replace it on the class that was named
            self._set(owner, attr, wrapped)
        else:  # a function: rebind every module-level alias of it
            prefix = self.package + "."
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (
                    mod_name == self.package or mod_name.startswith(prefix)
                ):
                    continue
                for alias, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, alias, wrapped)
        return True

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every replaced binding, newest first."""
        while self._undo:
            owner, attr, old, own = self._undo.pop()
            if own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
