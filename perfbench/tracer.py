"""Outside-in span tracer for the blstate benchmark.

``Tracer.install`` replaces every public function of the given modules
with a wrapper, including names that one module re-binds from another
with ``from .x import y``; one wrapper serves all bindings of a
function, and the span is named ``<defining module>.<function>``.
Nothing inside the package changes, and ``uninstall`` puts every
original back.

Each call records a span (id, parent id, name, start, end) in memory.
Per name the tracer also keeps the call count, inclusive time (outermost
activation only, so recursion is not counted twice), self time (the
span's duration minus the time covered by its child spans) and the set
of argument fingerprints behind ``distinct_ratio``.  Spans are written
out only by ``write``, when the run ends.
"""

from __future__ import annotations

import dataclasses
import gzip
import inspect
import json
from contextlib import contextmanager
from time import perf_counter


@dataclasses.dataclass
class _Stat:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0
    active: int = 0
    keys: set = dataclasses.field(default_factory=set)


def traceable(obj, package: str) -> bool:
    """A public function (plain or cache-wrapped) defined inside ``package``."""
    if inspect.isclass(obj) or not callable(obj):
        return False
    return inspect.isfunction(inspect.unwrap(obj)) and getattr(
        obj, "__module__", ""
    ).startswith(package + ".")


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stats: dict[str, _Stat] = {}
        self._stack: list[list] = []  # [span id, child time, parent frame]
        self._next_id = 1
        self._installed: list[tuple[object, str, object]] = []
        # frozen dataclass arguments (whole algebras) hash in O(n^2); their
        # fingerprints are kept by identity, holding the object alive
        self._frozen: dict[int, tuple[object, int]] = {}

    # -- spans -----------------------------------------------------------

    def _stat(self, name: str) -> _Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        return stat

    def _push(self, stat: _Stat) -> list:
        frame = [self._next_id, 0.0, self._stack[-1] if self._stack else None]
        self._next_id += 1
        self._stack.append(frame)
        stat.active += 1
        return frame

    def _pop(self, name: str, stat: _Stat, frame: list, start: float) -> None:
        end = self.clock()
        self._stack.pop()
        duration = end - start
        stat.active -= 1
        stat.calls += 1
        stat.self_s += duration - frame[1]
        if stat.active == 0:
            stat.incl_s += duration
        parent = frame[2]
        if parent is not None:
            parent[1] += duration
        self.spans.append((frame[0], parent[0] if parent else 0, name, start, end))

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call into a layer."""
        stat = self._stat(name)
        frame = self._push(stat)
        start = self.clock()
        try:
            yield
        finally:
            self._pop(name, stat, frame, start)

    def wrap(self, name: str, fn):
        stat = self._stat(name)
        push, pop, clock, fingerprint = self._push, self._pop, self.clock, self._fingerprint

        def traced(*args, **kwargs):
            frame = push(stat)
            start = clock()
            try:
                stat.keys.add(fingerprint(args, kwargs))
                return fn(*args, **kwargs)
            finally:
                pop(name, stat, frame, start)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__module__ = getattr(fn, "__module__", None)
        return traced

    # -- installation ----------------------------------------------------

    def install(self, modules, package: str = "blstate") -> int:
        """Wrap every public function bound in ``modules``; returns the count."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or not traceable(obj, package):
                    continue
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    name = f"{obj.__module__.rpartition('.')[2]}.{obj.__name__}"
                    wrapper = wrappers[id(obj)] = self.wrap(name, obj)
                self._installed.append((module, attr, obj))
                setattr(module, attr, wrapper)
        return len(wrappers)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)
        self._frozen.clear()

    # -- argument fingerprints ------------------------------------------

    def _fingerprint(self, args: tuple, kwargs: dict) -> int:
        return hash((
            tuple(self._key(a) for a in args),
            tuple(sorted((k, self._key(v)) for k, v in kwargs.items())),
        ))

    def _key(self, value) -> int:
        if dataclasses.is_dataclass(value) and type(value).__dataclass_params__.frozen:
            hit = self._frozen.get(id(value))
            if hit is None:
                try:
                    key = hash(value)
                except TypeError:  # a frozen dataclass holding a dict
                    key = hash(("id", id(value)))
                hit = self._frozen[id(value)] = (value, key)
            return hit[1]
        try:
            return hash(value)
        except TypeError:
            pass
        if isinstance(value, (list, tuple)):
            return hash(tuple(self._key(v) for v in value))
        if isinstance(value, dict):
            return hash(tuple(sorted((k, self._key(v)) for k, v in value.items())))
        if isinstance(value, set):
            return hash(frozenset(self._key(v) for v in value))
        return hash(("id", id(value)))

    # -- results ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """name -> calls, self_s, incl_s, distinct_ratio."""
        out = {}
        for name, s in sorted(self.stats.items()):
            out[name] = {
                "calls": s.calls,
                "self_s": s.self_s,
                "incl_s": s.incl_s,
                "distinct_ratio": len(s.keys) / s.calls if s.calls else 0.0,
            }
        return out

    def write(self, path) -> None:
        """Write every span and the per-name summary as gzipped JSON."""
        payload = {
            "spans": [list(s) for s in self.spans],
            "summary": self.summary(),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))
