"""Layer tracing from outside the program.

The traced benchmark run wraps the functions and methods of every layer
module of ``repro`` (``sim/``, ``core/``, ``shard/``, ``gateway/``,
``apps/``) with a span recorder.  Nothing under ``src/`` is edited: the
wrappers are installed on the module and class attributes at run time
and :meth:`Tracer.uninstall` puts every original back.

A span opens when control crosses into a layer and closes when it
returns.  A call that stays inside the layer it was made from opens no
span (that is what keeps the cost bearable), so a layer's *self time*
is exactly the time control spent inside it: its spans' durations minus
the part covered by the spans they caused.  Engine events dispatch to
callbacks that were looked up on the (wrapped) classes, so every event
lands in the layer of the module that defined its callback.  A forked
child (a process shard worker) puts the originals back as it starts, so
only the process that installed the tracer is traced.

Self times are accumulated online; the first :data:`KEEP_SPANS` spans are
also kept as ``(span_id, layer, start, end, parent_id)`` records, and
:func:`self_times` recomputes self time from such records offline (the
self-tests check that both agree).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Layers in report order.  Each ``repro`` module belongs to exactly one.
LAYERS: Tuple[str, ...] = (
    "sim.engine", "sim.link", "sim.other",
    "core.shim", "core.rmt", "core.efcp", "core.delimiting",
    "core.routing", "core.riep", "core.enrollment", "core.flow_allocator",
    "core.codec", "core.ipcp",
    "shard.framing", "shard.coordinator", "shard.other",
    "gateway.transport", "gateway.wire", "gateway.driver", "gateway.shim",
    "apps",
)

#: Modules whose layer is not ``<package>.<module>`` or the package's
#: catch-all layer.
_MODULE_LAYERS: Dict[str, str] = {
    "repro.sim.engine": "sim.engine",
    "repro.sim.link": "sim.link",
    "repro.core.shim": "core.shim",
    "repro.core.shim_broadcast": "core.shim",
    "repro.core.rmt": "core.rmt",
    "repro.core.efcp": "core.efcp",
    "repro.core.delimiting": "core.delimiting",
    "repro.core.api": "core.delimiting",
    "repro.core.sdu_protection": "core.delimiting",
    "repro.core.routing": "core.routing",
    "repro.core.riep": "core.riep",
    "repro.core.rib": "core.riep",
    "repro.core.enrollment": "core.enrollment",
    "repro.core.auth": "core.enrollment",
    "repro.core.flow_allocator": "core.flow_allocator",
    "repro.core.flow": "core.flow_allocator",
    "repro.core.directory": "core.flow_allocator",
    "repro.core.codec": "core.codec",
    "repro.shard.framing": "shard.framing",
    "repro.shard.coordinator": "shard.coordinator",
    "repro.gateway.transport": "gateway.transport",
    "repro.gateway.wire": "gateway.wire",
    "repro.gateway.driver": "gateway.driver",
}

#: Catch-all layer per traced package (IPCP glue, names and PDUs fall in
#: ``core.ipcp``; network/node/tracer in ``sim.other``; plan, region
#: engines and workloads in ``shard.other``; socket shim and server in
#: ``gateway.shim``).
_PACKAGE_LAYERS: Dict[str, str] = {
    "repro.sim": "sim.other",
    "repro.core": "core.ipcp",
    "repro.shard": "shard.other",
    "repro.gateway": "gateway.shim",
    "repro.apps": "apps",
}

#: Span records kept for offline checks (self times never need them).
KEEP_SPANS = 100_000

#: Dunder methods worth a span: construction does real set-up work.
_TRACED_DUNDERS = ("__init__", "__call__")


def layer_of(module_name: str) -> Optional[str]:
    """The layer a ``repro`` module belongs to, or ``None`` if untraced."""
    if module_name in _MODULE_LAYERS:
        return _MODULE_LAYERS[module_name]
    package = module_name.rpartition(".")[0]
    return _PACKAGE_LAYERS.get(package)


def traced_modules() -> List[str]:
    """Every importable module of the traced packages."""
    names = []
    for package in _PACKAGE_LAYERS:
        module = importlib.import_module(package)
        names.append(package)
        for info in pkgutil.iter_modules(module.__path__, package + "."):
            names.append(info.name)
    return names


def self_times(spans: Iterable[Tuple[int, str, float, float, Optional[int]]]
               ) -> Dict[str, float]:
    """Per-layer self time from span records ``(id, layer, start, end,
    parent_id)``: each span's duration minus its children's durations."""
    spans = list(spans)
    child_time: Dict[int, float] = defaultdict(float)
    for _sid, _layer, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for sid, layer, start, end, _parent in spans:
        totals[layer] += (end - start) - child_time[sid]
    return dict(totals)


class Tracer:
    """Span recorder and counter store for one traced process.

    ``clock`` is injectable so the self-tests can drive synthetic time.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.layers: Tuple[str, ...] = LAYERS
        self._index = {name: i for i, name in enumerate(self.layers)}
        self.self_s: List[float] = [0.0] * len(self.layers)
        #: boundary crossings per wrapped function key
        self.entries: Dict[str, int] = defaultdict(int)
        #: every call of the functions registered with ``count_calls``
        self.calls: Dict[str, int] = defaultdict(int)
        #: named accumulators fed by hooks (bytes, wait seconds, ...)
        self.totals: Dict[str, float] = defaultdict(float)
        #: live instances of tracked classes, by class key
        self.instances: Dict[str, List[Any]] = defaultdict(list)
        self.spans: List[Tuple[int, str, float, float, Optional[int]]] = []
        self._stack: List[list] = []
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []
        self._count_calls: set = set()
        self._track: set = set()
        self._hooks: Dict[str, Callable[..., None]] = {}
        self._fork_hooked = False

    # ------------------------------------------------------------------
    # Configuration (before install)
    # ------------------------------------------------------------------
    def count_calls(self, *keys: str) -> None:
        """Count every call of these functions (``module:qualname``),
        including calls made from inside their own layer."""
        self._count_calls.update(keys)

    def track(self, *class_keys: str) -> None:
        """Remember every instance of these classes (``module:Class``)
        constructed while installed, for counter harvesting."""
        self._track.update(class_keys)

    def hook(self, key: str, fn: Callable[..., None]) -> None:
        """After every call of ``key``: ``fn(tracer, args, result,
        duration)``."""
        self._hooks[key] = fn

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _enter(self, layer: int) -> list:
        frame = [layer, self.clock(), 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        end = self.clock()
        stack = self._stack
        stack.pop()
        duration = end - frame[1]
        self.self_s[frame[0]] += duration - frame[2]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((frame[3], self.layers[frame[0]], frame[1],
                               end, parent[3] if parent is not None
                               else None))
        return duration

    def wrap(self, fn: Callable[..., Any], layer: str, key: str
             ) -> Callable[..., Any]:
        """``fn`` with span recording (and any counting/hooks
        registered for ``key``)."""
        index = self._index[layer]
        stack = self._stack
        entries = self.entries
        enter = self._enter
        exit_ = self._exit
        counted = key in self._count_calls
        calls = self.calls
        hook = self._hooks.get(key)
        tracer = self

        if hook is None and not counted:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if stack and stack[-1][0] == index:
                    return fn(*args, **kwargs)
                entries[key] += 1
                frame = enter(index)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(frame)
            return traced

        @functools.wraps(fn)
        def traced_counted(*args, **kwargs):
            if counted:
                calls[key] += 1
            if stack and stack[-1][0] == index:
                if hook is None:
                    return fn(*args, **kwargs)
                start = tracer.clock()
                result = fn(*args, **kwargs)
                hook(tracer, args, result, tracer.clock() - start)
                return result
            entries[key] += 1
            frame = enter(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = exit_(frame)
            if hook is not None:
                hook(tracer, args, result, duration)
            return result
        return traced_counted

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> int:
        """Wrap every function and method of the traced ``repro``
        modules; returns the number wrapped."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        if not self._fork_hooked and hasattr(os, "register_at_fork"):
            # forked children (process shard workers) run untraced: the
            # spans would land in a copy of this tracer nobody reads
            os.register_at_fork(after_in_child=self.uninstall)
            self._fork_hooked = True
        loaded = [importlib.import_module(name) for name in traced_modules()]
        replaced: Dict[int, Any] = {}
        for module in loaded:
            layer = layer_of(module.__name__)
            if layer is None:
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_class(value, layer, module.__name__)
                elif (inspect.isfunction(value)
                      and value.__module__ == module.__name__
                      and _plain(value)):
                    wrapped = self.wrap(value, layer,
                                        f"{module.__name__}:{attr}")
                    replaced[id(value)] = (value, wrapped)
                    self.patch(module, attr, wrapped)
        # rebind module-level functions other modules imported by name
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self.patch(module, attr, hit[1])
        return len(self._patches)

    def _wrap_class(self, cls: type, layer: str, module: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("__") and attr not in _TRACED_DUNDERS:
                continue
            key = f"{module}:{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                fn = raw.__func__
                if _plain(fn):
                    self.patch(cls, attr,
                                staticmethod(self.wrap(fn, layer, key)))
            elif isinstance(raw, classmethod):
                fn = raw.__func__
                if _plain(fn):
                    self.patch(cls, attr,
                                classmethod(self.wrap(fn, layer, key)))
            elif inspect.isfunction(raw) and _plain(raw):
                if attr == "__init__" and f"{module}:{cls.__name__}" in self._track:
                    raw = self._tracking_init(raw, f"{module}:{cls.__name__}")
                self.patch(cls, attr, self.wrap(raw, layer, key))

    def _tracking_init(self, init: Callable[..., None], class_key: str
                       ) -> Callable[..., None]:
        bucket = self.instances[class_key]

        @functools.wraps(init)
        def tracked(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            bucket.append(obj)
        return tracked

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`uninstall`."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        try:
            setattr(owner, attr, value)
        except (AttributeError, TypeError):
            return
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Self time per layer so far (copy)."""
        return dict(zip(self.layers, self.self_s))

    def take_instances(self, class_key: str) -> List[Any]:
        """Tracked instances of ``class_key``, forgetting them."""
        bucket = self.instances[class_key]
        taken = list(bucket)
        del bucket[:]
        return taken


def _plain(fn: Callable[..., Any]) -> bool:
    """True for ordinary functions: a span around a generator or
    coroutine function would time only its creation."""
    return not (inspect.isgeneratorfunction(fn)
                or inspect.iscoroutinefunction(fn)
                or inspect.isasyncgenfunction(fn))
