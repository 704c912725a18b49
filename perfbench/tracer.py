"""Per-layer tracing from outside gtokit.

Each gtokit module is a layer.  :class:`Tracer` wraps every function and
method defined in a layer and counts calls, inclusive time and the layer's
self time (span time not covered by nested traced spans).  gtokit modules
bind each other's functions at import (``from .channels import
apply_channel``), and so does the benchmark, so the tracer replaces every
binding of a wrapped function in every loaded ``gtokit`` and ``perfbench``
module; otherwise calls between layers would go uncounted.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("symplectic", "states", "channels", "feasibility", "cooling", "thermo", "cli")
_METHODS = ("__init__", "__post_init__")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self._open = []  # time covered by child spans, one entry per open span
        self._patches = []

    def _wrap(self, key: str, layer: str, fn):
        calls, seconds, self_seconds, open_spans = self.calls, self.seconds, self.self_seconds, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                covered = open_spans.pop()
                if open_spans:
                    open_spans[-1] += span
                calls[key] += 1
                seconds[key] += span
                self_seconds[layer] += span - covered

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"gtokit.{layer}")
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(f"{layer}.{name}", layer, obj)
                elif inspect.isclass(obj):
                    for meth, member in list(vars(obj).items()):
                        key = f"{layer}.{name}.{meth}"
                        if isinstance(member, classmethod):
                            self._patch(obj, meth, classmethod(self._wrap(key, layer, member.__func__)))
                        elif inspect.isfunction(member) and (meth in _METHODS or not meth.startswith("__")):
                            self._patch(obj, meth, self._wrap(key, layer, member))
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] not in ("gtokit", "perfbench"):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(module, name, wrapped[obj])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
