"""Span tracer that wraps a package's functions and methods from outside.

``Tracer.install`` replaces every public function of the listed modules,
and every method defined in the body of a class of those modules, with a
wrapper that records a span around the call.  A function is replaced at
every binding site: in its own module, in each module that imported it by
name, and in module-level dicts (command tables).  Methods are replaced on
the defining class, which every subclass and binding site shares.

Spans stay in memory as aggregates: per name the call count, the
inclusive time and the self time (span minus child spans); per
(parent, child) edge the call count and inclusive time; per module the
self time and the time during which the module is on the stack.  Hooks
registered by name see the arguments and result of each call, outside
the timed interval.

The tracer keeps one span stack, so it is for single-threaded runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

_KEPT_DUNDERS = ("__init__", "__call__")


class Tracer:
    def __init__(self, package, modules, hooks=None):
        self.package = package
        self.modules = tuple(modules)
        self.hooks = dict(hooks or {})
        self.calls = Counter()
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.failures = Counter()
        self.edge_calls = Counter()
        self.edge_s = defaultdict(float)
        self.module_calls = Counter()
        self.module_self_s = defaultdict(float)
        self.module_incl_s = defaultdict(float)
        self._module_depth = Counter()
        self._stack = []  # [name, module, child seconds]
        self._undo = []
        self.wrapped = {}  # span name -> original function

    # spans --------------------------------------------------------------
    def _call(self, fn, name, module, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = [name, module, 0.0]
        self._stack.append(frame)
        self._module_depth[module] += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.failures[name] += 1
            raise
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            own = dt - frame[2]
            self.calls[name] += 1
            self.incl_s[name] += dt
            self.self_s[name] += own
            self.module_self_s[module] += own
            edge = (parent[0] if parent else None, name)
            self.edge_calls[edge] += 1
            self.edge_s[edge] += dt
            self._module_depth[module] -= 1
            if self._module_depth[module] == 0:
                self.module_calls[module] += 1
                self.module_incl_s[module] += dt
            if parent is not None:
                parent[2] += dt
        hook = self.hooks.get(name)
        if hook is not None:
            hook(args, kwargs, result)
        return result

    def _wrap(self, fn, name, module):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(fn, name, module, args, kwargs)

        self.wrapped[name] = fn
        return wrapper

    # patching -----------------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind(self, namespaces, original, wrapper):
        """Point every module global and module-level dict entry at wrapper."""
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is original:
                            self._undo.append((value, key, original))
                            value[key] = wrapper

    def _patch_class(self, cls, layer, mod):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _KEPT_DUNDERS:
                continue
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind else raw
            if not inspect.isfunction(fn):
                continue  # properties, constants
            if fn.__code__.co_filename != mod.__file__:
                continue  # generated by a decorator (dataclass __init__)
            wrapper = self._wrap(fn, f"{layer}.{cls.__name__}.{attr}", layer)
            self._set(cls, attr, kind(wrapper) if kind else wrapper)

    def install(self):
        mods = {layer: importlib.import_module(f"{self.package}.{layer}") for layer in self.modules}
        namespaces = [importlib.import_module(self.package)] + list(mods.values())
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # imported from elsewhere
                if inspect.isclass(obj):
                    self._patch_class(obj, layer, mod)
                elif inspect.isfunction(obj) and not attr.startswith("_"):
                    self._rebind(namespaces, obj, self._wrap(obj, f"{layer}.{attr}", layer))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # results ------------------------------------------------------------
    def summary(self):
        """Plain-data aggregates; edges are keyed 'parent -> child'."""
        return {
            "calls": dict(self.calls),
            "incl_s": dict(self.incl_s),
            "self_s": dict(self.self_s),
            "failures": dict(self.failures),
            "edge_calls": {f"{p} -> {c}": n for (p, c), n in self.edge_calls.items()},
            "edge_s": {f"{p} -> {c}": t for (p, c), t in self.edge_s.items()},
            "module_calls": dict(self.module_calls),
            "module_self_s": dict(self.module_self_s),
            "module_incl_s": dict(self.module_incl_s),
        }
