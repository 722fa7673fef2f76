"""Spans recorded from outside the program, around calls into its layers.

A :class:`Tracer` replaces named public callables of the ``repro`` package
with thin wrappers that record a span per call: name, layer, start, end,
parent span, thread and, for reads, the request id.  Spans stay in memory
and are written out once, when the run ends.  Nothing inside the program
changes; uninstalling restores every original attribute.

A target is ``"module:attr"`` or ``"module:Class.method"``.  A function
target is replaced in every loaded ``repro`` module that imported it by
name, unless ``local=True`` limits it to the named module (used where a
per-set helper is also called from a hot loop that has its own span).
A target that no longer exists leaves its layer unmeasured; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.unmeasured: dict[str, list[str]] = {}
        self.recording = False
        self.phase: str | None = None  # "setup" | "measure", stamped on spans
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any]] = []
        self._next_id = 0

    # ------------------------------------------------------------ spans
    def _stack(self) -> list[dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str, **attrs: Any) -> dict[str, Any] | None:
        if not self.recording:
            return None
        stack = self._stack()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        span = {
            "id": sid,
            "name": name,
            "layer": layer,
            "parent": stack[-1]["id"] if stack else None,
            "thread": threading.get_ident(),
            "rid": getattr(self._local, "rid", None),
            "phase": self.phase,
            "attrs": attrs,
            "start": None,  # stamped by the wrapper once its hooks have run
            "end": None,
        }
        stack.append(span)
        return span

    def end(self, span: dict[str, Any] | None) -> None:
        if span is None:
            return
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def request(self, rid: str | None) -> None:
        """Tag spans this thread opens from now on with request ``rid``."""
        self._local.rid = rid

    # -------------------------------------------------------- patching
    def wrap(
        self,
        layer: str,
        target: str,
        *,
        before: Callable[..., Any] | None = None,
        after: Callable[..., dict] | None = None,
        local: bool = False,
    ) -> bool:
        """Record a span around every call of ``target``.

        ``before(args, kwargs)`` runs ahead of the call and its value is
        passed on; ``after(args, kwargs, result, pre)`` returns counts that
        are stored on the span.  Returns whether the target was found.
        """
        module_name, _, path = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError) as exc:
            self.unmeasured.setdefault(layer, []).append(f"{target}: {exc}")
            return False

        wrapper = self._make_wrapper(path, layer, original, before, after)
        if cls_path or local:
            self._set(owner, attr, wrapper)
        else:
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == module_name.split(".")[0] and getattr(
                    mod, attr, None
                ) is original:
                    self._set(mod, attr, wrapper)
        return True

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _make_wrapper(self, name, layer, original, before=None, after=None):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            span = tracer.begin(name, layer)
            if span is None:
                return original(*args, **kwargs)
            pre = before(args, kwargs) if before else None
            span["start"] = started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                span["attrs"].update(after(args, kwargs, result, pre))
            # The tracer's own time in this call: span set-up, the before
            # and after hooks, and recording (the wrapped call excluded).
            span["own"] = (started - entered) + (time.perf_counter() - span["end"])
            return result

        return wrapper

    def unclocked_cost(self, calls: int = 20000) -> float:
        """Seconds per wrapped call that ``own`` does not see (the wrapper's
        own call and return), measured here on a no-op against a plain call."""

        def noop():
            return None

        wrapped = self._make_wrapper("calibration", "trace", noop)
        saved = (self.spans, self.recording)
        self.spans, self.recording = [], True
        try:
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            plain = time.perf_counter() - t0
            t0 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            traced = time.perf_counter() - t0
            own = sum(s["own"] for s in self.spans)
        finally:
            self.spans, self.recording = saved
        return max(traced - plain - own, 0.0) / calls

    # ---------------------------------------------------------- queries
    def select(self, name: str | None = None, layer: str | None = None) -> list[dict]:
        return [
            s for s in self.spans
            if (name is None or s["name"] == name)
            and (layer is None or s["layer"] == layer)
        ]

    def ancestors(self, span: dict) -> list[dict]:
        by_id = self._by_id()
        out = []
        parent = span["parent"]
        while parent is not None and parent in by_id:
            out.append(by_id[parent])
            parent = by_id[parent]["parent"]
        return out

    def _by_id(self) -> dict[int, dict]:
        cache = getattr(self, "_index", None)
        if cache is None or len(cache) != len(self.spans):
            cache = self._index = {s["id"]: s for s in self.spans}
        return cache

    def outermost(self, layer: str, phase: str | None = None) -> list[dict]:
        """Spans of ``layer`` (in ``phase``) with no ancestor in the same layer."""
        return [
            s for s in self.select(layer=layer)
            if (phase is None or s["phase"] == phase)
            and not any(a["layer"] == layer for a in self.ancestors(s))
        ]

    def busy(self, layer: str, *, under: str | None = None, phase: str | None = None) -> float:
        """Seconds inside ``layer`` (nested calls counted once), optionally
        only where a span named ``under`` encloses the call."""
        total = 0.0
        for s in self.outermost(layer, phase):
            if under is not None and not any(a["name"] == under for a in self.ancestors(s)):
                continue
            total += s["end"] - s["start"]
        return total

    def layer_summary(self) -> dict[str, dict[str, float]]:
        """Per layer: busy seconds, self seconds (minus child spans), calls."""
        children: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s["layer"], {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
            row["self_s"] += (s["end"] - s["start"]) - children.get(s["id"], 0.0)
            row["calls"] += 1
        for layer, row in out.items():
            row["busy_s"] = self.busy(layer)
        return out

    def write(self, path: str, extra: dict[str, Any]) -> None:
        doc = {
            "schema": "perfbench-spans/1",
            "layers": self.layer_summary(),
            "unmeasured": self.unmeasured,
            **extra,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, default=str)
