"""Per-layer spans taken from outside the engine.

The tracer replaces the public module-level functions of every ``nomrew``
module with timing wrappers, in every ``nomrew`` namespace that binds them:
the defining module (so calls between functions of one module are seen) and
each module that imports the function (so calls across layers are seen).
A wrapper knows which namespace it was installed in, so a call is counted
both under the callee (``matching.solve_match``) and under the calling
module (``rewrite`` -> ``matching.solve_match``).

Recursion inside a function stays unwrapped: a self-recursive function is
given a private copy whose own name resolves to itself, so a recursive walk
adds no wrapper frames (and hits Python's recursion limit at the same depth
as untraced code).  Generator functions are not wrapped, because their work
happens after they return; it is counted in the consumer's self time.

Spans are kept in memory in flat arrays and written out by ``write_spans``
once the run is over.  Self time is a span's duration minus the durations of
its direct child spans; spans nest strictly because the run has one thread.
"""

from __future__ import annotations

import inspect
import sys
import time
import types
from array import array
from collections import Counter

PACKAGE = "nomrew"
OUTSIDE = "bench"  # caller name for calls made through the package namespace


def _layer_name(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1 :] if module_name.startswith(PACKAGE + ".") else OUTSIDE


def _refers_to(code: types.CodeType, name: str) -> bool:
    if name in code.co_names:
        return True
    return any(isinstance(c, types.CodeType) and _refers_to(c, name) for c in code.co_consts)


class Tracer:
    """Span recorder plus the patch table that installs it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        # One row per finished span, in order of completion.
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.calls: Counter = Counter()  # (callee, caller) -> calls
        self.hits: Counter = Counter()  # callee -> calls that returned a value
        self.self_s: Counter = Counter()  # callee -> self seconds
        self.op_id = -1
        self._next_id = 0
        self._stack: list[list] = []  # [span id, name index, start, child seconds]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _ix(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        return ix

    def _enter(self, name_ix: int) -> list:
        frame = [self._next_id, name_ix, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        sid, name_ix, start, child = frame
        duration = end - start
        self.self_s[name_ix] += duration - child
        parent = -1
        if stack:
            stack[-1][3] += duration
            parent = stack[-1][0]
        self.span_id.append(sid)
        self.span_name.append(name_ix)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent)
        self.span_op.append(self.op_id)

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of the given name (used for the op root)."""
        frame = self._enter(self._ix(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)

    def _wrapper(self, impl, name: str, caller: str, count_hits: bool):
        name_ix = self._ix(name)
        key = (name_ix, caller)
        calls, hits, enter, exit_ = self.calls, self.hits, self._enter, self._exit

        def traced(*args, **kwargs):
            calls[key] += 1
            frame = enter(name_ix)
            try:
                result = impl(*args, **kwargs)
            finally:
                exit_(frame)
            if count_hits and result is not None:
                hits[name_ix] += 1
            return result

        traced.__wrapped__ = impl
        traced.__name__ = getattr(impl, "__name__", name)
        return traced

    # -- patching ----------------------------------------------------------

    def install(self, hit_counted: frozenset[str] = frozenset(), methods: dict | None = None) -> None:
        """Wrap every public nomrew function in every nomrew namespace.

        `hit_counted` names callees whose non-None results are counted;
        `methods` maps span names to (class, attribute) pairs wrapped on
        the class itself, such as a dataclass's __post_init__.
        """
        modules = {
            name: mod for name, mod in sys.modules.items()
            if (name == PACKAGE or name.startswith(PACKAGE + ".")) and mod is not None
        }
        plan = []
        for _, mod in sorted(modules.items()):
            for attr, obj in sorted(vars(mod).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ in modules
                    and obj.__module__ != PACKAGE
                    and not attr.startswith("_")
                    and attr == obj.__name__ == obj.__qualname__
                    and not inspect.isgeneratorfunction(obj)
                ):
                    plan.append((mod, attr, obj))

        # A self-recursive function is called through a copy whose globals
        # bind its own name to the copy.  The globals are filled in after
        # patching, so its calls to *other* functions still hit the wrappers.
        copies = {}
        for _, _, fn in plan:
            if fn not in copies and _refers_to(fn.__code__, fn.__name__):
                raw = types.FunctionType(fn.__code__, {}, fn.__name__, fn.__defaults__, fn.__closure__)
                raw.__kwdefaults__ = fn.__kwdefaults__
                copies[fn] = raw

        for mod, attr, fn in plan:
            name = f"{_layer_name(fn.__module__)}.{fn.__name__}"
            wrapped = self._wrapper(copies.get(fn, fn), name, _layer_name(mod.__name__), name in hit_counted)
            self._undo.append((mod, attr, fn))
            setattr(mod, attr, wrapped)

        for fn, raw in copies.items():
            raw.__globals__.update(vars(sys.modules[fn.__module__]))
            raw.__globals__[fn.__name__] = raw

        for name, (cls, attr) in (methods or {}).items():
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrapper(original, name, OUTSIDE, False))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def count(self, name: str, caller: str | None = None) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            return 0
        return sum(n for (callee, who), n in self.calls.items()
                   if callee == ix and (caller is None or who == caller))

    def self_seconds(self, name: str) -> float:
        ix = self._name_ix.get(name)
        return 0.0 if ix is None else self.self_s[ix]

    def layer_self_seconds(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s for ix, s in self.self_s.items() if self.names[ix].startswith(prefix))

    def hit_count(self, name: str) -> int:
        ix = self._name_ix.get(name)
        return 0 if ix is None else self.hits[ix]

    def write_spans(self, path) -> None:
        """One CSV row per span: id, name, start, end, parent id, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start,end,parent,op\n")
            names = self.names
            for sid, ix, start, end, parent, op in zip(
                self.span_id, self.span_name, self.span_start, self.span_end,
                self.span_parent, self.span_op,
            ):
                fh.write(f"{sid},{names[ix]},{start:.9f},{end:.9f},{parent},{op}\n")

