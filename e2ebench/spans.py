"""Outside-in span tracer: wraps library functions from outside the library.

A :class:`Tracer` replaces chosen functions and methods with wrappers that
record one span per call -- name, start, end, parent span and the request
identifier current at the call -- into flat in-memory arrays.  Nothing is
written while the traced code runs; :meth:`Tracer.save` writes every span
once, at the end.

Wrapping is by reference: a module-level function is replaced in every
loaded module of the traced package that holds a reference to it (callers
that did ``from x import f`` see the wrapper too); a method is replaced on
the class that defines it.  :meth:`Tracer.restore` puts every original
object back, and a forked child process restores them on its own first
breath, so pool workers never run wrappers.

The tracer assumes the traced calls happen on one thread: the span stack
is a plain list.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from time import perf_counter
from typing import Any, Callable

#: Attribute set on every wrapper so tests can prove none survives.
WRAPPER_MARK = "__e2ebench_traced__"

#: Tracers with live patches; a forked child restores them at once.
_LIVE: "list[Tracer]" = []
_FORK_HOOK_INSTALLED = False


def _restore_live_in_child() -> None:
    for tracer in list(_LIVE):
        tracer.restore()


class Tracer:
    """Records nested spans around wrapped calls.

    Attributes:
        names: span-name table; spans store indices into it.
        name_id, start, end, parent, request: one entry per span, in call
            order.  ``parent`` is the index of the enclosing span or -1;
            ``request`` is :attr:`request_id` at call time.
        request_id: identifier stamped on spans opened from now on; the
            caller sets it at each request boundary.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.request_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _intern(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = len(self.names)
            self.names.append(name)
            self._name_index[name] = index
        return index

    def wrap(
        self,
        fn: Callable,
        name: str,
        on_call: "Callable[[tuple, dict], None] | None" = None,
        on_return: "Callable[[tuple, dict, Any], None] | None" = None,
    ) -> Callable:
        """A span-recording wrapper around ``fn``.

        ``on_call`` sees the arguments before the call and ``on_return``
        the arguments and the result after it; both run outside the
        span's interval.
        """
        nid = self._intern(name)
        name_id, start, end = self.name_id, self.start, self.end
        parent, request, stack = self.parent, self.request, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            request.append(self.request_id)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        setattr(traced, WRAPPER_MARK, True)
        return traced

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any, is_dict: bool) -> None:
        if is_dict:
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def _patch(self, owner: Any, attr: str, value: Any, is_dict: bool) -> None:
        original = owner[attr] if is_dict else owner.__dict__[attr]
        self._patches.append((owner, attr, original, is_dict))
        self._set(owner, attr, value, is_dict)
        if self not in _LIVE:
            _LIVE.append(self)
        global _FORK_HOOK_INSTALLED
        if not _FORK_HOOK_INSTALLED:
            os.register_at_fork(after_in_child=_restore_live_in_child)
            _FORK_HOOK_INSTALLED = True

    def patch_method(self, cls: type, attr: str, replacement: Any) -> None:
        """Replace a method on the class that defines it."""
        if attr not in cls.__dict__:
            raise AttributeError(f"{cls.__name__} does not define {attr}")
        self._patch(cls, attr, replacement, False)

    def trace_function(self, fn: Callable, name: str, package: str, **hooks):
        """Wrap ``fn`` in every module of ``package`` that refers to it."""
        traced = self.wrap(fn, name, **hooks)
        prefix = package + "."
        found = False
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == package or module_name.startswith(prefix)
            ):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is fn:
                    self._patch(namespace, attr, traced, True)
                    found = True
        if not found:
            raise LookupError(f"no module of {package} refers to {fn!r}")

    def trace_method(self, cls: type, attr: str, name: str, **hooks) -> None:
        """Wrap one method of ``cls`` (the class that defines it)."""
        traced = self.wrap(cls.__dict__[attr], name, **hooks)
        self.patch_method(cls, attr, traced)

    def restore(self) -> None:
        """Put every patched object back, newest patch first."""
        while self._patches:
            owner, attr, original, is_dict = self._patches.pop()
            self._set(owner, attr, original, is_dict)
        if self in _LIVE:
            _LIVE.remove(self)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def save(self, path: "str | os.PathLike") -> None:
        """Write every span once, as a compressed ``.npz`` of columns."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.asarray(self.names, dtype=object).astype(str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
        )


def self_times(
    start: "list[float] | array",
    end: "list[float] | array",
    parent: "list[int] | array",
) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children may overlap each other (concurrent children); the covered
    part is the union of their intervals, clipped to the parent's own.
    """
    n = len(start)
    covered = [0.0] * n
    reach: dict[int, float] = {}
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]
