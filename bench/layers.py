"""Per-layer spans, recorded from outside the package.

The layers are the modules of ``qracbox``.  ``Tracer.install`` wraps
every public function of each layer, plus the few methods named in
``_METHOD_SPANS``, and rebinds each wrapper in every package namespace
that holds the original: ``from .quantum import bell_measure`` leaves a
second binding in ``qrac`` that wrapping ``quantum`` alone would miss.

A span keeps only aggregates (calls, inclusive time, self time and a
few counters), so tracing costs no memory per call.  Self time is the
span's duration minus the durations of the wrapped spans it encloses.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "qracbox"
LAYERS = ("quantum", "qrac", "boxes", "channel", "metering", "harness", "rng", "cli")

# (label, module, class, method); several methods may share a label
_METHOD_SPANS = (
    ("quantum.validate", "quantum", "StateVector", "__post_init__"),
    ("quantum.validate", "quantum", "DensityMatrix", "__post_init__"),
    ("quantum.validate", "quantum", "UnitaryMatrix", "__post_init__"),
    ("channel.ChoiMatrix", "channel", "ChoiMatrix", "__post_init__"),
    ("boxes.PRBox", "boxes", "PRBox", "__init__"),
    ("metering.send", "metering", "MeteredChannel", "send"),
)


def _state_bytes(args, kwargs, result) -> int:
    """Computed, not measured: 16 bytes per complex amplitude of the input."""
    state = args[0] if args else kwargs["state"]
    return 16 * 2**state.num_qubits


# label -> what one call adds to (bytes, kept, items)
_COUNTERS = {
    "quantum.bell_measure": {"bytes": _state_bytes},
    "quantum.bell_project": {"bytes": _state_bytes, "kept": lambda a, k, r: r[1] is not None},
    "quantum.measure_project": {"kept": lambda a, k, r: r[1] is not None},
    "quantum.apply_unitary": {"bytes": _state_bytes},
    "quantum.reduced_density": {"bytes": _state_bytes},
    "qrac.channel_branches": {"items": lambda a, k, r: len(r)},
    "harness.canonical_json": {"bytes": lambda a, k, r: len(r)},
}


class Span:
    """Aggregates of every call under one label."""

    __slots__ = ("calls", "total_s", "self_s", "bytes", "kept", "items")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.bytes = 0
        self.kept = 0
        self.items = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    """Installs and removes span wrappers around the package's layers."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, label: str, fn):
        span = self.spans.setdefault(label, Span())
        counters = _COUNTERS.get(label, {})
        count_bytes = counters.get("bytes")
        count_kept = counters.get("kept")
        count_items = counters.get("items")
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - children
            if count_bytes is not None:
                span.bytes += count_bytes(args, kwargs, result)
            if count_kept is not None:
                span.kept += bool(count_kept(args, kwargs, result))
            if count_items is not None:
                span.items += count_items(args, kwargs, result)
            return result

        return traced

    def _setattr(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        namespaces = [
            module for name, module in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for module in namespaces:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._setattr(module, name, wrappers[id(obj)][1])
        for label, layer, cls_name, method in _METHOD_SPANS:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            self._setattr(cls, method, self._wrap(label, vars(cls)[method]))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def reset(self) -> None:
        for span in self.spans.values():
            span.reset()

    def snapshot(self) -> dict[str, dict]:
        return {label: span.as_dict() for label, span in sorted(self.spans.items())}
