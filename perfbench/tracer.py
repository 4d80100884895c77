"""Per-layer call counts and self times, measured from outside qbounds.

A Tracer wraps each public function in LAYERS in its defining module and
in every other qbounds module namespace that holds the same function
object (a `from .digraph import adjacency` binding, the package's
re-exports). Self time is a call's wall time minus the wall time of the
wrapped calls it made; private helpers are not wrapped, so their time
stays with the nearest wrapped caller. Removing the tracer puts every
original object back.
"""

import functools
import importlib
import sys
import time

PACKAGE = "qbounds"

# (module, function) pairs, in report order.
LAYERS = (
    ("edgelist", "parse_edge_list"),
    ("edgelist", "serialize_edge_list"),
    ("digraph", "adjacency"),
    ("digraph", "degree_profile"),
    ("digraph", "scc"),
    ("digraph", "is_strongly_connected"),
    ("digraph", "classify"),
    ("spectral", "spectral_radius"),
    ("spectral", "build_q"),
    ("spectral", "oval_containment"),
    ("bounds", "all_bounds"),
    ("bounds", "witness_value"),
    ("verify", "reconstruct"),
    ("verify", "sweep"),
    ("cli", "main"),
)
LAYER_NAMES = tuple(f"{module}.{function}" for module, function in LAYERS)
ITERATIONS_LAYER = "spectral.spectral_radius"


def package_modules():
    """The loaded qbounds modules, the package itself included."""
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None
        and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Context manager: wraps the LAYERS functions on entry, restores the
    originals on exit. Counts accumulate across uses of one instance."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYER_NAMES, 0)
        self.self_ns = dict.fromkeys(LAYER_NAMES, 0)
        self.total_ns = dict.fromkeys(LAYER_NAMES, 0)
        self.iterations = 0
        self._open = []  # child wall time of each active wrapped call
        self._patches = []  # (namespace, attribute, original)

    def __enter__(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for module, function in LAYERS:
            importlib.import_module(f"{PACKAGE}.{module}")
        namespaces = package_modules()
        try:
            for module, function in LAYERS:
                name = f"{module}.{function}"
                original = getattr(sys.modules[f"{PACKAGE}.{module}"], function)
                wrapper = self._wrap(name, original)
                for namespace in namespaces:
                    for attribute, value in list(vars(namespace).items()):
                        if value is original:
                            self._patches.append((namespace, attribute, original))
                            setattr(namespace, attribute, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info):
        self._restore()
        return False

    def _restore(self):
        while self._patches:
            namespace, attribute, original = self._patches.pop()
            setattr(namespace, attribute, original)

    def _wrap(self, name, fn):
        clock = time.perf_counter_ns
        open_calls = self._open
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns
        counts_iterations = name == ITERATIONS_LAYER

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_calls.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_calls.pop()
                if open_calls:
                    open_calls[-1] += elapsed
                calls[name] += 1
                total_ns[name] += elapsed
                self_ns[name] += elapsed - children
            if counts_iterations:
                self.iterations += result.iterations
            return result

        return wrapper

    def snapshot(self) -> dict:
        """Counts and times as plain data: {layer: {calls, self_s, total_s}}
        plus the summed spectral_radius iterations."""
        layers = {
            name: {
                "calls": self.calls[name],
                "self_s": self.self_ns[name] / 1e9,
                "total_s": self.total_ns[name] / 1e9,
            }
            for name in LAYER_NAMES
        }
        return {"layers": layers, "iterations": self.iterations}
