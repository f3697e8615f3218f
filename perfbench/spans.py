"""Per-layer spans recorded from outside the package.

`Tracer.install()` replaces every public function of each layer module,
and the public methods, constructor and arithmetic operators of its
public classes, with a wrapper that records a span when the call
crosses from one layer into another.  Calls that stay inside a layer
run unwrapped work, so a layer's span covers everything it does itself.
`Tracer.uninstall()` puts the originals back; an untraced run never
installs anything.

Spans live in memory as tuples until the run aggregates them.  A span's
self time is its duration minus the durations of its direct children,
except `_kernels` children: the kernels are the F2 fast path of the
module that calls them, so their time stays in the caller's self time
and `kernels.*` break it down.  The gap between, say, `hankel.self_ms`
and `kernels.hankel_parities.self_ms` is the wrapper's own cost.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from time import perf_counter

# layer name -> modules that make it up
LAYERS = {
    "cli": ("plcpkit.cli",),
    "seqgen": ("plcpkit.seqgen",),
    "field": ("plcpkit.field",),
    "lincomplex": ("plcpkit.lincomplex",),
    "cfrac": ("plcpkit.cfrac",),
    "hankel": ("plcpkit.hankel",),
    "automata": ("plcpkit.automata",),
    "_kernels": ("plcpkit._kernels", "plcpkit._kernels._ref", "plcpkit._kernels._core"),
}
KERNELS = ("lcp_profile", "laurent_cf", "hankel_parities", "series_inverse")

# operators that are part of a class's public interface
_OPERATORS = (
    "__init__",
    "__add__",
    "__sub__",
    "__mul__",
    "__rmul__",
    "__neg__",
    "__divmod__",
    "__floordiv__",
    "__mod__",
)


def _public_names(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return names


# Per-op counters, taken at layer boundaries from call results.  Each hook
# maps a result to (counter, increment) pairs.
def _hankel_parities(parities):
    m = len(parities)
    first_even = next((k for k, v in enumerate(parities, start=1) if v == 0), m)
    return (("hankel.orders", m), ("hankel.useful", first_even))


def _hankel_values(report):
    # odd-p and exact reports want every value, so every order is useful;
    # F2 reports come from the parity kernel, which counts itself
    if report.modulus == 2:
        return ()
    return (("hankel.orders", report.max_order), ("hankel.useful", report.max_order))


def _apww(result):
    return (("hankel.orders", result.max_order), ("hankel.useful", result.max_order))


def _seq_terms(seq):
    return (("seqgen.terms", len(seq)),)


HOOKS = {
    "_kernels.hankel_parities": _hankel_parities,
    "hankel.hankel_mod_p": _hankel_values,
    "hankel.hankel_integer_pm1": _hankel_values,
    "hankel.apww_check": _apww,
    "lincomplex.lcp_profile": lambda profile: (("lincomplex.terms", len(profile.values)),),
    "cfrac.laurent_cf": lambda cf: (("cfrac.quotients", len(cf.quotients)),),
    "automata.kernel_explore": lambda report: (("automata.classes", report.class_count()),),
}
for _gen in (
    "rueppel",
    "phi1_jacobi",
    "phi2_selector",
    "phi3_generalized_rueppel",
    "named_sequence",
    "morphism_fixed_point",
):
    HOOKS["seqgen." + _gen] = _seq_terms
COUNTS = (
    "hankel.orders",
    "hankel.useful",
    "lincomplex.terms",
    "cfrac.quotients",
    "seqgen.terms",
    "automata.classes",
)


class Tracer:
    """Records spans while `recording` is true; see the module docstring."""

    def __init__(self):
        self.recording = False
        self.op = -1
        self.spans = []  # (op, span id, parent id, layer, name, start, end, self seconds)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []  # open spans: [layer, child seconds, span id]
        self._next_id = 0
        self._undo = []

    def _wrap(self, layer, name, fn):
        hook = HOOKS.get(f"{layer}.{name}")
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if not tracer.recording or (stack and stack[-1][0] == layer):
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][2] if stack else None
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack and layer != "_kernels":
                    stack[-1][1] += end - start
                tracer.spans.append(
                    (tracer.op, span_id, parent, layer, name, start, end, end - start - frame[1])
                )
            if hook is not None:
                for key, amount in hook(result):
                    tracer.counts[key] += amount
            return result

        return traced

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrapped = {}  # id(original) -> wrapper, for re-exported names
        for layer, module_names in LAYERS.items():
            for module_name in module_names:
                module = sys.modules.get(module_name)
                if module is None:
                    try:
                        module = importlib.import_module(module_name)
                    except ImportError:  # the compiled kernels are optional
                        continue
                for name in _public_names(module):
                    obj = getattr(module, name, None)
                    if isinstance(obj, type):
                        if obj.__module__ == module_name and not issubclass(obj, BaseException):
                            self._wrap_class(layer, obj)
                    elif callable(obj) and getattr(obj, "__module__", None) in module_names:
                        if id(obj) not in wrapped:
                            wrapped[id(obj)] = (obj, self._wrap(layer, name, obj))
        for module_name, module in list(sys.modules.items()):
            if module_name != "plcpkit" and not module_name.startswith("plcpkit."):
                continue
            for name, value in list(vars(module).items()):
                entry = wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])
                    self._undo.append((module, name, value))

    def _wrap_class(self, layer, cls):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in _OPERATORS:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(layer, f"{cls.__name__}.{name}", raw.__func__))
            elif isinstance(raw, types.FunctionType):
                new = self._wrap(layer, f"{cls.__name__}.{name}", raw)
            else:
                continue
            setattr(cls, name, new)
            self._undo.append((cls, name, raw))

    def uninstall(self):
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()

    def summary(self, op_seconds):
        """Per-op layer metrics over the recorded ops; op_seconds are their durations."""
        ops = len(op_seconds)
        total = sum(op_seconds)
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        kernel_s = dict.fromkeys(KERNELS, 0.0)
        for span in self.spans:
            layer, name, own = span[3], span[4], span[7]
            calls[layer] += 1
            self_s[layer] += own
            if layer == "_kernels" and name in kernel_s:
                kernel_s[name] += own
        out = {}
        for layer in LAYERS:
            prefix = layer.lstrip("_")  # metric names start with a letter
            out[f"{prefix}.calls"] = calls[layer] / ops
            out[f"{prefix}.self_ms"] = 1e3 * self_s[layer] / ops
            out[f"{prefix}.share"] = self_s[layer] / total
        for name in KERNELS:
            out[f"kernels.{name}.self_ms"] = 1e3 * kernel_s[name] / ops
        c = self.counts
        out["hankel.orders"] = c["hankel.orders"] / ops
        out["hankel.useful_ratio"] = c["hankel.useful"] / c["hankel.orders"] if c["hankel.orders"] else 0.0
        for key in ("cfrac.quotients", "lincomplex.terms", "seqgen.terms", "automata.classes"):
            out[key] = c[key] / ops
        return out
