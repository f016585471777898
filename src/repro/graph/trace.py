"""Trace one eager forward pass into a static :class:`~repro.graph.ir.Graph`.

The tracer layers on the same interposition points the obs profiler
uses (:data:`repro.obs.profiler._TENSOR_METHODS` and
:data:`repro.obs.profiler._FUNCTION_OPS`): while a trace is running,
every primitive tensor method and autograd free function is wrapped to
record a node after computing its eager result, so the captured values
are — by construction — the eager values.  Three extra capture points
cover what the op tables cannot see:

- ``Tensor.__init__`` is hooked so arrays produced by traced ops (or by
  registered external helpers) that get re-wrapped via ``Tensor(arr)``
  stay connected to their producing node ("alias" when the array is
  adopted as-is, a ``cast`` node when ``__init__`` copies to the default
  dtype).
- A registry of *external* numpy helpers (``rel2att._relation_weight_mask``,
  ``rel2att._clause_arrays`` and friends) records data-dependent
  pure-numpy computations as single opaque nodes; tuple returns get
  per-element ``tuple_get`` nodes.  Numpy work on a traced array outside
  such a helper (indexing, arithmetic) is not recorded and would be
  baked into the plan as a constant, so every mask-derived array a
  forward pass needs must come out of a registered helper.
- Untracked tensors and arrays reaching a traced op (parameters, BN
  running-stat reshapes, python scalars) are lifted to ``constant``
  nodes on first use.

Composite tensor methods (``sub``, ``mean``, ``var``, ``stack``,
``softmax``) are recorded as one node each; the re-entrancy guard
suppresses their interior primitives, exactly like the profiler's
attribution rule.  The executor replicates each composite's eager
arithmetic operation-for-operation, which is what keeps compiled
outputs bit-exact.

Tracing temporarily *suspends* an active op-level profiler: both
facilities patch the same bindings, and stacking wrappers would either
trace the profiler's wrappers or leave stale originals behind.  The
profiler's patches are reinstalled as soon as the trace finishes, so
``profile --target serve --compiled`` can compile plans mid-profile.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import threading
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd.tensor import Tensor, as_tensor, no_grad
from repro.graph.ir import Graph, Node, Slot

#: External pure-numpy helpers recorded as single opaque nodes:
#: (module, attribute, node label).  These run data-dependent numpy code
#: outside the tensor op tables; capturing them whole keeps the graph
#: faithful without teaching the tracer their internals.
_EXTERNAL_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.rel2att", "_relation_weight_mask", "rel2att.weight_mask"),
    ("repro.core.rel2att", "_attention_normalizers", "rel2att.att_normalizers"),
    ("repro.core.rel2att", "_clause_arrays", "rel2att.clause_arrays"),
    ("repro.core.word2pix", "_word_mask_arrays", "word2pix.mask_arrays"),
)

#: Methods whose second operand must be coerced with ``as_tensor`` before
#: dispatch so the tracer sees the exact tensor the op consumes.
_BINARY_METHODS = frozenset(
    {"__add__", "__sub__", "__mul__", "__truediv__", "matmul", "maximum"}
)

# Re-entrancy guard, separate from the profiler's: interior primitives of
# a composite op are suppressed so each composite is one node.
_tls = threading.local()

_active_tracer: Optional["Tracer"] = None
_trace_lock = threading.Lock()


class TraceError(RuntimeError):
    """Raised when a forward pass cannot be captured faithfully."""


# ----------------------------------------------------------------------
# Pytree flatten/unflatten (covers YolloOutput and nested containers)
# ----------------------------------------------------------------------
def _flatten_into(obj: Any, leaves: List[Any]) -> Tuple:
    if isinstance(obj, Tensor):
        leaves.append(obj)
        return ("tensor",)
    if isinstance(obj, np.ndarray):
        leaves.append(obj)
        return ("array",)
    if isinstance(obj, (list, tuple)):
        kind = "list" if isinstance(obj, list) else "tuple"
        return (kind, [_flatten_into(item, leaves) for item in obj])
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        names = [f.name for f in dataclasses.fields(obj)]
        specs = [_flatten_into(getattr(obj, n), leaves) for n in names]
        return ("dataclass", type(obj), names, specs)
    if isinstance(obj, dict):
        keys = list(obj.keys())
        return ("dict", keys, [_flatten_into(obj[k], leaves) for k in keys])
    return ("literal", obj)


def tree_flatten(obj: Any) -> Tuple[List[Any], Tuple]:
    """Flatten nested containers into (tensor/array leaves, spec)."""
    leaves: List[Any] = []
    spec = _flatten_into(obj, leaves)
    return leaves, spec


def tree_unflatten(spec: Tuple, leaves: Iterator[Any]) -> Any:
    """Rebuild the traced structure from a leaf iterator.

    ``tensor`` leaves are wrapped back into (untracked) :class:`Tensor`
    objects; ``array`` leaves stay plain arrays.
    """
    kind = spec[0]
    if kind == "tensor":
        leaf = next(leaves)
        return leaf if isinstance(leaf, Tensor) else Tensor(leaf)
    if kind == "array":
        return next(leaves)
    if kind == "literal":
        return spec[1]
    if kind in ("list", "tuple"):
        items = [tree_unflatten(s, leaves) for s in spec[1]]
        return items if kind == "list" else tuple(items)
    if kind == "dataclass":
        _, cls, names, specs = spec
        return cls(**{n: tree_unflatten(s, leaves) for n, s in zip(names, specs)})
    if kind == "dict":
        _, keys, specs = spec
        return {k: tree_unflatten(s, leaves) for k, s in zip(keys, specs)}
    raise TraceError(f"unknown pytree spec kind: {kind!r}")


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------
class Tracer:
    """Records one forward pass; install/uninstall around the call."""

    def __init__(self, name: str):
        self.graph = Graph(name)
        # id() keyed: strong keepalive refs below prevent id reuse while
        # the trace is alive.
        self._tensor_nodes: Dict[int, Node] = {}
        self._array_nodes: Dict[int, Node] = {}
        self._keepalive: List[Any] = []
        self._thread = threading.get_ident()
        self._patched_methods: List[Tuple[str, object]] = []
        self._patched_modules: List[Tuple[object, str, object]] = []
        self._patched_init: Optional[Callable] = None

    # ------------------------------------------------------------------
    # Node registration / resolution
    # ------------------------------------------------------------------
    def register_tensor(self, tensor: Tensor, node: Node) -> None:
        self._tensor_nodes[id(tensor)] = node
        self._keepalive.append(tensor)
        # The payload array resolves to the same node, so a later
        # ``Tensor(t.data)`` or external call consuming it stays wired.
        self._array_nodes[id(tensor.data)] = node
        self._keepalive.append(tensor.data)

    def register_array(self, array: np.ndarray, node: Node) -> None:
        self._array_nodes[id(array)] = node
        self._keepalive.append(array)

    def node_for(self, value: Any) -> Optional[Node]:
        """Node producing ``value``; untracked tensors/arrays become constants."""
        if isinstance(value, Tensor):
            node = self._tensor_nodes.get(id(value))
            if node is None:
                node = self.graph.add_constant(value.data, name=value.name or "const")
                self.register_tensor(value, node)
            return node
        if isinstance(value, np.ndarray):
            node = self._array_nodes.get(id(value))
            if node is None:
                node = self.graph.add_constant(value, name="const")
                self.register_array(value, node)
            return node
        return None

    def _template(self, value: Any, inputs: List[Node]) -> Any:
        """Replace tensors/arrays with :class:`Slot` markers, recursively."""
        if isinstance(value, (Tensor, np.ndarray)):
            node = self.node_for(value)
            inputs.append(node)
            return Slot(len(inputs) - 1, tensor=isinstance(value, Tensor))
        if isinstance(value, (list, tuple)):
            items = [self._template(item, inputs) for item in value]
            return items if isinstance(value, list) else tuple(items)
        return value

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record_call(self, kind: str, attr: str, label: str,
                     args: Sequence[Any], kwargs: Dict[str, Any], out: Any) -> None:
        inputs: List[Node] = []
        arg_template = tuple(self._template(a, inputs) for a in args)
        kw_template = {k: self._template(v, inputs) for k, v in kwargs.items()}
        attrs = {"kind": kind, "attr": attr, "args": arg_template, "kwargs": kw_template}
        if isinstance(out, Tensor):
            node = self.graph.add_node(label, inputs, attrs, value=out.data, name=label)
            self.register_tensor(out, node)
        else:
            raise TraceError(f"traced op {label!r} returned non-Tensor {type(out)!r}")

    def _record_external(self, label: str, fn: Callable,
                         args: Sequence[Any], kwargs: Dict[str, Any], out: Any) -> None:
        inputs: List[Node] = []
        arg_template = tuple(self._template(a, inputs) for a in args)
        kw_template = {k: self._template(v, inputs) for k, v in kwargs.items()}
        attrs = {
            "kind": "external", "fn": fn,
            "args": arg_template, "kwargs": kw_template,
        }
        node = self.graph.add_node("external", inputs, attrs, value=out, name=label)
        if isinstance(out, np.ndarray):
            node.set_value(out)
            self.register_array(out, node)
        elif isinstance(out, tuple):
            for index, element in enumerate(out):
                if not isinstance(element, np.ndarray):
                    continue
                getter = self.graph.add_node(
                    "tuple_get", [node], {"kind": "tuple_get", "index": index},
                    value=element, name=f"{label}[{index}]",
                )
                self.register_array(element, getter)
        else:
            raise TraceError(f"external {label!r} returned unsupported {type(out)!r}")

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap_method(self, attr: str, label: str, original: Callable) -> Callable:
        tracer = self
        coerce_other = attr in _BINARY_METHODS

        def wrapped(self_t, *args, **kwargs):
            if getattr(_tls, "busy", False) or threading.get_ident() != tracer._thread:
                return original(self_t, *args, **kwargs)
            if coerce_other and args:
                args = (as_tensor(args[0]),) + args[1:]
            _tls.busy = True
            try:
                out = original(self_t, *args, **kwargs)
            finally:
                _tls.busy = False
            tracer._record_call("method", attr, label, (self_t,) + args, kwargs, out)
            return out

        wrapped.__name__ = getattr(original, "__name__", attr)
        wrapped._graph_original = original
        return wrapped

    def _wrap_function(self, label: str, original: Callable) -> Callable:
        tracer = self

        def wrapped(*args, **kwargs):
            if getattr(_tls, "busy", False) or threading.get_ident() != tracer._thread:
                return original(*args, **kwargs)
            _tls.busy = True
            try:
                out = original(*args, **kwargs)
            finally:
                _tls.busy = False
            tracer._record_call("function", label, label, args, kwargs, out)
            return out

        wrapped.__name__ = getattr(original, "__name__", label)
        wrapped._graph_original = original
        return wrapped

    def _wrap_external(self, label: str, original: Callable) -> Callable:
        tracer = self

        def wrapped(*args, **kwargs):
            if getattr(_tls, "busy", False) or threading.get_ident() != tracer._thread:
                return original(*args, **kwargs)
            _tls.busy = True
            try:
                out = original(*args, **kwargs)
            finally:
                _tls.busy = False
            tracer._record_external(label, original, args, kwargs, out)
            return out

        wrapped.__name__ = getattr(original, "__name__", label)
        wrapped._graph_original = original
        return wrapped

    def _make_init_hook(self, original_init: Callable) -> Callable:
        tracer = self

        def traced_init(tensor_self, data, requires_grad=False, name=""):
            original_init(tensor_self, data, requires_grad, name)
            if getattr(_tls, "busy", False) or threading.get_ident() != tracer._thread:
                return
            source = data.data if isinstance(data, Tensor) else data
            if not isinstance(source, np.ndarray):
                return
            node = tracer._array_nodes.get(id(source))
            if node is None:
                return
            if tensor_self.data is source:
                # Adopted as-is: the new tensor aliases the node's value.
                tracer._tensor_nodes[id(tensor_self)] = node
                tracer._keepalive.append(tensor_self)
            else:
                # __init__ copied (dtype cast): record it so the compiled
                # plan reproduces the cast under the dtype active at run
                # time, exactly as eager construction would.
                cast = tracer.graph.add_node(
                    "cast", [node], {"kind": "cast"},
                    value=tensor_self.data, name="cast",
                )
                tracer.register_tensor(tensor_self, cast)

        return traced_init

    # ------------------------------------------------------------------
    # Patch installation (mirrors repro.obs.profiler)
    # ------------------------------------------------------------------
    def _install(self) -> None:
        from repro.obs.profiler import _FUNCTION_OPS, _TENSOR_METHODS

        for attr, label in _TENSOR_METHODS.items():
            original = getattr(Tensor, attr)
            setattr(Tensor, attr, self._wrap_method(attr, label, original))
            self._patched_methods.append((attr, original))

        # Free functions: patch the defining module and every module that
        # froze a direct binding via ``from repro.autograd import conv2d``.
        originals = {
            label: getattr(module, label) for label, module in _FUNCTION_OPS.items()
        }
        wrappers = {
            label: self._wrap_function(label, fn) for label, fn in originals.items()
        }
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("repro"):
                continue
            for label, fn in originals.items():
                if getattr(module, label, None) is fn:
                    setattr(module, label, wrappers[label])
                    self._patched_modules.append((module, label, fn))

        for module_name, attr, label in _EXTERNAL_FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap_external(label, original))
            self._patched_modules.append((module, attr, original))

        self._patched_init = Tensor.__init__
        Tensor.__init__ = self._make_init_hook(self._patched_init)

    def _uninstall(self) -> None:
        if self._patched_init is not None:
            Tensor.__init__ = self._patched_init
            self._patched_init = None
        for module, attr, original in self._patched_modules:
            setattr(module, attr, original)
        self._patched_modules = []
        for attr, original in self._patched_methods:
            setattr(Tensor, attr, original)
        self._patched_methods = []


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
class TracedGraph:
    """A captured forward pass: graph + argument binding + output pytree."""

    def __init__(self, graph: Graph, out_spec: Tuple,
                 input_binding: List[Tuple[str, Any]], fn_name: str):
        self.graph = graph
        self.out_spec = out_spec
        #: Per positional argument: ("array", input_index) when the
        #: argument was lifted to a graph input, ("literal", value)
        #: when it was baked into the trace (ints, None masks, flags).
        self.input_binding = input_binding
        self.fn_name = fn_name

    def bind(self, args: Sequence[Any]) -> List[np.ndarray]:
        """Map call arguments onto the graph's input nodes, in order."""
        if len(args) != len(self.input_binding):
            raise TraceError(
                f"{self.fn_name} traced with {len(self.input_binding)} args, "
                f"called with {len(args)}"
            )
        arrays: List[np.ndarray] = [None] * len(self.graph.inputs)  # type: ignore
        for value, (kind, ref) in zip(args, self.input_binding):
            if kind != "array":
                continue
            data = value.data if isinstance(value, Tensor) else np.asarray(value)
            arrays[ref] = data
        return arrays

    def unflatten(self, leaves: Sequence[Any]) -> Any:
        return tree_unflatten(self.out_spec, iter(leaves))

    def __repr__(self) -> str:
        return f"TracedGraph({self.fn_name}: {self.graph.summary()})"


def trace(fn: Callable, *args: Any, name: str = "") -> TracedGraph:
    """Run ``fn(*args)`` once under the tracer and return its graph.

    Runs under ``no_grad`` (plans are inference-only) and suspends an
    active op-level profiler for the duration of the call.  Tensor and
    ndarray positional arguments become graph inputs; every other
    argument is baked into the trace as a literal.
    """
    from repro.obs.profiler import get_active_profiler

    global _active_tracer
    fn_name = name or getattr(fn, "__qualname__", getattr(fn, "__name__", "fn"))
    with _trace_lock:
        if _active_tracer is not None:
            raise TraceError("a trace is already in progress")
        tracer = Tracer(fn_name)
        _active_tracer = tracer
        profiler = get_active_profiler()
        try:
            with no_grad():
                input_binding: List[Tuple[str, Any]] = []
                for position, arg in enumerate(args):
                    if isinstance(arg, Tensor):
                        node = tracer.graph.add_input(f"arg{position}", arg.data)
                        tracer.register_tensor(arg, node)
                        input_binding.append(("array", len(tracer.graph.inputs) - 1))
                    elif isinstance(arg, np.ndarray):
                        node = tracer.graph.add_input(f"arg{position}", arg)
                        tracer.register_array(arg, node)
                        input_binding.append(("array", len(tracer.graph.inputs) - 1))
                    else:
                        input_binding.append(("literal", arg))
                if profiler is not None:
                    profiler._uninstall_patches()
                try:
                    tracer._install()
                    try:
                        out = fn(*args)
                    finally:
                        tracer._uninstall()
                finally:
                    if profiler is not None:
                        profiler._install_patches()
        finally:
            _active_tracer = None

    leaves, spec = tree_flatten(out)
    if not leaves:
        raise TraceError(f"{fn_name} returned no tensor outputs")
    tracer.graph.outputs = [tracer.node_for(leaf) for leaf in leaves]
    return TracedGraph(tracer.graph, spec, input_binding, fn_name)
