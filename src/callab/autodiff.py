"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Values are stored as contiguous float32 arrays; reductions (sums, means,
norms) accumulate in float64 before rounding back to storage precision,
which keeps finite-difference gradient checks tight on deep graphs.

Scalars follow one rule: a 0-d tensor is stored as a 0-d float64 array.
``sum_all`` and ``mean_all`` return their float64 accumulator unrounded,
so loss values and the arithmetic on them (``add``, ``sub``, ``mul``,
``scale``) are plain float64 numpy, and ``item()`` reads that value. The
gradients flowing back through them are float32 like every other gradient.

Matrix products follow one precision rule. A product that contracts only a
feature axis runs in storage precision (float32 BLAS, no casts): the forward
and input-gradient products of 2-D and 3-D@2-D matmuls and of ``linear``,
which are every linear layer, the pooler, the classifier and the InfoNCE
similarities. A product that may sum over padded positions accumulates in
float64 and rounds once: the parameter gradient ``a^T g`` (it sums over
every batch row and position), the bias gradient of ``linear``, and all
three products of a batched matmul, which in ``attention`` are the scores,
the context and their gradients. In float32 such sums depend on how many
padding zeros they run over, so a batch trimmed to its longest row would
train differently from one padded to ``max_len``; in float64 the rounded
result does not see the width. Under ``_float64_forward`` (the gradient
checker's oracle) every product is float64.

``linear``, ``attention`` and ``residual_norm`` are fused: each is one tape
node whose hand-written backward runs the same numpy operations, on the same
operand layouts, as the op-by-op chain it replaces (reshape, matmul,
add_bias; head split, scores, scale, mask, softmax, dropout, context, head
merge; dropout_apply, add, layer_norm), so both give the chain's bytes with
a fraction of its nodes. ``layer_norm`` and ``residual_norm`` share one
float64 body that works in place on its own copies.

Operations record onto an explicit tape (define-by-run) only while a
``Tape`` context is active and at least one input requires grad; outside a
tape everything is plain numpy, which is what evaluation paths use. A
reverse walk tells each node which of its inputs it keeps, and matmul,
add_bias, layer_norm, residual_norm, linear and attention compute no
gradient for an input that is not kept, so ``grad_of`` differentiates no
parameter on its way to the seam.

A node holds only what its backward reads: its closure's arrays, each
input's (key, shape, requires_grad), its leaf inputs (requires-grad tensors
no node of the tape produced) and a weak reference to its output, so an
intermediate nobody holds, such as a projection's output, dies during the
forward. Gradients are keyed by ``Tensor.key``, a serial number that, unlike
``id()``, is never reused. A dropout mask is a value that ``dropout_mask``
makes and the caller hands to the op that reads it (``dropout_apply``,
``attention``): a ``bool`` keep array and a float32 scale, applied as
``(x * keep) * scale``.

``backward`` consumes its tape: the reverse walk frees each node's saved
arrays and intermediate gradients (those the caller does not hold) as soon
as the node's backward has run, not when the step ends. ``grad_of`` runs
the same walk and leaves the tape intact.

The tape is single-threaded: one tape per step, recorded and walked by the
thread that builds the graph. One daemon worker runs three kinds of job off
that thread, each with the function the inline path calls, so where a job
ran changes no byte. ``dropout_mask`` hands it the large train-mode masks,
which it draws while the forward computes; Philox is counter based, so a
mask depends only on its seed and shape.
``backward``'s walk hands the worker the large weight and bias gradients of
``linear`` (``GRAD_WORKER_FLOOR``), which only the optimizer reads, and
goes on walking; it sums them in walk order when it ends. ``map_batches``
hands it every second eval batch whose projections reach the same floor,
outside any tape, and computes the batch before it meanwhile. The worker
holds the GIL only between numpy calls, which run without it. Importing
``callab`` limits malloc to one arena, so the worker's arrays come from the
heap the main thread keeps. Attack evaluation and ``grad_of`` hand it
nothing, and an eval or inference whose batches stay under the floor, or
that has a single batch, starts no thread.
"""

from __future__ import annotations

import collections
import itertools
import math
import os
import queue
import threading
import weakref
import zlib
from typing import Callable, Container, Iterable, Optional, Sequence

import numpy as np

_F32 = np.float32
_F64 = np.float64

# Elementwise op outputs are checked for NaN/Inf when this is on. Tests turn
# it on; training leaves it off and relies on the per-step finiteness gates.
DEBUG_CHECK_FINITE = False

# Storage dtype stack. Normal operation stores float32; grad_check's numeric
# oracle pushes float64 so finite differences see an effectively exact forward.
_STORAGE: list = [_F32]


def _st():
    return _STORAGE[-1]


class _float64_forward:
    """Context in which newly created tensors and op outputs keep float64."""

    def __enter__(self):
        _STORAGE.append(_F64)
        return self

    def __exit__(self, exc_type, exc, tb):
        _STORAGE.pop()


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def derive_seed(base: int, *parts: int | str) -> int:
    """Stable 64-bit seed derived from a base seed and a namespace path.

    Strings are folded through crc32 so the derivation does not depend on
    Python's salted hash. Used to give every dropout site, branch, and step
    its own reproducible random stream.
    """
    h = _splitmix64(base & _MASK64)
    for part in parts:
        if isinstance(part, str):
            part = zlib.crc32(part.encode("utf-8"))
        h = _splitmix64(h ^ (part & _MASK64))
    return h


def rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


# Tensor keys: serial numbers that, unlike id(), no later tensor reuses.
_serial = itertools.count()


class Tensor:
    """Dense value, optionally carrying a gradient of the same shape.

    Arrays are stored contiguous in float32 (float64 under
    ``_float64_forward``). A 0-d tensor, such as a loss value, is stored as
    a 0-d float64 array whatever the storage precision, so scalar results
    are not limited by float32 rounding. ``key`` names the tensor on tapes.
    """

    __slots__ = ("data", "requires_grad", "grad", "key", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        if np.ndim(data) == 0:
            self.data: np.ndarray = np.asarray(data, dtype=_F64)
        else:
            self.data = np.ascontiguousarray(data, dtype=_st())
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.key = next(_serial)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a scalar tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    """One recorded op: a (key, shape, requires_grad) triple per input, the
    leaf inputs (held for their ``grad``) and a weak reference to the output."""

    __slots__ = ("inputs", "leaves", "key", "output", "backward", "keep")

    def __init__(self, inputs, output, backward, produced):
        ins, leaves = [], []
        for t in inputs:
            key, rg = t.key, t.requires_grad
            ins.append((key, t.data.shape, rg))
            if rg and key not in produced:
                leaves.append(t)
        self.inputs, self.leaves = ins, leaves
        self.key = output.key
        self.output = weakref.ref(output)
        # backward: out_grad (f32 ndarray) -> tuple of grads aligned with inputs
        # (None for inputs that need no grad).
        self.backward: Callable = backward
        # keep[i]: whether the running reverse walk wants inputs[i]'s gradient;
        # the walk fills it in place before calling backward
        self.keep: list[bool] = [True] * len(inputs)


class Tape:
    """Ordered record of operations; inputs of every node precede it.

    Use as a context manager: ops executed inside record themselves when any
    input requires grad. ``backward(root)`` then walks the record once in
    reverse and consumes it. Tapes are throwaway objects, rebuilt each
    training step.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.produced: set[int] = set()  # keys of the nodes' outputs
        self.consumed = False  # set by backward(), whose walk clears every node

    def __enter__(self) -> "Tape":
        _tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tape_stack.pop()
        assert popped is self, "tape contexts must nest properly"


_tape_stack: list[Tape] = []


def _active_tape() -> Optional[Tape]:
    return _tape_stack[-1] if _tape_stack else None


def _finite_guard(out: np.ndarray) -> None:
    if DEBUG_CHECK_FINITE and not np.all(np.isfinite(out)):
        raise FloatingPointError("operation produced a non-finite value")


def _record(
    inputs: tuple[Tensor, ...], out_data: np.ndarray, backward, selective: bool = False
) -> Tensor:
    """Wrap ``out_data`` in a tensor and put its node on the active tape.

    A ``selective`` backward takes ``(g, keep)`` and returns None for every
    input whose ``keep`` entry is false, skipping that input's work.
    """
    _finite_guard(out_data)
    tape = _active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        node = _Node(inputs, out, backward, tape.produced)
        tape.produced.add(out.key)
        if selective:
            # hold the list, not the node: a node -> closure -> node cycle
            # would keep every tape's arrays alive until the cycle collector ran
            keep = node.keep
            node.backward = lambda g: backward(g, keep)
        tape.nodes.append(node)
    return out


def _reverse_walk(
    root: Tensor, nodes: Sequence[_Node], only: Optional[set] = None, defer: Container = ()
) -> dict:
    """One reverse pass over ``nodes``; returns the gradients of the tensors no node produced.

    Gradients sum across fan-out, keyed by tensor key. A node's consumers
    come after it, so its output's gradient is complete when the walk
    reaches it: the walk takes that entry out there and runs the backward.

    Without ``only`` (``backward``) the walk consumes the tape: it writes
    each output's gradient to ``grad`` if the output is still alive (zeros
    when the node is not on a path to ``root``), then clears the node's
    closure, inputs and output. With ``only`` (a set of tensor keys,
    ``grad_of``) grads are kept for those tensors alone and nodes and
    ``grad`` fields are left as they are. Each node learns which of its
    inputs are kept before its backward runs.

    A backward may hand one array to two inputs or pass its output's
    gradient through, so an entry's first array may be held elsewhere too.
    The first sum into an entry makes a new array that the entry owns, and
    only owned entries are summed into in place.

    An input whose key is in ``defer`` (keys no node produces) is kept as
    ``_DEFER``: its backward may return a ``_Job`` for it, whose result is
    a tuple aligned with the node's inputs, each entry float32 and of its
    input's shape. From its first job on, such a
    key collects its entries in walk order, and when the walk ends they are
    summed by the same rule: the first as is, then ``acc + g``, then in
    place. No job is left running when the walk returns or raises.
    """
    if root.data.size != 1:
        raise ValueError(f"gradient root must be a scalar, got shape {root.data.shape}")
    consume = only is None
    grads: dict[int, np.ndarray] = {root.key: np.ones_like(root.data)}
    owned: set[int] = set()  # keys of the entries whose array this walk allocated for them
    deferred: dict[int, list] = {}  # key: its arrays and (job, input index) pairs in walk order
    try:
        for node in reversed(nodes):
            g_out = grads.pop(node.key, None)
            if consume:
                out = node.output()
                if out is not None:
                    out.grad = g_out if g_out is not None else np.zeros_like(out.data)
            if g_out is not None:
                node.keep[:] = (
                    [_DEFER if key in defer else rg for key, _, rg in node.inputs] if consume
                    else [rg and key in only for key, _, rg in node.inputs]
                )
                for i, ((key, shape, _), kept, g) in enumerate(
                    zip(node.inputs, node.keep, node.backward(g_out))
                ):
                    if g is None or not kept:
                        continue
                    if isinstance(g, _Job):
                        if key not in deferred:
                            acc = grads.pop(key, None)
                            deferred[key] = [] if acc is None else [acc]
                        deferred[key].append((g, i))
                        continue
                    g = np.asarray(g, dtype=_F32)
                    if g.shape != shape:
                        g = g.reshape(shape)
                    if key in deferred:
                        deferred[key].append(g)
                        continue
                    acc = grads.get(key)
                    if acc is None:
                        grads[key] = g
                    elif key in owned:
                        acc += g
                    else:
                        grads[key] = acc + g
                        owned.add(key)
            if consume:
                node.inputs, node.leaves, node.output, node.backward = (), (), None, None
        for key, entries in deferred.items():
            acc = None
            for n, entry in enumerate(entries):
                g = entry if isinstance(entry, np.ndarray) else entry[0].result()[entry[1]]
                if n == 0:
                    acc = g
                elif n == 1:
                    acc = acc + g
                else:
                    acc += g
            grads[key] = acc
    finally:
        while _in_flight:
            _in_flight.popleft().wait()
    return grads


def _tape_or_raise(fn: str) -> Tape:
    tape = _active_tape()
    if tape is None:
        raise RuntimeError(f"{fn}() requires an active Tape context")
    if tape.consumed:
        raise RuntimeError(f"{fn}(): the tape was consumed by backward(); record a new Tape")
    return tape


def backward(root: Tensor) -> None:
    """Populate ``grad`` on every live requires-grad tensor on the tape.

    The tape holds op outputs weakly, so live means the leaves and the
    outputs the caller still holds. Gradients sum across fan-out; tensors
    recorded on the tape but not on any path to ``root`` receive zero grad.
    Existing ``grad`` fields of tape tensors are overwritten, not accumulated
    into. Two tensors' ``grad`` fields may be one array; replace a ``grad``,
    never write into it.

    The walk consumes the tape: each node's saved arrays and intermediate
    gradients are freed as soon as its backward has run (unless the caller
    holds them), leaves get their ``grad`` when the walk ends, and a second
    ``backward`` or ``grad_of`` on the same tape raises ``RuntimeError``.
    """
    tape = _tape_or_raise("backward")
    tape.consumed = True
    leaves = {t.key: t for node in tape.nodes for t in node.leaves}
    grads = _reverse_walk(root, tape.nodes, defer=leaves)
    for key, t in leaves.items():
        g = grads.get(key)
        t.grad = g if g is not None else np.zeros_like(t.data)


def grad_of(root: Tensor, wrt: Tensor) -> np.ndarray:
    """d root / d wrt on the active tape, leaving every ``grad`` field untouched.

    Only nodes downstream of ``wrt`` are walked, so nothing upstream of it
    is differentiated, and the walk keeps no input that is not downstream
    of ``wrt``: the selective ops (matmul, add_bias, layer_norm,
    residual_norm, linear, attention) skip the gradients of the parameters
    they read. Each intermediate gradient is dropped once its node has used
    it. The tape stays intact, so ``backward`` may follow; after
    ``backward`` it raises ``RuntimeError``. Zeros when ``root`` does not
    depend on ``wrt`` through the tape.
    """
    tape = _tape_or_raise("grad_of")
    downstream = {wrt.key}
    nodes = []
    for node in tape.nodes:
        if any(key in downstream for key, _, _ in node.inputs):
            downstream.add(node.key)
            nodes.append(node)
    g = _reverse_walk(root, nodes, only=downstream).get(wrt.key)
    return g if g is not None else np.zeros_like(wrt.data)


# ---------------------------------------------------------------------------
# elementwise and linear ops
# ---------------------------------------------------------------------------


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")
    return _record((a, b), a.data + b.data, lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "sub")
    return _record((a, b), a.data - b.data, lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "mul")
    a_d, b_d = a.data, b.data
    return _record((a, b), a_d * b_d, lambda g: (g * b_d, g * a_d))


def scale(a: Tensor, c: float) -> Tensor:
    """``a * c``: a 0-d value is scaled by ``c`` itself in float64, an array by ``float32(c)``."""
    c = float(c)
    out = a.data * (c if a.data.ndim == 0 else _F32(c))
    return _record((a,), out, lambda g: (g * _F32(c),))


def _matmul_grad_a(g: np.ndarray, b_d: np.ndarray) -> np.ndarray:
    """Input gradient g @ b^T: storage precision unless the product is batched."""
    b_t = np.swapaxes(b_d, -1, -2)
    return _f64_matmul(g, b_t) if b_d.ndim > 2 else _st_matmul(g, b_t)


def _matmul_grad_b(a_d: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient a^T g of the right operand, in float64: it sums over rows and positions."""
    return _f64_matmul(np.swapaxes(a_d, -1, -2), g)


def _st_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if _st() is _F32:
        return np.matmul(a, b)
    return _f64_matmul(a, b)


def _f64_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.matmul(a.astype(_F64), b.astype(_F64)).astype(_st())


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product under the module's precision rule.

    Either both operands share identical leading (batch) dimensions, or ``b``
    is a plain 2-D matrix applied to the last axis of ``a``. No other
    broadcasting. With a 2-D ``b`` the forward and ``a``'s gradient contract
    a feature axis and run in storage precision; ``b``'s gradient sums over
    every row of ``a`` and accumulates in float64. A batched product (3-D or
    more on both sides, the attention scores and context) accumulates all
    three of its products in float64, since it contracts over positions
    that may be padding.
    """
    a_d, b_d = a.data, b.data
    if a_d.ndim < 2 or b_d.ndim < 2:
        raise ValueError(f"matmul: operands must be >=2-D, got {a_d.shape} vs {b_d.shape}")
    if a_d.shape[-1] != b_d.shape[-2]:
        raise ValueError(f"matmul: inner dims differ, {a_d.shape} vs {b_d.shape}")
    if b_d.ndim > 2 and a_d.shape[:-2] != b_d.shape[:-2]:
        raise ValueError(f"matmul: batch dims differ, {a_d.shape} vs {b_d.shape}")
    batched = b_d.ndim > 2
    # unbatched, a's rows (and g's) form one 2-D operand, so every product is 2-D
    a_m = a_d if batched else a_d.reshape(-1, a_d.shape[-1])
    if batched:
        out = _f64_matmul(a_m, b_d)
    else:
        out = _st_matmul(a_m, b_d).reshape(a_d.shape[:-1] + b_d.shape[-1:])

    def bwd(g, keep):
        if not batched:
            g = g.reshape(-1, g.shape[-1])
        ga = _matmul_grad_a(g, b_d) if keep[0] else None
        gb = _matmul_grad_b(a_m, g) if keep[1] else None
        return ga, gb

    return _record((a, b), out, bwd, selective=True)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` over the last axis of a 2-D or 3-D ``x``, recorded as one node.

    x's rows form one 2-D product, so the precision rule is matmul's: the
    forward and x's gradient in storage precision, w's gradient and the bias
    sum over every row in float64. In ``backward``'s walk, a weight product
    of at least ``GRAD_WORKER_FLOOR`` multiply-adds runs with the bias sum
    on the worker (``_linear_param_grads``) while the walk goes on.
    """
    x_d, w_d, b_d = x.data, w.data, b.data
    if x_d.ndim not in (2, 3):
        raise ValueError(f"linear: input must be 2-D or 3-D, got shape {x_d.shape}")
    if w_d.ndim != 2 or w_d.shape[0] != x_d.shape[-1] or b_d.shape != w_d.shape[1:]:
        raise ValueError(
            f"linear: weight {w_d.shape} and bias {b_d.shape} do not fit input {x_d.shape}"
        )
    x_m = x_d.reshape(-1, x_d.shape[-1])
    out = _st_matmul(x_m, w_d)
    out += b_d  # into the product's own new array
    out = out.reshape(x_d.shape[:-1] + w_d.shape[1:])

    def bwd(g, keep):
        g = g.reshape(-1, g.shape[-1])
        gx = _matmul_grad_a(g, w_d) if keep[0] else None
        if (
            keep[1] is _DEFER and keep[2] is _DEFER
            and g.size * x_m.shape[1] >= GRAD_WORKER_FLOOR
            and g.flags.c_contiguous and x_m.flags.c_contiguous
        ):
            gw, gb = np.empty(w_d.shape, dtype=_F32), np.empty(b_d.shape, dtype=_F32)
            job = _submit_grad_job(_linear_param_grads, x_m, g, gw, gb)
            return gx, job, job
        gw = _matmul_grad_b(x_m, g) if keep[1] else None
        gb = g.sum(axis=0, dtype=_F64).astype(_F32) if keep[2] else None
        return gx, gw, gb

    return _record((x, w, b), out, bwd, selective=True)


def transpose(a: Tensor, axes: Optional[Sequence[int]] = None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(a.data.ndim)))
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = np.ascontiguousarray(np.transpose(a.data, axes))
    return _record((a,), out, lambda g: (np.ascontiguousarray(np.transpose(g, inv)),))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    if shape.count(-1) > 1:
        raise ValueError(f"reshape: at most one inferred dimension, got {shape}")
    if -1 in shape:
        known = int(np.prod([s for s in shape if s != -1]))
        if known == 0 or a.data.size % known != 0:
            raise ValueError(f"reshape: cannot view {a.data.shape} as {shape}")
        shape = tuple(a.data.size // known if s == -1 else s for s in shape)
    if int(np.prod(shape)) != a.data.size:
        raise ValueError(f"reshape: cannot view {a.data.shape} as {shape}")
    old = a.data.shape
    return _record((a,), a.data.reshape(shape), lambda g: (g.reshape(old),))


def first_position(a: Tensor) -> Tensor:
    """Position 0 along axis 1, kept as a length-1 axis: (B, L, ...) -> (B, 1, ...).

    The gradient scatters back into position 0.
    """
    shape = a.data.shape
    if len(shape) < 2 or shape[1] < 1:
        raise ValueError(f"first_position: needs a non-empty axis 1, got shape {shape}")

    def bwd(g):
        full = np.zeros(shape, dtype=_F32)
        full[:, :1] = g
        return (full,)

    return _record((a,), a.data[:, :1].copy(), bwd)


def slice_rows(a: Tensor, n: int) -> Tensor:
    """First ``n`` rows along axis 0."""
    if not 0 < n <= a.data.shape[0]:
        raise ValueError(f"slice_rows: cannot take {n} rows from shape {a.data.shape}")
    shape = a.data.shape

    def bwd(g):
        full = np.zeros(shape, dtype=_F32)
        full[:n] = g
        return (full,)

    return _record((a,), a.data[:n].copy(), bwd)


def add_bias(a: Tensor, b: Tensor) -> Tensor:
    """Add ``b`` across the trailing axes of ``a`` (b.shape must suffix a.shape)."""
    a_d, b_d = a.data, b.data
    if a_d.shape[a_d.ndim - b_d.ndim :] != b_d.shape:
        raise ValueError(f"add_bias: {b_d.shape} is not a suffix of {a_d.shape}")
    lead = tuple(range(a_d.ndim - b_d.ndim))

    def bwd(g, keep):
        if not keep[1]:
            return g, None
        return g, (g if not lead else g.sum(axis=lead, dtype=_F64).astype(_F32))

    return _record((a, b), a_d + b_d, bwd, selective=True)


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of ``table`` by integer ids; gradient scatter-adds."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValueError(
            f"embedding_lookup: id out of range [0, {table.data.shape[0]}) in input"
        )
    t_shape = table.data.shape

    def bwd(g):
        full = np.zeros(t_shape, dtype=_F32)
        np.add.at(full, ids.reshape(-1), g.reshape(-1, t_shape[-1]))
        return (full,)

    return _record((table,), table.data[ids], bwd)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def sum_all(a: Tensor) -> Tensor:
    """Sum of every element, accumulated and returned in float64 (a 0-d tensor)."""
    shape = a.data.shape
    return _record((a,), a.data.sum(dtype=_F64), lambda g: (np.full(shape, g, dtype=_F32),))


def mean_all(a: Tensor) -> Tensor:
    """Mean of every element, accumulated and returned in float64 (a 0-d tensor)."""
    shape = a.data.shape
    n = a.data.size
    return _record(
        (a,), a.data.sum(dtype=_F64) / n, lambda g: (np.full(shape, g / _F32(n), dtype=_F32),)
    )


def sum_last(a: Tensor) -> Tensor:
    """Sum over the last axis."""
    shape = a.data.shape
    out = a.data.sum(axis=-1, dtype=_F64).astype(_st())
    return _record((a,), out, lambda g: (np.broadcast_to(g[..., None], shape).astype(_F32),))


# ---------------------------------------------------------------------------
# nonlinearities and normalizations
# ---------------------------------------------------------------------------


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _record((a,), out, lambda g: (g * (1.0 - out * out),))


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    # out > 0 exactly where a > 0 (NaN and -0.0 included), so no mask is
    # saved; cast to g's dtype, the mask multiplies faster, to the same bytes
    return _record((a,), out, lambda g: (g * (out > 0).astype(g.dtype),))


def _softmax(x: np.ndarray) -> np.ndarray:
    # the row max as an elementwise max over last-axis slabs: numpy reduces a
    # contiguous row at a time, slowly for short rows. A max is exact, so only
    # which NaN a row holding NaNs of both signs returns could differ; such
    # rows take numpy's row max
    m = np.ascontiguousarray(np.moveaxis(x, -1, 0)).max(axis=0)[..., None]
    if np.isnan(m).any():
        m = x.max(axis=-1, keepdims=True)
    shifted = x - m
    e = np.exp(shifted, dtype=_F64)
    return (e / e.sum(axis=-1, keepdims=True)).astype(_st())


def _softmax_grad(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    dot = np.sum(g.astype(_F64) * out, axis=-1, keepdims=True)
    return (out.astype(_F64) * (g - dot)).astype(_F32)


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by per-row max subtraction."""
    out = _softmax(a.data)
    return _record((a,), out, lambda g: (_softmax_grad(g, out),))


def log_softmax_rows(a: Tensor) -> Tensor:
    x = a.data.astype(_F64)
    shifted = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out64 = shifted - lse
    out = out64.astype(_st())
    soft = np.exp(out64)

    def bwd(g):
        s = np.sum(g, axis=-1, keepdims=True, dtype=_F64)
        return ((g - soft * s).astype(_F32),)

    return _record((a,), out, bwd)


def logsumexp_rows(a: Tensor) -> Tensor:
    x = a.data.astype(_F64)
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    out64 = (m + np.log(e.sum(axis=-1, keepdims=True)))[..., 0]
    soft = (e / e.sum(axis=-1, keepdims=True)).astype(_F32)
    return _record((a,), out64.astype(_st()), lambda g: ((soft * g[..., None]).astype(_F32),))


def _norm_params(op: str, h: int, gamma: Tensor, beta: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """``gamma`` and ``beta`` cast to float64, once both have shape ``(h,)``."""
    if gamma.data.shape != (h,) or beta.data.shape != (h,):
        raise ValueError(
            f"{op}: gamma/beta must have shape ({h},), got {gamma.data.shape} and {beta.data.shape}"
        )
    return gamma.data.astype(_F64), beta.data.astype(_F64)


def _norm_forward(s: np.ndarray, g_d: np.ndarray, b_d: np.ndarray, eps: float = 1e-5) -> tuple:
    """The float64 body of a layer norm of ``s``'s last axis: ``(xhat, inv, out)``.

    ``xhat`` and ``inv`` are what ``_norm_grads`` reads. One float64 copy of
    ``s`` becomes ``xhat`` in place, and one square buffer becomes the
    scaled and shifted output before its cast to storage precision.
    """
    d = s.astype(_F64)
    # x - mean once: numpy's var runs these same steps and subtracts again
    d -= d.mean(axis=-1, keepdims=True)
    sq = d * d
    inv = 1.0 / np.sqrt(sq.sum(axis=-1, keepdims=True) / s.shape[-1] + eps)
    d *= inv
    np.multiply(d, g_d, out=sq)
    sq += b_d
    return d, inv, sq.astype(_st())


def _norm_grads(
    g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, g_d: np.ndarray,
    want_a: bool, want_gamma: bool, want_beta: bool,
) -> tuple:
    """A layer norm's gradients (input, gamma, beta), each None unless wanted.

    ``gamma`` and ``beta`` read the float64 ``g`` first; the input's
    gradient then reuses it, and one product buffer, in place.
    """
    g64 = g.astype(_F64)
    lead = tuple(range(g64.ndim - 1))
    prod = g64 * xhat
    ggamma = prod.sum(axis=lead).astype(_F32) if want_gamma else None
    gbeta = g64.sum(axis=lead).astype(_F32) if want_beta else None
    if not want_a:
        return None, ggamma, gbeta
    g64 *= g_d  # the gradient of xhat
    m1 = g64.mean(axis=-1, keepdims=True)
    m2 = np.multiply(g64, xhat, out=prod).mean(axis=-1, keepdims=True)
    g64 -= m1
    g64 -= np.multiply(xhat, m2, out=prod)
    g64 *= inv
    return g64.astype(_F32), ggamma, gbeta


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    g_d, b_d = _norm_params("layer_norm", a.data.shape[-1], gamma, beta)
    xhat, inv, out = _norm_forward(a.data, g_d, b_d, eps)

    def bwd(g, keep):
        return _norm_grads(g, xhat, inv, g_d, *keep)

    return _record((a, gamma, beta), out, bwd, selective=True)


def residual_norm(
    x: Tensor, y: Tensor, mask: Optional[tuple], gamma: Tensor, beta: Tensor
) -> Tensor:
    """``layer_norm(add(x, dropout_apply(y, mask)), gamma, beta)``, recorded as one node.

    A transformer sublayer's epilogue: ``y`` is dropped out with ``mask``
    (a ``dropout_mask`` of ``y``'s shape, or None), added to the residual
    ``x`` in storage precision and layer-normed by ``layer_norm``'s float64
    body. Its values and gradients equal the chain's bit for bit; ``x``'s
    gradient reaches the walk where the chain's ``add`` handed it over, so
    sums over fan-out run in the same order. The input gradient is computed
    only when ``x`` or ``y`` is kept.
    """
    _require_same_shape(x, y, "residual_norm")
    g_d, b_d = _norm_params("residual_norm", x.data.shape[-1], gamma, beta)
    if mask is None:
        s = x.data + y.data
    else:
        keep, scale = _read_mask("residual_norm", mask, y.data.shape)
        s = x.data + (y.data * keep) * scale
    xhat, inv, out = _norm_forward(s, g_d, b_d)

    def bwd(g, kept):
        ga, ggamma, gbeta = _norm_grads(g, xhat, inv, g_d, kept[0] or kept[1], kept[2], kept[3])
        gy = ga if mask is None or not kept[1] else (ga * keep) * scale
        return ga, gy, ggamma, gbeta

    return _record((x, y, gamma, beta), out, bwd, selective=True)


def dropout_mask(
    seed: int,
    shape: Sequence[int],
    rate: float,
    train_mode: bool,
    full_shape: Optional[Sequence[int]] = None,
) -> Optional[tuple[_Job, np.float32]]:
    """A dropout mask for ``shape``: ``(job, scale)``, or None when nothing drops.

    ``job.result()`` is the bool keep array and ``scale`` the float32
    1/(1 - rate), read by ``dropout_apply`` or ``attention``. In eval mode
    or at rate 0 nothing drops. The keep bits come from Philox keyed by
    ``seed`` alone, drawn at ``full_shape`` (default ``shape``) and cropped
    to its leading corner, so an element keeps its mask value however far
    the tensor was trimmed and rebuilding a graph replays dropout
    bit-identically. ``random()`` is ``(raw >> 11) * 2**-53`` of the raw
    words, so ``raw >= ceil(rate * 2**53) << 11`` is ``random() >= rate``.
    A mask of at least ``MASK_WORKER_FLOOR`` words at full shape is drawn on
    the worker while the caller computes; a smaller one is drawn here, by
    the same function.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout_mask: rate must be in [0, 1), got {rate}")
    shape = tuple(shape)
    full_shape = shape if full_shape is None else tuple(full_shape)
    if len(full_shape) != len(shape) or any(f < s for f, s in zip(full_shape, shape)):
        raise ValueError(f"dropout_mask: cannot crop {full_shape} to {shape}")
    if not train_mode or rate == 0.0:
        return None
    job = _Job(_draw_keep, seed, full_shape, rate, np.empty(shape, dtype=bool))
    if math.prod(full_shape) >= MASK_WORKER_FLOOR:
        _submit(job)
    else:
        job.run()
    return job, _F32(1.0 / (1.0 - rate))


def _read_mask(op: str, mask: tuple, shape: tuple) -> tuple[np.ndarray, np.float32]:
    """``mask``'s keep array (waiting for its draw) and scale, once the keep array has ``shape``."""
    job, scale = mask
    keep = job.result()
    if keep.shape != shape:
        raise ValueError(f"{op}: mask of shape {keep.shape} does not fit {shape}")
    return keep, scale


def dropout_apply(a: Tensor, mask: Optional[tuple]) -> Tensor:
    """``(a * keep) * scale`` for a ``dropout_mask`` of ``a``'s shape.

    With no mask (eval mode, rate 0) it returns ``a`` itself and records
    nothing.
    """
    if mask is None:
        return a
    keep, s = _read_mask("dropout_apply", mask, a.data.shape)
    return _record((a,), (a.data * keep) * s, lambda g: ((g * keep) * s,))


def _draw_keep(seed: int, full_shape: tuple, rate: float, keep: np.ndarray) -> np.ndarray:
    """Fill ``keep``, a bool array, with ``dropout_mask``'s bits: one Philox call per mask.

    One ``random_raw`` call returns the raw words at ``full_shape`` (C
    order), and only their leading corner, ``keep``'s shape, is compared
    into ``keep``.
    """
    if keep.size:
        threshold = np.uint64(math.ceil(rate * 2.0**53) << 11)
        raw = np.random.Philox(key=seed & _MASK64).random_raw(full_shape)
        np.greater_equal(raw[tuple(slice(0, s) for s in keep.shape)], threshold, out=keep)
    return keep


# Masks of at least this many raw words (at full shape) are drawn on the
# worker from the moment dropout_mask makes them; a smaller draw costs less
# inline than its hand-off.
MASK_WORKER_FLOOR = 1 << 16
# linear weight products of at least this many multiply-adds (rows x in x
# out) run on the worker in backward's walk: every full-width layer product
# at default size (a layer-0 wq at width 15 is 1,966,080), no demo-size one
# (at most 2^20)
GRAD_WORKER_FLOOR = 1_500_000
# backward's walk waits for its oldest gradient job beyond this many, so the
# inputs of the jobs still queued stay few
GRAD_JOBS_IN_FLIGHT = 4

# the keep entry backward's walk gives a leaf input: its gradient is wanted,
# and the backward may return it as a _Job whose result holds it
_DEFER = "defer"


class _Job:
    """``fn(*args)``, run on the worker or inline; ``result`` waits and re-raises its error.

    ``ready`` is held until the job has run. The job drops its arguments
    once run.
    """

    __slots__ = ("fn", "args", "ready", "value", "error")

    def __init__(self, fn: Callable, *args):
        self.fn = fn
        self.args: Optional[tuple] = args
        self.ready = threading.Lock()
        self.ready.acquire()  # released by the worker once value or error is set
        self.value = None
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            self.value = self.fn(*self.args)
        except BaseException as exc:  # handed to the reader, which re-raises it
            self.error = exc
        finally:
            self.args = None
            self.ready.release()

    def wait(self) -> None:
        with self.ready:
            pass

    def result(self):
        self.wait()
        if self.error is not None:
            raise self.error
        return self.value


# gradient jobs of the running walk that it has not waited for, oldest first
_in_flight: collections.deque = collections.deque()
_queue: Optional[queue.SimpleQueue] = None
_worker: Optional[threading.Thread] = None


def _work_forever(q: queue.SimpleQueue) -> None:
    while True:
        q.get().run()


def _submit(job: _Job) -> _Job:
    """Queue ``job`` on the worker, starting the worker if there is none."""
    global _queue, _worker
    if _queue is None:
        _queue = queue.SimpleQueue()
        _worker = threading.Thread(
            target=_work_forever, args=(_queue,), name="callab-worker", daemon=True
        )
        _worker.start()
    _queue.put(job)
    return job


_END = object()


def map_batches(fn: Callable, batches: Iterable, cost: Callable[[object], int]) -> list:
    """``[fn(b) for b in batches]``, with every second large batch run on the worker.

    Batches are read two at a time. The second goes to the worker as a
    ``_Job`` when no tape is active, the caller is not the worker and its
    ``cost`` (multiply-adds of one projection) reaches ``GRAD_WORKER_FLOOR``;
    the first runs here meanwhile. Each batch runs ``fn`` either way, so
    where it ran changes no byte, and results and errors come back in batch
    order, as the loop gives them: the first batch's error is raised once
    the second's job has ended. ``fn`` must record nothing and enter no
    tape, since the worker sees this thread's tapes.
    """
    out = []
    it = iter(batches)
    for first in it:
        try:
            second = next(it, _END)
        except Exception:
            out.append(fn(first))  # the loop runs this batch before it reads the next
            raise
        job = None
        if (
            second is not _END and _active_tape() is None
            and threading.current_thread() is not _worker
            and cost(second) >= GRAD_WORKER_FLOOR
        ):
            job = _submit(_Job(fn, second))
        try:
            out.append(fn(first))
        finally:
            if job is not None:
                job.wait()
        if second is not _END:
            out.append(fn(second) if job is None else job.result())
    return out


def _submit_grad_job(fn: Callable, *args) -> _Job:
    """Queue a gradient job, first waiting for the oldest while ``GRAD_JOBS_IN_FLIGHT`` are out."""
    if len(_in_flight) >= GRAD_JOBS_IN_FLIGHT:
        _in_flight.popleft().wait()
    job = _Job(fn, *args)
    _in_flight.append(job)
    return _submit(job)


def _forget_worker() -> None:
    """A forked child has no worker thread: it drops the parent's jobs and starts its own worker."""
    global _queue, _worker
    _queue = _worker = None
    _in_flight.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


# the worker's float64 buffers for linear's weight product: its two operands,
# one after the other, and its result; each grown to the largest product it
# has run and kept, like AdamW's workspace
_work64 = [np.empty(0, dtype=_F64), np.empty(0, dtype=_F64)]


def _work_buffer(i: int, n: int) -> np.ndarray:
    if _work64[i].size < n:
        _work64[i] = np.empty(n, dtype=_F64)
    return _work64[i][:n]


def _linear_param_grads(x_m: np.ndarray, g: np.ndarray, gw: np.ndarray, gb: np.ndarray) -> tuple:
    """``linear``'s weight and bias gradients, written into ``gw`` and ``gb``, aligned with its inputs.

    The weight product is ``_matmul_grad_b`` in the worker's kept buffers:
    ``x_m`` and ``g`` (both C-ordered) are cast into them with the layouts
    the inline casts give, x^T F-ordered and g C-ordered, so BLAS gets the
    same call and the bytes are the same. The outputs are float32, as the
    walk casts every gradient, and are allocated by the walk's thread, which
    frees them, so they come from its heap.
    """
    ops = _work_buffer(0, x_m.size + g.size)
    x64 = ops[: x_m.size].reshape(x_m.shape)
    x64[...] = x_m
    g64 = ops[x_m.size :].reshape(g.shape)
    g64[...] = g
    gw[...] = np.matmul(x64.T, g64, out=_work_buffer(1, gw.size).reshape(gw.shape))
    gb[...] = g.sum(axis=0, dtype=_F64)
    return None, gw, gb


_NEG_MASK = _F32(-1e9)


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    key_mask: np.ndarray,
    heads: int,
    drop: Optional[tuple],
) -> Tensor:
    """Multi-head scaled dot-product attention, recorded as one node.

    ``q`` is (B, n, H); ``k`` and ``v`` are (B, L, H). Splits H into
    ``heads``, scores ``q k^T / sqrt(H / heads)``, adds -1e9 at keys whose
    ``key_mask`` (B, L) entry is not positive, takes the softmax over keys,
    drops probabilities as ``dropout_apply`` does with ``drop``, a
    ``dropout_mask`` of shape (B, heads, n, L) or None, and merges the heads
    of ``probs @ v`` back to (B, n, H). All three batched products
    accumulate in float64, forward and backward. Values equal the op-by-op
    chain's bit for bit.
    """
    q_d, k_d, v_d = q.data, k.data, v.data
    if k_d.ndim != 3 or k_d.shape != v_d.shape:
        raise ValueError(f"attention: keys {k_d.shape} and values {v_d.shape} differ or aren't 3-D")
    b, l, h = k_d.shape
    if q_d.ndim != 3 or q_d.shape[0] != b or q_d.shape[2] != h:
        raise ValueError(f"attention: queries {q_d.shape} do not fit keys {k_d.shape}")
    if heads < 1 or h % heads:
        raise ValueError(f"attention: width of {k_d.shape} is not divisible by heads={heads}")
    if key_mask.shape != (b, l):
        raise ValueError(f"attention: key mask {key_mask.shape} is not (B, L) = {(b, l)}")
    n, dh = q_d.shape[1], h // heads
    c = _F32(1.0 / math.sqrt(dh))
    # contiguous heads-major operands: a product's rounding depends on its
    # operands' layout, and these are the layouts of the op-by-op chain
    qh = np.ascontiguousarray(q_d.reshape(b, n, heads, dh).transpose(0, 2, 1, 3))
    kt = np.ascontiguousarray(k_d.reshape(b, l, heads, dh).transpose(0, 2, 3, 1))
    vh = np.ascontiguousarray(v_d.reshape(b, l, heads, dh).transpose(0, 2, 1, 3))
    bias = np.where(key_mask[:, None, None, :] > 0, _F32(0.0), _NEG_MASK)
    probs = _softmax(_f64_matmul(qh, kt) * c + bias)
    if drop is not None:
        drop = _read_mask("attention", drop, probs.shape)
    p = probs if drop is None else (probs * drop[0]) * drop[1]
    out = _f64_matmul(p, vh).transpose(0, 2, 1, 3).reshape(b, n, h)

    def merge(t, axes):  # (B, heads, ., .) back to (B, rows, H)
        return t.transpose(axes).reshape(b, -1, h)

    def bwd(g, keep):
        g = np.ascontiguousarray(g.reshape(b, n, heads, dh).transpose(0, 2, 1, 3))
        gq = gk = gv = None
        if keep[2]:
            gv = merge(_matmul_grad_b(p, g), (0, 2, 1, 3))
        if keep[0] or keep[1]:
            # the chain hands float32 gradients from node to node
            gp = _matmul_grad_a(g, vh).astype(_F32, copy=False)
            if drop is not None:
                gp = (gp * drop[0]) * drop[1]
            gs = _softmax_grad(gp, probs) * c
            if keep[0]:
                gq = merge(_matmul_grad_a(gs, kt), (0, 2, 1, 3))
            if keep[1]:
                gk = merge(_matmul_grad_b(qh, gs), (0, 3, 1, 2))
        return gq, gk, gv

    return _record((q, k, v), out, bwd, selective=True)


def l2_normalize_rows(a: Tensor, guard: float = 1e-12) -> Tensor:
    """Scale each last-axis row to unit L2 norm; rows at or below ``guard`` pass through."""
    x = a.data.astype(_F64)
    norms = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    safe = norms > guard
    inv = np.where(safe, 1.0 / np.where(safe, norms, 1.0), 1.0)
    y = x * inv
    out = y.astype(_st())

    def bwd(g):
        g64 = g.astype(_F64)
        dot = (g64 * y).sum(axis=-1, keepdims=True)
        ga = np.where(safe, (g64 - y * dot) * inv, g64)
        return (ga.astype(_F32),)

    return _record((a,), out, bwd)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def grad_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    h: float = 1e-3,
    sample: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Max relative error between analytic and centered-difference gradients.

    ``f`` must build a scalar from ``x`` deterministically (fix dropout
    seeds); determinism is enforced by evaluating twice and rejecting on
    mismatch. The numeric side perturbs coordinates in 32-bit storage but
    evaluates the forward pass with float64 storage, so centered differences
    are limited by truncation error rather than rounding. Relative error is
    |analytic - numeric| / max(1, |a|, |n|). Set ``sample`` to check a random
    subset of coordinates.
    """
    probe1 = _eval_scalar64(f, x)
    probe2 = _eval_scalar64(f, x)
    if probe1 != probe2:
        raise ValueError("grad_check: f is not deterministic (double evaluation mismatch)")

    with Tape():
        out = f(x)
        if out.data.size != 1:
            raise ValueError("grad_check: f must produce a scalar")
        backward(out)
    analytic = x.grad.reshape(-1).astype(_F64) if x.grad is not None else np.zeros(x.size)

    flat = x.data.reshape(-1)
    idx = np.arange(flat.size)
    if sample is not None and sample < flat.size:
        idx = (rng or np.random.default_rng(0)).choice(flat.size, size=sample, replace=False)

    worst = 0.0
    for i in idx:
        orig = flat[i]
        hi, lo = _F32(orig + h), _F32(orig - h)
        flat[i] = hi
        f_plus = _eval_scalar64(f, x)
        flat[i] = lo
        f_minus = _eval_scalar64(f, x)
        flat[i] = orig
        # divide by the realized (rounded) step, not the nominal 2h
        numeric = (f_plus - f_minus) / (float(hi) - float(lo))
        a = analytic[i]
        err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
        worst = max(worst, err)
    return worst


def _eval_scalar64(f: Callable[[Tensor], Tensor], x: Tensor) -> float:
    """Evaluate ``f(x)`` with float64 forward storage; restores x afterwards."""
    saved = x.data
    x.data = saved.astype(_F64)
    try:
        with _float64_forward():
            out = f(x)
    finally:
        x.data = saved
    if out.data.size != 1:
        raise ValueError("grad_check: f must produce a scalar")
    return out.item()
