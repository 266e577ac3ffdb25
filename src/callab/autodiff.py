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

``linear`` and ``attention`` are fused: each is one tape node whose
hand-written backward runs the same numpy operations, on the same operand
layouts, as the op-by-op chain it replaces (reshape, matmul, add_bias; head
split, scores, scale, mask, softmax, dropout, context, head merge), so both
give the chain's bytes with a fraction of its nodes.

Operations record onto an explicit tape (define-by-run) only while a
``Tape`` context is active and at least one input requires grad; outside a
tape everything is plain numpy, which is what evaluation paths use. A
reverse walk tells each node which of its inputs it keeps, and matmul,
add_bias, layer_norm, linear and attention compute no gradient for an input
that is not kept, so ``grad_of`` differentiates no parameter on its way to
the seam.

A node holds only what its backward reads: its closure's arrays, each
input's (key, shape, requires_grad), its leaf inputs (requires-grad tensors
no node of the tape produced) and a weak reference to its output, so an
intermediate nobody holds, such as a projection's output, dies during the
forward. Gradients are keyed by ``Tensor.key``, a serial number that, unlike
``id()``, is never reused. A dropout mask is a ``bool`` keep array and a
float32 scale, applied as ``(x * keep) * scale``.

``backward`` consumes its tape: the reverse walk frees each node's saved
arrays and intermediate gradients (those the caller does not hold) as soon
as the node's backward has run, not when the step ends. ``grad_of`` runs
the same walk and leaves the tape intact.

The tape is single-threaded: one tape per step, recorded and walked by the
thread that builds the graph. Only dropout mask draws leave that thread. A
forward announces its large train-mode masks (``announce_masks``) and one
daemon worker draws them while the forward computes; Philox is counter
based, so a mask depends only on its seed and shape, and the worker calls
the function an inline draw calls. The worker holds the GIL only between
Philox calls, which run without it. Eval and inference announce nothing and
start no thread.
"""

from __future__ import annotations

import itertools
import math
import os
import queue
import threading
import weakref
import zlib
from typing import Callable, Optional, Sequence

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


def _reverse_walk(root: Tensor, nodes: Sequence[_Node], only: Optional[set] = None) -> dict:
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
    """
    if root.data.size != 1:
        raise ValueError(f"gradient root must be a scalar, got shape {root.data.shape}")
    consume = only is None
    grads: dict[int, np.ndarray] = {root.key: np.ones_like(root.data)}
    owned: set[int] = set()  # keys of the entries whose array this walk allocated for them
    for node in reversed(nodes):
        g_out = grads.pop(node.key, None)
        if consume:
            out = node.output()
            if out is not None:
                out.grad = g_out if g_out is not None else np.zeros_like(out.data)
        if g_out is not None:
            node.keep[:] = [rg and (consume or key in only) for key, _, rg in node.inputs]
            for (key, shape, _), kept, g in zip(node.inputs, node.keep, node.backward(g_out)):
                if g is None or not kept:
                    continue
                g = np.asarray(g, dtype=_F32)
                if g.shape != shape:
                    g = g.reshape(shape)
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
    grads = _reverse_walk(root, tape.nodes)
    for key, t in leaves.items():
        g = grads.get(key)
        t.grad = g if g is not None else np.zeros_like(t.data)


def grad_of(root: Tensor, wrt: Tensor) -> np.ndarray:
    """d root / d wrt on the active tape, leaving every ``grad`` field untouched.

    Only nodes downstream of ``wrt`` are walked, so nothing upstream of it
    is differentiated, and the walk keeps no input that is not downstream
    of ``wrt``: the selective ops (matmul, add_bias, layer_norm, linear,
    attention) skip the gradients of the parameters they read. Each
    intermediate gradient is dropped once its node has used it. The tape
    stays intact, so ``backward`` may follow; after ``backward`` it raises
    ``RuntimeError``. Zeros when ``root`` does not depend on ``wrt`` through
    the tape.
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
    sum over every row in float64.
    """
    x_d, w_d, b_d = x.data, w.data, b.data
    if x_d.ndim not in (2, 3):
        raise ValueError(f"linear: input must be 2-D or 3-D, got shape {x_d.shape}")
    if w_d.ndim != 2 or w_d.shape[0] != x_d.shape[-1] or b_d.shape != w_d.shape[1:]:
        raise ValueError(
            f"linear: weight {w_d.shape} and bias {b_d.shape} do not fit input {x_d.shape}"
        )
    x_m = x_d.reshape(-1, x_d.shape[-1])
    out = (_st_matmul(x_m, w_d) + b_d).reshape(x_d.shape[:-1] + w_d.shape[1:])

    def bwd(g, keep):
        g = g.reshape(-1, g.shape[-1])
        gx = _matmul_grad_a(g, w_d) if keep[0] else None
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
    # out > 0 exactly where a > 0 (NaN and -0.0 included), so no mask is saved
    return _record((a,), out, lambda g: (g * (out > 0),))


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
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


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    h = a.data.shape[-1]
    if gamma.data.shape != (h,) or beta.data.shape != (h,):
        raise ValueError(
            f"layer_norm: gamma/beta must have shape ({h},), got {gamma.data.shape} and {beta.data.shape}"
        )
    x = a.data.astype(_F64)
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv
    out = (xhat * gamma.data.astype(_F64) + beta.data.astype(_F64)).astype(_st())
    g_d = gamma.data.astype(_F64)

    def bwd(g, keep):
        g64 = g.astype(_F64)
        gxhat = g64 * g_d
        m1 = gxhat.mean(axis=-1, keepdims=True)
        m2 = (gxhat * xhat).mean(axis=-1, keepdims=True)
        ga = ((gxhat - m1 - xhat * m2) * inv).astype(_F32) if keep[0] else None
        lead = tuple(range(g64.ndim - 1))
        ggamma = (g64 * xhat).sum(axis=lead).astype(_F32) if keep[1] else None
        gbeta = g64.sum(axis=lead).astype(_F32) if keep[2] else None
        return ga, ggamma, gbeta

    return _record((a, gamma, beta), out, bwd, selective=True)


def dropout_apply(
    a: Tensor,
    rate: float,
    seed: int,
    train_mode: bool,
    full_shape: Optional[Sequence[int]] = None,
) -> Tensor:
    """Zero elements with probability ``rate`` and rescale survivors by 1/(1-rate).

    The mask comes from a counter-based generator keyed by ``seed`` alone, so
    the same seed always produces the same mask for a given shape; rebuilding
    a graph replays dropout bit-identically. In eval mode or at rate 0 it
    returns ``a`` itself and records nothing.

    With ``full_shape`` the mask is drawn at that shape and its leading corner
    is cropped to ``a``'s shape, so an element keeps its mask value however
    far the tensor was trimmed (sequences padded only to the batch's longest
    row draw the same masks as at full width).
    """
    mask = _dropout_mask("dropout_apply", a.data.shape, rate, seed, train_mode, full_shape)
    if mask is None:
        return a
    keep, s = mask
    return _record((a,), (a.data * keep) * s, lambda g: ((g * keep) * s,))


def _dropout_mask(
    op: str,
    shape: tuple,
    rate: float,
    seed: int,
    train_mode: bool,
    full_shape: Optional[Sequence[int]],
) -> Optional[tuple[np.ndarray, np.float32]]:
    """The bool keep array for ``shape`` and the float32 1/(1 - rate), or None when nothing drops.

    Drawn from Philox keyed by ``seed`` at ``full_shape`` (default ``shape``)
    and cropped to the leading corner. ``random()`` is ``(raw >> 11) * 2**-53``
    of the raw words, so ``raw >= ceil(rate * 2**53) << 11`` is ``random() >= rate``.
    A mask announced by ``announce_masks`` is taken from the mask worker
    (waiting for it if need be); any other is drawn here, by the same function.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"{op}: rate must be in [0, 1), got {rate}")
    if not train_mode or rate == 0.0:
        return None
    full_shape = shape if full_shape is None else tuple(full_shape)
    if len(full_shape) != len(shape) or any(f < s for f, s in zip(full_shape, shape)):
        raise ValueError(f"{op}: cannot crop {full_shape} to {shape}")
    draw = _pending.pop((seed, shape, full_shape, rate), None)
    if draw is not None:
        keep = draw.result()
    else:
        keep = _draw_keep(seed, full_shape, rate, np.empty(shape, dtype=bool))
    return keep, _F32(1.0 / (1.0 - rate))


# raw words per Philox call of a mask draw, so its uint64 temporaries stay small
_DRAW_CHUNK = 16384


def _draw_keep(seed: int, full_shape: tuple, rate: float, keep: np.ndarray) -> np.ndarray:
    """Fill ``keep``, a bool array, with ``_dropout_mask``'s bits: one Philox per mask, read in chunks.

    The raw words are laid out at ``full_shape`` in C order; the stream is
    read at most ``_DRAW_CHUNK`` words at a time and each chunk's part of the
    leading corner ``keep`` covers is compared straight into ``keep``, so
    the bytes equal one whole-shape draw, cropped.
    """
    if keep.size:
        threshold = np.uint64(math.ceil(rate * 2.0**53) << 11)
        bitgen = np.random.Philox(key=seed & _MASK64)
        # a leading axis of 1 makes a 0-d mask one word and changes no stream position
        _fill_keep(bitgen, keep.reshape((1,) + keep.shape), (1,) + full_shape, threshold, False)
    return keep


def _fill_keep(bitgen, out: np.ndarray, full: tuple, threshold, whole: bool) -> None:
    """Compare the stream's next words, laid out at ``full``, into ``out``, its leading corner.

    Whole slabs along axis 0 go into one chunk while they fit; a slab that
    does not fit recurses one axis down. With ``whole`` the words of the
    slabs past ``out`` are read too, so the stream ends where ``full`` does;
    without it nothing past the last word ``out`` needs is read.
    """
    slab = math.prod(full[1:])
    n = out.shape[0]
    if slab > _DRAW_CHUNK:
        for i in range(n):
            _fill_keep(bitgen, out[i], full[1:], threshold, whole or i < n - 1)
    else:
        per = _DRAW_CHUNK // slab
        inner = (slice(None),) + tuple(slice(0, s) for s in out.shape[1:])
        for lo in range(0, n, per):
            hi = min(lo + per, n)
            raw = bitgen.random_raw((hi - lo,) + full[1:])
            np.greater_equal(raw[inner], threshold, out=out[lo:hi])
    if whole:
        rest = (full[0] - n) * slab
        for lo in range(0, rest, _DRAW_CHUNK):
            bitgen.random_raw(min(_DRAW_CHUNK, rest - lo))


# Masks of at least this many raw words (at full shape) are drawn on the mask
# worker once announced; a smaller draw costs less inline than its hand-off.
MASK_WORKER_FLOOR = 1 << 16


class _Draw:
    """One announced mask: the worker draws it, ``_dropout_mask`` reads it once.

    The keep array is allocated here, on the thread that will hold it, so it
    comes from that thread's heap like an inline draw's and the worker's
    heap holds only its chunk temporaries.
    """

    __slots__ = ("args", "ready", "keep", "error")

    def __init__(self, seed: int, shape: tuple, full_shape: tuple, rate: float):
        self.keep = np.empty(shape, dtype=bool)
        self.args: Optional[tuple] = (seed, full_shape, rate, self.keep)  # None once dropped
        self.ready = threading.Lock()
        self.ready.acquire()  # released by the worker once keep is filled or error is set
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            if self.args is not None:
                _draw_keep(*self.args)
        except BaseException as exc:  # handed to the reader, which re-raises it
            self.error = exc
        finally:
            self.ready.release()

    def result(self) -> np.ndarray:
        with self.ready:
            pass
        if self.error is not None:
            raise self.error
        return self.keep


# announced draws by (seed, shape, full_shape, rate); read by _dropout_mask
_pending: dict[tuple, _Draw] = {}
_queue: Optional[queue.SimpleQueue] = None


def _draw_forever(q: queue.SimpleQueue) -> None:
    while True:
        q.get().run()


def _forget_worker() -> None:
    """A forked child has no worker thread: it starts its own when it needs one."""
    global _queue
    _queue = None
    _pending.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def announce_masks(masks: Sequence[tuple[int, tuple, tuple]], rate: float) -> None:
    """Queue the train-mode dropout masks a forward is about to read on the mask worker.

    Each mask is ``(seed, shape, full_shape)`` exactly as the forward will
    pass them to ``dropout_apply`` or ``attention`` at ``rate``. Masks under
    ``MASK_WORKER_FLOOR`` words, and all masks at rate 0, stay inline. The
    worker is one daemon thread, started by the first mask it is given, and
    draws in announcement order with the function an inline draw uses, so a
    mask's bytes do not depend on where it was drawn. Draws announced before
    and not read since (a forward that raised) are dropped.
    """
    global _queue
    for draw in _pending.values():
        draw.args = None
    _pending.clear()
    if rate == 0.0:
        return
    for seed, shape, full_shape in masks:
        if math.prod(full_shape) < MASK_WORKER_FLOOR:
            continue
        if _queue is None:
            _queue = queue.SimpleQueue()
            threading.Thread(
                target=_draw_forever, args=(_queue,), name="callab-mask-worker", daemon=True
            ).start()
        draw = _Draw(seed, shape, full_shape, rate)
        _pending[(seed, shape, full_shape, rate)] = draw
        _queue.put(draw)


_NEG_MASK = _F32(-1e9)


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    key_mask: np.ndarray,
    heads: int,
    rate: float,
    seed: int,
    train_mode: bool,
    full_shape: Optional[Sequence[int]] = None,
) -> Tensor:
    """Multi-head scaled dot-product attention, recorded as one node.

    ``q`` is (B, n, H); ``k`` and ``v`` are (B, L, H). Splits H into
    ``heads``, scores ``q k^T / sqrt(H / heads)``, adds -1e9 at keys whose
    ``key_mask`` (B, L) entry is not positive, takes the softmax over keys,
    drops probabilities as ``dropout_apply`` does (mask drawn at
    ``full_shape`` and cropped) and merges the heads of ``probs @ v`` back to
    (B, n, H). All three batched products accumulate in float64, forward and
    backward. Values equal the op-by-op chain's bit for bit.
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
    drop = _dropout_mask("attention", probs.shape, rate, seed, train_mode, full_shape)
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
