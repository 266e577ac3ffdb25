import math

import numpy as np
import pytest

from callab import autodiff as ad
from callab.autodiff import Tensor
from callab.selfcheck import toy_setup  # noqa: F401  (the one toy fixture, re-exported)
from callab.trainer import ADAM_EPS, BETA1, BETA2


def linear_chain(x, w, b):
    """Reference for ``ad.linear``: reshape, matmul, add_bias, reshape, one node each."""
    if x.ndim == 2:
        return ad.add_bias(ad.matmul(x, w), b)
    flat = ad.reshape(x, (-1, x.shape[-1]))
    return ad.reshape(ad.add_bias(ad.matmul(flat, w), b), x.shape[:-1] + (w.shape[1],))


def attention_chain(q, k, v, key_mask, heads, drop):
    """Reference for ``ad.attention`` built op by op, the mask as a full-size additive tensor."""
    b, n, h = q.shape
    dh = h // heads

    def split_heads(t):
        return ad.transpose(ad.reshape(t, (b, t.shape[1], heads, dh)), (0, 2, 1, 3))

    bias = np.where(key_mask[:, None, None, :] > 0, 0.0, -1e9).astype(np.float32)
    bias = Tensor(np.broadcast_to(bias, (b, heads, n, k.shape[1])).copy())
    scores = ad.matmul(split_heads(q), ad.transpose(split_heads(k), (0, 1, 3, 2)))
    probs = ad.softmax_rows(ad.add(ad.scale(scores, 1.0 / math.sqrt(dh)), bias))
    probs = ad.dropout_apply(probs, drop)
    ctx = ad.transpose(ad.matmul(probs, split_heads(v)), (0, 2, 1, 3))
    return ad.reshape(ctx, (b, n, h))


def residual_norm_chain(x, y, mask, gamma, beta):
    """Reference for ``ad.residual_norm``: dropout_apply, add, layer_norm, one node each."""
    return ad.layer_norm(ad.add(x, ad.dropout_apply(y, mask)), gamma, beta)


def reference_softmax(x):
    """Reference for ``ad._softmax``: the row max by numpy's own last-axis reduction."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted, dtype=np.float64)
    return (e / e.sum(axis=-1, keepdims=True)).astype(ad._st())


def reference_backward(root, tape):
    """Reference for ``ad.backward``: a walk that never sums in place, then a second pass.

    Every sum makes a new array, so no gradient can alias another, and the
    nodes are left intact; the second pass writes ``grad`` on every
    requires-grad tensor on the tape that is still alive (each node's leaves
    and live output), zeros where the walk never reached.
    """
    grads = {root.key: np.ones_like(root.data)}
    for node in reversed(tape.nodes):
        g_out = grads.get(node.key)
        if g_out is None:
            continue
        node.keep[:] = [requires_grad for _, _, requires_grad in node.inputs]
        for (key, shape, requires_grad), g in zip(node.inputs, node.backward(g_out)):
            if g is None or not requires_grad:
                continue
            g = np.asarray(g, dtype=np.float32).reshape(shape)
            acc = grads.get(key)
            grads[key] = g if acc is None else acc + g
    for node in tape.nodes:
        for t in (*node.leaves, node.output()):
            if t is not None:
                g = grads.get(t.key)
                t.grad = g if g is not None else np.zeros_like(t.data)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class ReferenceAdamState:
    """State for the reference optimizer: float64 moments per tensor name."""

    def __init__(self, params):
        self.t = 0
        self.skipped = 0
        self.m = {name: np.zeros(t.data.shape, dtype=np.float64) for name, t in params.named()}
        self.v = {name: np.zeros(t.data.shape, dtype=np.float64) for name, t in params.named()}


def reference_adamw_step(params, state, lr_t, weight_decay):
    """Reference for ``trainer.adamw_step``: the per-tensor loop, each tensor's
    update computed whole in float64 and rebound to ``data``."""
    grads = {}
    for name, t in params.named():
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        if not np.all(np.isfinite(g)):
            return False
        grads[name] = g
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for name, p in params.named():
        g = grads[name].astype(np.float64)
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS) + weight_decay * p.data.astype(np.float64)
        p.data = (p.data.astype(np.float64) - lr_t * update).astype(np.float32)
    return True


def reference_clip_gradients(params, max_norm):
    """Reference for ``trainer.clip_gradients``: per-tensor float64 sums, each
    clipped ``grad`` rebound to a new array."""
    total = 0.0
    for _, t in params.named():
        if t.grad is not None:
            g = t.grad.astype(np.float64)
            total += float((g * g).sum())
    norm = math.sqrt(total)
    if norm > max_norm > 0:
        factor = np.float32(max_norm / norm)
        for _, t in params.named():
            if t.grad is not None:
                t.grad = t.grad * factor
    return norm


def assert_flat_views(params):
    """Each tensor's ``data`` (and each ``grad`` it has) is the view of its
    segment of ``params.flat`` (``params.grad_flat``), in ``named`` order."""
    lo = 0
    for name, t in params.named():
        for arr, flat in ((t.data, params.flat), (t.grad, params.grad_flat)):
            if arr is None:
                continue
            assert arr.base is flat and arr.flags.c_contiguous, name
            assert arr.ctypes.data - flat.ctypes.data == lo * flat.itemsize, name
        lo += t.data.size
    assert lo == params.flat.size == params.grad_flat.size


def reference_layer_norm(a, gamma, beta, eps=1e-5):
    """Reference for ``ad.layer_norm``: mean and ``var`` by numpy's own calls, which
    subtract the mean a second time, and ``gamma`` cast twice."""
    x = a.data.astype(np.float64)
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv
    out = (xhat * gamma.data.astype(np.float64) + beta.data.astype(np.float64)).astype(ad._st())
    g_d = gamma.data.astype(np.float64)

    def bwd(g, keep):
        g64 = g.astype(np.float64)
        gxhat = g64 * g_d
        m1 = gxhat.mean(axis=-1, keepdims=True)
        m2 = (gxhat * xhat).mean(axis=-1, keepdims=True)
        ga = ((gxhat - m1 - xhat * m2) * inv).astype(np.float32) if keep[0] else None
        lead = tuple(range(g64.ndim - 1))
        ggamma = (g64 * xhat).sum(axis=lead).astype(np.float32) if keep[1] else None
        gbeta = g64.sum(axis=lead).astype(np.float32) if keep[2] else None
        return ga, ggamma, gbeta

    return ad._record((a, gamma, beta), out, bwd, selective=True)
