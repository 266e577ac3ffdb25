"""Self-verification harness: gradient checks, attack-norm sweeps, metric oracles.

Each check is a named callable returning None on success or a failure message.
``run_selfcheck`` executes them in order and reports one line per property.
The whole battery is sized to finish well under two minutes on a laptop.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, derive_seed
from .attacks import AttackConfig, fgm_perturb, fgsm_perturb, gen_supervised_adv
from .encoder import EncoderConfig, EncoderParams, classify, encode_from_embeddings
from .objectives import LossConfig, cross_entropy, info_nce
from .text import Batch
from .trainer import Checkpoint, load_checkpoint, loss_graph, save_checkpoint
from .metrics import accuracy, f1_binary, mcc, spearman

EPSILON_GRID = (0.1, 0.2, 0.3, 0.4, 0.5)


def toy_setup(seed: int = 0, num_classes: int = 3, batch: int = 2,
              vocab_size: int = 24, hidden: int = 16, layers: int = 1,
              heads: int = 2, ffn_dim: int = 32, max_len: int = 6,
              dropout: float = 0.1):
    """Small encoder + random batch used across gradient, attack and metric checks."""
    cfg = EncoderConfig(
        vocab_size=vocab_size, hidden=hidden, layers=layers, heads=heads,
        ffn_dim=ffn_dim, dropout=dropout, max_len=max_len, num_classes=num_classes,
    )
    params = EncoderParams.init_random(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    ids = rng.integers(4, vocab_size, size=(batch, max_len))
    ids[:, 0] = 2
    mask = np.ones(ids.shape, dtype=np.float32)
    mask[0, -1] = 0
    ids[0, -1] = 0
    labels = rng.integers(0, num_classes, size=batch) if num_classes else None
    return cfg, params, Batch(token_ids=ids, attn_mask=mask, labels=labels)


# ---------------------------------------------------------------------------
# gradient checks
# ---------------------------------------------------------------------------


def _op_grad_cases() -> dict[str, tuple[Callable, np.ndarray]]:
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 6))
    # keep relu probes away from the kink so finite differences stay valid
    x_relu = x + np.sign(x) * 0.05
    w = Tensor(rng.standard_normal((6, 3)).astype(np.float32))
    b = Tensor(rng.standard_normal(3).astype(np.float32))
    gamma = Tensor(np.abs(rng.standard_normal(6)).astype(np.float32) + 0.5)
    beta = Tensor(rng.standard_normal(6).astype(np.float32))
    other = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
    table_ids = rng.integers(0, 4, size=(3, 2))
    # attention over two rows of four keys, the second row's last two padding
    qkv = {name: rng.standard_normal((2, 4, 4)) for name in "qkv"}
    key_mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0]], dtype=np.float32)

    def attention_case(wrt: str, n: int):
        data = {**qkv, "q": qkv["q"][:, :n]}
        fixed = {name: Tensor(a) for name, a in data.items()}

        def f(t):
            args = {**fixed, wrt: t}
            out = ad.attention(args["q"], args["k"], args["v"], key_mask, heads=2, rate=0.2,
                               seed=3, train_mode=True, full_shape=(2, 2, 5, 5))
            return ad.mean_all(ad.mul(out, out))

        return f, data[wrt]

    attention_cases = {f"attention_{wrt}_n{n}": attention_case(wrt, n)
                       for n in (1, 4) for wrt in "qkv"}

    return {
        "add": (lambda t: ad.mean_all(ad.add(t, other)), x),
        "sub": (lambda t: ad.mean_all(ad.sub(t, other)), x),
        "mul": (lambda t: ad.mean_all(ad.mul(t, other)), x),
        "scale": (lambda t: ad.mean_all(ad.scale(t, -1.7)), x),
        "matmul": (lambda t: ad.mean_all(ad.mul(ad.matmul(t, w), ad.matmul(t, w))), x),
        "transpose": (lambda t: ad.mean_all(ad.mul(ad.transpose(t), ad.transpose(t))), x),
        "reshape": (lambda t: ad.mean_all(ad.mul(ad.reshape(t, (2, 12)), ad.reshape(t, (2, 12)))), x),
        "first_position": (lambda t: ad.mean_all(ad.mul(ad.first_position(t), ad.first_position(t))),
                           x.reshape(2, 2, 6)),
        "slice_rows": (lambda t: ad.mean_all(ad.mul(ad.slice_rows(t, 2), ad.slice_rows(t, 2))), x),
        "add_bias": (lambda t: ad.mean_all(ad.mul(ad.add_bias(ad.matmul(t, w), b),
                                                  ad.add_bias(ad.matmul(t, w), b))), x),
        "sum_all": (lambda t: ad.scale(ad.sum_all(ad.mul(t, t)), 1.0 / 24), x),
        "sum_last": (lambda t: ad.mean_all(ad.mul(ad.sum_last(t), ad.sum_last(t))), x),
        "tanh": (lambda t: ad.mean_all(ad.tanh(t)), x),
        "relu": (lambda t: ad.mean_all(ad.mul(ad.relu(t), ad.relu(t))), x_relu),
        "softmax_rows": (lambda t: ad.mean_all(ad.mul(ad.softmax_rows(t), ad.softmax_rows(t))), x),
        "log_softmax_rows": (lambda t: ad.mean_all(ad.log_softmax_rows(t)), x),
        "logsumexp_rows": (lambda t: ad.mean_all(ad.logsumexp_rows(t)), x),
        "layer_norm": (lambda t: ad.mean_all(ad.tanh(ad.layer_norm(t, gamma, beta))), x),
        "dropout": (lambda t: ad.mean_all(ad.dropout_apply(t, 0.3, seed=5, train_mode=True)), x),
        "l2_normalize_rows": (lambda t: ad.mean_all(ad.mul(ad.l2_normalize_rows(t),
                                                           ad.l2_normalize_rows(t))), x),
        "embedding_lookup": (lambda t: ad.mean_all(ad.mul(ad.embedding_lookup(t, table_ids),
                                                          ad.embedding_lookup(t, table_ids))), x),
        "linear": (lambda t: ad.mean_all(ad.mul(ad.linear(t, w, b), ad.linear(t, w, b))),
                   x.reshape(2, 2, 6)),
        **attention_cases,
    }


def check_op_gradients(tolerance: float = 1e-4) -> Optional[str]:
    failures = []
    for name, (f, x_data) in _op_grad_cases().items():
        x = Tensor(x_data, requires_grad=True)
        err = ad.grad_check(f, x)
        if err >= tolerance:
            failures.append(f"{name}: {err:.2e}")
    if failures:
        return "ops over tolerance: " + ", ".join(failures)
    return None


def check_softmax_ce_gradient(tolerance: float = 1e-4) -> Optional[str]:
    rng = np.random.default_rng(11)
    logits = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    labels = rng.integers(0, 4, size=5)
    err = ad.grad_check(lambda t: cross_entropy(t, labels), logits)
    return None if err < tolerance else f"softmax-cross-entropy gradient error {err:.2e}"


def check_info_nce_gradient(tolerance: float = 1e-4) -> Optional[str]:
    rng = np.random.default_rng(13)
    a = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
    k = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
    err = ad.grad_check(lambda t: info_nce(t, k, 0.05), a)
    return None if err < tolerance else f"info_nce gradient error {err:.2e}"


def _full_graph_error(kind: str, sample_per_tensor: int = 3) -> float:
    cfg, params, batch = toy_setup(seed=3, num_classes=3 if kind == "scal" else 0)
    lcfg = LossConfig(alpha=0.4)
    rng = np.random.default_rng(0)
    delta = (rng.standard_normal((2, cfg.max_len, cfg.hidden)) * 0.05).astype(np.float32)
    step_seed = derive_seed(123, "graphcheck")

    def f(_t):
        total, _ = loss_graph(kind, batch, params, delta, lcfg, step_seed, train_mode=True)
        return total

    worst = 0.0
    for name, tensor in params.named():
        err = ad.grad_check(f, tensor, sample=sample_per_tensor, rng=np.random.default_rng(5))
        worst = max(worst, err)
    return worst


def check_scal_graph_gradient(tolerance: float = 1e-3) -> Optional[str]:
    err = _full_graph_error("scal")
    return None if err < tolerance else f"supervised total-graph gradient error {err:.2e}"


def check_uscal_graph_gradient(tolerance: float = 1e-3) -> Optional[str]:
    err = _full_graph_error("uscal")
    return None if err < tolerance else f"unsupervised total-graph gradient error {err:.2e}"


# ---------------------------------------------------------------------------
# attack properties
# ---------------------------------------------------------------------------


def check_fgm_norms(n: int = 1000) -> Optional[str]:
    rng = np.random.default_rng(17)
    grads = rng.standard_normal((n, 5, 4)).astype(np.float32)
    emb = np.zeros_like(grads)
    for eps in EPSILON_GRID:
        delta = fgm_perturb(emb, grads, eps) - emb
        norms = np.sqrt((delta.astype(np.float64).reshape(n, -1) ** 2).sum(axis=1))
        if not np.all(np.abs(norms - eps) <= 1e-6):
            worst = float(np.abs(norms - eps).max())
            return f"fgm norm off by {worst:.2e} at epsilon={eps}"
    return None


def check_fgsm_components() -> Optional[str]:
    rng = np.random.default_rng(19)
    grads = rng.standard_normal((200, 6)).astype(np.float32)
    grads[rng.random(grads.shape) < 0.1] = 0.0
    for eps in EPSILON_GRID:
        delta = fgsm_perturb(np.zeros_like(grads), grads, eps)
        allowed = np.isin(delta, np.array([-eps, 0.0, eps], dtype=np.float32))
        if not np.all(allowed):
            return f"fgsm component outside {{-eps, 0, eps}} at epsilon={eps}"
        if not np.array_equal(delta == 0.0, grads == 0.0):
            return "fgsm zero components do not match zero gradients"
    return None


def check_ascent_direction(draws: int = 100, eps: float = 1e-3) -> Optional[str]:
    """CE of the perturbed forward must not fall below clean CE (eval mode)."""
    bad = 0
    for i in range(draws):
        cfg, params, batch = toy_setup(seed=100 + i)
        acfg = AttackConfig(kind="fgm", epsilon=eps)
        seed = derive_seed(55, "ascent", i)
        adv = gen_supervised_adv(batch, params, acfg, seed, train_mode=False)
        enc_seed = derive_seed(seed, "encode")
        h_c = encode_from_embeddings(
            Tensor(adv.adv_emb.data - adv.delta), batch.attn_mask, params, enc_seed, False
        )
        h_a = encode_from_embeddings(adv.adv_emb, batch.attn_mask, params, enc_seed, False)
        ce_c = cross_entropy(classify(h_c, params), batch.labels).item()
        ce_a = cross_entropy(classify(h_a, params), batch.labels).item()
        if ce_a < ce_c - 1e-6:
            bad += 1
    if bad > max(1, draws // 100):
        return f"adversarial CE fell below clean CE in {bad}/{draws} draws"
    return None


# ---------------------------------------------------------------------------
# loss and metric oracles
# ---------------------------------------------------------------------------


def info_nce_bruteforce(anchors: np.ndarray, keys: np.ndarray, temperature: float) -> float:
    """Explicit float64 loops; the independent oracle for the InfoNCE path."""
    a = np.asarray(anchors, dtype=np.float64)
    k = np.asarray(keys, dtype=np.float64)
    b = a.shape[0]
    total = 0.0
    for i in range(b):
        def cos(u, v):
            nu = math.sqrt(float((u * u).sum()))
            nv = math.sqrt(float((v * v).sum()))
            if nu <= 1e-12 or nv <= 1e-12:
                return 0.0
            return float((u * v).sum()) / (nu * nv)

        num = math.exp(cos(a[i], k[i]) / temperature)
        den = sum(math.exp(cos(a[i], k[j]) / temperature) for j in range(b))
        total += -math.log(num / den)
    return total / b


def check_info_nce_oracle(tolerance: float = 1e-6) -> Optional[str]:
    rng = np.random.default_rng(23)
    for b in range(1, 9):
        anchors = rng.standard_normal((b, 6)).astype(np.float32)
        keys = rng.standard_normal((b, 6)).astype(np.float32)
        got = info_nce(Tensor(anchors), Tensor(keys), 0.05).item()
        want = info_nce_bruteforce(anchors, keys, 0.05)
        if abs(got - want) >= tolerance:
            return f"info_nce B={b}: {got} vs oracle {want}"
    one = info_nce(Tensor(rng.standard_normal((1, 6))), Tensor(rng.standard_normal((1, 6))), 0.05)
    if abs(one.item()) >= 1e-12:
        return f"info_nce B=1 not zero: {one.item()}"
    same = Tensor(np.tile(rng.standard_normal(6).astype(np.float32), (4, 1)))
    ln_b = info_nce(same, same, 0.05).item()
    if abs(ln_b - math.log(4)) >= 1e-6:
        return f"uniform-similarity loss {ln_b} != ln 4"
    return None


def check_metric_oracles(cases: int = 300) -> Optional[str]:
    rng = np.random.default_rng(29)
    for _ in range(cases):
        n = int(rng.integers(2, 30))
        preds = rng.integers(0, 2, size=n)
        labels = rng.integers(0, 2, size=n)
        acc = accuracy(preds, labels)
        want_acc = sum(int(p == l) for p, l in zip(preds, labels)) / n
        if abs(acc - want_acc) > 1e-10:
            return "accuracy oracle mismatch"
        tp = sum(1 for p, l in zip(preds, labels) if p == 1 and l == 1)
        fp = sum(1 for p, l in zip(preds, labels) if p == 1 and l == 0)
        fn = sum(1 for p, l in zip(preds, labels) if p == 0 and l == 1)
        tn = n - tp - fp - fn
        want_f1 = 0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn)
        if abs(f1_binary(preds, labels) - want_f1) > 1e-10:
            return "f1 oracle mismatch"
        d = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
        want_mcc = 0.0 if d == 0 else (tp * tn - fp * fn) / math.sqrt(d)
        if abs(mcc(preds, labels) - want_mcc) > 1e-10:
            return "mcc oracle mismatch"
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        def ranks(v):
            out = [0.0] * n
            for i in range(n):
                less = sum(1 for u in v if u < v[i])
                eq = sum(1 for u in v if u == v[i])
                out[i] = less + (eq + 1) / 2.0
            return out
        rx, ry = ranks(list(x)), ranks(list(y))
        mx, my = sum(rx) / n, sum(ry) / n
        num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
        den = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
        if den > 0:
            if abs(spearman(x, y) - num / den) > 1e-10:
                return "spearman oracle mismatch"
    return None


def check_softmax_properties() -> Optional[str]:
    rng = np.random.default_rng(31)
    x = rng.standard_normal((4, 7)).astype(np.float32)
    s = ad.softmax_rows(Tensor(x)).data
    if not np.all(np.abs(s.sum(axis=1) - 1.0) <= 1e-6):
        return "softmax rows do not sum to 1"
    shifted = ad.softmax_rows(Tensor(x + 3.5)).data
    if not np.all(np.abs(s - shifted) <= 1e-6):
        return "softmax not shift invariant"
    return None


def check_dropout_determinism() -> Optional[str]:
    x = Tensor(np.ones((100, 100), dtype=np.float32))
    a = ad.dropout_apply(x, 0.1, seed=42, train_mode=True).data
    b = ad.dropout_apply(x, 0.1, seed=42, train_mode=True).data
    if not np.array_equal(a, b):
        return "same-seed dropout masks differ"
    frac = float((a == 0).mean())
    if abs(frac - 0.1) > 0.01:
        return f"dropout zero fraction {frac} outside 0.1 +- 0.01"
    ident = ad.dropout_apply(x, 0.0, seed=1, train_mode=True).data
    if not np.array_equal(ident, x.data):
        return "rate-0 dropout is not the identity"
    # a mask above the worker floor, cropped, drawn on the mask worker and inline
    full = (4, ad.MASK_WORKER_FLOOR // 4 // 64 + 1, 64)
    shape = (3, full[1] - 1, 60)
    inline = ad._dropout_mask("selfcheck", shape, 0.1, 42, True, full)[0]
    ad.announce_masks([(42, shape, full)], 0.1)
    if not ad._pending:
        return "a mask above the worker floor was not handed to the mask worker"
    if not np.array_equal(ad._dropout_mask("selfcheck", shape, 0.1, 42, True, full)[0], inline):
        return "worker-drawn dropout mask differs from the inline draw"
    return None


def check_checkpoint_roundtrip() -> Optional[str]:
    cfg, params, _ = toy_setup(seed=9)
    ckpt = Checkpoint.from_params(params, step=7, dev_metric_value=0.5, rng_seed=9)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "check.ckpt")
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
    for name, arr in ckpt.tensors.items():
        if not np.array_equal(arr, loaded.tensors[name]):
            return f"tensor {name} not bit-equal after roundtrip"
    return None


ALL_CHECKS: list[tuple[str, Callable[[], Optional[str]]]] = [
    ("grad:ops", check_op_gradients),
    ("grad:softmax_ce", check_softmax_ce_gradient),
    ("grad:info_nce", check_info_nce_gradient),
    ("grad:scal_graph", check_scal_graph_gradient),
    ("grad:uscal_graph", check_uscal_graph_gradient),
    ("attack:fgm_norms", check_fgm_norms),
    ("attack:fgsm_components", check_fgsm_components),
    ("attack:ascent", check_ascent_direction),
    ("loss:info_nce_oracle", check_info_nce_oracle),
    ("loss:softmax_properties", check_softmax_properties),
    ("rng:dropout", check_dropout_determinism),
    ("metric:oracles", check_metric_oracles),
    ("io:checkpoint_roundtrip", check_checkpoint_roundtrip),
]


def run_selfcheck(out=print) -> Optional[str]:
    """Run all checks; returns the first failing property name, None if all pass."""
    first_failure = None
    t0 = time.monotonic()
    for name, fn in ALL_CHECKS:
        try:
            message = fn()
        except Exception as exc:  # a crashing check is a failing check
            message = f"raised {type(exc).__name__}: {exc}"
        if message is None:
            out(f"PASS {name}")
        else:
            out(f"FAIL {name}: {message}")
            if first_failure is None:
                first_failure = name
    out(f"selfcheck finished in {time.monotonic() - t0:.1f}s")
    return first_failure
