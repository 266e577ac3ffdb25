"""Self-verification harness: gradient checks, attack-norm sweeps, metric oracles.

Each check is a named callable returning None on success or a failure message.
``run_selfcheck`` executes them in order and reports one line per property.
Five checks run the protocols of acceptance criteria 1-4 and 10, and those
tests call the same functions, so each oracle exists once. The battery takes
about 2.4 s on a 2-vCPU host, 1.7 s of it criterion 3's 1000 ascent draws.
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
from .attacks import (AttackConfig, fgm_perturb, fgsm_perturb, gen_supervised_adv,
                      gen_unsupervised_adv)
from .encoder import (EncoderConfig, EncoderParams, classify, embed_and_encode,
                      encode_from_embeddings, forward_full, pool)
from .objectives import LossConfig, cross_entropy, info_nce
from .text import Batch, Vocab, encode_batch
from .trainer import Checkpoint, load_checkpoint, loss_graph, save_checkpoint
from .metrics import accuracy, encode_sentences, f1_binary, mcc, spearman

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
    x_mask = ad.dropout_mask(5, x.shape, 0.3, True)

    def attention_case(wrt: str, n: int):
        data = {**qkv, "q": qkv["q"][:, :n]}
        fixed = {name: Tensor(a) for name, a in data.items()}
        drop = ad.dropout_mask(3, (2, 2, n, 4), 0.2, True, (2, 2, 5, 5))

        def f(t):
            args = {**fixed, wrt: t}
            out = ad.attention(args["q"], args["k"], args["v"], key_mask, heads=2, drop=drop)
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
        "residual_norm": (lambda t: ad.mean_all(ad.tanh(ad.residual_norm(
            t, ad.tanh(t), x_mask, gamma, beta))), x),
        "dropout": (lambda t: ad.mean_all(ad.dropout_apply(t, x_mask)), x),
        "l2_normalize_rows": (lambda t: ad.mean_all(ad.mul(ad.l2_normalize_rows(t),
                                                           ad.l2_normalize_rows(t))), x),
        "embedding_lookup": (lambda t: ad.mean_all(ad.mul(ad.embedding_lookup(t, table_ids),
                                                          ad.embedding_lookup(t, table_ids))), x),
        "linear": (lambda t: ad.mean_all(ad.mul(ad.linear(t, w, b), ad.linear(t, w, b))),
                   x.reshape(2, 2, 6)),
        **attention_cases,
    }


def gradient_fidelity() -> tuple[dict[str, float], float, float]:
    """Criterion 1: the grad_check error of each op case and of the scal and uscal totals.

    Each total is checked at three sampled coordinates of every parameter
    of the seed-3 toy encoder.
    """
    ops = {name: float(ad.grad_check(f, Tensor(x_data, requires_grad=True)))
           for name, (f, x_data) in _op_grad_cases().items()}
    lcfg = LossConfig(alpha=0.4)

    def graph_error(kind: str) -> float:
        cfg, params, batch = toy_setup(seed=3, num_classes=3 if kind == "scal" else 0)
        rng = np.random.default_rng(0)
        delta = (rng.standard_normal((2, cfg.max_len, cfg.hidden)) * 0.05).astype(np.float32)
        seed = derive_seed(100, kind)

        def f(_t):
            return loss_graph(kind, batch, params, delta, lcfg, seed, True)[0]

        return max(float(ad.grad_check(f, tensor, sample=3, rng=np.random.default_rng(1)))
                   for _, tensor in params.named())

    return ops, graph_error("scal"), graph_error("uscal")


def check_softmax_ce_gradient() -> Optional[str]:
    rng = np.random.default_rng(11)
    logits = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    labels = rng.integers(0, 4, size=5)
    err = ad.grad_check(lambda t: cross_entropy(t, labels), logits)
    return None if err < 1e-4 else f"softmax-cross-entropy gradient error {err:.2e}"


def check_info_nce_gradient() -> Optional[str]:
    """InfoNCE's gradient with respect to its anchors and, separately, its keys."""
    rng = np.random.default_rng(13)
    a = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
    k = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
    err = max(ad.grad_check(lambda t: info_nce(t, k, 0.05), a),
              ad.grad_check(lambda t: info_nce(a, t, 0.05), k))
    return None if err < 1e-4 else f"info_nce gradient error {err:.2e}"


# ---------------------------------------------------------------------------
# attack properties
# ---------------------------------------------------------------------------


def attack_norm_exactness() -> tuple[float, bool, bool]:
    """Criterion 2: FGM and FGSM over the epsilon grid on 1000 6x4 gradients, 5% zeros.

    Returns the worst |‖δ_FGM‖₂ − ε|, whether every FGSM component is in
    {−ε, 0, ε}, and whether FGSM's zero components are the zero gradients.
    """
    rng = np.random.default_rng(21)
    grads = rng.standard_normal((1000, 6, 4)).astype(np.float32)
    grads[rng.random(grads.shape) < 0.05] = 0.0
    emb = np.zeros_like(grads)
    worst, components_ok, zeros_ok = 0.0, True, True
    for eps in EPSILON_GRID:
        delta = fgm_perturb(emb, grads, eps).astype(np.float64).reshape(1000, -1)
        worst = max(worst, float(np.abs(np.sqrt((delta ** 2).sum(axis=1)) - eps).max()))
        s_delta = fgsm_perturb(emb, grads, eps)
        components_ok &= bool(np.isin(s_delta, np.array([-eps, 0.0, eps], dtype=np.float32)).all())
        zeros_ok &= np.array_equal(s_delta == 0.0, grads == 0.0)
    return worst, components_ok, zeros_ok


ASCENT_DRAWS = 500


def first_order_ascent() -> tuple[int, int]:
    """Criterion 3: draws in which an epsilon-1e-3 FGM step does not lower its loss.

    Returns the supervised count (eval-mode CE) and the unsupervised count
    (view-1 InfoNCE on the attack's own dropout), each of ``ASCENT_DRAWS``.
    """
    acfg = AttackConfig(kind="fgm", epsilon=1e-3)
    lcfg = LossConfig()
    sup_ok = uns_ok = 0
    for i in range(ASCENT_DRAWS):
        _, params, batch = toy_setup(seed=1000 + i, num_classes=3, batch=2)
        seed = derive_seed(31, i)
        adv = gen_supervised_adv(batch, params, acfg, seed, train_mode=False)
        enc_seed = derive_seed(seed, "encode")

        def ce(emb: Tensor) -> float:
            h = encode_from_embeddings(emb, batch.attn_mask, params, enc_seed, False)
            return cross_entropy(classify(h, params), batch.labels).item()

        clean = ce(Tensor(adv.adv_emb.data - adv.delta))
        sup_ok += ce(adv.adv_emb) >= clean - 1e-6
    for i in range(ASCENT_DRAWS):
        _, params, batch = toy_setup(seed=5000 + i, num_classes=0, batch=3)
        s1, s2 = derive_seed(37, i, 1), derive_seed(37, i, 2)
        adv = gen_unsupervised_adv(batch, params, lcfg, acfg, s1, s2, train_mode=True)
        z1, z2 = (forward_full(batch, params, s, True).z for s in (s1, s2))
        clean = info_nce(z1, z2, lcfg.temperature).item()
        h_adv = encode_from_embeddings(
            adv.adv_emb, batch.attn_mask, params, derive_seed(s1, "encode"), True
        )
        uns_ok += info_nce(pool(h_adv, params), z2, lcfg.temperature).item() >= clean - 1e-6
    return sup_ok, uns_ok


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


def info_nce_oracle() -> tuple[float, float, float]:
    """Criterion 4: InfoNCE at temperature 0.05 against ``info_nce_bruteforce``.

    Returns the worst |loss − oracle| over five draws per batch size 1..8,
    |loss| at B = 1, and |loss − ln 4| for four identical rows.
    """
    rng = np.random.default_rng(41)
    worst = 0.0
    for b in range(1, 9):
        for _ in range(5):
            anchors = rng.standard_normal((b, 6)).astype(np.float32)
            keys = rng.standard_normal((b, 6)).astype(np.float32)
            got = info_nce(Tensor(anchors), Tensor(keys), 0.05).item()
            worst = max(worst, abs(got - info_nce_bruteforce(anchors, keys, 0.05)))
    single = abs(info_nce(Tensor(rng.standard_normal((1, 5))),
                          Tensor(rng.standard_normal((1, 5))), 0.05).item())
    same = Tensor(np.tile(rng.standard_normal(6).astype(np.float32), (4, 1)))
    return worst, single, abs(info_nce(same, same, 0.05).item() - math.log(4))


def metric_oracles() -> tuple[dict[str, float], float, float]:
    """Criterion 10: each metric against an explicit-loop oracle.

    Returns the worst error per metric over 1000 random binary cases (ties
    forced for Spearman), |MCC + 1| on an inverted labelling, and Spearman's
    error on a hand-ranked tied case.
    """
    rng = np.random.default_rng(101)
    worst = dict.fromkeys(("accuracy", "f1", "mcc", "spearman"), 0.0)

    def ranks(v):
        return np.array(
            [sum(1 for u in v if u < w) + (sum(1 for u in v if u == w) + 1) / 2 for w in v]
        )

    for _ in range(1000):
        n = int(rng.integers(2, 40))
        preds = rng.integers(0, 2, size=n)
        labels = rng.integers(0, 2, size=n)
        tp = sum(1 for p, l in zip(preds, labels) if p == 1 and l == 1)
        fp = sum(1 for p, l in zip(preds, labels) if p == 1 and l == 0)
        fn = sum(1 for p, l in zip(preds, labels) if p == 0 and l == 1)
        tn = n - tp - fp - fn
        d = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
        for name, got, want in (
            ("accuracy", accuracy(preds, labels),
             sum(int(p == l) for p, l in zip(preds, labels)) / n),
            ("f1", f1_binary(preds, labels), 0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn)),
            ("mcc", mcc(preds, labels), 0.0 if d == 0 else (tp * tn - fp * fn) / math.sqrt(d)),
        ):
            worst[name] = max(worst[name], abs(got - want))
        x = rng.standard_normal(n)
        y = np.round(rng.standard_normal(n), 1)  # rounding forces ties
        rx, ry = ranks(x), ranks(y)
        rxc, ryc = rx - rx.mean(), ry - ry.mean()
        den = math.sqrt(float((rxc ** 2).sum()) * float((ryc ** 2).sum()))
        if den > 0:
            want = float((rxc * ryc).sum()) / den
            worst["spearman"] = max(worst["spearman"], abs(spearman(x, y) - want))
    inverted = abs(mcc([1, 0, 1, 0], [0, 1, 0, 1]) + 1.0)
    tied = abs(spearman([1, 2, 2, 3], [1, 3, 2, 4]) - math.sqrt(0.9))
    return worst, inverted, tied


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
    a = ad.dropout_apply(x, ad.dropout_mask(42, x.shape, 0.1, True)).data
    b = ad.dropout_apply(x, ad.dropout_mask(42, x.shape, 0.1, True)).data
    if not np.array_equal(a, b):
        return "same-seed dropout masks differ"
    frac = float((a == 0).mean())
    if abs(frac - 0.1) > 0.01:
        return f"dropout zero fraction {frac} outside 0.1 +- 0.01"
    ident = ad.dropout_apply(x, ad.dropout_mask(1, x.shape, 0.0, True)).data
    if not np.array_equal(ident, x.data):
        return "rate-0 dropout is not the identity"
    # a mask above the worker floor, cropped, drawn on the mask worker and inline
    full = (4, ad.MASK_WORKER_FLOOR // 4 // 64 + 1, 64)
    shape = (3, full[1] - 1, 60)
    worker = ad.dropout_mask(42, shape, 0.1, True, full)[0].result()
    inline = ad._draw_keep(42, full, 0.1, np.empty(shape, dtype=bool))
    if not np.array_equal(worker, inline):
        return "worker-drawn dropout mask differs from the inline draw"
    return None


def check_eval_on_both_cores() -> Optional[str]:
    """A default-size encode of 3 batches, one on the worker, equals each batch encoded inline."""
    vocab = Vocab([f"w{i}" for i in range(40)])
    params = EncoderParams.init_random(EncoderConfig(vocab_size=len(vocab), num_classes=0), seed=5)
    rng = np.random.default_rng(5)
    sentences = [" ".join(f"w{j}" for j in rng.integers(0, 40, size=rng.integers(8, 30)))
                 for _ in range(150)]
    jobs = []
    submit = ad._submit
    ad._submit = lambda job: jobs.append(job) or submit(job)
    try:
        got = encode_sentences(params, sentences, vocab)
    finally:
        ad._submit = submit
    want = np.concatenate([
        embed_and_encode(encode_batch(sentences[i : i + 64], vocab, params.config.max_len),
                         params, seed=0, train_mode=False)[1].data
        for i in range(0, len(sentences), 64)
    ])
    if not jobs:
        return "no eval batch reached the worker"
    if got.tobytes() != want.tobytes():
        return "encode_sentences differs from its batches encoded inline"
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


def _gate(protocol: Callable[[], tuple], holds: Callable[..., bool]) -> Callable:
    """A check that runs an acceptance protocol and fails with its numbers unless they hold."""
    def check() -> Optional[str]:
        numbers = protocol()
        return None if holds(*numbers) else f"{protocol.__name__} out of bounds: {numbers}"
    return check


ALL_CHECKS: list[tuple[str, Callable[[], Optional[str]]]] = [
    ("grad:fidelity", _gate(gradient_fidelity, lambda ops, scal, uscal:
                            max(ops.values()) < 1e-4 and scal < 1e-3 and uscal < 1e-3)),
    ("grad:softmax_ce", check_softmax_ce_gradient),
    ("grad:info_nce", check_info_nce_gradient),
    ("attack:norms", _gate(attack_norm_exactness, lambda worst, components_ok, zeros_ok:
                           worst <= 1e-6 and components_ok and zeros_ok)),
    ("attack:ascent", _gate(first_order_ascent, lambda sup_ok, uns_ok:
                            min(sup_ok, uns_ok) >= math.ceil(0.99 * ASCENT_DRAWS))),
    ("loss:info_nce_oracle", _gate(info_nce_oracle, lambda worst, single, uniform_err:
                                   worst < 1e-6 and single < 1e-12 and uniform_err < 1e-6)),
    ("loss:softmax_properties", check_softmax_properties),
    ("rng:dropout", check_dropout_determinism),
    ("metric:oracles", _gate(metric_oracles, lambda worst, inverted, tied:
                             max(worst.values()) < 1e-10 and inverted < 1e-12 and tied < 1e-12)),
    ("io:checkpoint_roundtrip", check_checkpoint_roundtrip),
    ("eval:both_cores", check_eval_on_both_cores),
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
