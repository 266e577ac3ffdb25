"""Classification, similarity, and robustness evaluation.

Metric functions are pure; the evaluate_* helpers run eval-mode forwards on a
frozen parameter set and never mutate it. Robustness evaluation is a
white-box embedding-space proxy: it attacks the evaluated model itself with
the supervised gradient attack and classifies from the perturbed embeddings.
The rules a dataset must meet are declared once, in ``check_*``; the
evaluate_* helpers and ``callab train`` apply the same ones.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .attacks import AttackConfig, gen_supervised_adv
from .autodiff import map_batches
from .encoder import EncoderParams, classify, embed_and_encode, encode_from_embeddings
from .text import Batch, LabeledExample, ScoredPair, Vocab, encode_batch


class MetricError(ValueError):
    """A metric is undefined for the given inputs."""


def accuracy(preds: Sequence[int], labels: Sequence[int]) -> float:
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape or preds.size == 0:
        raise MetricError("accuracy: need equal-length, non-empty inputs")
    return float(np.mean(preds == labels))


def f1_binary(preds: Sequence[int], labels: Sequence[int], positive_class: int = 1) -> float:
    """2PR/(P+R), defined as 0 when no positives are predicted or present."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape or preds.size == 0:
        raise MetricError("f1_binary: need equal-length, non-empty inputs")
    tp = int(np.sum((preds == positive_class) & (labels == positive_class)))
    fp = int(np.sum((preds == positive_class) & (labels != positive_class)))
    fn = int(np.sum((preds != positive_class) & (labels == positive_class)))
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def mcc(preds: Sequence[int], labels: Sequence[int]) -> float:
    """Matthews correlation coefficient for binary predictions; 0 on degenerate margins."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape or preds.size == 0:
        raise MetricError("mcc: need equal-length, non-empty inputs")
    tp = float(np.sum((preds == 1) & (labels == 1)))
    tn = float(np.sum((preds == 0) & (labels == 0)))
    fp = float(np.sum((preds == 1) & (labels == 0)))
    fn = float(np.sum((preds == 0) & (labels == 1)))
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(denom)


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """Fractional ranks (1-based); tied values share the average of their positions."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of average ranks; errors on constant input."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise MetricError("spearman: need equal-length inputs of size >= 2")
    rx = average_ranks(x)
    ry = average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float((rx * rx).sum()) * float((ry * ry).sum()))
    if denom == 0:
        raise MetricError("spearman: undefined for constant input")
    return float((rx * ry).sum() / denom)


@dataclass
class MetricReport:
    name: str
    value: float
    support: int
    per_class: Optional[dict[int, dict[str, int]]] = None
    attack: Optional[dict] = None
    extras: dict = field(default_factory=dict)

    def format_lines(self) -> list[str]:
        lines = [
            f"metric={self.name}",
            f"value={self.value:.6f}",
            f"support={self.support}",
        ]
        if self.attack is not None:
            for k, v in self.attack.items():
                lines.append(f"attack.{k}={v}")
        for k, v in self.extras.items():
            lines.append(f"{k}={v}")
        if self.per_class is not None:
            for cls, counts in sorted(self.per_class.items()):
                kv = ",".join(f"{k}={v}" for k, v in counts.items())
                lines.append(f"class.{cls}={kv}")
        return lines

    def to_json(self) -> str:
        return json.dumps(
            {
                "metric": self.name,
                "value": self.value,
                "support": self.support,
                "per_class": self.per_class,
                "attack": self.attack,
                **self.extras,
            },
            sort_keys=True,
        )


def check_nonempty(rows: Sequence, what: str = "dataset") -> None:
    """The rule for every dataset, scored or trained on: it has rows."""
    if not rows:
        raise MetricError(f"empty {what}")


def check_similarity_set(pairs: Sequence[ScoredPair], what: str = "similarity set") -> None:
    """The rule for a similarity set: Spearman needs at least 2 pairs whose
    gold scores are not all equal."""
    if len(pairs) < 2:
        raise MetricError(f"{what} needs at least 2 pairs, got {len(pairs)}")
    if len({p.score for p in pairs}) < 2:
        raise MetricError(f"{what} has constant gold scores, so Spearman is undefined")


# read by evaluate_classification, `callab eval --metric` and TrainConfig.validate
CLS_METRICS = {"accuracy": accuracy, "f1": f1_binary, "mcc": mcc}


def _apply_metric(name: str, preds: np.ndarray, labels: np.ndarray) -> float:
    if name not in CLS_METRICS:
        raise MetricError(f"unknown classification metric {name!r}")
    return CLS_METRICS[name](preds, labels)


def _batches(rows: Sequence, vocab: Vocab, max_len: int, batch_size: int) -> Iterator[Batch]:
    """``encode_batch`` of each consecutive ``batch_size`` slice of ``rows``, built when read."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return (
        encode_batch(list(rows[start : start + batch_size]), vocab, max_len)
        for start in range(0, len(rows), batch_size)
    )


def _eval_batches(params: EncoderParams, fn: Callable, batches: Iterable[Batch]) -> list:
    """``fn`` of each batch, in order, by ``map_batches``: every second
    default-size batch runs on the worker. A batch's cost is one projection
    of its rows, B x width x H x H (demo size stays under the floor)."""
    hidden = params.config.hidden
    return map_batches(fn, batches, lambda b: b.token_ids.size * hidden * hidden)


def _predict_batches(
    params: EncoderParams,
    rows: Sequence[LabeledExample],
    vocab: Vocab,
    batch_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    def predict(batch: Batch) -> tuple[np.ndarray, np.ndarray]:
        _, h = embed_and_encode(batch, params, seed=0, train_mode=False)
        # argmax ties break toward the lowest class index
        return np.argmax(classify(h, params).data, axis=1), batch.labels

    outs = _eval_batches(params, predict, _batches(rows, vocab, params.config.max_len, batch_size))
    preds, labels = zip(*outs)
    return np.concatenate(preds), np.concatenate(labels)


def evaluate_classification(
    params: EncoderParams,
    rows: Sequence[LabeledExample],
    vocab: Vocab,
    metric: str = "accuracy",
    batch_size: int = 64,
) -> MetricReport:
    """Eval-mode forward, argmax, task metric, per-class counts."""
    check_nonempty(rows)
    preds, labels = _predict_batches(params, rows, vocab, batch_size)
    value = _apply_metric(metric, preds, labels)
    per_class: dict[int, dict[str, int]] = {}
    for cls in sorted(set(int(c) for c in labels)):
        sel = labels == cls
        per_class[cls] = {
            "support": int(sel.sum()),
            "correct": int((preds[sel] == cls).sum()),
        }
    return MetricReport(metric, value, support=len(rows), per_class=per_class)


def _encode_h(params: EncoderParams, batches: Iterable[Batch]) -> list[np.ndarray]:
    """The [CLS] hidden vectors h of each batch, in batch order."""
    return _eval_batches(
        params, lambda b: embed_and_encode(b, params, seed=0, train_mode=False)[1].data, batches
    )


def encode_sentences(
    params: EncoderParams,
    sentences: Sequence[str],
    vocab: Vocab,
    batch_size: int = 64,
) -> np.ndarray:
    """Sentence representations: the [CLS] hidden vector h of each single sentence."""
    check_nonempty(sentences, "sentences")
    batches = _batches(sentences, vocab, params.config.max_len, batch_size)
    return np.concatenate(_encode_h(params, batches), axis=0)


def cosine_rows(a: np.ndarray, b: np.ndarray, guard: float = 1e-12) -> np.ndarray:
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    na = np.sqrt((a * a).sum(axis=1))
    nb = np.sqrt((b * b).sum(axis=1))
    denom = na * nb
    safe = denom > guard
    return np.where(safe, (a * b).sum(axis=1) / np.where(safe, denom, 1.0), 0.0)


def evaluate_similarity(
    params: EncoderParams,
    pairs: Sequence[ScoredPair],
    vocab: Vocab,
    batch_size: int = 64,
) -> MetricReport:
    """Spearman correlation between pairwise cosine of h and the gold scores.

    Each sentence is encoded independently (no [SEP] packing): representations
    are being scored, not pair classification. An encoder that gives every pair
    the same cosine ranks no pair above another and scores 0, as ``mcc`` does
    on degenerate margins.
    """
    check_similarity_set(pairs)
    max_len = params.config.max_len
    sides = [
        _batches([p.text_a for p in pairs], vocab, max_len, batch_size),
        _batches([p.text_b for p in pairs], vocab, max_len, batch_size),
    ]
    # both sides' batches in one run, so the last left batch pairs with the first right one
    hs = _encode_h(params, itertools.chain(*sides))
    left = np.concatenate(hs[: len(hs) // 2], axis=0)
    right = np.concatenate(hs[len(hs) // 2 :], axis=0)
    cosines = cosine_rows(left, right)
    gold = np.array([p.score for p in pairs], dtype=np.float64)
    value = spearman(cosines, gold) if np.ptp(cosines) > 0 else 0.0
    return MetricReport(
        "spearman",
        value,
        support=len(pairs),
        extras={"mean_cosine": f"{float(cosines.mean()):.6f}"},
    )


def evaluate_under_attack(
    params: EncoderParams,
    rows: Sequence[LabeledExample],
    vocab: Vocab,
    attack_cfg: AttackConfig,
    metric: str = "accuracy",
    batch_size: int = 64,
) -> MetricReport:
    """White-box robustness: classify from adversarially perturbed embeddings.

    For each batch the supervised attack is generated against the evaluated
    model (eval-mode, deterministic), then logits are computed from the
    perturbed embeddings. The clean metric, from the attack pass's own
    eval-mode logits, is reported alongside. This is an embedding-space proxy
    for input-level adversarial evaluation.
    """
    check_nonempty(rows)
    attack_cfg.validate()
    adv_preds: list[np.ndarray] = []
    clean_preds: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    # one batch at a time: two attack tapes in flight hold twice the memory
    for batch in _batches(rows, vocab, params.config.max_len, batch_size):
        adv = gen_supervised_adv(batch, params, attack_cfg, seed=0, train_mode=False)
        h_adv = encode_from_embeddings(
            adv.adv_emb, batch.attn_mask, params, dropout_seed=0, train_mode=False
        )
        adv_logits = classify(h_adv, params)
        adv_preds.append(np.argmax(adv_logits.data, axis=1))
        clean_preds.append(np.argmax(adv.clean_logits, axis=1))
        labels.append(batch.labels)

    adv_p = np.concatenate(adv_preds)
    clean_p = np.concatenate(clean_preds)
    y = np.concatenate(labels)
    robust_value = _apply_metric(metric, adv_p, y)
    clean_value = _apply_metric(metric, clean_p, y)
    return MetricReport(
        f"robust_{metric}",
        robust_value,
        support=len(rows),
        attack={
            "kind": attack_cfg.kind,
            "epsilon": attack_cfg.epsilon,
            "note": "white-box embedding-space proxy",
        },
        extras={f"clean_{metric}": f"{clean_value:.6f}"},
    )
