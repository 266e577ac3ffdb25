"""Training objectives: cross-entropy, InfoNCE, and their weighted totals.

The InfoNCE loss scores cosine similarities (rows are L2-normalized before
the similarity matrix) divided by a temperature; the positive key for anchor
i is key i, and the denominator runs over all in-batch keys including the
positive, so the loss is always >= 0 and exactly 0 for a single-item batch.
The clean-keys variant is InfoNCE over its denominator keys plus a swap of
the positive term, scored from one unit row per input, so both readings
record the same engine ops.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import check_settings, setting

logger = logging.getLogger(__name__)

NEGATIVE_MODES = ("adv-keys", "clean-keys")


@dataclass
class LossConfig:
    temperature: float = setting(0.05, gt=0)
    alpha: float = setting(0.3, ge=0, le=1)  # weight on the contrastive term; 0 disables it
    negative_mode: str = setting("adv-keys", choices=NEGATIVE_MODES)

    def validate(self) -> None:
        check_settings(self)


@dataclass
class LossReport:
    """Scalar loss components of one training step."""

    total: float
    ce_clean: Optional[float] = None
    ce_adv: Optional[float] = None
    contrastive: Optional[float] = None
    ct_views: Optional[float] = None
    ct_adv: Optional[float] = None


def onehot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"label out of range [0, {num_classes}): {int(labels.min())}..{int(labels.max())}"
        )
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label]."""
    b, c = logits.shape
    hot = Tensor(onehot(labels, c))
    picked = ad.mul(ad.log_softmax_rows(logits), hot)
    return ad.scale(ad.sum_all(picked), -1.0 / b)


def _warn_on_zero_rows(x: Tensor, guard: float, what: str) -> None:
    norms = np.sqrt((x.data.astype(np.float64) ** 2).sum(axis=-1))
    if np.any(norms <= guard):
        logger.warning("info_nce: zero-norm %s row; cosine treated as 0", what)


def _info_nce_and_units(anchors: Tensor, keys: Tensor, temperature: float, guard: float) -> tuple:
    """``(info_nce, unit anchors, unit keys)``: the loss and the L2-normalized rows it scored."""
    if not 0 < temperature < math.inf:
        raise ValueError(f"temperature must be finite and > 0, got {temperature}")
    if anchors.shape != keys.shape or anchors.ndim != 2:
        raise ValueError(
            f"info_nce: anchors and keys must both be B x H, got {anchors.shape} vs {keys.shape}"
        )
    _warn_on_zero_rows(anchors, guard, "anchor")
    _warn_on_zero_rows(keys, guard, "key")
    b = anchors.shape[0]
    a_n = ad.l2_normalize_rows(anchors, guard)
    k_n = ad.l2_normalize_rows(keys, guard)
    sims = ad.scale(ad.matmul(a_n, ad.transpose(k_n)), 1.0 / temperature)
    return cross_entropy(sims, np.arange(b, dtype=np.int64)), a_n, k_n


def info_nce(
    anchors: Tensor,
    keys: Tensor,
    temperature: float,
    guard: float = 1e-12,
) -> Tensor:
    """InfoNCE over in-batch keys: positive for anchor i is key i."""
    return _info_nce_and_units(anchors, keys, temperature, guard)[0]


def info_nce_split(
    anchors: Tensor,
    pos_keys: Tensor,
    denom_keys: Tensor,
    temperature: float,
    guard: float = 1e-12,
) -> Tensor:
    """InfoNCE variant whose positive pair and denominator keys differ.

    Used by the clean-keys reading of the supervised contrastive term: the
    numerator scores (anchor_i, pos_key_i) while the denominator runs over
    ``denom_keys``. As ``info_nce`` is ``mean_i[lse_j S_ij - S_ii]``, this is
    ``info_nce(anchors, denom_keys)`` plus ``(sum_i a_i.d_i - a_i.p_i) / (B t)``
    over the unit rows that ``info_nce`` scored; each input is normalized once.
    """
    loss, a_n, d_n = _info_nce_and_units(anchors, denom_keys, temperature, guard)
    p_n = ad.l2_normalize_rows(pos_keys, guard)
    swap = ad.add(ad.sum_all(ad.mul(a_n, d_n)), ad.scale(ad.sum_all(ad.mul(a_n, p_n)), -1.0))
    return ad.add(loss, ad.scale(swap, 1.0 / (anchors.shape[0] * temperature)))
