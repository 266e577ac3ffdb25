"""Embedding-level adversarial example generation (single-step FGSM / FGM).

Both generators run a self-contained forward/backward pass on their own tape
to obtain the loss gradient at the embedding seam, then add a fixed
perturbation to the embedding values. The result is a constant leaf: when
the adversarial branch is later differentiated, no gradient flows through the
perturbation's construction. Parameter gradient buffers are snapshotted and
restored around the attack pass, so generating an attack never disturbs the
model or its pending gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, derive_seed
from .encoder import (
    EncoderParams,
    classify,
    embed_tokens,
    encode_from_embeddings,
    pool,
)
from .objectives import LossConfig, cross_entropy, info_nce
from .text import Batch

ATTACK_KINDS = ("fgsm", "fgm")


@dataclass
class AdvResult:
    """Adversarial embedding plus the perturbation that produced it.

    ``adv_emb`` is the attack-pass embedding with delta added (a constant
    leaf, usable directly for robustness evaluation). ``delta`` alone lets a
    training step attach the perturbation to its own clean embedding graph.
    ``clean_logits`` are the supervised attack pass's unperturbed logits
    (same mode and dropout draw as the attack); None for the contrastive
    attack.
    """

    adv_emb: Tensor
    delta: np.ndarray
    clean_logits: Optional[np.ndarray] = None


@dataclass
class AttackConfig:
    kind: str = "fgm"
    epsilon: float = 0.3          # typical sweep is 0.1..0.5; 0 disables the attack
    zero_grad_guard: float = 1e-12

    def validate(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"attack kind must be one of {ATTACK_KINDS}, got {self.kind!r}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.zero_grad_guard <= 0:
            raise ValueError("zero_grad_guard must be > 0")


def fgsm_perturb(emb: np.ndarray, grad_emb: np.ndarray, epsilon: float) -> np.ndarray:
    """emb + epsilon * sign(grad); sign(0) = 0, so ||delta||_inf <= epsilon exactly."""
    emb = np.asarray(emb, dtype=np.float32)
    grad_emb = np.asarray(grad_emb, dtype=np.float32)
    if emb.shape != grad_emb.shape:
        raise ValueError(f"fgsm_perturb: shape mismatch {emb.shape} vs {grad_emb.shape}")
    return emb + np.float32(epsilon) * np.sign(grad_emb)


def fgm_perturb(
    emb: np.ndarray,
    grad_emb: np.ndarray,
    epsilon: float,
    guard: float = 1e-12,
) -> np.ndarray:
    """emb + epsilon * g / ||g||_2, normalized per example over its full slice.

    Examples whose gradient L2 norm is at or below ``guard`` are returned
    unchanged. A 1-D input counts as a single example.
    """
    emb = np.asarray(emb, dtype=np.float32)
    grad_emb = np.asarray(grad_emb, dtype=np.float32)
    if emb.shape != grad_emb.shape:
        raise ValueError(f"fgm_perturb: shape mismatch {emb.shape} vs {grad_emb.shape}")
    if emb.ndim == 1:
        g64 = grad_emb.astype(np.float64)
        norm = float(np.sqrt((g64 * g64).sum()))
        if norm <= guard:
            return emb.copy()
        return emb + (np.float64(epsilon) / norm * g64).astype(np.float32)
    b = emb.shape[0]
    g64 = grad_emb.reshape(b, -1).astype(np.float64)
    norms = np.sqrt((g64 * g64).sum(axis=1, keepdims=True))
    safe = norms > guard
    delta = np.where(safe, epsilon * g64 / np.where(safe, norms, 1.0), 0.0)
    return emb + delta.reshape(emb.shape).astype(np.float32)


def _perturb(emb: np.ndarray, grad: np.ndarray, cfg: AttackConfig) -> np.ndarray:
    if cfg.kind == "fgsm":
        return fgsm_perturb(emb, grad, cfg.epsilon)
    return fgm_perturb(emb, grad, cfg.epsilon, cfg.zero_grad_guard)


def gen_supervised_adv(
    batch: Batch,
    params: EncoderParams,
    attack_cfg: AttackConfig,
    seed: int,
    train_mode: bool = True,
) -> AdvResult:
    """Adversarial embeddings driven by the cross-entropy gradient.

    Runs clean forward -> CE -> backward to the embedding seam, perturbs per
    the configured attack, and returns the result as a constant tensor.
    """
    if batch.labels is None:
        raise ValueError("gen_supervised_adv: batch has no labels")
    attack_cfg.validate()
    prior = params.grads_snapshot()
    try:
        with ad.Tape():
            emb = embed_tokens(batch, params, derive_seed(seed, "embed"), train_mode)
            h = encode_from_embeddings(
                emb, batch.attn_mask, params, derive_seed(seed, "encode"), train_mode
            )
            logits = classify(h, params)
            ad.backward(cross_entropy(logits, batch.labels))
        grad = emb.grad
    finally:
        params.restore_grads(prior)
    adv_data = _perturb(emb.data, grad, attack_cfg)
    return AdvResult(
        adv_emb=Tensor(adv_data), delta=adv_data - emb.data, clean_logits=logits.data
    )


def gen_unsupervised_adv(
    batch: Batch,
    params: EncoderParams,
    loss_cfg: LossConfig,
    attack_cfg: AttackConfig,
    seed_view1: int,
    seed_view2: int,
    train_mode: bool = True,
) -> AdvResult:
    """Adversarial embeddings driven by the two-view contrastive gradient.

    View 2 is encoded without gradient tracking and enters the loss as fixed
    keys; the InfoNCE gradient is taken with respect to the view-1 embedding
    matrix only. Seeds must match the ones used for the training step's views
    so the perturbation lands on the same dropout draw.
    """
    attack_cfg.validate()
    loss_cfg.validate()
    # fixed view-2 keys (no tape)
    emb2 = embed_tokens(batch, params, derive_seed(seed_view2, "embed"), train_mode)
    h2 = encode_from_embeddings(
        emb2, batch.attn_mask, params, derive_seed(seed_view2, "encode"), train_mode
    )
    z2 = Tensor(pool(h2, params).data.copy())

    prior = params.grads_snapshot()
    try:
        with ad.Tape():
            emb1 = embed_tokens(batch, params, derive_seed(seed_view1, "embed"), train_mode)
            h1 = encode_from_embeddings(
                emb1, batch.attn_mask, params, derive_seed(seed_view1, "encode"), train_mode
            )
            ct = info_nce(pool(h1, params), z2, loss_cfg.temperature, loss_cfg.norm_guard)
            ad.backward(ct)
        grad = emb1.grad
    finally:
        params.restore_grads(prior)
    adv_data = _perturb(emb1.data, grad, attack_cfg)
    return AdvResult(adv_emb=Tensor(adv_data), delta=adv_data - emb1.data)
