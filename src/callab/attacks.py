"""Embedding-level adversarial example generation (single-step FGSM / FGM).

Every attack perturbs an embedding-seam tensor along the gradient of a loss
built on the active tape (``seam_attack``). The gradient comes from
``autodiff.grad_of``, which walks only the nodes downstream of the seam and
writes no ``grad`` field, so generating an attack never disturbs the model
or its pending gradients. The two generators build that loss on a tape of
their own. A training step's attack is run by ``trainer.loss_graph``:
``gen_supervised_adv`` for scal, and for uscal ``seam_attack`` on the step's
main tape, reusing the view forwards its loss needs anyway
(``gen_unsupervised_adv`` is that attack's standalone reference). The result
is a constant: when the adversarial branch is later differentiated, no
gradient flows through the perturbation's construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import (
    EncoderParams,
    check_settings,
    classify,
    embed_and_encode,
    forward_full,
    setting,
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
    kind: str = setting("fgm", choices=ATTACK_KINDS)
    epsilon: float = setting(0.3, ge=0)  # typical sweep is 0.1..0.5; 0 disables the attack

    def validate(self) -> None:
        check_settings(self)


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
    b = emb.shape[0] if emb.ndim > 1 else 1
    g64 = grad_emb.reshape(b, -1).astype(np.float64)
    norms = np.sqrt((g64 * g64).sum(axis=1, keepdims=True))
    safe = norms > guard
    delta = np.where(safe, epsilon * g64 / np.where(safe, norms, 1.0), 0.0)
    return emb + delta.reshape(emb.shape).astype(np.float32)


def _perturb(emb: np.ndarray, grad: np.ndarray, cfg: AttackConfig) -> np.ndarray:
    if cfg.kind == "fgsm":
        return fgsm_perturb(emb, grad, cfg.epsilon)
    return fgm_perturb(emb, grad, cfg.epsilon)


def seam_attack(
    loss: Tensor,
    emb: Tensor,
    attack_cfg: AttackConfig,
    clean_logits: Optional[np.ndarray] = None,
) -> AdvResult:
    """Perturb ``emb`` along d loss / d emb, both recorded on the active tape."""
    attack_cfg.validate()
    adv_data = _perturb(emb.data, ad.grad_of(loss, emb), attack_cfg)
    return AdvResult(
        adv_emb=Tensor(adv_data), delta=adv_data - emb.data, clean_logits=clean_logits
    )


def gen_supervised_adv(
    batch: Batch,
    params: EncoderParams,
    attack_cfg: AttackConfig,
    seed: int,
    train_mode: bool = True,
) -> AdvResult:
    """Adversarial embeddings driven by the cross-entropy gradient.

    Runs clean forward -> CE on its own tape, takes the CE gradient at the
    embedding seam, and perturbs per the configured attack.
    """
    if batch.labels is None:
        raise ValueError("gen_supervised_adv: batch has no labels")
    with ad.Tape():
        emb, h = embed_and_encode(batch, params, seed, train_mode)
        logits = classify(h, params)
        ce = cross_entropy(logits, batch.labels)
        return seam_attack(ce, emb, attack_cfg, clean_logits=logits.data)


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

    The InfoNCE gradient is taken with respect to the view-1 embedding
    matrix only; view 2 acts as the keys, and since nothing of it lies
    downstream of view 1 it needs no detaching. Seeds must match the ones
    used for the training step's views so the perturbation lands on the
    same dropout draw.
    """
    loss_cfg.validate()
    with ad.Tape():
        view1 = forward_full(batch, params, seed_view1, train_mode)
        view2 = forward_full(batch, params, seed_view2, train_mode)
        ct = info_nce(view1.z, view2.z, loss_cfg.temperature)
        return seam_attack(ct, view1.emb, attack_cfg)
