"""Contrastive adversarial training lab for small text encoders.

A self-contained laboratory: a minimal reverse-mode autodiff engine on
float32 numpy arrays, a miniature transformer encoder with an explicit
embedding seam, single-step FGSM/FGM embedding attacks, InfoNCE and
cross-entropy objectives, supervised and unsupervised contrastive-adversarial
training loops, and classification / similarity / robustness evaluation.

Importing the package sets glibc's malloc to keep the heap it frees: blocks
under 4 MiB come from the heap rather than their own mmap, and a free top
of the heap under 64 MiB stays mapped. Each step frees what the next one
allocates again, so without this its pages are returned to the OS and
faulted back in every step. Where libc has no ``mallopt`` nothing changes.
"""

import ctypes


def _keep_freed_heap() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_keep_freed_heap()

from .autodiff import Tape, Tensor, backward, derive_seed, grad_check, grad_of, rng_from_seed
from .attacks import AttackConfig, fgm_perturb, fgsm_perturb, gen_supervised_adv, gen_unsupervised_adv, seam_attack
from .encoder import EncoderConfig, EncoderParams, classify, embed_tokens, encode_from_embeddings, forward_full, pool
from .metrics import (
    MetricReport,
    accuracy,
    evaluate_classification,
    evaluate_similarity,
    evaluate_under_attack,
    f1_binary,
    mcc,
    spearman,
)
from .objectives import LossConfig, LossReport, cross_entropy, info_nce, scal_total, uscal_total
from .text import Batch, Vocab, build_vocab, encode_batch, tokenize
from .trainer import (
    Checkpoint,
    OptimizerState,
    TrainConfig,
    adamw_step,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    train_loop,
    train_step,
)

__version__ = "0.1.0"

__all__ = [
    "AttackConfig", "Batch", "Checkpoint", "EncoderConfig", "EncoderParams",
    "LossConfig", "LossReport", "MetricReport", "OptimizerState", "Tape",
    "Tensor", "TrainConfig", "Vocab", "accuracy", "adamw_step", "backward",
    "build_vocab", "classify", "cross_entropy", "derive_seed",
    "embed_tokens", "encode_batch", "encode_from_embeddings",
    "evaluate_classification", "evaluate_similarity", "evaluate_under_attack",
    "f1_binary", "fgm_perturb", "fgsm_perturb", "forward_full",
    "gen_supervised_adv", "gen_unsupervised_adv", "grad_check", "grad_of",
    "info_nce", "load_checkpoint", "lr_at", "mcc", "pool", "rng_from_seed",
    "save_checkpoint", "scal_total", "seam_attack", "spearman", "tokenize", "train_loop",
    "train_step", "uscal_total",
]
