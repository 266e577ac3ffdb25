"""Hash a short training trajectory in every mode, to show two trees train alike.

For each mode (scal, uscal, ce, views) at the demo size (h32/L1/heads 2/ffn
64/len 16) and the default size (h64/L2/heads 4/ffn 256/len 32), the script
runs 20 ``train_step``s on 32-row batches of the synthetic tasks and prints
one line: the first 12 hex digits of the sha256 of the parameters, of
AdamW's ``m`` and ``v``, and of the ``LossReport``s. Two trees that train
bit-identically print identical lines.

    PYTHONPATH=src python tools/step_hashes.py [--negative-mode clean-keys]
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys

import numpy as np

from callab import (
    EncoderConfig,
    EncoderParams,
    OptimizerState,
    TrainConfig,
    build_vocab,
    derive_seed,
    encode_batch,
    train_step,
)
from callab.synthdata import make_motif_task, make_paraphrase_corpus

MODES = ("scal", "uscal", "ce", "views")
SIZES = {
    "demo": dict(hidden=32, layers=1, heads=2, ffn_dim=64, max_len=16),
    "default": dict(hidden=64, layers=2, heads=4, ffn_dim=256, max_len=32),
}
STEPS = 20
BATCH = 32


def trajectory(mode: str, size: str, negative_mode: str):
    """``(params, opt, reports)`` after ``STEPS`` train steps in ``mode`` at ``size``."""
    supervised = mode in ("scal", "ce")
    if supervised:
        rows, _ = make_motif_task(n_train=STEPS * BATCH, n_dev=0, seed=1)
        vocab = build_vocab(r.text_a for r in rows)
    else:
        rows, _ = make_paraphrase_corpus(n_lines=STEPS * BATCH, n_pairs=0, seed=1)
        vocab = build_vocab(rows)
    cfg = EncoderConfig(vocab_size=len(vocab), num_classes=2 if supervised else 0, **SIZES[size])
    params = EncoderParams.init_random(cfg, seed=0)
    opt = OptimizerState(params)
    tcfg = TrainConfig(mode=mode, negative_mode=negative_mode, alpha=0.5, epsilon=0.3)
    reports = []
    for step in range(STEPS):
        batch = encode_batch(rows[step * BATCH:(step + 1) * BATCH], vocab, cfg.max_len)
        reports.append(train_step(batch, params, opt, tcfg, derive_seed(3, "step", step),
                                  lr_t=1e-3, step=step))
    return params, opt, reports


def _short(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--negative-mode", default="adv-keys", choices=("adv-keys", "clean-keys"))
    args = ap.parse_args(argv)
    for size in SIZES:
        for mode in MODES:
            params, opt, reports = trajectory(mode, size, args.negative_mode)
            losses = np.array([dataclasses.astuple(r) for r in reports], dtype=float)
            print(f"{size:7} {mode:5}", _short(params.flat.tobytes()), _short(opt.m.tobytes()),
                  _short(opt.v.tobytes()), _short(losses.tobytes()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
