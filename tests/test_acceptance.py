"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Criteria 1-4 and 10 run the protocols that
``callab selfcheck`` runs (``callab.selfcheck``) and apply their bounds here.
The synthetic-task criteria share one module-scoped fixture that trains the
supervised models for all seeds.
"""

import math
import statistics
import time

import numpy as np
import pytest

from callab.attacks import AttackConfig
from callab.encoder import EncoderConfig, EncoderParams
from callab.metrics import evaluate_classification, evaluate_similarity, evaluate_under_attack
from callab.selfcheck import (
    ASCENT_DRAWS,
    EPSILON_GRID,
    attack_norm_exactness,
    first_order_ascent,
    gradient_fidelity,
    info_nce_oracle,
    metric_oracles,
)
from callab.synthdata import make_group_task, make_motif_task, make_paraphrase_corpus
from callab.text import build_vocab, encode_batch
from callab.trainer import (
    CheckpointConfigError,
    OptimizerState,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train_loop,
    train_step,
)


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: gradient fidelity
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_fidelity():
    start = time.monotonic()
    ops, scal_err, uscal_err = gradient_fidelity()
    worst_op = max(ops.values())
    elapsed = time.monotonic() - start
    _report(
        "criterion 1: gradient fidelity",
        worst_op < 1e-4 and scal_err < 1e-3 and uscal_err < 1e-3 and elapsed < 60.0,
        f"ops<1e-4: {worst_op:.1e}, scal graph<1e-3: {scal_err:.1e}, "
        f"uscal graph<1e-3: {uscal_err:.1e}, {elapsed:.1f}s<60s",
    )


# ---------------------------------------------------------------------------
# criterion 2: attack-norm exactness
# ---------------------------------------------------------------------------


def test_criterion_2_attack_norm_exactness():
    worst, components_ok, zeros_ok = attack_norm_exactness()
    _report(
        "criterion 2: attack-norm exactness",
        worst <= 1e-6 and components_ok and zeros_ok,
        f"fgm max |norm-eps| = {worst:.2e} over grid {EPSILON_GRID}, fgsm components ok",
    )


# ---------------------------------------------------------------------------
# criterion 3: first-order ascent
# ---------------------------------------------------------------------------


def test_criterion_3_first_order_ascent():
    sup_ok, uns_ok = first_order_ascent()
    draws = ASCENT_DRAWS
    need = math.ceil(0.99 * draws)
    _report(
        "criterion 3: first-order ascent",
        sup_ok >= need and uns_ok >= need,
        f"supervised {sup_ok}/{draws}, unsupervised {uns_ok}/{draws}, need >= {need}",
    )


# ---------------------------------------------------------------------------
# criterion 4: loss-oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_4_info_nce_oracle():
    worst, single, uniform_err = info_nce_oracle()
    _report(
        "criterion 4: loss-oracle equivalence",
        worst < 1e-6 and single < 1e-12 and uniform_err < 1e-6,
        f"max |loss-oracle| = {worst:.2e}, B=1 -> {single:.1e}, ln B err {uniform_err:.1e}",
    )


# ---------------------------------------------------------------------------
# criterion 5: degenerate-collapse equivalence
# ---------------------------------------------------------------------------


def test_criterion_5_degenerate_collapse():
    rows = make_group_task(256, seed=5)
    vocab = build_vocab((r.text_a for r in rows), min_freq=1)
    enc = EncoderConfig(vocab_size=len(vocab), hidden=16, layers=1, heads=2,
                        ffn_dim=32, dropout=0.0, max_len=10, num_classes=2)

    pa = EncoderParams.init_random(enc, seed=2)
    pb = EncoderParams.init_random(enc, seed=2)
    oa, ob = OptimizerState(pa), OptimizerState(pb)
    cfg_scal = TrainConfig(mode="scal", lr=1e-3, alpha=0.0, epsilon=0.0, seed=2)
    cfg_ce = TrainConfig(mode="ce", lr=1e-3, seed=2)
    worst_sup = 0.0
    for step in range(50):
        lo = (step * 4) % 252
        batch = encode_batch(rows[lo : lo + 4], vocab, 10)
        ra = train_step(batch, pa, oa, cfg_scal, step, 1e-3, step)
        rb = train_step(batch, pb, ob, cfg_ce, step, 1e-3, step)
        worst_sup = max(worst_sup, abs(ra.total - rb.total))

    lines = [r.text_a for r in rows[:128]]
    uenc = EncoderConfig(vocab_size=len(vocab), hidden=16, layers=1, heads=2,
                         ffn_dim=32, dropout=0.1, max_len=10, num_classes=0)
    pu = EncoderParams.init_random(uenc, seed=3)
    pv = EncoderParams.init_random(uenc, seed=3)
    ou, ov = OptimizerState(pu), OptimizerState(pv)
    cfg_u = TrainConfig(mode="uscal", lr=1e-3, alpha=0.0, epsilon=0.3, seed=3,
                        dev_metric="spearman")
    cfg_v = TrainConfig(mode="views", lr=1e-3, seed=3, dev_metric="spearman")
    worst_uns = 0.0
    for step in range(50):
        lo = (step * 4) % 124
        batch = encode_batch(lines[lo : lo + 4], vocab, 10)
        ru = train_step(batch, pu, ou, cfg_u, step, 1e-3, step)
        rv = train_step(batch, pv, ov, cfg_v, step, 1e-3, step)
        worst_uns = max(worst_uns, abs(ru.ct_views - rv.total))

    _report(
        "criterion 5: degenerate-collapse equivalence",
        worst_sup <= 1e-6 and worst_uns <= 1e-6,
        f"max |scal-ce| = {worst_sup:.2e}, max |uscal-views| = {worst_uns:.2e} over 50 steps",
    )


# ---------------------------------------------------------------------------
# criteria 6 and 7: synthetic supervised task, efficacy and robustness
# ---------------------------------------------------------------------------

MOTIF_SEEDS = (1, 2, 3, 4, 5)


@pytest.fixture(scope="module")
def motif_runs():
    """Train SCAL and CE-only models on the motif task for five seeds."""
    train, dev = make_motif_task(2000, 500, seed=0)
    vocab = build_vocab((r.text_a for r in train), min_freq=1)

    def run(mode: str, seed: int):
        enc = EncoderConfig(vocab_size=len(vocab), hidden=32, layers=1, heads=2,
                            ffn_dim=64, dropout=0.1, max_len=16, num_classes=2)
        params = EncoderParams.init_random(enc, seed=seed)
        tcfg = TrainConfig(
            mode=mode, lr=2e-3, batch_size=32, max_epochs=10, max_steps=500,
            eval_interval_steps=25, early_stop_patience=99, seed=seed,
            alpha=0.3, epsilon=0.3, attack_kind="fgm", dev_metric="accuracy",
            grad_clip=1.0,
        )
        result = train_loop(
            train, vocab, params, tcfg,
            eval_fn=lambda p: evaluate_classification(p, dev, vocab, "accuracy").value,
        )
        return result.best

    out = {}
    for seed in MOTIF_SEEDS:
        out[seed] = {"scal": run("scal", seed), "ce": run("ce", seed)}
    return {"runs": out, "dev": dev, "vocab": vocab}


def test_criterion_6_synthetic_scal_efficacy(motif_runs):
    runs = motif_runs["runs"]
    scal_accs = [runs[s]["scal"].dev_metric_value for s in MOTIF_SEEDS]
    ce_accs = [runs[s]["ce"].dev_metric_value for s in MOTIF_SEEDS]
    med_scal = statistics.median(scal_accs)
    med_ce = statistics.median(ce_accs)
    reached = all(a >= 0.95 for a in scal_accs)
    _report(
        "criterion 6: synthetic supervised efficacy",
        reached and med_scal >= med_ce - 0.01,
        f"scal accs {[round(a, 3) for a in scal_accs]} (all >= 0.95), "
        f"median {med_scal:.3f} >= ce median {med_ce:.3f} - 0.01",
    )


def test_criterion_7_synthetic_robustness(motif_runs):
    runs = motif_runs["runs"]
    dev, vocab = motif_runs["dev"], motif_runs["vocab"]
    attack = AttackConfig(kind="fgm", epsilon=0.5)
    drops = {"scal": [], "ce": []}
    for seed in MOTIF_SEEDS:
        for mode in ("scal", "ce"):
            params = runs[seed][mode].build_params()
            rep = evaluate_under_attack(params, dev, vocab, attack)
            clean = float(rep.extras["clean_accuracy"])
            drops[mode].append(clean - rep.value)
    med_scal = statistics.median(drops["scal"])
    med_ce = statistics.median(drops["ce"])
    _report(
        "criterion 7: synthetic robustness",
        med_scal <= med_ce,
        f"median drop scal {med_scal:.4f} <= ce {med_ce:.4f} "
        f"(scal {[round(d, 3) for d in drops['scal']]}, ce {[round(d, 3) for d in drops['ce']]})",
    )


# ---------------------------------------------------------------------------
# criterion 8: synthetic unsupervised efficacy
# ---------------------------------------------------------------------------


def test_criterion_8_synthetic_uscal_efficacy():
    lines, pairs = make_paraphrase_corpus(480, 200, seed=0)
    vocab = build_vocab(lines, min_freq=1)
    enc = EncoderConfig(vocab_size=len(vocab), hidden=32, layers=1, heads=2,
                        ffn_dim=64, dropout=0.2, max_len=16, num_classes=0)
    params = EncoderParams.init_random(enc, seed=1)
    untrained = evaluate_similarity(params, pairs, vocab).value
    # temperature 0.15 rather than the 0.05 default: the sharper setting is
    # tuned for large pretrained encoders and over-uniformizes this tiny one
    tcfg = TrainConfig(
        mode="uscal", lr=1e-3, batch_size=64, max_epochs=60, max_steps=300,
        eval_interval_steps=300, early_stop_patience=99, seed=1,
        alpha=0.5, epsilon=0.3, temperature=0.15, attack_kind="fgm",
        dev_metric="spearman", grad_clip=1.0,
    )
    result = train_loop(
        lines, vocab, params, tcfg,
        eval_fn=lambda p: evaluate_similarity(p, pairs, vocab).value,
    )
    assert result.steps_run == 300
    final = result.history[-1][2]
    _report(
        "criterion 8: synthetic unsupervised efficacy",
        final >= 0.7 and final > untrained,
        f"spearman after 300 steps {final:.3f} >= 0.7 and > untrained {untrained:.3f}",
    )


# ---------------------------------------------------------------------------
# criterion 9: determinism and persistence
# ---------------------------------------------------------------------------


def test_criterion_9_determinism_and_persistence(tmp_path):
    rows = make_group_task(128, seed=9)
    vocab = build_vocab((r.text_a for r in rows), min_freq=1)
    enc = EncoderConfig(vocab_size=len(vocab), hidden=16, layers=1, heads=2,
                        ffn_dim=32, dropout=0.1, max_len=10, num_classes=2)

    def run():
        params = EncoderParams.init_random(enc, seed=7)
        tcfg = TrainConfig(mode="scal", lr=1e-3, batch_size=16, max_epochs=3,
                           max_steps=0, eval_interval_steps=8, early_stop_patience=99,
                           seed=7, alpha=0.3, epsilon=0.2, grad_clip=1.0)
        return train_loop(
            rows, vocab, params, tcfg,
            eval_fn=lambda p: evaluate_classification(p, rows, vocab, "accuracy").value,
        )

    r1, r2 = run(), run()
    histories_match = len(r1.history) == len(r2.history) and all(
        s1 == s2 and abs(v1 - v2) <= 1e-6
        for (s1, _, v1), (s2, _, v2) in zip(r1.history, r2.history)
    )

    path = str(tmp_path / "det.ckpt")
    save_checkpoint(r1.best, path)
    loaded = load_checkpoint(path)
    bit_exact = all(
        np.array_equal(arr, loaded.tensors[name]) for name, arr in r1.best.tensors.items()
    )

    other = EncoderConfig(vocab_size=len(vocab), hidden=32, layers=1, heads=2,
                          ffn_dim=32, dropout=0.1, max_len=10, num_classes=2)
    try:
        load_checkpoint(path, expected_config=other)
        mismatch_raises = False
    except CheckpointConfigError:
        mismatch_raises = True

    _report(
        "criterion 9: determinism and persistence",
        histories_match and bit_exact and mismatch_raises,
        f"histories match over {len(r1.history)} evals, checkpoint bit-exact, "
        "mismatched config raises the documented error",
    )


# ---------------------------------------------------------------------------
# criterion 10: metric oracles
# ---------------------------------------------------------------------------


def test_criterion_10_metric_oracles():
    per_metric, inverted, tied = metric_oracles()
    worst = max(per_metric.values())
    _report(
        "criterion 10: metric oracles",
        worst < 1e-10 and inverted < 1e-12 and tied < 1e-12,
        f"max |metric-oracle| = {worst:.2e} over 1000 cases; "
        "inverted MCC = -1; tied-rank case exact",
    )
