"""Optimizer, schedule, step, loop, and checkpoint tests."""

import hashlib
import io
import math
import os
import platform
import struct
import subprocess
import sys
import textwrap
import time
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import callab.autodiff as ad
import callab.encoder as encoder_mod
import callab.trainer as trainer_mod
from callab.attacks import AttackConfig, gen_supervised_adv, gen_unsupervised_adv
from callab.autodiff import Tape, backward, derive_seed, grad_of
from callab.encoder import EncoderConfig, EncoderParams, classify, embed_tokens
from callab.objectives import cross_entropy
from callab.metrics import evaluate_classification
from callab.objectives import LossReport
from callab.synthdata import make_group_task, make_paraphrase_corpus
from callab.text import PAD_ID, Batch, LabeledExample, Vocab, build_vocab, encode_batch
from callab.trainer import (
    ADAM_EPS,
    BETA1,
    BETA2,
    CHECKPOINT_MAGIC,
    Checkpoint,
    CheckpointConfigError,
    CheckpointError,
    CheckpointHeaderError,
    CheckpointMagicError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    MAX_CONSECUTIVE_SKIPS,
    NonFiniteLossError,
    OptimizerState,
    RunLog,
    SUPERVISED_MODES,
    SkippedStepsError,
    TRAIN_MODES,
    TrainConfig,
    adamw_step,
    clip_gradients,
    load_checkpoint,
    loss_graph,
    lr_at,
    save_checkpoint,
    train_loop,
    train_step,
)

from conftest import (
    ReferenceAdamState,
    assert_flat_views,
    reference_adamw_step,
    reference_backward,
    reference_clip_gradients,
    residual_norm_chain,
    toy_setup,
    with_extra_tensor,
)


class TestAdamW:
    def _single_param(self, value: float) -> EncoderParams:
        cfg = EncoderConfig(vocab_size=5, hidden=1, layers=1, heads=1, ffn_dim=1,
                            dropout=0.0, max_len=1, num_classes=0)
        params = EncoderParams.init_random(cfg, seed=0)
        for _, t in params.named():
            t.data[...] = value
        return params

    def test_zero_grad_no_decay_keeps_params(self):
        params = self._single_param(0.5)
        state = OptimizerState(params)
        before = params.copy_values()
        assert adamw_step(params, state, lr_t=1e-2, weight_decay=0.0)
        for name, arr in params.copy_values().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_zero_grad_with_decay_shrinks(self):
        params = self._single_param(0.5)
        state = OptimizerState(params)
        lr, wd = 1e-2, 0.1
        assert adamw_step(params, state, lr_t=lr, weight_decay=wd)
        for _, arr in params.copy_values().items():
            np.testing.assert_allclose(arr, 0.5 * (1 - lr * wd), rtol=1e-6)

    def test_three_steps_match_hand_oracle(self):
        params = self._single_param(0.5)
        state = OptimizerState(params)
        grads = [0.3, -0.2, 0.1]
        lr, wd = 1e-3, 0.01
        for g in grads:
            for _, t in params.named():
                t.grad = np.full_like(t.data, g)
            assert adamw_step(params, state, lr_t=lr, weight_decay=wd)

        # independent float64 recurrence
        p = 0.5
        m = v = 0.0
        for t, g in enumerate(grads, start=1):
            m = BETA1 * m + (1 - BETA1) * g
            v = BETA2 * v + (1 - BETA2) * g * g
            mhat = m / (1 - BETA1 ** t)
            vhat = v / (1 - BETA2 ** t)
            p = p - lr * (mhat / (math.sqrt(vhat) + ADAM_EPS) + wd * p)
        got = float(next(iter(params.copy_values().values())).reshape(-1)[0])
        assert abs(got - p) < 1e-7
        assert state.t == 3

    def test_nonfinite_grad_skips_step(self, caplog):
        params = self._single_param(0.5)
        state = OptimizerState(params)
        before = params.copy_values()
        for _, t in params.named():
            t.grad = np.full_like(t.data, 1.0)
        next(iter(params.tensors.values())).grad[...] = np.nan
        with caplog.at_level("WARNING"):
            stepped = adamw_step(params, state, lr_t=1e-2, weight_decay=0.01)
        assert not stepped
        assert state.t == 0
        for name, arr in params.copy_values().items():
            np.testing.assert_array_equal(arr, before[name])
        assert any("skipped" in r.message for r in caplog.records)


class TestSkippedUpdates:
    """train_step counts AdamW updates skipped in a row and stops the run at the bound."""

    def test_third_consecutive_skip_raises(self, monkeypatch):
        cfg, params, batch = toy_setup(num_classes=3, batch=4)
        opt = OptimizerState(params)
        tcfg = TrainConfig(mode="ce", lr=1e-3)
        applied = iter([False, False, True, False, False, False])
        monkeypatch.setattr(trainer_mod, "adamw_step", lambda *args: next(applied))
        for step in range(5):  # a single skip, or two in a row, only warn
            train_step(batch, params, opt, tcfg, 11, 1e-3, step=step)
        assert opt.skipped == 2
        with pytest.raises(SkippedStepsError, match="3 consecutive") as exc:
            train_step(batch, params, opt, tcfg, 11, 1e-3, step=5)
        assert MAX_CONSECUTIVE_SKIPS == 3
        assert isinstance(exc.value, NonFiniteLossError) and exc.value.step == 5


class TestSchedule:
    def test_anchor_points(self):
        total, ratio, base = 100, 0.1, 3e-5
        assert lr_at(0, total, ratio, base) == 0.0
        assert lr_at(10, total, ratio, base) == pytest.approx(base)
        mid = (100 + 10) // 2
        assert lr_at(mid, total, ratio, base) == pytest.approx(base / 2, abs=1e-12)
        assert lr_at(total, total, ratio, base) == 0.0

    def test_warmup_is_linear(self):
        vals = [lr_at(s, 100, 0.1, 1.0) for s in range(11)]
        np.testing.assert_allclose(np.diff(vals), 0.1, atol=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lr_at(101, 100, 0.1, 1.0)


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig().validate()

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            TrainConfig(mode="sgd").validate()

    def test_bad_metric(self):
        with pytest.raises(ValueError, match="dev_metric"):
            TrainConfig(dev_metric="bleu").validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["lr", "weight_decay", "grad_clip", "temperature"])
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"'{name}'.*finite"):
            TrainConfig(**{name: value}).validate()


def _vocab_for(rows):
    return build_vocab((r.text_a for r in rows), min_freq=1)


# LossReport fields each mode fills besides ``total``
REPORT_FIELDS = {
    "scal": {"ce_clean", "ce_adv", "contrastive"},
    "uscal": {"ct_views", "ct_adv"},
    "ce": {"ce_clean"},
    "views": {"ct_views"},
}
# steps.tsv columns after step and lr, in order
STEP_COLUMNS = ("total", "ce_clean", "ce_adv", "contrastive", "ct_views", "ct_adv")


class TestSteps:
    @pytest.mark.parametrize("mode", TRAIN_MODES)
    def test_report_fields_and_recombination(self, mode):
        supervised = mode in ("scal", "ce")
        cfg, params, batch = toy_setup(num_classes=3 if supervised else 0, batch=4)
        tcfg = TrainConfig(mode=mode, lr=1e-3, alpha=0.3, epsilon=0.2,
                           dev_metric="accuracy" if supervised else "spearman")
        report = train_step(batch, params, OptimizerState(params), tcfg, 11, 1e-3)

        filled = {f.name for f in fields(LossReport) if getattr(report, f.name) is not None}
        assert filled == {"total"} | REPORT_FIELDS[mode]
        buf = io.StringIO()
        RunLog(steps=buf).log_step(0, 1e-3, report)
        cells = buf.getvalue().rstrip("\n").split("\t")[2:]
        assert [c != "-" for c in cells] == [c in filled for c in STEP_COLUMNS]

        if mode == "scal":
            want = 0.5 * (report.ce_clean + report.ce_adv) + 0.3 * report.contrastive
        elif mode == "uscal":
            want = report.ct_views + 0.3 * report.ct_adv
        else:
            (only,) = REPORT_FIELDS[mode]
            want = getattr(report, only)
        assert abs(report.total - want) < 1e-6

    def test_scal_report_recombines(self):
        cfg, params, batch = toy_setup(num_classes=3, batch=4)
        tcfg = TrainConfig(mode="scal", lr=1e-3, alpha=0.3, epsilon=0.2)
        report = train_step(batch, params, OptimizerState(params), tcfg, 11, 1e-3)
        want = 0.5 * (report.ce_clean + report.ce_adv) + 0.3 * report.contrastive
        assert abs(report.total - want) < 1e-6

    def test_uscal_single_item_batch_is_gradient_noop(self):
        cfg, params, batch = toy_setup(num_classes=0, batch=1)
        tcfg = TrainConfig(mode="uscal", lr=1e-3, alpha=0.5, epsilon=0.3,
                           weight_decay=0.0, dev_metric="spearman")
        before = params.copy_values()
        report = train_step(batch, params, OptimizerState(params), tcfg, 5, 1e-3)
        assert report.ct_views == pytest.approx(0.0, abs=1e-12)
        assert report.ct_adv == pytest.approx(0.0, abs=1e-12)
        for name, arr in params.copy_values().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_scal_degenerate_matches_ce(self):
        """alpha=0, epsilon=0, p=0: the scal trajectory collapses onto plain CE.

        Equality is to float rounding, not bitwise: the embedding-table
        gradient accumulates its two branch contributions in a different
        order than the single-branch CE step.
        """
        rows = make_group_task(64, seed=3)
        vocab = _vocab_for(rows)
        enc = EncoderConfig(vocab_size=len(vocab), hidden=16, layers=1, heads=2,
                            ffn_dim=32, dropout=0.0, max_len=10, num_classes=2)
        pa = EncoderParams.init_random(enc, seed=1)
        pb = EncoderParams.init_random(enc, seed=1)
        opt_a, opt_b = OptimizerState(pa), OptimizerState(pb)
        cfg_scal = TrainConfig(mode="scal", lr=1e-3, alpha=0.0, epsilon=0.0, seed=1)
        cfg_ce = TrainConfig(mode="ce", lr=1e-3, seed=1)
        for step in range(10):
            batch = encode_batch(rows[step * 4 : step * 4 + 4], vocab, 10)
            ra = train_step(batch, pa, opt_a, cfg_scal, step, 1e-3, step)
            rb = train_step(batch, pb, opt_b, cfg_ce, step, 1e-3, step)
            assert ra.total == pytest.approx(rb.total, abs=1e-6)
            assert ra.ce_adv == pytest.approx(ra.ce_clean, abs=1e-7)
        for name, arr in pa.copy_values().items():
            np.testing.assert_allclose(arr, pb.copy_values()[name], atol=1e-5)

    def test_uscal_alpha_zero_matches_views_loop(self):
        lines = [f"a{i:02d} b{i % 3}" for i in range(32)]
        vocab = build_vocab(lines, min_freq=1)
        enc = EncoderConfig(vocab_size=len(vocab), hidden=16, layers=1, heads=2,
                            ffn_dim=32, dropout=0.1, max_len=6, num_classes=0)
        pa = EncoderParams.init_random(enc, seed=2)
        pb = EncoderParams.init_random(enc, seed=2)
        opt_a, opt_b = OptimizerState(pa), OptimizerState(pb)
        cfg_u = TrainConfig(mode="uscal", lr=1e-3, alpha=0.0, epsilon=0.3,
                            seed=2, dev_metric="spearman")
        cfg_v = TrainConfig(mode="views", lr=1e-3, seed=2, dev_metric="spearman")
        for step in range(8):
            batch = encode_batch(lines[step * 4 : step * 4 + 4], vocab, 6)
            ra = train_step(batch, pa, opt_a, cfg_u, step, 1e-3, step)
            rb = train_step(batch, pb, opt_b, cfg_v, step, 1e-3, step)
            assert ra.ct_views == pytest.approx(rb.total, abs=1e-7)
        for name, arr in pa.copy_values().items():
            np.testing.assert_array_equal(arr, pb.copy_values()[name])

    def test_clean_keys_negative_mode_runs(self):
        cfg, params, batch = toy_setup(num_classes=3, batch=4)
        tcfg = TrainConfig(mode="scal", lr=1e-3, alpha=0.3, epsilon=0.2,
                           negative_mode="clean-keys")
        report = train_step(batch, params, OptimizerState(params), tcfg, 11, 1e-3)
        assert math.isfinite(report.contrastive)
        want = 0.5 * (report.ce_clean + report.ce_adv) + 0.3 * report.contrastive
        assert abs(report.total - want) < 1e-6

    def test_nonfinite_total_aborts(self):
        cfg, params, batch = toy_setup(num_classes=3)
        params["cls_w"].data[...] = np.nan  # poison the logits
        tcfg = TrainConfig(mode="ce", lr=1e-3)
        with pytest.raises(NonFiniteLossError, match="step 7"):
            train_step(batch, params, OptimizerState(params), tcfg, 0, 1e-3, step=7)


class TestTrainLoop:
    def _setup(self, n=96, seed=0):
        rows = make_group_task(n, seed=seed)
        vocab = _vocab_for(rows)
        enc = EncoderConfig(vocab_size=len(vocab), hidden=16, layers=1, heads=2,
                            ffn_dim=32, dropout=0.1, max_len=10, num_classes=2)
        return rows, vocab, enc

    def test_linearly_separable_task_reaches_high_train_accuracy(self):
        rows, vocab, enc = self._setup(n=256)
        params = EncoderParams.init_random(enc, seed=4)
        tcfg = TrainConfig(mode="ce", lr=2e-3, batch_size=16, max_epochs=20,
                           max_steps=200, eval_interval_steps=200,
                           early_stop_patience=99, seed=4, grad_clip=1.0)
        res = train_loop(
            rows, vocab, params, tcfg,
            eval_fn=lambda p: evaluate_classification(p, rows, vocab, "accuracy").value,
        )
        train_acc = evaluate_classification(params, rows, vocab, "accuracy").value
        assert train_acc >= 0.99

    def test_patience_zero_stops_on_first_non_improvement(self):
        rows, vocab, enc = self._setup()
        params = EncoderParams.init_random(enc, seed=1)
        calls = {"n": 0}

        def flat_eval(_p):
            calls["n"] += 1
            return 0.5  # never improves after the first evaluation

        tcfg = TrainConfig(mode="ce", lr=1e-4, batch_size=16, max_epochs=50,
                           eval_interval_steps=2, early_stop_patience=0, seed=1)
        res = train_loop(rows, vocab, params, tcfg, eval_fn=flat_eval)
        assert calls["n"] == 2  # first sets the best; second stops the loop
        assert len(res.history) == calls["n"]

    def test_history_length_equals_evaluations(self):
        rows, vocab, enc = self._setup(n=64)
        params = EncoderParams.init_random(enc, seed=1)
        tcfg = TrainConfig(mode="ce", lr=1e-3, batch_size=16, max_epochs=2,
                           eval_interval_steps=3, early_stop_patience=99, seed=1)
        res = train_loop(rows, vocab, params, tcfg, eval_fn=lambda p: 0.0)
        assert len(res.history) == res.steps_run // 3

    def test_same_seed_identical_history(self):
        rows, vocab, enc = self._setup(n=64)

        def run():
            params = EncoderParams.init_random(enc, seed=6)
            tcfg = TrainConfig(mode="scal", lr=1e-3, batch_size=16, max_epochs=2,
                               eval_interval_steps=4, early_stop_patience=99, seed=6,
                               alpha=0.3, epsilon=0.2)
            return train_loop(
                rows, vocab, params, tcfg,
                eval_fn=lambda p: evaluate_classification(p, rows, vocab, "accuracy").value,
            ).history

        h1, h2 = run(), run()
        assert len(h1) == len(h2) > 0
        for (s1, m1, v1), (s2, m2, v2) in zip(h1, h2):
            assert s1 == s2 and m1 == m2
            assert abs(v1 - v2) <= 1e-6

    def test_empty_training_set_rejected(self):
        rows, vocab, enc = self._setup()
        params = EncoderParams.init_random(enc, seed=1)
        with pytest.raises(ValueError, match="empty"):
            train_loop([], vocab, params, TrainConfig(), eval_fn=lambda p: 0.0)


class TestCheckpoints:
    def _checkpoint(self, seed=5):
        cfg, params, _ = toy_setup(seed=seed)
        return Checkpoint.from_params(
            params, step=12, dev_metric_name="accuracy",
            dev_metric_value=0.75, rng_seed=seed,
        )

    def test_roundtrip_bit_exact(self, tmp_path):
        ckpt = self._checkpoint()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.step == 12
        assert loaded.dev_metric_value == pytest.approx(0.75)
        assert loaded.config == ckpt.config
        for name, arr in ckpt.tensors.items():
            assert np.array_equal(arr, loaded.tensors[name]), name

    def test_build_params_uses_the_checkpoint_arrays_without_a_random_init(self, monkeypatch):
        ckpt = self._checkpoint()

        def refuse(*args, **kwargs):
            raise AssertionError("random init drawn")

        monkeypatch.setattr(EncoderParams, "init_random", refuse)
        params = ckpt.build_params()
        assert_flat_views(params)
        assert list(params.tensors) == list(EncoderParams.tensor_shapes(ckpt.config))
        for name, arr in ckpt.tensors.items():
            assert params[name].data.tobytes() == arr.tobytes(), name
            assert params[name].data is not arr and params[name].requires_grad
        ckpt.tensors["pooler_b"] = ckpt.tensors["pooler_b"][:-1]
        with pytest.raises(ValueError, match="pooler_b"):
            ckpt.build_params()

    def test_optimizer_tensors_rejected(self, tmp_path):
        """A file carrying the retired ``opt.*`` moment tensors does not load."""
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(self._checkpoint(), path)
        blob = open(path, "rb").read()
        open(path, "wb").write(with_extra_tensor(blob, "opt.m.pooler_w", np.zeros((16, 16))))
        with pytest.raises(CheckpointShapeError, match="unexpected tensor 'opt.m.pooler_w'"):
            load_checkpoint(path)

    def test_header_with_optimizer_t_still_loads(self, tmp_path):
        """Files from before the optimizer path was removed carry ``optimizer_t=-1``."""
        path = str(tmp_path / "m.ckpt")
        ckpt = self._checkpoint()
        save_checkpoint(ckpt, path)
        blob = open(path, "rb").read()
        old, new = b"rng_seed=5\n", b"rng_seed=5\noptimizer_t=-1\n"
        n = struct.unpack_from("<I", blob, len(CHECKPOINT_MAGIC))[0] + len(new) - len(old)
        bad = bytearray(blob.replace(old, new, 1))
        struct.pack_into("<I", bad, len(CHECKPOINT_MAGIC), n)
        open(path, "wb").write(bytes(bad))
        loaded = load_checkpoint(path)
        assert loaded.step == 12 and loaded.rng_seed == 5
        for name, arr in ckpt.tensors.items():
            assert np.array_equal(arr, loaded.tensors[name]), name

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(self._checkpoint(seed=5), path)
        before = open(path, "rb").read()

        class Unwritable:
            """Passes the header; raises once its payload is due."""
            shape, ndim = (16, 16), 2

            def __array__(self, *args, **kwargs):
                raise OSError("disk full")

        ckpt = self._checkpoint(seed=6)
        ckpt.tensors["pooler_w"] = Unwritable()    # not the first payload
        assert next(iter(ckpt.tensors)) != "pooler_w"
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(ckpt, path)
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["m.ckpt"]

    def test_corrupt_magic(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(self._checkpoint(), path)
        blob = bytearray(open(path, "rb").read())
        blob[:4] = b"XXXX"
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointMagicError):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(self._checkpoint(), path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) - 20])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(self._checkpoint(), path)
        with open(path, "ab") as fh:
            fh.write(bytes(64))
        with pytest.raises(CheckpointError, match=r"m\.ckpt: 64 unexpected bytes"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(self._checkpoint(), path)
        blob = open(path, "rb").read().replace(b"version=1", b"version=9", 1)
        open(path, "wb").write(blob)
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_shape_fuzz_names_tensor(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(self._checkpoint(), path)
        blob = open(path, "rb").read().replace(b"pooler_w 2 16 16", b"pooler_w 2 16 17", 1)
        open(path, "wb").write(blob)
        with pytest.raises(CheckpointShapeError, match="pooler_w"):
            load_checkpoint(path)

    def test_tensor_named_twice_is_refused(self, tmp_path):
        """A second ``tok_emb`` entry and payload would replace the first."""
        path = str(tmp_path / "m.ckpt")
        ckpt = self._checkpoint()
        save_checkpoint(ckpt, path)
        blob = open(path, "rb").read()
        second = np.full(ckpt.tensors["tok_emb"].shape, 7.0)
        open(path, "wb").write(with_extra_tensor(blob, "tok_emb", second))
        with pytest.raises(CheckpointShapeError, match="'tok_emb' is named twice"):
            load_checkpoint(path)

    def test_header_parse_failures_name_the_file(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(self._checkpoint(), path)
        blob = open(path, "rb").read()
        edits = [
            (b"[config]", b"[c\xffnfig]"),               # not UTF-8
            (b"hidden=16", b"hidden=1x"),                # bad config value
            (b"hidden=16", b"hidden=16.0"),              # float for an int field
            (b"layers=1", b"layers='1'"),                # quoted int
            (b"dropout=0.1", b"dropout='0.1'"),          # quoted float
            (b"[config]", b"[konfig]"),                  # config lines land in meta
            (b"pooler_w 2 16 16", b"pooler_w two 16 16"),  # bad rank
            (b"pooler_w 2 16 16", b"pooler_w"),           # missing rank
            (b"step=12", b"step=1.2"),                   # bad meta value
            (b"step=12", b"stap=12"),                    # a meta key save writes, misspelt
            (b"dev_metric_name=", b"dev_metric_nome="),
            (b"dev_metric_value=", b"dev_metric_valve="),
            (b"rng_seed=5", b"rng_sead=5"),
        ]
        for old, new in edits:
            bad = bytearray(blob.replace(old, new, 1))
            # keep the header length field in step with the edit
            n = struct.unpack_from("<I", blob, len(CHECKPOINT_MAGIC))[0] + len(new) - len(old)
            struct.pack_into("<I", bad, len(CHECKPOINT_MAGIC), n)
            open(path, "wb").write(bytes(bad))
            with pytest.raises(CheckpointHeaderError, match="m.ckpt"):
                load_checkpoint(path)

    def test_non_finite_header_setting_names_the_field(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(self._checkpoint(), path)
        blob = open(path, "rb").read()
        for new in (b"dropout=nan", b"dropout=inf"):
            bad = bytearray(blob.replace(b"dropout=0.1", new, 1))
            n = struct.unpack_from("<I", blob, len(CHECKPOINT_MAGIC))[0] + len(new) - 11
            struct.pack_into("<I", bad, len(CHECKPOINT_MAGIC), n)
            open(path, "wb").write(bytes(bad))
            with pytest.raises(CheckpointHeaderError, match="m.ckpt.*'dropout'.*finite"):
                load_checkpoint(path)

    def test_header_byte_flips_raise_only_checkpoint_errors(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(self._checkpoint(), path)
        blob = open(path, "rb").read()
        start = len(CHECKPOINT_MAGIC)
        end = start + 4 + struct.unpack_from("<I", blob, start)[0]
        rng = np.random.default_rng(2024)
        causes = set()
        for _ in range(300):
            bad = bytearray(blob)
            for pos in rng.integers(start, end, size=int(rng.integers(1, 4))):
                bad[pos] ^= int(rng.integers(1, 256))
            open(path, "wb").write(bytes(bad))
            try:
                load_checkpoint(path)
            except CheckpointError as exc:
                assert path in str(exc)
                if exc.__cause__ is not None:
                    causes.add(type(exc.__cause__))
        # the flips reached the parse failures that used to escape
        assert UnicodeDecodeError in causes and ValueError in causes

    def test_expected_config_mismatch(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        ckpt = self._checkpoint()
        save_checkpoint(ckpt, path)
        other = EncoderConfig(vocab_size=24, hidden=32, layers=1, heads=2,
                              ffn_dim=32, dropout=0.1, max_len=6, num_classes=3)
        with pytest.raises(CheckpointConfigError):
            load_checkpoint(path, expected_config=other)


@pytest.fixture
def seams(monkeypatch):
    """Every seam tensor ``embed_tokens`` returns during a step, in call order."""
    got = []

    def recording(*args, **kwargs):
        emb = embed_tokens(*args, **kwargs)
        got.append(emb)
        return emb

    monkeypatch.setattr(encoder_mod, "embed_tokens", recording)
    return got


def _mixed_length_rows(n: int, seed: int) -> list[LabeledExample]:
    """``n`` labeled rows of 1-17 words over a 20-word vocabulary, some of them pairs."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(20)]

    def text(lo, hi):
        return " ".join(rng.choice(words, size=int(rng.integers(lo, hi + 1))))

    return [
        LabeledExample(int(rng.integers(0, 2)), text(1, 12), text(1, 5) if i % 4 == 3 else None)
        for i in range(n)
    ]


class TestDynamicPadding:
    """A batch trimmed to its longest row trains exactly like one padded to max_len."""

    VOCAB = Vocab(["a", "b", "c", "d", "e", "f", "g"])
    ROWS = [
        LabeledExample(0, "a b"),
        LabeledExample(1, "c d e f g"),
        LabeledExample(0, "b"),
        LabeledExample(1, "a c e", "b d"),
    ]
    SMALL = dict(hidden=16, layers=2, heads=2, ffn_dim=32, max_len=16)
    # the pinned default size: its products sum over enough padded positions
    # that float32 accumulation there would make the width visible
    DEFAULT = dict(hidden=64, layers=2, heads=4, ffn_dim=256, max_len=32)
    DEFAULT_ROWS = _mixed_length_rows(32, seed=7)
    DEFAULT_VOCAB = build_vocab(r.text_a + " " + (r.text_b or "") for r in DEFAULT_ROWS)

    @staticmethod
    def _pad_to(batch: Batch, width: int) -> Batch:
        b, l = batch.token_ids.shape
        ids = np.full((b, width), PAD_ID, dtype=np.int64)
        ids[:, :l] = batch.token_ids
        mask = np.zeros((b, width), dtype=np.float32)
        mask[:, :l] = batch.attn_mask
        return Batch(ids, mask, labels=batch.labels)

    @staticmethod
    def _run(mode, batch, seams, vocab, size):
        cfg = EncoderConfig(vocab_size=len(vocab), dropout=0.1, num_classes=2, **size)
        params = EncoderParams.init_random(cfg, seed=0)
        tcfg = TrainConfig(mode=mode, lr=1e-3, alpha=0.5, epsilon=0.3, temperature=0.15)
        seams.clear()
        report = train_step(
            batch, params, OptimizerState(params), tcfg, derive_seed(3, "step", 0), lr_t=1e-3
        )
        grads = {name: t.grad for name, t in params.named()}
        return report, grads, params.copy_values(), list(seams)

    def _check_width_invariance(self, mode, seams, rows, vocab, size):
        max_len, hidden = size["max_len"], size["hidden"]
        trim = encode_batch(rows, vocab, max_len)
        width = trim.token_ids.shape[1]
        assert width < max_len
        full = self._pad_to(trim, max_len)

        rep_f, grads_f, after_f, seams_f = self._run(mode, full, seams, vocab, size)
        rep_t, grads_t, after_t, seams_t = self._run(mode, trim, seams, vocab, size)

        assert rep_f == rep_t
        for name, g in grads_f.items():
            assert g.tobytes() == grads_t[name].tobytes(), name
            assert after_f[name].tobytes() == after_t[name].tobytes(), name
        assert len(seams_f) == len(seams_t) >= 1
        real = trim.attn_mask > 0
        b = len(rows)
        for emb_f, emb_t in zip(seams_f, seams_t):
            assert emb_f.shape == (b, max_len, hidden) and emb_t.shape == (b, width, hidden)
            assert emb_f.data[:, :width][real].tobytes() == emb_t.data[real].tobytes()
            assert (emb_f.grad is None) == (emb_t.grad is None)
            if emb_f.grad is not None:
                assert emb_f.grad[:, :width][real].tobytes() == emb_t.grad[real].tobytes()
                assert not emb_f.grad[full.attn_mask == 0].any()
                assert not emb_t.grad[trim.attn_mask == 0].any()
        return width

    @pytest.mark.parametrize("mode", TRAIN_MODES)
    def test_one_step_bit_identical(self, mode, seams):
        width = self._check_width_invariance(mode, seams, self.ROWS, self.VOCAB, self.SMALL)
        assert width == 8

    @pytest.mark.parametrize("mode", TRAIN_MODES)
    def test_one_step_bit_identical_at_default_size(self, mode, seams):
        width = self._check_width_invariance(
            mode, seams, self.DEFAULT_ROWS, self.DEFAULT_VOCAB, self.DEFAULT
        )
        assert width <= 20


class TestConsumingBackwardOnLossGraphs:
    """The consuming walk leaves every gradient the caller can see as the reference walk does."""

    DEMO = dict(hidden=32, layers=1, heads=2, ffn_dim=64, max_len=16)
    DEFAULT = TestDynamicPadding.DEFAULT
    ROWS = TestDynamicPadding.DEFAULT_ROWS
    VOCAB = TestDynamicPadding.DEFAULT_VOCAB

    def _walked(self, walk, mode, size, seams):
        cfg = EncoderConfig(vocab_size=len(self.VOCAB), dropout=0.1,
                            num_classes=2 if mode == "scal" else 0, **size)
        params = EncoderParams.init_random(cfg, seed=0)
        batch = encode_batch(self.ROWS, self.VOCAB, size["max_len"])
        tcfg = TrainConfig(mode=mode, alpha=0.5, epsilon=0.3, temperature=0.15)
        step_seed = derive_seed(3, "step", 0)
        if mode == "scal":
            adv = gen_supervised_adv(batch, params, tcfg.attack_config(),
                                     derive_seed(step_seed, "attack"))
        else:
            adv = gen_unsupervised_adv(batch, params, tcfg.loss_config(), tcfg.attack_config(),
                                       derive_seed(step_seed, "view1"),
                                       derive_seed(step_seed, "view2"))
        seams.clear()
        with Tape() as tape:
            total, parts = loss_graph(mode, batch, params, adv.delta, tcfg.loss_config(),
                                      step_seed)
            walk(total, tape)
        held = {f"param {name}": t for name, t in params.named()}
        held.update({f"loss {name}": t for name, t in parts.items()}, total=total)
        held.update({f"seam {i}": t for i, t in enumerate(seams)})
        return held

    @pytest.mark.parametrize("size", ["demo", "default"])
    @pytest.mark.parametrize("mode", ["scal", "uscal"])
    def test_held_grads_equal_the_reference_walk(self, mode, size, seams, monkeypatch):
        """With every linear's parameter gradients on the worker, at both sizes."""
        monkeypatch.setattr(ad, "GRAD_WORKER_FLOOR", 0)
        size = self.DEMO if size == "demo" else self.DEFAULT
        got = self._walked(lambda root, _tape: backward(root), mode, size, seams)
        want = self._walked(reference_backward, mode, size, seams)
        assert got.keys() == want.keys() and len(got) > 20
        for name, t in want.items():
            assert got[name].grad.tobytes() == t.grad.tobytes(), name


class TestStepMemory:
    """A step's tape holds only what its backwards read."""

    @staticmethod
    def _step_peak():
        """The traced peak of one default-size uscal step above its start, in bytes."""
        lines, _ = make_paraphrase_corpus(32, 2, seed=1)
        vocab = build_vocab(lines)
        cfg = EncoderConfig(vocab_size=len(vocab), dropout=0.1, **TestDynamicPadding.DEFAULT)
        params = EncoderParams.init_random(cfg, seed=0)
        opt = OptimizerState(params)
        tcfg = TrainConfig(mode="uscal", lr=1e-3, alpha=0.5, epsilon=0.3, temperature=0.15)
        batch = encode_batch(lines, vocab, cfg.max_len)
        tracemalloc.start()
        try:
            # the first step allocates the gradients the second one replaces
            train_step(batch, params, opt, tcfg, derive_seed(3, "step", 0), lr_t=1e-3)
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            train_step(batch, params, opt, tcfg, derive_seed(3, "step", 1), lr_t=1e-3)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def test_default_uscal_step_peak_is_bounded(self):
        """The tape holds about 9.6 MB of what the backwards read; holding every
        op's output as well raised it to 16.7 MB."""
        peak = self._step_peak()
        assert peak <= 11e6, f"step peak {peak / 1e6:.2f} MB"

    def test_the_in_flight_cap_bounds_a_slow_workers_backlog(self, monkeypatch):
        """A queued gradient job holds its linear's input and output gradient.

        With a worker this slow and no cap, every job of the walk was queued
        at once. The step peak stays at the guard's value either way, since
        the walk frees more than the queued jobs hold (10.40 MB uncapped,
        10.33 MB capped), so the backlog is counted as well.
        """
        run, submit = ad._Job.run, ad._submit_grad_job
        backlog = []  # after each submission, the jobs of the walk not yet run

        def slow(job):
            time.sleep(0.002)
            run(job)

        def counting(*args):
            job = submit(*args)
            backlog.append(sum(queued.args is not None for queued in ad._in_flight))
            return job

        monkeypatch.setattr(ad._Job, "run", slow)
        monkeypatch.setattr(ad, "_submit_grad_job", counting)
        peak = self._step_peak()
        assert peak <= 11e6, f"step peak {peak / 1e6:.2f} MB"
        assert len(backlog) > 2 * ad.GRAD_JOBS_IN_FLIGHT
        assert max(backlog) == ad.GRAD_JOBS_IN_FLIGHT


class TestMaskWorkerSteps:
    """Steps wait for every gradient job they queue, and what runs on the
    worker changes no byte."""

    @staticmethod
    def _setup(mode, size):
        sup = mode in SUPERVISED_MODES
        cfg = EncoderConfig(vocab_size=len(TestDynamicPadding.DEFAULT_VOCAB), dropout=0.1,
                            num_classes=2 if sup else 0, **size)
        params = EncoderParams.init_random(cfg, seed=0)
        tcfg = TrainConfig(mode=mode, lr=1e-3, alpha=0.5, epsilon=0.3, grad_clip=0.5)
        batch = encode_batch(TestDynamicPadding.DEFAULT_ROWS, TestDynamicPadding.DEFAULT_VOCAB,
                             cfg.max_len)
        return params, OptimizerState(params), tcfg, batch

    def _steps(self, mode, size, n=3):
        params, opt, tcfg, batch = self._setup(mode, size)
        reports = []
        for step in range(n):
            reports.append(train_step(batch, params, opt, tcfg, derive_seed(3, "step", step),
                                      1e-3, step))
            assert not ad._in_flight
        return reports, params.flat.tobytes()

    @staticmethod
    def _floors(monkeypatch, mask_floor, grad_floor):
        monkeypatch.setattr(ad, "MASK_WORKER_FLOOR", mask_floor)
        monkeypatch.setattr(ad, "GRAD_WORKER_FLOOR", grad_floor)

    @pytest.mark.parametrize("mode", TRAIN_MODES)
    def test_bytes_equal_with_the_worker_on_everywhere_and_off(self, monkeypatch, mode):
        """Masks and linear parameter gradients each on the worker at a floor of 0, or
        never; the thread switches as often as the interpreter lets it."""
        size = TestDynamicPadding.SMALL
        self._floors(monkeypatch, math.inf, math.inf)
        off = self._steps(mode, size)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for floors in ((0, 0), (0, math.inf), (math.inf, 0)):
                self._floors(monkeypatch, *floors)
                assert self._steps(mode, size) == off, floors
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("mode", ["uscal", "views"])
    def test_default_size_bytes_equal_with_the_worker_off(self, monkeypatch, mode):
        jobs = []
        submit = ad._submit_grad_job
        monkeypatch.setattr(ad, "_submit_grad_job", lambda *args: jobs.append(1) or submit(*args))
        size = TestDynamicPadding.DEFAULT
        on = self._steps(mode, size, n=2)
        assert len(jobs) >= 2 * 8 * 2  # at the shipped floors, every layer's linears
        self._floors(monkeypatch, ad.MASK_WORKER_FLOOR, 0)
        assert self._steps(mode, size, n=2) == on
        self._floors(monkeypatch, math.inf, math.inf)
        assert self._steps(mode, size, n=2) == on

    def test_a_failed_gradient_job_is_raised_by_backward(self, monkeypatch):
        """As its own type, once no job is left running; the next step is a fresh one's."""

        class JobFailed(Exception):
            pass

        monkeypatch.setattr(ad, "GRAD_WORKER_FLOOR", 0)
        jobs = []
        submit = ad._submit_grad_job

        def failing_third(fn, *args):
            """Queues ``fn`` wrapped to fail as the third job; inline calls of ``fn`` pass."""
            n = len(jobs) + 1

            def job_fn(*args):
                if n == 3:
                    raise JobFailed("third product")
                if n > 3:
                    time.sleep(0.005)  # still running when the walk reads the third's error
                return fn(*args)

            jobs.append(submit(job_fn, *args))
            return jobs[-1]

        monkeypatch.setattr(ad, "_submit_grad_job", failing_third)
        params, opt, tcfg, batch = self._setup("uscal", TestDynamicPadding.SMALL)
        with pytest.raises(JobFailed, match="third product"):
            train_step(batch, params, opt, tcfg, derive_seed(3, "step", 0), 1e-3, 0)
        assert len(jobs) > ad.GRAD_JOBS_IN_FLIGHT + 3
        assert not ad._in_flight and not any(job.ready.locked() for job in jobs)
        monkeypatch.setattr(ad, "_submit_grad_job", submit)
        fresh, fresh_opt, _, _ = self._setup("uscal", TestDynamicPadding.SMALL)
        got = train_step(batch, params, opt, tcfg, derive_seed(3, "step", 0), 1e-3, 0)
        want = train_step(batch, fresh, fresh_opt, tcfg, derive_seed(3, "step", 0), 1e-3, 0)
        assert got == want and params.flat.tobytes() == fresh.flat.tobytes()
        assert opt.m.tobytes() == fresh_opt.m.tobytes()

    FORWARD_BYTES = """
        import hashlib
        import callab.autodiff as ad
        from callab.encoder import forward_full
        from callab.selfcheck import toy_setup
        ad.MASK_WORKER_FLOOR = 0
        cfg, params, batch = toy_setup(num_classes=3, batch=4)
        out = forward_full(batch, params, 7, train_mode=True)
        print(hashlib.sha256(b"".join(
            t.data.tobytes() for t in (out.emb, out.h, out.z, out.logits))).hexdigest())
    """

    def test_a_forward_that_raises_leaves_nothing_behind(self, monkeypatch):
        """After a forward that raises mid-stack with its masks on the worker, the
        next same-seed forward gives the bytes of a process where nothing raised."""
        monkeypatch.setattr(ad, "MASK_WORKER_FLOOR", 0)
        cfg, params, batch = toy_setup(num_classes=3, batch=4)
        real = ad.attention
        calls = []

        def fails_in_the_last_layer(*args, **kwargs):
            calls.append(1)
            if len(calls) == cfg.layers:
                raise FloatingPointError("mid-forward")
            return real(*args, **kwargs)

        monkeypatch.setattr(ad, "attention", fails_in_the_last_layer)
        with Tape(), pytest.raises(FloatingPointError):
            encoder_mod.forward_full(batch, params, 7, train_mode=True)
        monkeypatch.setattr(ad, "attention", real)
        with Tape():
            out = encoder_mod.forward_full(batch, params, 7, train_mode=True)
        got = hashlib.sha256(b"".join(
            t.data.tobytes() for t in (out.emb, out.h, out.z, out.logits))).hexdigest()
        assert got == self._fresh_interpreter(self.FORWARD_BYTES).strip()

    @staticmethod
    def _fresh_interpreter(code):
        """Run ``code`` in a new interpreter, where no earlier step has shaped the heap; its stdout."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_eval_starts_no_thread_and_training_one(self):
        self._fresh_interpreter("""
            import os
            import signal
            import threading
            from callab.attacks import AttackConfig
            from callab.encoder import EncoderConfig, EncoderParams, forward_full
            from callab.metrics import encode_sentences, evaluate_under_attack
            from callab.synthdata import make_motif_task
            from callab.text import build_vocab, encode_batch
            from callab.trainer import OptimizerState, TrainConfig, train_step
            rows, _ = make_motif_task(32, 2, seed=1)
            vocab = build_vocab(r.text_a for r in rows)
            cfg = EncoderConfig(vocab_size=len(vocab), num_classes=2)
            params = EncoderParams.init_random(cfg, seed=0)
            batch = encode_batch(rows, vocab, cfg.max_len)
            forward_full(batch, params, 1, train_mode=False)
            encode_sentences(params, [r.text_a for r in rows], vocab)
            evaluate_under_attack(params, rows, vocab, AttackConfig())
            assert threading.active_count() == 1, threading.enumerate()
            opt = OptimizerState(params)
            for step in range(3):
                train_step(batch, params, opt, TrainConfig(mode="scal"), step, 1e-3, step)
                assert threading.active_count() == 2, threading.enumerate()
            # a forked child has no worker thread, and starts its own; it drops
            # the jobs its parent had in flight (one planted here, never run)
            import callab.autodiff as ad
            ad._in_flight.append(ad._Job(print))
            pid = os.fork()
            if pid == 0:
                signal.alarm(60)  # a child stuck waiting on a worker it lacks dies
                assert not ad._in_flight
                train_step(batch, params, opt, TrainConfig(mode="scal"), 3, 1e-3, 3)
                os._exit(0 if threading.active_count() == 2 else 1)
            assert os.waitpid(pid, 0)[1] == 0
            ad._in_flight.clear()
        """)

    def test_a_default_size_encode_starts_one_worker_and_a_demo_size_one_none(self):
        """Demo-size batches stay under the floor; every second default-size batch
        goes to the one worker, which later encodes reuse."""
        self._fresh_interpreter("""
            import threading
            from callab.encoder import EncoderConfig, EncoderParams
            from callab.metrics import encode_sentences, evaluate_classification
            from callab.synthdata import make_motif_task
            from callab.text import build_vocab
            rows, _ = make_motif_task(200, 2, seed=1)
            sentences = [r.text_a for r in rows]
            vocab = build_vocab(sentences)
            demo = EncoderConfig(vocab_size=len(vocab), hidden=32, layers=1, heads=2,
                                 ffn_dim=64, max_len=16, num_classes=2)
            params = EncoderParams.init_random(demo, seed=0)
            encode_sentences(params, sentences, vocab)
            evaluate_classification(params, rows, vocab)
            assert threading.active_count() == 1, threading.enumerate()
            default = EncoderConfig(vocab_size=len(vocab), num_classes=2)
            params = EncoderParams.init_random(default, seed=0)
            for _ in range(2):
                encode_sentences(params, sentences, vocab)
                evaluate_classification(params, rows, vocab)
                assert threading.active_count() == 2, threading.enumerate()
            assert threading.enumerate()[1].name == "callab-worker"
        """)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
    def test_default_steps_do_not_fault_their_heap_back(self):
        """Freed heap stays mapped between steps; returned to the OS, it read ~1,500 faults a step."""
        self._fresh_interpreter("""
            import resource
            from callab.autodiff import derive_seed
            from callab.encoder import EncoderConfig, EncoderParams
            from callab.synthdata import make_paraphrase_corpus
            from callab.text import build_vocab, encode_batch
            from callab.trainer import OptimizerState, TrainConfig, train_step
            lines, _ = make_paraphrase_corpus(32, 2, seed=1)
            vocab = build_vocab(lines)
            params = EncoderParams.init_random(EncoderConfig(vocab_size=len(vocab)), seed=0)
            opt, tcfg = OptimizerState(params), TrainConfig(mode="uscal")
            batch = encode_batch(lines, vocab, params.config.max_len)
            for step in range(16):
                if step == 6:
                    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                train_step(batch, params, opt, tcfg, derive_seed(3, "step", step), 1e-3, step)
            per_step = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10
            assert per_step < 100, f"{per_step:.0f} minor faults per step"
        """)


class TestSeamGradient:
    """The attack's seam gradient from ``grad_of`` on the tape the step builds anyway."""

    def test_grad_of_matches_backward_on_scal_attack_graph(self, seams):
        cfg, params, batch = toy_setup(num_classes=3, batch=4)
        seed = derive_seed(11, "attack")
        with Tape():
            emb = embed_tokens(batch, params, derive_seed(seed, "embed"), True)
            h = encoder_mod.encode_from_embeddings(
                emb, batch.attn_mask, params, derive_seed(seed, "encode"), True
            )
            ce = cross_entropy(classify(h, params), batch.labels)
            got = grad_of(ce, emb)
            backward(ce)
        assert got.tobytes() == emb.grad.tobytes()
        assert np.any(got != 0)

    def test_grad_of_matches_backward_on_uscal_main_tape(self, seams):
        cfg, params, batch = toy_setup(num_classes=0, batch=4)
        tcfg = TrainConfig(mode="uscal", epsilon=0.3, dev_metric="spearman")
        with Tape():
            _, parts = loss_graph("views", batch, params, None, tcfg.loss_config(), 11)
            view1 = seams[0]
            got = grad_of(parts["ct_views"], view1)
            for _, t in params.named():
                assert t.grad is None
            backward(parts["ct_views"])
        assert got.tobytes() == view1.grad.tobytes()
        assert np.any(got != 0)

    def test_seam_walk_computes_only_attention_operand_products(self, seams, monkeypatch):
        """On the uscal main tape, every right-operand product grad_of runs is a batched one."""
        import callab.autodiff as ad_mod

        cfg, params, batch = toy_setup(num_classes=0, batch=4, layers=2)
        tcfg = TrainConfig(mode="uscal", epsilon=0.3, dev_metric="spearman")
        product = ad_mod._matmul_grad_b
        ranks = []

        def recording(a_d, g):
            ranks.append(a_d.ndim)
            return product(a_d, g)

        with Tape():
            _, parts = loss_graph("views", batch, params, None, tcfg.loss_config(), 11)
            monkeypatch.setattr(ad_mod, "_matmul_grad_b", recording)
            grad_of(parts["ct_views"], seams[0])
            assert ranks and set(ranks) == {4}  # k^T and v of each layer's attention
            ranks.clear()
            backward(parts["ct_views"])
        assert 2 in ranks  # the weight matrices' products, which backward does need

    @pytest.mark.parametrize("mode", ["uscal", "scal"])
    @pytest.mark.parametrize("negative_mode", ["adv-keys", "clean-keys"])
    @pytest.mark.parametrize("kind", ["fgm", "fgsm"])
    def test_uscal_step_matches_standalone_attack_reference(self, negative_mode, kind, mode):
        """Same bytes as: delta from the standalone attack (gen_unsupervised_adv for uscal,
        gen_supervised_adv for scal), loss_graph, backward, clip, AdamW."""
        num_classes = 3 if mode == "scal" else 0
        cfg, p_step, batch = toy_setup(num_classes=num_classes, batch=4, layers=2)
        _, p_ref, _ = toy_setup(num_classes=num_classes, batch=4, layers=2)
        opt_step, opt_ref = OptimizerState(p_step), OptimizerState(p_ref)
        tcfg = TrainConfig(mode=mode, lr=1e-2, alpha=0.5, epsilon=0.3, attack_kind=kind,
                           negative_mode=negative_mode, grad_clip=0.5)
        loss_cfg = tcfg.loss_config()
        for step in range(4):
            step_seed = derive_seed(5, "step", step)
            got = train_step(batch, p_step, opt_step, tcfg, step_seed, 1e-2, step)

            if mode == "scal":
                delta = gen_supervised_adv(
                    batch, p_ref, tcfg.attack_config(), derive_seed(step_seed, "attack"),
                ).delta
            else:
                delta = gen_unsupervised_adv(
                    batch, p_ref, loss_cfg, tcfg.attack_config(),
                    derive_seed(step_seed, "view1"), derive_seed(step_seed, "view2"),
                ).delta
            p_ref.zero_grads()
            with Tape():
                total, parts = loss_graph(mode, batch, p_ref, delta, loss_cfg, step_seed)
                backward(total)
                clip_gradients(p_ref, tcfg.grad_clip)
                adamw_step(p_ref, opt_ref, 1e-2, tcfg.weight_decay)
            want = LossReport(total=total.item(), **{k: v.item() for k, v in parts.items()})

            assert got == want
            for name, arr in p_ref.copy_values().items():
                assert p_step[name].data.tobytes() == arr.tobytes(), name
                assert p_step[name].grad.tobytes() == p_ref[name].grad.tobytes(), name

    @pytest.mark.parametrize("mode", TRAIN_MODES)
    def test_train_step_runs_loss_graph_once(self, monkeypatch, mode):
        """train_step builds each step through exactly one loss_graph call."""
        calls = []
        graph = trainer_mod.loss_graph

        def counting(*args, **kwargs):
            calls.append(args[0])
            return graph(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "loss_graph", counting)
        supervised = mode in ("scal", "ce")
        cfg, params, batch = toy_setup(num_classes=3 if supervised else 0, batch=4)
        opt = OptimizerState(params)
        tcfg = TrainConfig(mode=mode, epsilon=0.3)
        for step in range(2):
            train_step(batch, params, opt, tcfg, derive_seed(11, "step", step), 1e-3, step)
            assert calls == [mode] * (step + 1)

    @pytest.mark.parametrize("mode", ["scal", "uscal"])
    def test_loss_graph_without_delta_or_attack_is_refused(self, mode):
        cfg, params, batch = toy_setup(num_classes=3 if mode == "scal" else 0, batch=4)
        with Tape(), pytest.raises(ValueError, match=f"{mode}.*delta or an attack_cfg"):
            loss_graph(mode, batch, params, None, TrainConfig().loss_config(), 11)

    @pytest.mark.parametrize("mode, forwards", [("scal", 3), ("uscal", 3), ("ce", 1), ("views", 2)])
    def test_encoder_forwards_per_step(self, monkeypatch, mode, forwards):
        calls = []
        encode = encoder_mod.encode_from_embeddings

        def counting(*args, **kwargs):
            calls.append(1)
            return encode(*args, **kwargs)

        for mod in (encoder_mod, trainer_mod):
            monkeypatch.setattr(mod, "encode_from_embeddings", counting)
        supervised = mode in ("scal", "ce")
        cfg, params, batch = toy_setup(num_classes=3 if supervised else 0, batch=4)
        tcfg = TrainConfig(mode=mode, epsilon=0.3,
                           dev_metric="accuracy" if supervised else "spearman")
        train_step(batch, params, OptimizerState(params), tcfg, 11, 1e-3)
        assert len(calls) == forwards


class TestFlatBuffers:
    """AdamW and clipping over the flat buffers give the per-tensor loop's bytes."""

    SIZES = {"demo": TestConsumingBackwardOnLossGraphs.DEMO, "default": TestDynamicPadding.DEFAULT}
    ROWS = _mixed_length_rows(192, seed=11)
    VOCAB = build_vocab(r.text_a + " " + (r.text_b or "") for r in ROWS)
    CLIP = 0.5
    # step 3's gradients turn non-finite in two tensors; the update is skipped
    POISON_STEP, POISONED = 3, ("layer0.b1", "pooler_w")

    def _train(self, mode, size, reference, monkeypatch):
        """Six ``train_step``s on 32-row batches; returns params, state, reports, clip norms."""
        supervised = mode in SUPERVISED_MODES
        cfg = EncoderConfig(vocab_size=len(self.VOCAB), dropout=0.1,
                            num_classes=2 if supervised else 0, **self.SIZES[size])
        params = EncoderParams.init_random(cfg, seed=0)
        tcfg = TrainConfig(mode=mode, lr=1e-3, alpha=0.5, epsilon=0.3, temperature=0.15,
                           grad_clip=self.CLIP,
                           dev_metric="accuracy" if supervised else "spearman")
        if reference:
            opt = ReferenceAdamState(params)
            monkeypatch.setattr(trainer_mod, "adamw_step", reference_adamw_step)
            clip = reference_clip_gradients
        else:
            opt = OptimizerState(params)
            clip = trainer_mod.clip_gradients
        norms = []
        monkeypatch.setattr(trainer_mod, "clip_gradients",
                            lambda p, max_norm: norms.append(clip(p, max_norm)) or norms[-1])
        real_backward = trainer_mod.ad.backward
        step = 0

        def backward_then_poison(root):
            real_backward(root)
            if step == self.POISON_STEP:
                for name, value in zip(self.POISONED, (np.nan, np.inf)):
                    g = params[name].grad.copy()  # a grad may be shared: replace, never write
                    g.reshape(-1)[-1] = value
                    params[name].grad = g

        monkeypatch.setattr(trainer_mod.ad, "backward", backward_then_poison)
        reports = []
        for step in range(6):
            batch = encode_batch(self.ROWS[32 * step : 32 * (step + 1)], self.VOCAB,
                                 cfg.max_len)
            reports.append(train_step(batch, params, opt, tcfg, derive_seed(3, "step", step),
                                      lr_t=1e-3, step=step))
        monkeypatch.undo()
        return params, opt, reports, norms

    @pytest.mark.parametrize("size", ["demo", "default"])
    @pytest.mark.parametrize("mode", TRAIN_MODES)
    def test_six_steps_byte_equal_to_the_per_tensor_loop(self, mode, size, monkeypatch,
                                                         caplog):
        want_params, want_opt, want_reports, want_norms = self._train(
            mode, size, True, monkeypatch)
        with caplog.at_level("WARNING", logger="callab.trainer"):
            params, opt, reports, norms = self._train(mode, size, False, monkeypatch)

        assert reports == want_reports
        assert repr(norms) == repr(want_norms)  # NaN at the poisoned step
        assert math.isnan(norms[self.POISON_STEP]) and any(n > self.CLIP for n in norms)
        assert opt.t == want_opt.t == 5 and opt.skipped == want_opt.skipped == 0
        warnings = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
        assert warnings == [f"adamw_step: non-finite gradient in {self.POISONED[0]}; "
                            "step skipped"]
        for name, t in params.named():
            assert t.data.tobytes() == want_params[name].data.tobytes(), name
            assert t.grad.tobytes() == want_params[name].grad.tobytes(), name
        for got, want in ((opt.m, want_opt.m), (opt.v, want_opt.v)):
            assert got.tobytes() == np.concatenate(
                [want[name].reshape(-1) for name, _ in params.named()]).tobytes()
        assert_flat_views(params)

    def test_tensors_are_views_of_the_flat_buffers(self, tmp_path):
        cfg, params, batch = toy_setup(num_classes=3, batch=4)
        assert_flat_views(params)
        other = EncoderParams.init_random(cfg, seed=9)
        other.load_values(params.copy_values())
        assert_flat_views(other)
        assert other.flat.tobytes() == params.flat.tobytes()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(Checkpoint.from_params(params), path)
        loaded = load_checkpoint(path).build_params()
        assert_flat_views(loaded)
        assert loaded.flat.tobytes() == params.flat.tobytes()
        tcfg = TrainConfig(mode="scal", epsilon=0.3, grad_clip=0.5)
        train_step(batch, params, OptimizerState(params), tcfg, 11, 1e-3)
        assert all(t.grad is not None for _, t in params.named())
        assert_flat_views(params)

    def test_skip_warning_names_the_first_nonfinite_tensor(self, caplog):
        cfg, params, _ = toy_setup(num_classes=3, batch=4)
        state = OptimizerState(params)
        names = [name for name, _ in params.named()]
        for _, t in params.named():
            t.grad = np.full_like(t.data, 0.25)
        params[names[-1]].grad[...] = np.inf
        params[names[5]].grad.reshape(-1)[-1] = np.nan
        before = params.flat.copy()
        with caplog.at_level("WARNING", logger="callab.trainer"):
            assert not adamw_step(params, state, lr_t=1e-2, weight_decay=0.01)
        assert [r.getMessage() for r in caplog.records] == [
            f"adamw_step: non-finite gradient in {names[5]}; step skipped"]
        assert state.t == 0 and not state.m.any() and not state.v.any()
        assert params.flat.tobytes() == before.tobytes()

    def test_default_size_clip_and_adamw_peak_is_bounded(self):
        """The traced peak of one clip + AdamW above its start at default size.

        Each works in place on the flat buffers, the AdamW chunk in a
        preallocated workspace; whole-tensor float64 temporaries peaked at
        several MB here.
        """
        cfg = EncoderConfig(vocab_size=1000, dropout=0.1, num_classes=2,
                            **TestDynamicPadding.DEFAULT)
        params = EncoderParams.init_random(cfg, seed=0)
        state = OptimizerState(params)
        rng = np.random.default_rng(0)
        for _ in range(2):  # the second call sees the gradients the first one gathered
            for _, t in params.named():
                t.grad = (rng.standard_normal(t.data.shape) * 0.1).astype(np.float32)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                norm = clip_gradients(params, 1.0)
                assert adamw_step(params, state, lr_t=1e-3, weight_decay=0.01)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert norm > 1.0
            assert peak <= 1e6, f"clip + AdamW peak {peak / 1e6:.2f} MB"

    def test_train_step_reaches_clip_and_adamw_through_the_module(self, monkeypatch):
        """Benchmarks count clip firings and skipped updates by swapping these attributes."""
        calls = []
        for fn in ("clip_gradients", "adamw_step"):
            real = getattr(trainer_mod, fn)
            monkeypatch.setattr(trainer_mod, fn,
                                lambda *args, fn=fn, real=real: calls.append(fn) or real(*args))
        cfg, params, batch = toy_setup(num_classes=3, batch=4)
        opt = OptimizerState(params)
        tcfg = TrainConfig(mode="ce", lr=1e-3, grad_clip=1.0)
        for step in range(2):
            train_step(batch, params, opt, tcfg, 11, 1e-3, step=step)
        assert calls == ["clip_gradients", "adamw_step"] * 2
        assert opt.t == 2


class TestResidualNormInTraining:
    """``train_step`` gives the same bytes with the fused sublayer epilogue as with the
    three-op chain it replaces, in one process, so whatever the BLAS build."""

    # nodes on each tape a step records, in order: one fused layer records 10
    # nodes (12 in the last), the chain 15 (17)
    TAPE_NODES = {
        ("demo", "scal"): [23, 59], ("demo", "uscal"): [76],
        ("demo", "ce"): [25], ("demo", "views"): [49],
        ("default", "scal"): [33, 79], ("default", "uscal"): [106],
        ("default", "ce"): [35], ("default", "views"): [69],
    }

    @staticmethod
    def _train(mode, size, monkeypatch):
        """Three steps on 32-row batches: reports, parameter and AdamW moment bytes, tape sizes."""
        supervised = mode in SUPERVISED_MODES
        cfg = EncoderConfig(vocab_size=len(TestFlatBuffers.VOCAB), dropout=0.1,
                            num_classes=2 if supervised else 0, **TestFlatBuffers.SIZES[size])
        params = EncoderParams.init_random(cfg, seed=0)
        opt = OptimizerState(params)
        tcfg = TrainConfig(mode=mode, lr=1e-3, alpha=0.5, epsilon=0.3, temperature=0.15,
                           grad_clip=0.5)
        tapes = []
        tape_exit = ad.Tape.__exit__
        monkeypatch.setattr(ad.Tape, "__exit__",
                            lambda tape, *exc: tapes.append(len(tape.nodes)) or tape_exit(tape, *exc))
        reports = []
        for step in range(3):
            tapes.clear()
            batch = encode_batch(TestFlatBuffers.ROWS[32 * step : 32 * (step + 1)],
                                 TestFlatBuffers.VOCAB, cfg.max_len)
            reports.append(train_step(batch, params, opt, tcfg, derive_seed(3, "step", step),
                                      lr_t=1e-3, step=step))
        monkeypatch.setattr(ad.Tape, "__exit__", tape_exit)
        return (reports, params.flat.tobytes(), opt.m.tobytes(), opt.v.tobytes()), tapes

    @pytest.mark.parametrize("size", ["demo", "default"])
    @pytest.mark.parametrize("mode", TRAIN_MODES)
    def test_steps_byte_equal_to_the_chain(self, mode, size, monkeypatch):
        fused, fused_tapes = self._train(mode, size, monkeypatch)
        monkeypatch.setattr(ad, "residual_norm", residual_norm_chain)
        chain, chain_tapes = self._train(mode, size, monkeypatch)
        assert fused == chain
        assert fused_tapes == self.TAPE_NODES[size, mode]
        assert len(chain_tapes) == len(fused_tapes)
        assert all(c > f for c, f in zip(chain_tapes, fused_tapes))
