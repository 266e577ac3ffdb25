"""Metric implementations against brute-force oracles; evaluation helpers."""

import math
import sys

import numpy as np
import pytest

import callab.autodiff as ad
from callab.attacks import AttackConfig
from callab.autodiff import Tape
from callab.metrics import (
    MetricError,
    MetricReport,
    accuracy,
    average_ranks,
    cosine_rows,
    encode_sentences,
    evaluate_classification,
    evaluate_similarity,
    evaluate_under_attack,
    f1_binary,
    mcc,
    spearman,
)
from callab.encoder import EncoderConfig, EncoderParams, embed_and_encode, forward_full
from callab.text import LabeledExample, ScoredPair, Vocab, encode_batch

from conftest import toy_setup


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0

    def test_all_wrong(self):
        assert accuracy([1, 1, 1], [0, 0, 0]) == 0.0

    def test_counting_oracle(self, rng):
        preds = rng.integers(0, 4, size=100)
        labels = rng.integers(0, 4, size=100)
        want = sum(int(p == l) for p, l in zip(preds, labels)) / 100
        assert accuracy(preds, labels) == pytest.approx(want, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            accuracy([], [])


class TestF1:
    def test_perfect(self):
        assert f1_binary([1, 0, 1], [1, 0, 1]) == 1.0

    def test_no_positive_predictions(self):
        assert f1_binary([0, 0, 0], [1, 1, 0]) == 0.0

    def test_formula_case(self):
        # TP=8, FP=2, FN=4 -> P=0.8, R=2/3, F1=8/11
        preds = [1] * 8 + [1] * 2 + [0] * 4
        labels = [1] * 8 + [0] * 2 + [1] * 4
        assert f1_binary(preds, labels) == pytest.approx(8 / 11, abs=1e-12)


class TestMcc:
    def test_perfect(self):
        assert mcc([1, 0, 1, 0], [1, 0, 1, 0]) == pytest.approx(1.0)

    def test_inverted(self):
        assert mcc([1, 0, 1, 0], [0, 1, 0, 1]) == pytest.approx(-1.0)

    def test_degenerate_margin_is_zero(self):
        assert mcc([1, 1], [1, 0]) == 0.0

    def test_formula_oracle(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 40))
            preds = rng.integers(0, 2, size=n)
            labels = rng.integers(0, 2, size=n)
            tp = float(np.sum((preds == 1) & (labels == 1)))
            tn = float(np.sum((preds == 0) & (labels == 0)))
            fp = float(np.sum((preds == 1) & (labels == 0)))
            fn = float(np.sum((preds == 0) & (labels == 1)))
            d = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
            want = 0.0 if d == 0 else (tp * tn - fp * fn) / math.sqrt(d)
            assert abs(mcc(preds, labels) - want) < 1e-12


class TestSpearman:
    def test_monotone_transform_is_one(self, rng):
        x = rng.standard_normal(30)
        assert spearman(x, np.exp(x)) == pytest.approx(1.0)
        assert spearman(x, x ** 3) == pytest.approx(1.0)

    def test_reversal_is_minus_one(self):
        x = np.arange(10.0)
        assert spearman(x, -x) == pytest.approx(-1.0)

    def test_tied_ranks_hand_oracle(self):
        # ranks of [1,2,2,3] are [1, 2.5, 2.5, 4]; against [1,3,2,4] -> sqrt(0.9)
        got = spearman([1, 2, 2, 3], [1, 3, 2, 4])
        assert got == pytest.approx(math.sqrt(0.9), abs=1e-12)

    def test_average_ranks(self):
        np.testing.assert_allclose(average_ranks([10, 20, 20, 30]), [1, 2.5, 2.5, 4])

    def test_constant_input_errors(self):
        with pytest.raises(MetricError, match="constant"):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_rank_invariance_exact(self, rng):
        x = rng.standard_normal(25)
        y = rng.standard_normal(25)
        assert spearman(x, y) == spearman(np.exp(x), y)


def _tiny_eval_setup(num_classes=2):
    cfg, params, _ = toy_setup(num_classes=num_classes, vocab_size=16, max_len=8)
    vocab = Vocab([f"w{i}" for i in range(12)])
    rows = [LabeledExample(i % num_classes, f"w{i % 12} w{(i + 3) % 12}") for i in range(40)]
    return params, vocab, rows


class TestEvaluateClassification:
    def test_zero_weight_model_predicts_class_zero(self):
        params, vocab, rows = _tiny_eval_setup()
        params["cls_w"].data[:] = 0
        params["cls_b"].data[:] = 0
        report = evaluate_classification(params, rows, vocab, "accuracy")
        prevalence = sum(1 for r in rows if r.label == 0) / len(rows)
        assert report.value == pytest.approx(prevalence)

    def test_support_equals_dataset_size(self):
        params, vocab, rows = _tiny_eval_setup()
        report = evaluate_classification(params, rows, vocab, "accuracy")
        assert report.support == len(rows)

    def test_metric_matches_dumped_predictions(self):
        params, vocab, rows = _tiny_eval_setup()
        from callab.metrics import _predict_batches

        preds, labels = _predict_batches(params, rows, vocab, batch_size=16)
        report = evaluate_classification(params, rows, vocab, "accuracy")
        assert report.value == pytest.approx(accuracy(preds, labels))

    def test_does_not_mutate_params(self):
        params, vocab, rows = _tiny_eval_setup()
        before = params.flat.tobytes()
        evaluate_classification(params, rows, vocab, "accuracy")
        assert params.flat.tobytes() == before


class TestEvaluateSimilarity:
    def _pairs_with_constructed_ordering(self, params, vocab):
        sents = [f"w{i} w{(i+1) % 12}" for i in range(8)]
        vecs = encode_sentences(params, sents, vocab)
        pairs = []
        cos = []
        for i in range(0, 8, 2):
            c = float(cosine_rows(vecs[i : i + 1], vecs[i + 1 : i + 2])[0])
            cos.append(c)
        order = np.argsort(np.argsort(cos))
        for rank, i in zip(order, range(0, 8, 2)):
            pairs.append(ScoredPair(float(rank) * 5 / 3, sents[i], sents[i + 1]))
        return pairs

    def test_gold_equals_cosine_ordering_gives_one(self):
        params, vocab, _ = _tiny_eval_setup()
        pairs = self._pairs_with_constructed_ordering(params, vocab)
        report = evaluate_similarity(params, pairs, vocab)
        assert report.value == pytest.approx(1.0)

    def test_duplicate_sentences_have_unit_cosine(self):
        params, vocab, _ = _tiny_eval_setup()
        vecs = encode_sentences(params, ["w1 w2 w3", "w1 w2 w3"], vocab)
        assert cosine_rows(vecs[:1], vecs[1:])[0] == pytest.approx(1.0, abs=1e-6)

    def test_spearman_matches_offline_oracle(self):
        params, vocab, _ = _tiny_eval_setup()
        pairs = [ScoredPair(float(s), f"w{i} w{i+1}", f"w{i+2} w{i+3}")
                 for i, s in enumerate([0, 1.5, 3, 4.5, 2, 5])]
        left = encode_sentences(params, [p.text_a for p in pairs], vocab)
        right = encode_sentences(params, [p.text_b for p in pairs], vocab)
        cosines = cosine_rows(left, right)
        gold = [p.score for p in pairs]
        report = evaluate_similarity(params, pairs, vocab)
        assert report.value == pytest.approx(spearman(cosines, gold), abs=1e-12)


class TestReadPathComputesOnlyWhatItReads:
    """``encode_sentences`` reads h and classification reads the logits, both as forward_full has them."""

    def _reference(self, params, vocab, rows, batch_size):
        outs = [
            forward_full(encode_batch(rows[i : i + batch_size], vocab, params.config.max_len),
                         params, seed=0, train_mode=False)
            for i in range(0, len(rows), batch_size)
        ]
        return (np.concatenate([o.h.data for o in outs]),
                np.concatenate([o.logits.data.argmax(axis=1) for o in outs]))

    def test_outputs_equal_forward_full_without_its_unread_heads(self, monkeypatch):
        import callab.encoder as encoder_mod
        import callab.metrics as metrics_mod

        params, vocab, rows = _tiny_eval_setup()
        want_h, want_preds = self._reference(params, vocab, [r.text_a for r in rows], 16)
        _, want_labelled_preds = self._reference(params, vocab, rows, 16)
        assert (want_preds == want_labelled_preds).all()

        def unread(*_args, **_kwargs):
            raise AssertionError("the read path computed a head it does not read")

        monkeypatch.setattr(encoder_mod, "pool", unread)
        preds, _ = metrics_mod._predict_batches(params, rows, vocab, batch_size=16)
        assert preds.tobytes() == want_preds.tobytes()
        monkeypatch.setattr(metrics_mod, "classify", unread)
        got_h = encode_sentences(params, [r.text_a for r in rows], vocab, batch_size=16)
        assert got_h.dtype == want_h.dtype and got_h.tobytes() == want_h.tobytes()


DEMO = dict(hidden=32, layers=1, heads=2, ffn_dim=64, max_len=16)
DEFAULT = dict(hidden=64, layers=2, heads=4, ffn_dim=256, max_len=32)
WORDS = 40


def _sized_setup(size, n, vocab_size=WORDS + 4, seed=0):
    """A model of ``size`` and ``n`` labelled rows of 6 to 29 words; ids past
    ``vocab_size`` are outside the model's vocab."""
    vocab = Vocab([f"w{i}" for i in range(WORDS)])
    cfg = EncoderConfig(vocab_size=vocab_size, num_classes=2, **size)
    params = EncoderParams.init_random(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    words = vocab_size - 4
    rows = [
        LabeledExample(int(rng.integers(2)),
                       " ".join(f"w{j}" for j in rng.integers(0, words, size=rng.integers(6, 30))))
        for _ in range(n)
    ]
    return params, vocab, rows


@pytest.fixture
def jobs(monkeypatch):
    """Every job handed to the worker, in order."""
    handed = []
    submit = ad._submit
    monkeypatch.setattr(ad, "_submit", lambda job: handed.append(job) or submit(job))
    return handed


class TestEvalOnTheWorker:
    """Every second large eval batch runs on the worker; where a batch ran changes no byte."""

    @staticmethod
    def _outputs(params, vocab, rows, batch_size):
        sentences = [r.text_a for r in rows]
        pairs = [ScoredPair(float(i % 6), a.text_a, b.text_a) for i, (a, b) in
                 enumerate(zip(rows[::2], rows[1::2]))]
        sim = evaluate_similarity(params, pairs, vocab, batch_size)
        cls = evaluate_classification(params, rows, vocab, "accuracy", batch_size)
        return (encode_sentences(params, sentences, vocab, batch_size).tobytes(),
                sim.value, sim.extras, cls.value, cls.per_class)

    @pytest.mark.parametrize("size", [DEMO, DEFAULT], ids=["demo", "default"])
    @pytest.mark.parametrize("n, batch_size", [(150, 64), (70, 16)])
    def test_bytes_equal_with_the_floor_at_zero_and_infinity(self, monkeypatch, jobs, size, n,
                                                              batch_size):
        """150 rows at 64 are 3 batches, the last short; 70 at 16 are 5, and their
        35 pairs 3 a side."""
        params, vocab, rows = _sized_setup(size, n)
        monkeypatch.setattr(ad, "GRAD_WORKER_FLOOR", math.inf)
        off = self._outputs(params, vocab, rows, batch_size)
        assert not jobs
        want = np.concatenate([
            embed_and_encode(encode_batch([r.text_a for r in rows[i : i + batch_size]], vocab,
                                          params.config.max_len),
                             params, seed=0, train_mode=False)[1].data
            for i in range(0, n, batch_size)
        ])
        assert off[0] == want.tobytes()
        monkeypatch.setattr(ad, "GRAD_WORKER_FLOOR", 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            on = self._outputs(params, vocab, rows, batch_size)
        finally:
            sys.setswitchinterval(interval)
        assert on == off
        batches = -(-n // batch_size)
        pair_batches = -(-(n // 2) // batch_size)
        assert len(jobs) == batches // 2 + pair_batches + batches // 2

    @pytest.mark.parametrize("floor", [0, math.inf])
    def test_a_failing_batch_raises_the_same_error_inline_and_on_the_worker(
        self, monkeypatch, jobs, floor
    ):
        """Batch 1 (the worker's at floor 0), then batch 0 as well, then batch 0 alone
        hold an id the model lacks; the first failing batch's error is the one raised,
        once no job is left running."""
        monkeypatch.setattr(ad, "GRAD_WORKER_FLOOR", floor)
        params, vocab, rows = _sized_setup(DEFAULT, 150, vocab_size=30)
        clean = [r.text_a for r in rows]
        sentences = list(clean)
        sentences[70] += " w39"
        with pytest.raises(ValueError, match=r"^token id 43 out of range for vocab_size 30$"):
            encode_sentences(params, sentences, vocab)
        sentences[3] += " w30"
        for bad in (sentences, clean[:3] + sentences[3:4] + clean[4:]):
            with pytest.raises(ValueError, match=r"^token id 34 out of range for vocab_size 30$"):
                encode_sentences(params, bad, vocab)
            assert not any(job.ready.locked() for job in jobs)
        assert len(jobs) == (3 if floor == 0 else 0)
        got = encode_sentences(params, clean, vocab)
        monkeypatch.setattr(ad, "GRAD_WORKER_FLOOR", math.inf)
        assert got.tobytes() == encode_sentences(params, clean, vocab).tobytes()

    @pytest.mark.parametrize("floor", [0, math.inf])
    def test_a_batch_that_fails_to_build_raises_after_the_batch_before_it(self, monkeypatch,
                                                                         floor):
        monkeypatch.setattr(ad, "GRAD_WORKER_FLOOR", floor)
        params, vocab, rows = _sized_setup(DEFAULT, 150, vocab_size=30)
        rows[100] = LabeledExample(0, None)
        with pytest.raises(ValueError, match="row 36 is missing its sentence"):
            evaluate_classification(params, rows, vocab)
        rows[3] = LabeledExample(0, rows[3].text_a + " w30")
        with pytest.raises(ValueError, match="token id 34 out of range"):
            evaluate_classification(params, rows, vocab)

    def test_nothing_reaches_the_worker_inside_a_tape(self, monkeypatch, jobs):
        monkeypatch.setattr(ad, "GRAD_WORKER_FLOOR", 0)
        params, vocab, rows = _sized_setup(DEFAULT, 150)
        with Tape():
            encode_sentences(params, [r.text_a for r in rows], vocab)
            evaluate_classification(params, rows, vocab)
        assert not jobs

    def test_at_the_real_floor_demo_batches_stay_inline_and_default_ones_do_not(self, jobs):
        params, vocab, rows = _sized_setup(DEMO, 256)
        encode_sentences(params, [r.text_a for r in rows], vocab)
        evaluate_classification(params, rows, vocab)
        assert not jobs
        params, vocab, rows = _sized_setup(DEFAULT, 256)
        encode_sentences(params, [r.text_a for r in rows], vocab)
        assert len(jobs) == 2
        evaluate_classification(params, rows, vocab)
        assert len(jobs) == 4


class TestBatchArguments:
    def test_encode_sentences_rejects_no_sentences(self):
        params, vocab, _ = _tiny_eval_setup()
        with pytest.raises(MetricError, match="empty sentences"):
            encode_sentences(params, [], vocab)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_is_named(self, batch_size):
        params, vocab, rows = _tiny_eval_setup()
        pairs = [ScoredPair(float(i), r.text_a, r.text_a) for i, r in enumerate(rows)]
        calls = [
            lambda: encode_sentences(params, [r.text_a for r in rows], vocab, batch_size),
            lambda: evaluate_classification(params, rows, vocab, batch_size=batch_size),
            lambda: evaluate_similarity(params, pairs, vocab, batch_size),
            lambda: evaluate_under_attack(params, rows, vocab, AttackConfig(),
                                          batch_size=batch_size),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"batch_size must be >= 1, got {batch_size}"):
                call()


class TestEvaluateUnderAttack:
    def test_epsilon_zero_equals_clean(self):
        params, vocab, rows = _tiny_eval_setup()
        report = evaluate_under_attack(
            params, rows, vocab, AttackConfig(kind="fgm", epsilon=0.0)
        )
        assert report.value == pytest.approx(float(report.extras["clean_accuracy"]))

    def test_report_carries_attack_parameters(self):
        params, vocab, rows = _tiny_eval_setup()
        report = evaluate_under_attack(
            params, rows, vocab, AttackConfig(kind="fgsm", epsilon=0.4)
        )
        assert report.attack["kind"] == "fgsm"
        assert report.attack["epsilon"] == 0.4
        assert "proxy" in report.attack["note"]

    def test_does_not_mutate_params(self):
        params, vocab, rows = _tiny_eval_setup()
        before = params.flat.tobytes()
        evaluate_under_attack(params, rows, vocab, AttackConfig(kind="fgm", epsilon=0.3))
        assert params.flat.tobytes() == before
        assert all(t.grad is None for _, t in params.named())


class TestReportFormats:
    def test_lines_and_json(self):
        report = MetricReport("accuracy", 0.75, support=4,
                              per_class={0: {"support": 2, "correct": 1}},
                              attack={"kind": "fgm", "epsilon": 0.1})
        lines = report.format_lines()
        assert "metric=accuracy" in lines
        assert "value=0.750000" in lines
        assert any(l.startswith("attack.kind=") for l in lines)
        import json

        parsed = json.loads(report.to_json())
        assert parsed["value"] == 0.75
        assert parsed["attack"]["kind"] == "fgm"
