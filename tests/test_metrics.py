"""Metric implementations against brute-force oracles; evaluation helpers."""

import math

import numpy as np
import pytest

from callab.attacks import AttackConfig
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
from callab.encoder import forward_full
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
