"""Loss tests: cross-entropy, InfoNCE (both key modes), weighted totals."""

import math

import numpy as np
import pytest

from callab import autodiff as ad
from callab.autodiff import Tensor
from callab.objectives import (
    cross_entropy,
    info_nce,
    info_nce_split,
)
from callab.selfcheck import (
    check_info_nce_gradient,
    check_softmax_ce_gradient,
    info_nce_bruteforce,
)


class TestCrossEntropy:
    def test_uniform_logits(self):
        ce = cross_entropy(Tensor(np.zeros((3, 4))), np.array([0, 1, 2]))
        np.testing.assert_allclose(ce.item(), math.log(4), atol=1e-6)

    def test_saturated_correct_class(self):
        logits = np.zeros((2, 3), dtype=np.float32)
        logits[0, 1] = 1000.0
        logits[1, 2] = 1000.0
        ce = cross_entropy(Tensor(logits), np.array([1, 2]))
        assert ce.item() < 1e-6

    def test_matches_logsumexp_oracle(self, rng):
        logits = rng.standard_normal((5, 3)).astype(np.float32)
        labels = rng.integers(0, 3, size=5)
        got = cross_entropy(Tensor(logits), labels).item()
        x = logits.astype(np.float64)
        want = 0.0
        for i in range(5):
            want += -(x[i, labels[i]] - math.log(np.exp(x[i]).sum()))
        want /= 5
        assert abs(got - want) < 1e-6

    def test_row_constant_shift_invariance(self, rng):
        logits = rng.standard_normal((4, 5)).astype(np.float32)
        labels = rng.integers(0, 5, size=4)
        shift = rng.standard_normal((4, 1)).astype(np.float32)
        a = cross_entropy(Tensor(logits), labels).item()
        b = cross_entropy(Tensor(logits + shift), labels).item()
        assert abs(a - b) < 1e-6

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_gradient(self):
        assert check_softmax_ce_gradient() is None


class TestInfoNCE:
    def test_single_item_batch_is_zero(self, rng):
        a = Tensor(rng.standard_normal((1, 8)))
        assert info_nce(a, a, 0.05).item() == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_self_keys_closed_form(self):
        a = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        got = info_nce(a, a, 0.05).item()
        want = math.log(1.0 + math.exp(-1.0 / 0.05))  # = -log(e^20 / (e^20 + 1))
        assert abs(got - want) < 1e-6
        assert abs(want - 2.061e-9) < 1e-11

    def test_uniform_similarities_give_ln_b(self, rng):
        row = rng.standard_normal(6).astype(np.float32)
        same = Tensor(np.tile(row, (2, 1)))
        np.testing.assert_allclose(info_nce(same, same, 0.05).item(), math.log(2), atol=1e-6)

    def test_nonnegative_and_strictly_positive_for_b_gt_1(self, rng):
        for _ in range(20):
            b = int(rng.integers(2, 7))
            a = Tensor(rng.standard_normal((b, 5)))
            k = Tensor(rng.standard_normal((b, 5)))
            val = info_nce(a, k, 0.05).item()
            assert val > 0.0

    def test_matches_bruteforce_for_small_batches(self, rng):
        for b in range(1, 9):
            a = rng.standard_normal((b, 6)).astype(np.float32)
            k = rng.standard_normal((b, 6)).astype(np.float32)
            got = info_nce(Tensor(a), Tensor(k), 0.05).item()
            assert abs(got - info_nce_bruteforce(a, k, 0.05)) < 1e-6

    def test_joint_rotation_invariance(self, rng):
        b, h = 5, 6
        a = rng.standard_normal((b, h)).astype(np.float32)
        k = rng.standard_normal((b, h)).astype(np.float32)
        q, _ = np.linalg.qr(rng.standard_normal((h, h)))
        base = info_nce(Tensor(a), Tensor(k), 0.05).item()
        rotated = info_nce(Tensor(a @ q), Tensor(k @ q), 0.05).item()
        assert abs(base - rotated) < 1e-5

    def test_temperature_preserves_argmax(self, rng):
        a = ad.l2_normalize_rows(Tensor(rng.standard_normal((6, 8)))).data
        k = ad.l2_normalize_rows(Tensor(rng.standard_normal((6, 8)))).data
        sims = a @ k.T
        for tau in (0.05, 0.5, 5.0):
            soft = ad.softmax_rows(Tensor(sims / tau)).data
            np.testing.assert_array_equal(np.argmax(soft, axis=1), np.argmax(sims, axis=1))

    def test_zero_norm_row_warns_and_stays_finite(self, rng, caplog):
        a = rng.standard_normal((3, 4)).astype(np.float32)
        a[1] = 0.0
        with caplog.at_level("WARNING"):
            val = info_nce(Tensor(a), Tensor(a.copy()), 0.05).item()
        assert math.isfinite(val)
        assert any("zero-norm" in r.message for r in caplog.records)

    def test_gradient(self):
        assert check_info_nce_gradient() is None

    @pytest.mark.parametrize("temperature", [math.nan, math.inf, 0.0])
    def test_temperature_must_be_finite_and_positive(self, rng, temperature):
        a = Tensor(rng.standard_normal((3, 4)))
        with pytest.raises(ValueError, match="temperature"):
            info_nce(a, a, temperature)
        with pytest.raises(ValueError, match="temperature"):
            info_nce_split(a, a, a, temperature)

    def test_split_variant_matches_standard_when_keys_coincide(self, rng):
        a = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
        k = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
        merged = info_nce(a, k, 0.1).item()
        split = info_nce_split(a, k, k, 0.1).item()
        assert abs(merged - split) < 1e-6

    @staticmethod
    def _split_oracle(a, p, d, temperature):
        """The clean-keys loss as a float64 loop over anchors and keys."""
        def unit(row):
            row = row.astype(np.float64)
            return row / math.sqrt(float(row @ row))

        total = 0.0
        for i in range(a.shape[0]):
            sims = [float(unit(a[i]) @ unit(d[j])) / temperature for j in range(d.shape[0])]
            top = max(sims)
            lse = top + math.log(sum(math.exp(s - top) for s in sims))
            total += lse - float(unit(a[i]) @ unit(p[i])) / temperature
        return total / a.shape[0]

    @pytest.mark.parametrize("temperature", [0.05, 1.0])
    def test_split_variant_matches_a_float64_loop(self, rng, temperature):
        """Distinct positive and denominator keys, B = 1..8."""
        worst = 0.0
        for b in range(1, 9):
            for _ in range(5):
                a, p, d = (rng.standard_normal((b, 16)).astype(np.float32) for _ in range(3))
                got = info_nce_split(Tensor(a), Tensor(p), Tensor(d), temperature).item()
                worst = max(worst, abs(got - self._split_oracle(a, p, d, temperature)))
        assert worst < 2e-6

    @pytest.mark.parametrize("wrt", ["anchors", "pos_keys", "denom_keys"])
    def test_split_variant_gradient(self, wrt):
        rng = np.random.default_rng(17)
        args = {name: Tensor(rng.standard_normal((4, 8)), requires_grad=True)
                for name in ("anchors", "pos_keys", "denom_keys")}

        def f(t):
            return info_nce_split(**{**args, wrt: t}, temperature=0.05)

        assert ad.grad_check(f, args[wrt]) < 1e-4


class TestTotals:
    def test_seeded_step_report_recombines(self):
        from callab.trainer import TrainConfig, OptimizerState, train_step
        from conftest import toy_setup

        cfg, params, batch = toy_setup(num_classes=3, batch=4)
        tcfg = TrainConfig(mode="scal", lr=1e-3, alpha=0.3, epsilon=0.2, seed=0)
        opt = OptimizerState(params)
        report = train_step(batch, params, opt, tcfg, step_seed=7, lr_t=1e-3)
        want = 0.5 * (report.ce_clean + report.ce_adv) + 0.3 * report.contrastive
        assert abs(report.total - want) < 1e-6
