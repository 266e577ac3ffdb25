"""Attack generator tests: norms, directions, guards, non-mutation."""

import numpy as np
import pytest

from callab.attacks import (
    AttackConfig,
    fgm_perturb,
    fgsm_perturb,
    gen_supervised_adv,
    gen_unsupervised_adv,
)
from callab.autodiff import derive_seed
from callab.encoder import classify, embed_tokens, encode_from_embeddings, pool
from callab.objectives import LossConfig, cross_entropy, info_nce
from conftest import toy_setup


class TestAttackConfig:
    def test_kind_checked(self):
        with pytest.raises(ValueError):
            AttackConfig(kind="pgd").validate()

    def test_epsilon_zero_allowed(self):
        AttackConfig(epsilon=0.0).validate()  # degenerate no-attack configs are legal

    def test_epsilon_negative_rejected(self):
        with pytest.raises(ValueError):
            AttackConfig(epsilon=-0.1).validate()

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), float("-inf")])
    def test_epsilon_non_finite_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            AttackConfig(epsilon=epsilon).validate()


class TestFgsm:
    def test_sign_definition(self):
        adv = fgsm_perturb(np.zeros(3), np.array([3.0, -2.0, 0.0]), 0.5)
        np.testing.assert_array_equal(adv, [0.5, -0.5, 0.0])

    def test_epsilon_zero(self, rng):
        emb = rng.standard_normal((2, 4)).astype(np.float32)
        np.testing.assert_array_equal(fgsm_perturb(emb, rng.standard_normal((2, 4)), 0.0), emb)

    def test_components_exhaustive(self, rng):
        grads = rng.standard_normal((500, 8)).astype(np.float32)
        grads[rng.random(grads.shape) < 0.15] = 0.0
        eps = 0.3
        delta = fgsm_perturb(np.zeros_like(grads), grads, eps)
        assert set(np.unique(delta)).issubset({np.float32(-eps), np.float32(0.0), np.float32(eps)})
        np.testing.assert_array_equal(delta == 0.0, grads == 0.0)
        assert np.abs(delta).max() <= eps

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            fgsm_perturb(np.zeros((2, 2)), np.zeros((2, 3)), 0.1)


class TestFgm:
    def test_unit_norm_gradient(self):
        g = np.zeros(4, dtype=np.float32)
        g[0] = 1.0
        adv = fgm_perturb(np.zeros(4), g, 0.1)
        np.testing.assert_allclose(adv, [0.1, 0, 0, 0], atol=1e-8)
        assert abs(np.linalg.norm(adv) - 0.1) < 1e-6

    def test_zero_gradient_guard(self):
        emb = np.ones((2, 3), dtype=np.float32)
        np.testing.assert_array_equal(fgm_perturb(emb, np.zeros((2, 3)), 0.3), emb)

    def test_norm_sweep_over_epsilon_grid(self, rng):
        grads = rng.standard_normal((1000, 6, 4)).astype(np.float32)
        emb = np.zeros_like(grads)
        for eps in (0.1, 0.2, 0.3, 0.4, 0.5):
            delta = fgm_perturb(emb, grads, eps)
            norms = np.sqrt((delta.astype(np.float64).reshape(1000, -1) ** 2).sum(axis=1))
            assert np.all(np.abs(norms - eps) <= 1e-6)

    def test_per_example_normalization(self, rng):
        # one example's gradient scale must not affect another's perturbation
        g = rng.standard_normal((2, 5)).astype(np.float32)
        g2 = g.copy()
        g2[1] *= 1000
        d1 = fgm_perturb(np.zeros((2, 5)), g, 0.2)
        d2 = fgm_perturb(np.zeros((2, 5)), g2, 0.2)
        np.testing.assert_allclose(d1[0], d2[0], atol=1e-7)

    def test_ascent_inner_product(self, rng):
        grads = rng.standard_normal((50, 7)).astype(np.float32)
        for eps in (0.1, 0.5):
            d_fgm = fgm_perturb(np.zeros_like(grads), grads, eps)
            d_fgsm = fgsm_perturb(np.zeros_like(grads), grads, eps)
            assert np.all((d_fgm * grads).sum(axis=1) >= 0)
            assert np.all((d_fgsm * grads).sum(axis=1) >= 0)


def _clean_ce(batch, params, seed):
    emb = embed_tokens(batch, params, derive_seed(seed, "embed"), False)
    h = encode_from_embeddings(
        emb, batch.attn_mask, params, derive_seed(seed, "encode"), False
    )
    return cross_entropy(classify(h, params), batch.labels).item()


class TestSupervisedAttack:
    def test_requires_labels(self):
        cfg, params, batch = toy_setup(num_classes=3)
        batch.labels = None
        with pytest.raises(ValueError, match="labels"):
            gen_supervised_adv(batch, params, AttackConfig(), seed=0)

    def test_small_epsilon_ascends(self):
        for i in range(20):
            cfg, params, batch = toy_setup(seed=200 + i)
            acfg = AttackConfig(kind="fgm", epsilon=1e-3)
            seed = derive_seed(3, i)
            adv = gen_supervised_adv(batch, params, acfg, seed, train_mode=False)
            ce_clean = _clean_ce(batch, params, seed)
            h_adv = encode_from_embeddings(
                adv.adv_emb, batch.attn_mask, params, derive_seed(seed, "encode"), False
            )
            ce_adv = cross_entropy(classify(h_adv, params), batch.labels).item()
            assert ce_adv >= ce_clean - 1e-6

    def test_fgm_delta_norm_equals_epsilon(self):
        cfg, params, batch = toy_setup(batch=4)
        adv = gen_supervised_adv(batch, params, AttackConfig(kind="fgm", epsilon=0.25), seed=1)
        norms = np.sqrt((adv.delta.astype(np.float64).reshape(4, -1) ** 2).sum(axis=1))
        np.testing.assert_allclose(norms, 0.25, atol=1e-6)

    def test_zero_epsilon_returns_clean(self):
        cfg, params, batch = toy_setup()
        adv = gen_supervised_adv(batch, params, AttackConfig(epsilon=0.0), seed=5, train_mode=False)
        np.testing.assert_array_equal(adv.delta, 0.0)
        emb = embed_tokens(batch, params, derive_seed(5, "embed"), False)
        np.testing.assert_array_equal(adv.adv_emb.data, emb.data)

    def test_never_mutates_params_or_grads(self):
        cfg, params, batch = toy_setup()
        sentinel = np.full_like(params["tok_emb"].data, 0.5)
        params["tok_emb"].grad = sentinel
        checksum = params.checksum()
        gen_supervised_adv(batch, params, AttackConfig(), seed=2)
        assert params.checksum() == checksum
        assert params["tok_emb"].grad is sentinel
        assert all(
            t.grad is None for n, t in params.named() if n != "tok_emb"
        )

    def test_determinism(self):
        cfg, params, batch = toy_setup()
        a = gen_supervised_adv(batch, params, AttackConfig(), seed=9)
        b = gen_supervised_adv(batch, params, AttackConfig(), seed=9)
        np.testing.assert_array_equal(a.adv_emb.data, b.adv_emb.data)


class TestUnsupervisedAttack:
    def test_single_item_batch_guard(self):
        cfg, params, batch = toy_setup(num_classes=0, batch=1)
        adv = gen_unsupervised_adv(
            batch, params, LossConfig(), AttackConfig(kind="fgm", epsilon=0.3),
            seed_view1=1, seed_view2=2,
        )
        # InfoNCE over one item is constant zero, so the gradient guard holds
        np.testing.assert_array_equal(adv.delta, 0.0)

    def test_p_zero_views_still_produce_full_norm(self):
        cfg, params, batch = toy_setup(num_classes=0, batch=4, dropout=0.0)
        adv = gen_unsupervised_adv(
            batch, params, LossConfig(), AttackConfig(kind="fgm", epsilon=0.3),
            seed_view1=1, seed_view2=2,
        )
        norms = np.sqrt((adv.delta.astype(np.float64).reshape(4, -1) ** 2).sum(axis=1))
        np.testing.assert_allclose(norms, 0.3, atol=1e-6)

    def test_small_epsilon_ascends_contrastive(self):
        for i in range(10):
            cfg, params, batch = toy_setup(num_classes=0, batch=4, seed=300 + i)
            lcfg = LossConfig()
            seed1, seed2 = derive_seed(7, i, 1), derive_seed(7, i, 2)
            adv = gen_unsupervised_adv(
                batch, params, lcfg, AttackConfig(kind="fgm", epsilon=1e-3),
                seed_view1=seed1, seed_view2=seed2, train_mode=True,
            )
            emb1 = embed_tokens(batch, params, derive_seed(seed1, "embed"), True)
            h1 = encode_from_embeddings(
                emb1, batch.attn_mask, params, derive_seed(seed1, "encode"), True
            )
            emb2 = embed_tokens(batch, params, derive_seed(seed2, "embed"), True)
            h2 = encode_from_embeddings(
                emb2, batch.attn_mask, params, derive_seed(seed2, "encode"), True
            )
            z1, z2 = pool(h1, params), pool(h2, params)
            ct_clean = info_nce(z1, z2, lcfg.temperature).item()
            h_adv = encode_from_embeddings(
                adv.adv_emb, batch.attn_mask, params, derive_seed(seed1, "encode"), True
            )
            ct_adv = info_nce(pool(h_adv, params), z2, lcfg.temperature).item()
            assert ct_adv >= ct_clean - 1e-6

    def test_never_mutates_params(self):
        cfg, params, batch = toy_setup(num_classes=0, batch=3)
        checksum = params.checksum()
        gen_unsupervised_adv(
            batch, params, LossConfig(), AttackConfig(), seed_view1=1, seed_view2=2
        )
        assert params.checksum() == checksum

    def test_never_touches_grads(self):
        cfg, params, batch = toy_setup(num_classes=0, batch=3)
        sentinels = {name: np.full_like(t.data, 0.5) for name, t in params.named()}
        for name, t in params.named():
            t.grad = sentinels[name]
        gen_unsupervised_adv(
            batch, params, LossConfig(), AttackConfig(), seed_view1=1, seed_view2=2
        )
        for name, t in params.named():
            assert t.grad is sentinels[name], name
            np.testing.assert_array_equal(t.grad, 0.5)
