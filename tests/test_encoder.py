"""Encoder tests: shapes, determinism, masking, weight sharing, oracles."""

import numpy as np
import pytest

from callab import autodiff as ad
from callab.autodiff import Tensor, derive_seed
from callab.encoder import (
    EncoderConfig,
    EncoderParams,
    classify,
    embed_tokens,
    encode_from_embeddings,
    forward_full,
    pool,
)
from callab.objectives import cross_entropy
from callab.text import Batch

from conftest import toy_setup


class TestConfig:
    def test_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            EncoderConfig(vocab_size=10, hidden=10, heads=4).validate()

    def test_dropout_range(self):
        with pytest.raises(ValueError, match="dropout"):
            EncoderConfig(vocab_size=10, dropout=1.0).validate()

    def test_roundtrip_dict(self):
        cfg = EncoderConfig(vocab_size=30, hidden=16, layers=1, heads=2,
                            ffn_dim=32, dropout=0.2, max_len=8, num_classes=3)
        assert EncoderConfig.from_dict(cfg.to_dict()) == cfg


class TestEmbedTokens:
    def test_output_shape(self):
        cfg, params, batch = toy_setup(batch=2, hidden=16, max_len=8, vocab_size=24)
        emb = embed_tokens(batch, params, dropout_seed=1, train_mode=True)
        assert emb.shape == (2, 8, 16)

    def test_same_seed_bit_identical(self):
        cfg, params, batch = toy_setup()
        a = embed_tokens(batch, params, dropout_seed=9, train_mode=True)
        b = embed_tokens(batch, params, dropout_seed=9, train_mode=True)
        np.testing.assert_array_equal(a.data, b.data)

    def test_different_seeds_differ_on_dropout_fraction(self):
        cfg, params, batch = toy_setup(batch=8, max_len=32, dropout=0.1, vocab_size=64)
        a = embed_tokens(batch, params, dropout_seed=1, train_mode=True)
        b = embed_tokens(batch, params, dropout_seed=2, train_mode=True)
        frac = float((a.data != b.data).mean())
        # positions differ where exactly one mask dropped: 2 * p * (1 - p)
        expect = 2 * 0.1 * 0.9
        n = a.data.size
        tol = 4 * np.sqrt(expect * (1 - expect) / n) + 0.01
        assert abs(frac - expect) < tol

    def test_id_out_of_range_rejected(self):
        cfg, params, batch = toy_setup(vocab_size=24)
        batch.token_ids[0, 1] = 24
        with pytest.raises(ValueError, match="out of range"):
            embed_tokens(batch, params, 0, False)


class TestEncodeFromEmbeddings:
    def test_row_permutation_equivariance(self):
        cfg, params, batch = toy_setup(batch=4, dropout=0.0)
        emb = embed_tokens(batch, params, 0, False)
        h = encode_from_embeddings(emb, batch.attn_mask, params, 0, False)
        perm = np.array([2, 0, 3, 1])
        batch2 = Batch(batch.token_ids[perm], batch.attn_mask[perm], labels=None)
        emb2 = embed_tokens(batch2, params, 0, False)
        h2 = encode_from_embeddings(emb2, batch2.attn_mask, params, 0, False)
        np.testing.assert_array_equal(h2.data, h.data[perm])

    def test_padding_invariance(self):
        cfg, params, batch = toy_setup(batch=3, max_len=8)
        emb = embed_tokens(batch, params, 0, False)
        h_ref = encode_from_embeddings(emb, batch.attn_mask, params, 0, False)
        poked = emb.data.copy()
        pad_rows, pad_cols = np.where(batch.attn_mask == 0)
        assert len(pad_rows) > 0
        poked[pad_rows, pad_cols, :] = 123.0
        h_poked = encode_from_embeddings(Tensor(poked), batch.attn_mask, params, 0, False)
        np.testing.assert_array_equal(h_ref.data, h_poked.data)

    def test_attention_block_against_hand_oracle(self):
        """1 layer, 1 head, H=4, two tokens: replicate the block in float64."""
        cfg = EncoderConfig(vocab_size=8, hidden=4, layers=1, heads=1,
                            ffn_dim=8, dropout=0.0, max_len=2, num_classes=0)
        params = EncoderParams.init_random(cfg, seed=5)
        rng = np.random.default_rng(3)
        emb_data = rng.standard_normal((1, 2, 4)).astype(np.float32)
        mask = np.ones((1, 2), dtype=np.float32)
        got = encode_from_embeddings(Tensor(emb_data), mask, params, 0, False).data[0]

        def p64(name):
            return params[name].data.astype(np.float64)

        x = emb_data[0].astype(np.float64)           # 2 x 4
        q = x @ p64("layer0.wq") + p64("layer0.bq")
        k = x @ p64("layer0.wk") + p64("layer0.bk")
        v = x @ p64("layer0.wv") + p64("layer0.bv")
        scores = q @ k.T / np.sqrt(4.0)
        probs = np.zeros((2, 2))
        for i in range(2):
            e = np.exp(scores[i] - scores[i].max())
            probs[i] = e / e.sum()
        ctx = probs @ v
        attn = ctx @ p64("layer0.wo") + p64("layer0.bo")

        def ln(z, g, b):
            mu = z.mean(axis=-1, keepdims=True)
            var = z.var(axis=-1, keepdims=True)
            return (z - mu) / np.sqrt(var + 1e-5) * g + b

        x1 = ln(x + attn, p64("layer0.ln1_g"), p64("layer0.ln1_b"))
        ffn = np.maximum(x1 @ p64("layer0.w1") + p64("layer0.b1"), 0.0)
        ffn = ffn @ p64("layer0.w2") + p64("layer0.b2")
        x2 = ln(x1 + ffn, p64("layer0.ln2_g"), p64("layer0.ln2_b"))
        np.testing.assert_allclose(got, x2[0], atol=1e-4)

    def test_width_mismatch_rejected(self):
        cfg, params, batch = toy_setup(hidden=16)
        bad = Tensor(np.zeros((2, 6, 8), dtype=np.float32))
        with pytest.raises(ValueError, match="width"):
            encode_from_embeddings(bad, batch.attn_mask, params, 0, False)

    def test_wider_than_max_len_rejected(self):
        cfg, params, batch = toy_setup(hidden=16, max_len=6)
        wide = Tensor(np.zeros((2, 7, 16), dtype=np.float32))
        mask = np.ones((2, 7), dtype=np.float32)
        with pytest.raises(ValueError, match="max_len"):
            encode_from_embeddings(wide, mask, params, 0, True)


class TestHeads:
    def test_pool_range_and_zero_case(self):
        cfg, params, batch = toy_setup()
        h = encode_from_embeddings(
            embed_tokens(batch, params, 0, False), batch.attn_mask, params, 0, False
        )
        z = pool(h, params)
        assert np.all(z.data > -1.0) and np.all(z.data < 1.0)
        params["pooler_w"].data[:] = 0
        params["pooler_b"].data[:] = 0
        np.testing.assert_array_equal(pool(h, params).data, 0.0)

    def test_classifier_uniform_logits_give_ln_c(self):
        cfg, params, batch = toy_setup(num_classes=4)
        params["cls_w"].data[:] = 0
        params["cls_b"].data[:] = 0
        h = encode_from_embeddings(
            embed_tokens(batch, params, 0, False), batch.attn_mask, params, 0, False
        )
        logits = classify(h, params)
        assert logits.shape == (2, 4)
        ce = cross_entropy(logits, np.array([1, 3]))
        np.testing.assert_allclose(ce.item(), np.log(4.0), atol=1e-6)

    def test_classifier_matches_affine_oracle(self):
        cfg, params, batch = toy_setup(num_classes=3)
        h = encode_from_embeddings(
            embed_tokens(batch, params, 0, False), batch.attn_mask, params, 0, False
        )
        got = classify(h, params).data
        want = h.data.astype(np.float64) @ params["cls_w"].data.astype(np.float64) \
            + params["cls_b"].data.astype(np.float64)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_classifier_requires_head(self):
        cfg, params, batch = toy_setup(num_classes=0)
        h = encode_from_embeddings(
            embed_tokens(batch, params, 0, False), batch.attn_mask, params, 0, False
        )
        with pytest.raises(ValueError, match="num_classes"):
            classify(h, params)


class TestForwardFull:
    def test_eval_mode_seed_independent(self):
        cfg, params, batch = toy_setup()
        a = forward_full(batch, params, seed=1, train_mode=False)
        b = forward_full(batch, params, seed=999, train_mode=False)
        np.testing.assert_array_equal(a.h.data, b.h.data)
        np.testing.assert_array_equal(a.logits.data, b.logits.data)

    def test_composition_matches_manual(self):
        cfg, params, batch = toy_setup()
        out = forward_full(batch, params, seed=4, train_mode=True)
        emb = embed_tokens(batch, params, derive_seed(4, "embed"), True)
        h = encode_from_embeddings(
            emb, batch.attn_mask, params, derive_seed(4, "encode"), True
        )
        np.testing.assert_array_equal(out.emb.data, emb.data)
        np.testing.assert_array_equal(out.h.data, h.data)
        np.testing.assert_array_equal(out.z.data, pool(h, params).data)

    def test_p_zero_views_identical(self):
        cfg, params, batch = toy_setup(dropout=0.0)
        a = forward_full(batch, params, seed=1, train_mode=True)
        b = forward_full(batch, params, seed=2, train_mode=True)
        np.testing.assert_array_equal(a.h.data, b.h.data)

    def test_weight_sharing_is_object_identity(self):
        cfg, params, batch = toy_setup()
        before = {name: id(t) for name, t in params.named()}
        forward_full(batch, params, seed=0, train_mode=True)
        forward_full(batch, params, seed=1, train_mode=True)
        after = {name: id(t) for name, t in params.named()}
        assert before == after  # every branch reads the same parameter objects

    def test_full_graph_gradient_check(self):
        cfg, params, batch = toy_setup(batch=2, seed=11)

        def f(_t):
            out = forward_full(batch, params, seed=8, train_mode=True)
            return cross_entropy(out.logits, batch.labels)

        rng = np.random.default_rng(0)
        for name in ("tok_emb", "layer0.wq", "layer0.w1", "cls_w", "emb_ln_g"):
            err = ad.grad_check(f, params[name], sample=5, rng=rng)
            assert err < 1e-3, f"{name}: {err}"
