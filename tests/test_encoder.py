"""Encoder tests: setting domains, shapes, determinism, masking, weight sharing, oracles."""

from dataclasses import fields

import numpy as np
import pytest

from callab import autodiff as ad
from callab.attacks import AttackConfig
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
from callab.objectives import LossConfig, cross_entropy
from callab.text import Batch
from callab.trainer import TrainConfig

from conftest import attention_chain, linear_chain, toy_setup


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


BELOW_0, BELOW_1 = np.nextafter(0.0, -1.0), np.nextafter(1.0, 0.0)
# every field of the four configs: the edge values it takes, the ones it refuses
DOMAINS = {
    (EncoderConfig, "vocab_size"): ([5], [4]),
    (EncoderConfig, "hidden"): ([1], [0, 32.0]),
    (EncoderConfig, "layers"): ([1], [0]),
    (EncoderConfig, "heads"): ([1], [0]),
    (EncoderConfig, "ffn_dim"): ([1], [0]),
    (EncoderConfig, "dropout"): ([0, 0.0, BELOW_1], [BELOW_0, 1.0, np.nan]),
    (EncoderConfig, "max_len"): ([1], [0]),
    (EncoderConfig, "num_classes"): ([0], [-1]),
    (TrainConfig, "mode"): (["scal", "uscal", "ce", "views"], ["sgd", ""]),
    (TrainConfig, "lr"): ([5e-324], [0.0, np.inf, "1e-3"]),
    (TrainConfig, "weight_decay"): ([0.0], [BELOW_0, np.inf]),
    (TrainConfig, "warmup_ratio"): ([0.0, BELOW_1], [BELOW_0, 1.0]),
    (TrainConfig, "batch_size"): ([1], [0, 2.5]),
    (TrainConfig, "max_epochs"): ([1], [0]),
    (TrainConfig, "max_steps"): ([0], [-1]),
    (TrainConfig, "early_stop_patience"): ([0], [-1]),
    (TrainConfig, "eval_interval_steps"): ([1], [0]),
    (TrainConfig, "seed"): ([-(2**63), 0, 2**64], [1.0]),
    (TrainConfig, "alpha"): ([0.0, 1.0], [BELOW_0, np.nextafter(1.0, 2.0)]),
    (TrainConfig, "epsilon"): ([0.0], [BELOW_0, np.inf]),
    (TrainConfig, "temperature"): ([5e-324], [0.0, np.nan]),
    (TrainConfig, "attack_kind"): (["fgsm", "fgm"], ["pgd"]),
    (TrainConfig, "negative_mode"): (["adv-keys", "clean-keys"], ["bogus"]),
    (TrainConfig, "dev_metric"): (["accuracy", "f1", "mcc"], ["spearman", "bleu"]),
    (TrainConfig, "grad_clip"): ([0.0], [BELOW_0, np.nan]),
    (LossConfig, "temperature"): ([5e-324], [0.0, np.inf]),
    (LossConfig, "alpha"): ([0.0, 1.0], [BELOW_0, np.nextafter(1.0, 2.0)]),
    (LossConfig, "negative_mode"): (["adv-keys", "clean-keys"], ["bogus"]),
    (AttackConfig, "kind"): (["fgsm", "fgm"], ["pgd"]),
    (AttackConfig, "epsilon"): ([0.0], [BELOW_0, np.inf, -np.inf]),
}


def _config(cls, **values):
    """``cls`` with ``values``, on settings that meet its cross-field rules."""
    if cls is EncoderConfig:
        values = {"vocab_size": 10, "heads": 1, **values}
    if cls is TrainConfig and values.get("mode") in ("uscal", "views"):
        values["dev_metric"] = "spearman"
    return cls(**values)


class TestSettingDomains:
    def test_every_field_is_listed(self):
        configs = (EncoderConfig, TrainConfig, LossConfig, AttackConfig)
        assert set(DOMAINS) == {(cls, f.name) for cls in configs for f in fields(cls)}

    @pytest.mark.parametrize("cls, name", DOMAINS, ids=[f"{c.__name__}.{n}" for c, n in DOMAINS])
    def test_validate_takes_the_domain_and_refuses_the_rest_naming_the_field(self, cls, name):
        """Each edge inside the domain passes; each edge outside it, a value of
        the wrong type, ``None`` and a ``bool`` are a ``ValueError`` naming the field."""
        takes, refuses = DOMAINS[cls, name]
        for value in takes:
            _config(cls, **{name: value}).validate()
        for value in (*refuses, None, True):
            with pytest.raises(ValueError, match=f"config field '{name}'"):
                _config(cls, **{name: value}).validate()


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

    def test_mask_shape_mismatch_rejected(self):
        cfg, params, batch = toy_setup(hidden=16, max_len=6)
        emb = Tensor(np.zeros((2, 5, 16), dtype=np.float32))
        with pytest.raises(ValueError, match=r"\(2, 6\).*\(2, 5\)"):
            encode_from_embeddings(emb, batch.attn_mask, params, 0, False)

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

    @pytest.mark.parametrize("layers", [1, 2])
    def test_full_graph_gradient_check(self, layers):
        # with 2 layers the first runs at full width and the last at [CLS] alone
        cfg, params, batch = toy_setup(batch=2, seed=11, layers=layers)

        def f(_t):
            out = forward_full(batch, params, seed=8, train_mode=True)
            return cross_entropy(out.logits, batch.labels)

        rng = np.random.default_rng(0)
        names = ("tok_emb", "layer0.wq", "layer0.w1", "cls_w", "emb_ln_g")
        if layers == 2:
            names += ("layer1.wq", "layer1.wk", "layer1.wv", "layer1.w1")
        for name in names:
            err = ad.grad_check(f, params[name], sample=5, rng=rng)
            assert err < 1e-3, f"{name}: {err}"


def _encode_full_width(emb, attn_mask, params, dropout_seed, train_mode):
    """Reference stack: every layer at all positions, op by op, then position 0."""
    cfg = params.config
    b, l, h = emb.shape
    full_act = (b, cfg.max_len, h)
    full_probs = (b, cfg.heads, cfg.max_len, cfg.max_len)

    x = emb
    for i in range(cfg.layers):
        p = f"layer{i}."
        lseed = derive_seed(dropout_seed, "layer", i)
        q = linear_chain(x, params[p + "wq"], params[p + "bq"])
        k = linear_chain(x, params[p + "wk"], params[p + "bk"])
        v = linear_chain(x, params[p + "wv"], params[p + "bv"])
        ctx = attention_chain(q, k, v, attn_mask, cfg.heads, ad.dropout_mask(
            derive_seed(lseed, "attn_probs"), (b, cfg.heads, l, l), cfg.dropout, train_mode,
            full_probs))
        attn_out = ad.dropout_apply(
            linear_chain(ctx, params[p + "wo"], params[p + "bo"]),
            ad.dropout_mask(derive_seed(lseed, "attn_out"), (b, l, h), cfg.dropout, train_mode,
                            full_act),
        )
        x = ad.layer_norm(ad.add(x, attn_out), params[p + "ln1_g"], params[p + "ln1_b"])
        ffn = linear_chain(ad.relu(linear_chain(x, params[p + "w1"], params[p + "b1"])),
                           params[p + "w2"], params[p + "b2"])
        ffn = ad.dropout_apply(ffn, ad.dropout_mask(derive_seed(lseed, "ffn"), (b, l, h),
                                                    cfg.dropout, train_mode, full_act))
        x = ad.layer_norm(ad.add(x, ffn), params[p + "ln2_g"], params[p + "ln2_b"])
    return ad.reshape(ad.first_position(x), (b, h))


DEMO = dict(hidden=32, layers=1, heads=2, ffn_dim=64, max_len=16)
DEFAULT = dict(hidden=64, layers=2, heads=4, ffn_dim=256, max_len=32)


def _padded_batch(size, rows=8, seed=5):
    """Mixed-length rows (some padded) trimmed below max_len, [CLS] first."""
    rng = np.random.default_rng(seed)
    width = size["max_len"] - 3
    lens = rng.integers(2, width + 1, size=rows)
    lens[0] = width
    ids = rng.integers(4, 40, size=(rows, width))
    ids[:, 0] = 2
    mask = (np.arange(width)[None, :] < lens[:, None]).astype(np.float32)
    ids[mask == 0] = 0
    return Batch(ids, mask, labels=None)


class TestClsOnlyLastLayer:
    """The last layer computes [CLS] alone, equal to the full-width stack at position 0."""

    @staticmethod
    def _run(encode, size, train_mode):
        cfg = EncoderConfig(vocab_size=40, dropout=0.1, num_classes=0, **size)
        params = EncoderParams.init_random(cfg, seed=3)
        batch = _padded_batch(size)
        assert batch.attn_mask.min() == 0.0
        weights = Tensor(np.random.default_rng(9).standard_normal((8, size["hidden"])))
        with ad.Tape():
            emb = embed_tokens(batch, params, 4, train_mode)
            h = encode(emb, batch.attn_mask, params, 21, train_mode)
            ad.backward(ad.sum_all(ad.mul(h, weights)))
        # the pooler is off this graph and has no gradient
        grads = {name: t.grad for name, t in params.named() if not name.startswith("pooler")}
        grads["emb"] = emb.grad
        return h.data, grads

    @pytest.mark.parametrize("size", [DEMO, DEFAULT], ids=["demo", "default"])
    @pytest.mark.parametrize("train_mode", [True, False], ids=["train", "eval"])
    def test_matches_full_width_reference(self, size, train_mode):
        h, grads = self._run(encode_from_embeddings, size, train_mode)
        h_ref, grads_ref = self._run(_encode_full_width, size, train_mode)
        assert h.tobytes() == h_ref.tobytes()
        for name, g_ref in grads_ref.items():
            if name.endswith(".bk"):
                # zero in exact arithmetic: q.bk shifts a whole score row,
                # which softmax ignores; both sides carry rounding noise only
                assert np.abs(g_ref).max() < 1e-9 and np.abs(grads[name]).max() < 1e-9
                continue
            tol = 1e-5 * np.abs(g_ref).max()
            assert tol > 0, name
            np.testing.assert_allclose(grads[name], g_ref, rtol=0, atol=tol, err_msg=name)

    def test_last_layer_products_have_one_row_per_sentence(self, monkeypatch):
        cfg = EncoderConfig(vocab_size=40, dropout=0.1, num_classes=3, **DEFAULT)
        params = EncoderParams.init_random(cfg, seed=3)
        batch = _padded_batch(DEFAULT)
        b, l = batch.token_ids.shape
        by_weight = {id(t): name for name, t in params.named()}
        rows = {}
        real_linear = ad.linear

        def recording_linear(x, w, bias):
            rows[by_weight[id(w)]] = int(np.prod(x.shape[:-1]))
            return real_linear(x, w, bias)

        monkeypatch.setattr(ad, "linear", recording_linear)
        forward_full(batch, params, seed=1, train_mode=False)
        for name in ("wq", "wk", "wv", "wo", "w1", "w2"):
            assert rows["layer0." + name] == b * l, name
        for name in ("wq", "wo", "w1", "w2"):
            assert rows["layer1." + name] == b, name
        for name in ("wk", "wv"):
            assert rows["layer1." + name] == b * l, name
