"""Miniature transformer text encoder with an explicit embedding seam.

The forward pass is split in two on purpose: ``embed_tokens`` produces the
token+position embeddings (the point where adversarial perturbations are
injected and where their driving gradients are read), and
``encode_from_embeddings`` runs the transformer stack from any embedding
matrix. The [CLS]-position hidden vector ``h`` is the sentence
representation; a dense+tanh pooler maps it to the contrastive space ``z``
and an affine head produces classification logits. Every projection is the
engine's fused ``linear``, every self-attention its fused ``attention`` and
every sublayer's dropout, residual add and layer norm its fused
``residual_norm``, one tape node each, so a layer records 10 nodes (12 in
the last, with its two [CLS] slices). Because nothing else of the last
layer is read, that layer computes K and V at every position and
everything else at [CLS] alone; the values equal position 0 of a
full-width layer.

All branches of a training step (clean, adversarial, both dropout views)
share one ``EncoderParams`` object, so one optimizer update is seen by all.
Its weights are views of one flat float32 buffer and its gradients gather
into a second one, so the optimizer and clipping run over two vectors.
"""

from __future__ import annotations

import math
import operator
from dataclasses import MISSING, Field, asdict, dataclass, field, fields
from typing import Iterator, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, derive_seed, rng_from_seed
from .text import Batch

# field annotations are strings under ``from __future__ import annotations``
FIELD_TYPES = {"int": int, "float": float, "str": str}
# the bounds a setting's domain may declare: each one's test, text and interval bracket
BOUNDS = {"ge": (operator.ge, ">=", "["), "gt": (operator.gt, ">", "("),
          "le": (operator.le, "<=", "]"), "lt": (operator.lt, "<", ")")}


def setting(default=MISSING, **domain) -> Field:
    """A dataclass field whose metadata is its domain: ``choices`` or bounds (``BOUNDS``)."""
    return field(default=default, metadata=domain)


def setting_of(cls: type, name: str) -> Field:
    """A new field with the default and the domain of ``cls``'s field ``name``."""
    f = cls.__dataclass_fields__[name]
    return setting(f.default, **f.metadata)


def parse_field(f: Field, value) -> int | float | str:
    """``value`` as the type of dataclass field ``f``, parsed from ``str(value)``.

    The one parse of a setting, for config files, flags and checkpoint
    headers alike: ``None``, a list, ``1.5`` or ``16.0`` for an int field,
    or a quoted number is a ``ValueError`` naming the field. Whether the
    value lies in the field's domain is ``check_settings``' to say.
    """
    parse = FIELD_TYPES[f.type]
    if isinstance(value, (str, int, float)):
        try:
            return parse(str(value))
        except ValueError:
            pass
    raise ValueError(f"config field {f.name!r}: cannot parse {value!r} as {f.type}")


def domain_text(f: Field) -> str:
    """The values field ``f`` takes: ``finite float in [0, 1)``, ``int >= 1``, ``one of 'a', 'b'``."""
    if "choices" in f.metadata:
        return "one of " + ", ".join(map(repr, f.metadata["choices"]))
    kind = "finite float" if f.type == "float" else f.type
    bounds = sorted((k, v) for k, v in f.metadata.items() if k in BOUNDS)  # lower bound first
    if len(bounds) == 2:
        (lo_kind, lo), (hi_kind, hi) = bounds
        return f"{kind} in {BOUNDS[lo_kind][2]}{lo}, {hi}{BOUNDS[hi_kind][2]}"
    return " ".join([kind, *(f"{BOUNDS[k][1]} {v}" for k, v in bounds)])


def check_settings(cfg):
    """``cfg``, a dataclass, once every field holds a value of its type (not a
    ``bool``; an int for a float), finite if a float, within its bounds or
    choices; else a ``ValueError`` naming the first field that does not."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        kind = FIELD_TYPES[f.type]
        if not (
            isinstance(value, (int, float) if kind is float else kind)
            and not isinstance(value, bool)
            and (kind is not float or math.isfinite(value))
            and value in f.metadata.get("choices", (value,))
            and all(BOUNDS[k][0](value, v) for k, v in f.metadata.items() if k in BOUNDS)
        ):
            raise ValueError(f"config field {f.name!r}: expected {domain_text(f)}, got {value!r}")
    return cfg


@dataclass
class EncoderConfig:
    vocab_size: int = setting(ge=5)  # the 4 reserved ids plus content
    hidden: int = setting(64, ge=1)
    layers: int = setting(2, ge=1)
    heads: int = setting(4, ge=1)
    ffn_dim: int = setting(256, ge=1)
    dropout: float = setting(0.1, ge=0, lt=1)
    max_len: int = setting(32, ge=1)
    num_classes: int = setting(0, ge=0)  # 0 = no classifier head (unsupervised use)

    def validate(self) -> None:
        check_settings(self)
        if self.hidden % self.heads != 0:
            raise ValueError(f"hidden ({self.hidden}) must be divisible by heads ({self.heads})")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        """Strict inverse of ``to_dict``: every field must be present and parse."""
        cfg = cls(**{f.name: parse_field(f, d[f.name]) for f in fields(cls)})
        cfg.validate()
        return cfg


class EncoderParams:
    """All learnable weights, addressable by name in a stable order.

    The weights live in one contiguous float32 array, ``flat``: each named
    tensor's ``data`` is a view of its segment, in ``tensors`` order (the
    ``tensor_shapes`` order for ``init_random``). ``grad_flat`` is the one
    float32 gradient buffer, laid out the same way, that ``gather_grads``
    fills. Write into ``data`` in place; a rebound ``data`` leaves ``flat``
    and the optimizer no longer sees it.
    """

    def __init__(self, config: EncoderConfig, tensors: dict[str, Tensor]):
        self.config = config
        self.tensors = tensors
        n = sum(t.data.size for t in tensors.values())
        self.flat = np.empty(n, dtype=np.float32)
        self.grad_flat = np.zeros(n, dtype=np.float32)
        self.grad_views: list[np.ndarray] = []
        lo = 0
        for t in tensors.values():
            hi = lo + t.data.size
            view = self.flat[lo:hi].reshape(t.data.shape)
            view[...] = t.data
            t.data = view
            self.grad_views.append(self.grad_flat[lo:hi].reshape(t.data.shape))
            lo = hi

    @staticmethod
    def tensor_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
        h, f = config.hidden, config.ffn_dim
        shapes: dict[str, tuple[int, ...]] = {
            "tok_emb": (config.vocab_size, h),
            "pos_emb": (config.max_len, h),
            "emb_ln_g": (h,),
            "emb_ln_b": (h,),
        }
        for i in range(config.layers):
            p = f"layer{i}."
            shapes[p + "wq"] = (h, h)
            shapes[p + "bq"] = (h,)
            shapes[p + "wk"] = (h, h)
            shapes[p + "bk"] = (h,)
            shapes[p + "wv"] = (h, h)
            shapes[p + "bv"] = (h,)
            shapes[p + "wo"] = (h, h)
            shapes[p + "bo"] = (h,)
            shapes[p + "ln1_g"] = (h,)
            shapes[p + "ln1_b"] = (h,)
            shapes[p + "w1"] = (h, f)
            shapes[p + "b1"] = (f,)
            shapes[p + "w2"] = (f, h)
            shapes[p + "b2"] = (h,)
            shapes[p + "ln2_g"] = (h,)
            shapes[p + "ln2_b"] = (h,)
        shapes["pooler_w"] = (h, h)
        shapes["pooler_b"] = (h,)
        if config.num_classes > 0:
            shapes["cls_w"] = (h, config.num_classes)
            shapes["cls_b"] = (config.num_classes,)
        return shapes

    @classmethod
    def init_random(cls, config: EncoderConfig, seed: int) -> "EncoderParams":
        """Gaussian(0, 0.02) weights, unit layer-norm gains, zero biases."""
        config.validate()
        tensors: dict[str, Tensor] = {}
        for name, shape in cls.tensor_shapes(config).items():
            rng = rng_from_seed(derive_seed(seed, "init", name))
            if name.endswith(("_g",)):
                data = np.ones(shape, dtype=np.float32)
            elif name.endswith(("_b", "bq", "bk", "bv", "bo", "b1", "b2", "pooler_b", "cls_b")):
                data = np.zeros(shape, dtype=np.float32)
            else:
                data = (rng.standard_normal(shape) * 0.02).astype(np.float32)
            tensors[name] = Tensor(data, requires_grad=True)
        return cls(config, tensors)

    def named(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self.tensors.items())

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def zero_grads(self) -> None:
        for t in self.tensors.values():
            t.grad = None

    def copy_values(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.tensors.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        """Copy ``values`` into the tensors' segments of ``flat``, rounded to float32."""
        for name, t in self.tensors.items():
            arr = values[name]
            if arr.shape != t.data.shape:
                raise ValueError(
                    f"parameter {name}: shape {arr.shape} does not match {t.data.shape}"
                )
            t.data[...] = arr

    def gather_grads(self) -> np.ndarray:
        """``grad_flat`` holding every tensor's ``grad``; a missing one reads as zeros.

        Each ``grad`` is copied into its segment once and rebound to the
        segment's view, so writes into ``grad_flat`` (clipping) reach the
        tensors and a second call copies nothing. A missing ``grad`` stays
        ``None``.
        """
        for t, view in zip(self.tensors.values(), self.grad_views):
            if t.grad is view:
                continue
            if t.grad is None:
                view.fill(0.0)
            else:
                view[...] = t.grad
                t.grad = view
        return self.grad_flat


def embed_tokens(
    batch: Batch, params: EncoderParams, dropout_seed: int, train_mode: bool
) -> Tensor:
    """Token + position embeddings, layer-normed and dropped out: B x L x H.

    This tensor is the attack seam; after a backward pass its ``grad`` holds
    the loss gradient that drives adversarial perturbations. ``L`` may be
    anything up to ``max_len``; every dropout mask in the encoder is drawn at
    ``max_len`` and cropped, so trimming a batch changes no value at its real
    positions.
    """
    cfg = params.config
    ids = batch.token_ids
    if ids.shape[1] > cfg.max_len:
        raise ValueError(
            f"sequence length {ids.shape[1]} exceeds max_len {cfg.max_len}"
        )
    if ids.max() >= cfg.vocab_size:
        raise ValueError(
            f"token id {int(ids.max())} out of range for vocab_size {cfg.vocab_size}"
        )
    mask = ad.dropout_mask(derive_seed(dropout_seed, "emb"), ids.shape + (cfg.hidden,),
                           cfg.dropout, train_mode, (ids.shape[0], cfg.max_len, cfg.hidden))
    tok = ad.embedding_lookup(params["tok_emb"], ids)
    pos = ad.slice_rows(params["pos_emb"], ids.shape[1])
    x = ad.add_bias(tok, pos)
    x = ad.layer_norm(x, params["emb_ln_g"], params["emb_ln_b"])
    return ad.dropout_apply(x, mask)


def encode_from_embeddings(
    emb: Tensor,
    attn_mask: np.ndarray,
    params: EncoderParams,
    dropout_seed: int,
    train_mode: bool,
) -> Tensor:
    """Run the transformer stack and return the [CLS]-position vectors (B x H).

    A layer is three ``linear`` projections, one fused ``attention`` over
    the keys ``attn_mask`` marks real, the ``wo`` projection, and a
    ``linear``-relu-``linear`` FFN, each sublayer's output dropped out,
    added to its input and layer-normed by one ``residual_norm``. Every
    layer but the last runs at all L positions. The last layer's output is
    read only at [CLS] (position 0), so it computes K and V at every
    position and everything else at position 0 alone: Q from a [CLS] slice
    of its input, attention at B x heads x 1 x L, then ``wo``, the residual
    (a second [CLS] slice), both layer norms and the FFN at B x 1 x H.
    Dropout masks are drawn at full shape and cropped to the leading
    corner, so every value equals position 0 of the full-width computation.
    """
    cfg = params.config
    b, l, h = emb.shape
    if h != cfg.hidden:
        raise ValueError(f"embedding width {h} does not match hidden {cfg.hidden}")
    if l > cfg.max_len:
        raise ValueError(f"sequence length {l} exceeds max_len {cfg.max_len}")
    full_act = (b, cfg.max_len, h)
    full_probs = (b, cfg.heads, cfg.max_len, cfg.max_len)
    # per layer, its attn_probs, attn_out and ffn masks, all made before the
    # stack runs, so the worker draws the large ones while it computes
    layer_masks = []
    for i in range(cfg.layers):
        lseed = derive_seed(dropout_seed, "layer", i)
        n = 1 if i == cfg.layers - 1 else l
        layer_masks.append([
            ad.dropout_mask(derive_seed(lseed, site), shape, cfg.dropout, train_mode, full)
            for site, shape, full in (("attn_probs", (b, cfg.heads, n, l), full_probs),
                                      ("attn_out", (b, n, h), full_act),
                                      ("ffn", (b, n, h), full_act))
        ])

    x = emb
    for i, (m_probs, m_out, m_ffn) in enumerate(layer_masks):
        p = f"layer{i}."
        last = i == cfg.layers - 1
        # slice Q's input before K and V and the residual after attention, so
        # the input's gradient sums in the same order as at full width
        x_q = ad.first_position(x) if last else x
        q = ad.linear(x_q, params[p + "wq"], params[p + "bq"])
        k = ad.linear(x, params[p + "wk"], params[p + "bk"])
        v = ad.linear(x, params[p + "wv"], params[p + "bv"])
        ctx = ad.attention(q, k, v, attn_mask, cfg.heads, m_probs)
        attn_out = ad.linear(ctx, params[p + "wo"], params[p + "bo"])
        x_res = ad.first_position(x) if last else x
        x = ad.residual_norm(x_res, attn_out, m_out, params[p + "ln1_g"], params[p + "ln1_b"])

        ffn = ad.linear(ad.relu(ad.linear(x, params[p + "w1"], params[p + "b1"])),
                        params[p + "w2"], params[p + "b2"])
        x = ad.residual_norm(x, ffn, m_ffn, params[p + "ln2_g"], params[p + "ln2_b"])

    # the last layer ran at [CLS] alone: B x 1 x H
    return ad.reshape(x, (b, h))


def pool(h: Tensor, params: EncoderParams) -> Tensor:
    """Dense + tanh projection into the contrastive space (B x H)."""
    return ad.tanh(ad.linear(h, params["pooler_w"], params["pooler_b"]))


def classify(h: Tensor, params: EncoderParams) -> Tensor:
    """Affine logits (B x C); softmax lives in the loss."""
    if params.config.num_classes < 2:
        raise ValueError(
            "classify: encoder was configured without a classifier head "
            f"(num_classes={params.config.num_classes})"
        )
    return ad.linear(h, params["cls_w"], params["cls_b"])


def embed_and_encode(
    batch: Batch, params: EncoderParams, seed: int, train_mode: bool
) -> tuple[Tensor, Tensor]:
    """The seam tensor and the [CLS] vectors h: ``forward_full`` without its heads.

    Readers that need only h or only the logits start here and skip the
    pooler; the seeds are ``forward_full``'s, so every value is its value.
    """
    emb = embed_tokens(batch, params, derive_seed(seed, "embed"), train_mode)
    h = encode_from_embeddings(
        emb, batch.attn_mask, params, derive_seed(seed, "encode"), train_mode
    )
    return emb, h


@dataclass
class ForwardOut:
    emb: Tensor
    h: Tensor
    z: Tensor
    logits: Optional[Tensor]


def forward_full(
    batch: Batch, params: EncoderParams, seed: int, train_mode: bool
) -> ForwardOut:
    """Compose embed -> encode -> pool (-> classify) under one seed namespace."""
    emb, h = embed_and_encode(batch, params, seed, train_mode)
    z = pool(h, params)
    logits = classify(h, params) if params.config.num_classes >= 2 else None
    return ForwardOut(emb, h, z, logits)
