"""AdamW optimization, the training step, epoch loop, and checkpoint persistence.

One driver, ``train_step``, runs all four modes through one ``loss_graph``
under one seed-derivation convention, so degenerate configs collapse onto
their baselines exactly:

* ``scal``:  0.5 * (CE_clean + CE_adv) + alpha * InfoNCE(z, z_adv)
* ``uscal``: InfoNCE(z1, z2) + alpha * InfoNCE(z1, z_adv)
* ``ce``:    plain cross-entropy fine-tuning (the supervised baseline)
* ``views``: dropout-only two-view contrastive training (unsupervised baseline)

``loss_graph`` is the one place a step is composed. Each baseline is the
clean prefix of its framework's graph. The adversarial branch consumes
``anchor_embedding + delta`` (the clean forward's or view 1's), where delta
is a constant from the framework's own attack, which ``loss_graph`` runs:
scal in a separate attack pass, uscal from the seam gradient of its clean
prefix on the step's own tape. Gradients therefore flow from both branches
into every shared parameter (embedding table included) while nothing
differentiates through the perturbation's construction. This module alone
says what a mode is: ``TRAIN_MODES``, ``SUPERVISED_MODES`` and the dev
metrics each can score.

``TrainConfig`` takes its alpha, epsilon, temperature, attack kind and
negative mode fields, default and domain, from ``LossConfig``/``AttackConfig``.
AdamW and clipping run over ``EncoderParams``' flat buffers: the weights, the
gathered gradients and the two float64 moment vectors share one layout, and
``adamw_step`` goes through them in ``ADAM_CHUNK``-element chunks in a
preallocated workspace, with the bytes of a per-tensor update.
Checkpoints hold parameters and run metadata only; ``save_checkpoint``
replaces its target atomically, and ``load_checkpoint`` parses each config
line by its field's type (``hidden=16.0`` is a ``CheckpointHeaderError``).
"""

from __future__ import annotations

import logging
import math
import os
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, TextIO

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, derive_seed
from .attacks import AttackConfig, gen_supervised_adv, seam_attack
from .encoder import (
    EncoderConfig,
    EncoderParams,
    check_settings,
    classify,
    encode_from_embeddings,
    forward_full,
    pool,
    setting,
    setting_of,
)
from .metrics import CLS_METRICS
from .objectives import (
    LossConfig,
    LossReport,
    cross_entropy,
    info_nce,
    info_nce_split,
)
from .text import Batch, Vocab, iter_batches

logger = logging.getLogger(__name__)

TRAIN_MODES = ("scal", "uscal", "ce", "views")
SUPERVISED_MODES = ("scal", "ce")  # trained on labels and scored by a CLS_METRICS name


class NonFiniteLossError(RuntimeError):
    """Raised when a step's total loss is NaN or infinite."""

    def __init__(self, step: int, value: float):
        super().__init__(f"non-finite total loss at step {step}: {value}")
        self.step = step


class SkippedStepsError(NonFiniteLossError):
    """Raised when ``MAX_CONSECUTIVE_SKIPS`` AdamW updates in a row were skipped."""

    def __init__(self, step: int, skipped: int):
        RuntimeError.__init__(
            self,
            f"{skipped} consecutive optimizer steps skipped on non-finite gradients "
            f"(last at step {step})",
        )
        self.step = step


@dataclass
class TrainConfig:
    mode: str = setting("scal", choices=TRAIN_MODES)
    lr: float = setting(3e-5, gt=0)
    weight_decay: float = setting(0.01, ge=0)
    warmup_ratio: float = setting(0.1, ge=0, lt=1)
    batch_size: int = setting(32, ge=1)
    max_epochs: int = setting(15, ge=1)
    max_steps: int = setting(0, ge=0)            # 0 = bounded by max_epochs only
    early_stop_patience: int = setting(3, ge=0)  # evaluations without improvement before stopping
    eval_interval_steps: int = setting(250, ge=1)
    seed: int = 42
    alpha: float = setting_of(LossConfig, "alpha")
    epsilon: float = setting_of(AttackConfig, "epsilon")
    temperature: float = setting_of(LossConfig, "temperature")
    attack_kind: str = setting_of(AttackConfig, "kind")
    negative_mode: str = setting_of(LossConfig, "negative_mode")
    dev_metric: str = "accuracy"
    grad_clip: float = setting(0.0, ge=0)        # global-norm clip; 0 disables ("faithful" mode)

    def validate(self) -> None:
        check_settings(self)
        dev_metrics = tuple(CLS_METRICS) if self.mode in SUPERVISED_MODES else ("spearman",)
        if self.dev_metric not in dev_metrics:
            raise ValueError(
                f"config field 'dev_metric': for mode {self.mode!r} expected one of "
                f"{', '.join(map(repr, dev_metrics))}, got {self.dev_metric!r}"
            )

    def loss_config(self) -> LossConfig:
        return LossConfig(
            temperature=self.temperature,
            alpha=self.alpha,
            negative_mode=self.negative_mode,
        )

    def attack_config(self) -> AttackConfig:
        return AttackConfig(kind=self.attack_kind, epsilon=self.epsilon)


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------

BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
# a run whose gradients stay non-finite this many steps in a row has diverged
MAX_CONSECUTIVE_SKIPS = 3
# elements per AdamW chunk: its three float64 workspace rows stay small
ADAM_CHUNK = 16384


class OptimizerState:
    """AdamW's moments, one float64 vector each (``m``, ``v``) laid out like
    ``params.flat``; the shared step counter; the number of updates skipped
    in a row on non-finite gradients; and the float64 workspace of one
    ``ADAM_CHUNK``-element chunk that ``adamw_step`` computes in."""

    def __init__(self, params: EncoderParams):
        n = params.flat.size
        self.t = 0
        self.skipped = 0
        self.m = np.zeros(n, dtype=np.float64)
        self.v = np.zeros(n, dtype=np.float64)
        self.work = np.empty((3, min(n, ADAM_CHUNK)), dtype=np.float64)


def adamw_step(
    params: EncoderParams,
    state: OptimizerState,
    lr_t: float,
    weight_decay: float,
) -> bool:
    """One decoupled-weight-decay Adam update from the tensors' ``grad`` fields.

    Missing grads count as zero. If any gradient is non-finite the whole step
    is skipped (parameters and step counter untouched) and a warning naming
    the first such tensor is logged. Returns whether the step was applied.

    The update runs over ``params.flat`` and the gathered gradient buffer in
    chunks of ``ADAM_CHUNK`` elements, in float64 in ``state.work``, and
    writes each chunk back into ``params.flat`` rounded to float32; every
    element sees the same operations in the same order as a per-tensor
    update, so the bytes do not depend on the chunking.
    """
    grads = params.gather_grads()
    n = grads.size
    for lo in range(0, n, ADAM_CHUNK):
        if not np.isfinite(grads[lo : lo + ADAM_CHUNK]).all():
            name = next(
                name for name, t in params.named()
                if t.grad is not None and not np.isfinite(t.grad).all()
            )
            logger.warning("adamw_step: non-finite gradient in %s; step skipped", name)
            return False
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for lo in range(0, n, ADAM_CHUNK):
        hi = min(lo + ADAM_CHUNK, n)
        m, v, p = state.m[lo:hi], state.v[lo:hi], params.flat[lo:hi]
        g, a, p64 = state.work[:, : hi - lo]
        g[...] = grads[lo:hi]
        m *= BETA1                                    # m = BETA1 m + (1 - BETA1) g
        m += np.multiply(g, 1.0 - BETA1, out=a)
        v *= BETA2                                    # v = BETA2 v + (1 - BETA2) g g
        np.multiply(g, 1.0 - BETA2, out=a)
        a *= g
        v += a
        np.divide(v, bc2, out=a)                      # update = m^ / (sqrt(v^) + eps) + wd p
        np.sqrt(a, out=a)
        a += ADAM_EPS
        update = np.divide(m, bc1, out=g)
        update /= a
        p64[...] = p
        update += np.multiply(p64, weight_decay, out=a)
        p64 -= np.multiply(update, lr_t, out=a)       # p = float32(p - lr update)
        p[...] = p64
    return True


def lr_at(step: int, total_steps: int, warmup_ratio: float, base_lr: float) -> float:
    """Linear warmup from 0 to base_lr, then linear decay back to 0."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    warmup_steps = int(warmup_ratio * total_steps)
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * step / warmup_steps
    if total_steps == warmup_steps:
        return base_lr
    return base_lr * (total_steps - step) / (total_steps - warmup_steps)


def clip_gradients(params: EncoderParams, max_norm: float) -> float:
    """Scale all grads so their global L2 norm is at most ``max_norm``.

    The squares sum in float64 tensor by tensor in ``named`` order; the
    scaling is one float32 pass over the gathered gradient buffer.
    """
    grads = params.gather_grads()
    total = 0.0
    for _, t in params.named():
        if t.grad is not None:
            total += float(np.square(t.grad, dtype=np.float64).sum())
    norm = math.sqrt(total)
    if norm > max_norm > 0:
        grads *= np.float32(max_norm / norm)
    return norm


# ---------------------------------------------------------------------------
# training steps
# ---------------------------------------------------------------------------


def loss_graph(
    mode: str,
    batch: Batch,
    params: EncoderParams,
    delta: Optional[np.ndarray],
    loss_cfg: LossConfig,
    step_seed: int,
    train_mode: bool,
    attack_cfg: Optional[AttackConfig] = None,
) -> tuple[Tensor, dict[str, Tensor]]:
    """Build one step's total loss on the active tape, the attack included.

    Returns ``(total, parts)``; ``parts`` maps ``LossReport`` field names to
    the loss terms. The clean prefix is the ``"clean"`` forward and its CE
    (scal, ce) or the ``"view1"``/``"view2"`` forwards and their InfoNCE
    (uscal, views); the baselines stop there. scal and uscal go on through
    one adversarial branch that starts at the anchor's (clean forward's or
    view 1's) embedding + ``delta``, so its gradients reach the embedding
    table while nothing differentiates through ``delta`` itself.

    Given no ``delta``, each framework attacks with ``attack_cfg``: scal
    first, on a tape of its own (``gen_supervised_adv``, its own ``"attack"``
    dropout draw); uscal from the seam gradient of its clean prefix on the
    active tape (d ct_views / d view-1 embedding, the value the standalone
    ``gen_unsupervised_adv`` computes, without encoding the views twice).
    Gradient checks pass a fixed ``delta``: finite differences would see one
    that moves with the parameters, the backward would not.
    """
    if mode in ("scal", "uscal") and delta is None and attack_cfg is None:
        raise ValueError(f"loss_graph: mode {mode!r} needs a delta or an attack_cfg")
    if mode == "scal" and delta is None:
        delta = gen_supervised_adv(
            batch, params, attack_cfg, derive_seed(step_seed, "attack"), train_mode
        ).delta
    if mode in SUPERVISED_MODES:
        anchor = forward_full(batch, params, derive_seed(step_seed, "clean"), train_mode)
        clean = cross_entropy(anchor.logits, batch.labels)
        parts = {"ce_clean": clean}
    else:
        anchor = forward_full(batch, params, derive_seed(step_seed, "view1"), train_mode)
        view2 = forward_full(batch, params, derive_seed(step_seed, "view2"), train_mode)
        clean = info_nce(anchor.z, view2.z, loss_cfg.temperature)
        parts = {"ct_views": clean}
    if mode in ("ce", "views"):
        return clean, parts
    if delta is None:
        delta = seam_attack(clean, anchor.emb, attack_cfg).delta

    adv_input = ad.add(anchor.emb, Tensor(delta))
    adv_seed = derive_seed(step_seed, "adv")
    h_adv = encode_from_embeddings(
        adv_input, batch.attn_mask, params, derive_seed(adv_seed, "encode"), train_mode
    )
    z_adv = pool(h_adv, params)
    if loss_cfg.negative_mode == "adv-keys":
        ct = info_nce(anchor.z, z_adv, loss_cfg.temperature)
    else:
        ct = info_nce_split(anchor.z, z_adv, anchor.z, loss_cfg.temperature)
    if mode == "scal":
        ce_adv = cross_entropy(classify(h_adv, params), batch.labels)
        parts.update(ce_adv=ce_adv, contrastive=ct)
        return ad.add(ad.scale(ad.add(clean, ce_adv), 0.5), ad.scale(ct, loss_cfg.alpha)), parts
    parts["ct_adv"] = ct
    return ad.add(clean, ad.scale(ct, loss_cfg.alpha)), parts


def train_step(
    batch: Batch,
    params: EncoderParams,
    opt: OptimizerState,
    tcfg: TrainConfig,
    step_seed: int,
    lr_t: float,
    step: int = 0,
) -> LossReport:
    """One update in ``tcfg.mode``: ``loss_graph`` (attack included), backward, clip, AdamW.

    Raises ``NonFiniteLossError`` naming ``step`` before the backward pass if
    the total is NaN or infinite. A skipped AdamW update (non-finite
    gradients) only warns, but the ``MAX_CONSECUTIVE_SKIPS``-th in a row
    raises ``SkippedStepsError``, a ``NonFiniteLossError``.
    """
    params.zero_grads()
    with ad.Tape():
        total, parts = loss_graph(
            tcfg.mode, batch, params, None, tcfg.loss_config(), step_seed, True,
            tcfg.attack_config(),
        )
        if not math.isfinite(total.item()):
            raise NonFiniteLossError(step, total.item())
        ad.backward(total)
        if tcfg.grad_clip > 0:
            clip_gradients(params, tcfg.grad_clip)
        if adamw_step(params, opt, lr_t, tcfg.weight_decay):
            opt.skipped = 0
        else:
            opt.skipped += 1
            if opt.skipped >= MAX_CONSECUTIVE_SKIPS:
                raise SkippedStepsError(step, opt.skipped)
    return LossReport(total=total.item(), **{k: v.item() for k, v in parts.items()})


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"CALCKPT1"
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    pass


class CheckpointMagicError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


class CheckpointShapeError(CheckpointError):
    pass


class CheckpointConfigError(CheckpointError):
    pass


class CheckpointHeaderError(CheckpointError):
    """The header is not valid UTF-8 or a line in it does not parse."""


@dataclass
class Checkpoint:
    config: EncoderConfig
    tensors: dict[str, np.ndarray]
    step: int = 0
    dev_metric_name: str = "accuracy"
    dev_metric_value: float = 0.0
    rng_seed: int = 0
    version: int = CHECKPOINT_VERSION

    @classmethod
    def from_params(
        cls,
        params: EncoderParams,
        step: int = 0,
        dev_metric_name: str = "accuracy",
        dev_metric_value: float = 0.0,
        rng_seed: int = 0,
    ) -> "Checkpoint":
        return cls(
            config=params.config,
            tensors=params.copy_values(),
            step=step,
            dev_metric_name=dev_metric_name,
            dev_metric_value=dev_metric_value,
            rng_seed=rng_seed,
        )

    def build_params(self) -> EncoderParams:
        """Parameters holding the checkpoint's arrays, in ``tensor_shapes`` order."""
        self.config.validate()
        params = EncoderParams(self.config, {
            name: Tensor(np.empty(shape, dtype=np.float32), requires_grad=True)
            for name, shape in EncoderParams.tensor_shapes(self.config).items()
        })
        params.load_values(self.tensors)
        return params


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    """Binary layout: magic, u32 header length, text header, float32 LE payloads.

    The file is written beside ``path`` and moved over it with ``os.replace``,
    so a failed write leaves any previous checkpoint at ``path`` untouched.
    """
    lines = [
        f"version={ckpt.version}",
        f"step={ckpt.step}",
        f"dev_metric_name={ckpt.dev_metric_name}",
        f"dev_metric_value={ckpt.dev_metric_value!r}",
        f"rng_seed={ckpt.rng_seed}",
        "[config]",
    ]
    for k, v in ckpt.config.to_dict().items():
        lines.append(f"{k}={v!r}")
    lines.append("[tensors]")
    for name, arr in ckpt.tensors.items():
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(f"{name} {arr.ndim} {dims}")
    header = ("\n".join(lines) + "\n").encode("utf-8")

    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", len(header)))
            fh.write(header)
            for arr in ckpt.tensors.values():
                fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path: str, expected_config: Optional[EncoderConfig] = None) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(CHECKPOINT_MAGIC) + 4:
        raise CheckpointTruncatedError(f"{path}: file too short for a checkpoint")
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointMagicError(
            f"{path}: bad magic {blob[:len(CHECKPOINT_MAGIC)]!r}, expected {CHECKPOINT_MAGIC!r}"
        )
    (header_len,) = struct.unpack_from("<I", blob, len(CHECKPOINT_MAGIC))
    header_start = len(CHECKPOINT_MAGIC) + 4
    if len(blob) < header_start + header_len:
        raise CheckpointTruncatedError(f"{path}: header truncated")
    # every parse failure of the header text (UnicodeDecodeError is a
    # ValueError) lands on CheckpointHeaderError naming the file
    meta: dict[str, str] = {}
    config_kv: dict[str, str] = {}
    directory: list[tuple[str, tuple[int, ...]]] = []
    section = "meta"
    try:
        header = blob[header_start : header_start + header_len].decode("utf-8")
        for line in header.splitlines():
            if not line:
                continue
            if line == "[config]":
                section = "config"
                continue
            if line == "[tensors]":
                section = "tensors"
                continue
            if section == "tensors":
                parts = line.split()
                name, rank = parts[0], int(parts[1])
                dims = tuple(int(d) for d in parts[2 : 2 + rank])
                directory.append((name, dims))
            else:
                key, _, value = line.partition("=")
                (meta if section == "meta" else config_kv)[key] = value

        version = int(meta.get("version", "-1"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"{path}: format version {version}, expected {CHECKPOINT_VERSION}"
            )
        config = EncoderConfig.from_dict(config_kv)
        step = int(meta.get("step", "0"))
        dev_metric_value = float(meta.get("dev_metric_value", "0.0"))
        rng_seed = int(meta.get("rng_seed", "0"))
    except (ValueError, IndexError, KeyError, OverflowError) as exc:
        raise CheckpointHeaderError(f"{path}: unreadable checkpoint header: {exc!r}") from exc

    expected_shapes = EncoderParams.tensor_shapes(config)
    for name, dims in directory:
        want = expected_shapes.get(name)
        if want is None:
            raise CheckpointShapeError(f"{path}: unexpected tensor {name!r} in directory")
        if dims != want:
            raise CheckpointShapeError(
                f"{path}: tensor {name} has shape {dims}, config expects {want}"
            )

    offset = header_start + header_len
    tensors: dict[str, np.ndarray] = {}
    for name, dims in directory:
        count = int(np.prod(dims)) if dims else 1
        nbytes = count * 4
        if offset + nbytes > len(blob):
            raise CheckpointTruncatedError(f"{path}: payload for {name} truncated")
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset).reshape(dims)
        offset += nbytes
        tensors[name] = arr.copy()

    missing = set(expected_shapes) - set(tensors)
    if missing:
        raise CheckpointShapeError(f"{path}: missing tensors {sorted(missing)}")
    if offset != len(blob):
        raise CheckpointError(
            f"{path}: {len(blob) - offset} unexpected bytes after the last tensor payload"
        )

    ckpt = Checkpoint(
        config=config,
        tensors=tensors,
        step=step,
        dev_metric_name=meta.get("dev_metric_name", "accuracy"),
        dev_metric_value=dev_metric_value,
        rng_seed=rng_seed,
    )
    if expected_config is not None and config != expected_config:
        raise CheckpointConfigError(
            f"{path}: embedded config {config.to_dict()} does not match expected "
            f"{expected_config.to_dict()}"
        )
    return ckpt


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class RunLog:
    """Optional sinks for per-step and per-evaluation lines (tab-separated)."""

    steps: Optional[TextIO] = None
    evals: Optional[TextIO] = None

    def log_step(self, step: int, lr: float, report: LossReport) -> None:
        if self.steps is None:
            return

        def fmt(x: Optional[float]) -> str:
            return "-" if x is None else f"{x:.6f}"

        self.steps.write(
            "\t".join(
                [
                    str(step),
                    f"{lr:.8g}",
                    fmt(report.total),
                    fmt(report.ce_clean),
                    fmt(report.ce_adv),
                    fmt(report.contrastive),
                    fmt(report.ct_views),
                    fmt(report.ct_adv),
                ]
            )
            + "\n"
        )

    def log_eval(self, step: int, metric: str, value: float) -> None:
        if self.evals is None:
            return
        self.evals.write(f"{step}\t{metric}\t{value:.6f}\n")


@dataclass
class TrainResult:
    best: Checkpoint
    history: list[tuple[int, str, float]] = field(default_factory=list)
    steps_run: int = 0
    reports: list[LossReport] = field(default_factory=list)


def planned_total_steps(n_examples: int, tcfg: TrainConfig) -> int:
    per_epoch = math.ceil(n_examples / tcfg.batch_size)
    total = per_epoch * tcfg.max_epochs
    if tcfg.max_steps > 0:
        total = min(total, tcfg.max_steps)
    return total


def train_loop(
    train_rows: Sequence,
    vocab: Vocab,
    params: EncoderParams,
    tcfg: TrainConfig,
    eval_fn: Callable[[EncoderParams], float],
    log: Optional[RunLog] = None,
    keep_reports: bool = False,
) -> TrainResult:
    """Epoch loop with periodic dev evaluation, early stopping, best tracking.

    ``eval_fn`` scores the current parameters on the dev set (higher is
    better). The best-scoring snapshot is kept; training stops after
    ``early_stop_patience`` was exceeded by consecutive non-improving
    evaluations, after ``max_steps``, or after ``max_epochs``.
    """
    tcfg.validate()
    if not train_rows:
        raise ValueError("train_loop: empty training set")
    total_steps = planned_total_steps(len(train_rows), tcfg)
    opt = OptimizerState(params)

    best_value = -math.inf
    best_ckpt: Optional[Checkpoint] = None
    history: list[tuple[int, str, float]] = []
    reports: list[LossReport] = []
    since_best = 0
    step = 0
    stop = False

    def evaluate(at_step: int) -> None:
        nonlocal best_value, best_ckpt, since_best, stop
        value = eval_fn(params)
        history.append((at_step, tcfg.dev_metric, value))
        if log:
            log.log_eval(at_step, tcfg.dev_metric, value)
        improved = value > best_value
        if improved:
            best_value = value
            best_ckpt = Checkpoint.from_params(
                params,
                step=at_step,
                dev_metric_name=tcfg.dev_metric,
                dev_metric_value=value,
                rng_seed=tcfg.seed,
            )
            since_best = 0
        else:
            since_best += 1
            if since_best > tcfg.early_stop_patience:
                stop = True

    for epoch in range(tcfg.max_epochs):
        for batch in iter_batches(
            train_rows, vocab, params.config.max_len, tcfg.batch_size, tcfg.seed, epoch
        ):
            lr_t = lr_at(step, total_steps, tcfg.warmup_ratio, tcfg.lr)
            step_seed = derive_seed(tcfg.seed, "step", step)
            report = train_step(batch, params, opt, tcfg, step_seed, lr_t, step=step)
            if keep_reports:
                reports.append(report)
            if log:
                log.log_step(step, lr_t, report)
            step += 1
            if step % tcfg.eval_interval_steps == 0:
                evaluate(step)
            if stop or step >= total_steps:
                break
        if stop or step >= total_steps:
            break

    if not history:
        evaluate(step)
    if best_ckpt is None:
        best_ckpt = Checkpoint.from_params(
            params,
            step=step,
            dev_metric_name=tcfg.dev_metric,
            dev_metric_value=best_value if math.isfinite(best_value) else 0.0,
            rng_seed=tcfg.seed,
        )
    return TrainResult(best=best_ckpt, history=history, steps_run=step, reports=reports)
