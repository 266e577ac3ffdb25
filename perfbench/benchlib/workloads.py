"""The benchmark's workloads and the measurement of one run.

Each workload is one user journey through the public callab API: set up
data, vocab and models; train an adversarial mode and its baseline for a
fixed number of steps with periodic dev evaluation; round-trip both best
checkpoints through ``save_checkpoint``/``load_checkpoint``; then the read
path: bulk ``encode_sentences`` and ``evaluate_under_attack``.

A run warms up with one short untimed journey, then repeats the journey in
rounds until ``--seconds`` is used up, each round from freshly initialised
models with a fixed step budget, so dev scores depend only on the seed and
every round must reproduce the first one's exactly. On a shared machine the
speed of a run switches between a fast and a slow state, about a third
apart, for seconds at a time. Repeating short rounds spreads every metric's
samples over the whole run instead of one stretch of it, and every timing
is a total over all rounds (a mean, not a median), so a metric moves in
proportion to the share of the run spent in the slow state instead of
jumping from one state to the other when that share crosses a half.
"""

from __future__ import annotations

import dataclasses
import math
import os
import resource
import statistics
from collections import Counter as Tally, defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

import numpy as np

import callab.metrics as callab_metrics
from callab.attacks import AttackConfig
from callab.encoder import EncoderConfig, EncoderParams
from callab.metrics import evaluate_classification, evaluate_similarity
from callab.synthdata import make_motif_task, make_paraphrase_corpus
from callab.text import build_vocab
from callab.trainer import (
    CheckpointError,
    NonFiniteLossError,
    RunLog,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train_loop,
)

from .stats import (
    END, NAME, PARENT, PHASE, START, self_times, step_times, tail_percentile,
)
from .tracing import OP_KINDS, Counters, Tracer, instrument, pad_fraction

ROLES = ("adv", "base")
ROBUST_ATTACK = AttackConfig(kind="fgm", epsilon=0.5)
ENCODE_CHUNK = 256      # sentences per timed encode_sentences call
ROBUST_CHUNK = 128      # rows per timed evaluate_under_attack call
PARA_DEV_PAIRS = 300    # similarity dev pairs: fewer make the Spearman score a noisy read of the seed
MIN_ROUNDS = 2          # untraced rounds at least, so the dev-score reproduction check always runs


@dataclass(frozen=True)
class Workload:
    name: str
    task: str                     # "motif" (supervised) or "para" (unsupervised)
    modes: tuple[str, str]        # (adv mode, base mode)
    encoder: dict                 # EncoderConfig fields other than vocab_size
    train: dict                   # TrainConfig fields shared by both modes
    steps: tuple[int, int]        # training steps per round (adv mode, base mode)
    bulk: int                     # sentences bulk-encoded per round
    robust_examples: int          # examples attacked per round
    setup_reps: int
    # ROADMAP's measured baseline, compared with the traced run's counts
    expected_tape_nodes: dict = field(default_factory=dict)
    expected_forwards: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        # Demo size: a step costs milliseconds, so per-op Python overhead in the
        # tape dominates; padding is about a quarter of positions.
        Workload(
            name="motif-demo",
            task="motif",
            modes=("scal", "ce"),
            encoder=dict(hidden=32, layers=1, heads=2, ffn_dim=64, dropout=0.1,
                         max_len=16, num_classes=2),
            train=dict(lr=2e-3, batch_size=32, max_epochs=100, eval_interval_steps=25,
                       early_stop_patience=99, seed=1, alpha=0.3, epsilon=0.3,
                       attack_kind="fgm", dev_metric="accuracy", grad_clip=1.0),
            steps=(150, 150),
            bulk=15000,
            robust_examples=3000,
            setup_reps=5,
            expected_tape_nodes={"adv": [59, 133], "base": [62]},
            expected_forwards={"adv": 3, "base": 1},
        ),
        # Default size: BLAS products and casts dominate a step; padding is more
        # than half of positions.
        Workload(
            name="para-default",
            task="para",
            modes=("uscal", "views"),
            encoder=dict(hidden=64, layers=2, heads=4, ffn_dim=256, dropout=0.1,
                         max_len=32, num_classes=0),
            train=dict(lr=1e-3, batch_size=32, max_epochs=100, eval_interval_steps=12,
                       early_stop_patience=99, seed=1, alpha=0.5, epsilon=0.3,
                       temperature=0.15, attack_kind="fgm", dev_metric="spearman",
                       grad_clip=1.0),
            # a base step costs under half an adv step: more base steps give both
            # modes about the same share of a run, so both sample it as well
            steps=(5, 12),
            bulk=1500,
            robust_examples=500,
            setup_reps=3,
            expected_tape_nodes={"adv": [109, 322]},
            expected_forwards={"adv": 5, "base": 2},
        ),
    )
}


@dataclass
class Data:
    train_rows: list
    vocab: object
    dev_eval: Callable[[EncoderParams], float]
    robust_rows: list             # labelled motif dev rows for evaluate_under_attack
    # attacked in place of the trained models when those have no classifier head
    robust_params: Optional[EncoderParams]
    bulk: list[str]               # sentences for bulk encoding
    enc_cfg: EncoderConfig


def setup(w: Workload, seed: int) -> tuple[Data, list[EncoderParams]]:
    """Generate inputs from ``seed``, build the vocab and init one model per mode."""
    motif_train, motif_dev = make_motif_task(2000, 500, seed=seed)
    if w.task == "motif":
        rows = motif_train
        vocab = build_vocab(r.text_a for r in motif_train)
        texts = [r.text_a for r in motif_train + motif_dev]
        dev_eval = lambda p: evaluate_classification(p, motif_dev, vocab, "accuracy").value
    else:
        rows, pairs = make_paraphrase_corpus(max(2000, w.bulk), PARA_DEV_PAIRS, seed=seed)
        vocab = build_vocab(rows + [r.text_a for r in motif_dev])
        texts = rows
        dev_eval = lambda p: evaluate_similarity(p, pairs, vocab).value
    bulk = [texts[i % len(texts)] for i in range(w.bulk)]
    enc_cfg = EncoderConfig(vocab_size=len(vocab), **w.encoder)
    params = init_models(enc_cfg, w)
    probe = None
    if enc_cfg.num_classes == 0:
        probe_cfg = EncoderConfig(vocab_size=len(vocab), **{**w.encoder, "num_classes": 2})
        probe = EncoderParams.init_random(probe_cfg, seed=w.train["seed"])
    return Data(rows, vocab, dev_eval, motif_dev, probe, bulk, enc_cfg), params


def init_models(enc_cfg: EncoderConfig, w: Workload) -> list[EncoderParams]:
    return [EncoderParams.init_random(enc_cfg, seed=w.train["seed"]) for _ in ROLES]


class Checks:
    """Output checks: counts of operations checked and of those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, attempted: int, failed: int, note: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(note)


class StepSink:
    """``RunLog.steps`` stand-in: records when each step's line is written."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.writes: list[float] = []
        self.tracer = tracer

    def write(self, line: str) -> None:
        self.writes.append(perf_counter())
        if self.tracer is not None:
            self.tracer.step += 1


def batch_sizes(n_rows: int, batch_size: int, steps: int) -> list[int]:
    """Rows in each of the first ``steps`` batches of the epoch loop (an epoch's last is short)."""
    per_epoch = math.ceil(n_rows / batch_size)
    return [min(batch_size, n_rows - (i % per_epoch) * batch_size) for i in range(steps)]


@dataclass
class ModeResult:
    """One mode's numbers, summed over the rounds of a pass."""

    steps: list = field(default_factory=list)    # seconds per step, dev eval excluded
    wall_s: float = 0.0                          # train_loop wall time, dev eval included
    eval_s: float = 0.0
    examples: int = 0
    dev_scores: list = field(default_factory=list)


@dataclass
class PassResult:
    roles: dict = field(default_factory=lambda: {r: ModeResult() for r in ROLES})
    rounds: int = 0
    sentences: int = 0
    encode_s: float = 0.0
    attacked: int = 0
    robust_s: float = 0.0
    save_s: float = 0.0
    load_s: float = 0.0
    checkpoint_bytes: int = 0


def _same_checkpoint(a, b) -> bool:
    return (
        a.tensors.keys() == b.tensors.keys()
        and all(a.tensors[k].tobytes() == b.tensors[k].tobytes() for k in a.tensors)
        and a.config == b.config
        and (a.step, a.dev_metric_name, a.dev_metric_value) == (b.step, b.dev_metric_name, b.dev_metric_value)
    )


def run_pass(
    w: Workload,
    data: Data,
    params: list[EncoderParams],
    deadline: float,
    min_rounds: int,
    work_dir: str,
    checks: Checks,
    counters: Counters,
    tracer: Optional[Tracer],
) -> PassResult:
    """Run journeys (train both modes, round-trip checkpoints, read path).

    Runs at least ``min_rounds``, then starts another only while the last
    round's duration still fits before ``deadline`` (a ``perf_counter`` time).
    """
    out = PassResult()
    with instrument(counters, tracer):
        while True:
            t0 = perf_counter()
            models = params if out.rounds == 0 else init_models(data.enc_cfg, w)
            if not _round(w, data, models, work_dir, checks, counters, tracer, out):
                break
            out.rounds += 1
            now = perf_counter()
            if out.rounds >= min_rounds and now + (now - t0) > deadline:
                break
    for role, mode in zip(ROLES, w.modes):
        scores = out.roles[role].dev_scores
        checks.record(len(scores), sum(v != scores[0] for v in scores),
                      f"{mode}: dev scores differ between identical rounds: {scores}")
    return out


def _round(
    w: Workload,
    data: Data,
    params: list[EncoderParams],
    work_dir: str,
    checks: Checks,
    counters: Counters,
    tracer: Optional[Tracer],
    out: PassResult,
) -> bool:
    """One journey, added into ``out``. False when an output check stopped it."""
    best = {}
    for role, mode, p, n in zip(ROLES, w.modes, params, w.steps):
        counters.phase = role
        sink = StepSink(tracer)
        evals: list[tuple[float, float]] = []

        def eval_fn(p_now, role=role):
            counters.phase = f"{role}-eval"
            span = tracer.begin("metrics.dev_eval") if tracer is not None else None
            t0 = perf_counter()
            value = data.dev_eval(p_now)
            evals.append((t0, perf_counter()))
            if span is not None:
                tracer.end(span)
            counters.phase = role
            return value

        tcfg = TrainConfig(mode=mode, max_steps=n, **w.train)
        skipped_before = counters.counts[role]["adamw.skipped"]
        start = perf_counter()
        try:
            result = train_loop(data.train_rows, data.vocab, p, tcfg, eval_fn,
                                log=RunLog(steps=sink), keep_reports=True)
        except NonFiniteLossError as exc:
            checks.record(1, 1, f"{mode}: {exc}")
            return False
        end = perf_counter()
        finite = sum(math.isfinite(rep.total) for rep in result.reports)
        checks.record(1, int(result.steps_run != n), f"{mode}: ran {result.steps_run} of {n} steps")
        checks.record(n, n - finite, f"{mode}: {n - finite} non-finite step losses")
        skipped = int(counters.counts[role]["adamw.skipped"] - skipped_before)
        checks.record(n, skipped, f"{mode}: AdamW skipped {skipped} of {n} steps")
        best[role] = result.best
        m = out.roles[role]
        m.steps += step_times(start, sink.writes, evals)
        m.wall_s += end - start
        m.eval_s += sum(e1 - e0 for e0, e1 in evals)
        m.examples += sum(batch_sizes(len(data.train_rows), tcfg.batch_size, n))
        m.dev_scores.append(result.best.dev_metric_value)

    counters.phase = "ckpt"
    loaded = {}
    out.checkpoint_bytes = 0
    for role in ROLES:
        path = os.path.join(work_dir, f"{w.name}-{os.getpid()}-{role}.ckpt")
        try:
            t0 = perf_counter()
            save_checkpoint(best[role], path)
            t1 = perf_counter()
            ckpt = load_checkpoint(path, expected_config=data.enc_cfg)
            t2 = perf_counter()
            out.checkpoint_bytes += os.path.getsize(path)
        except CheckpointError as exc:
            checks.record(1, 1, f"{role} checkpoint: {exc}")
            return False
        finally:
            if os.path.exists(path):
                os.remove(path)
        out.save_s += t1 - t0
        out.load_s += t2 - t1
        checks.record(1, int(not _same_checkpoint(best[role], ckpt)),
                      f"{role} checkpoint roundtrip differs")
        loaded[role] = ckpt.build_params()

    # Read path. Encode chunks and attacked chunks alternate, evenly spread,
    # so both throughputs sample the same stretch of the run. Calls go
    # through the module so traced runs see the wrappers.
    models = [data.robust_params] if data.robust_params else [loaded[r] for r in ROLES]
    chunks = [data.robust_rows[k : k + ROBUST_CHUNK]
              for k in range(0, len(data.robust_rows), ROBUST_CHUNK)]
    repeats = max(1, round(w.robust_examples / (len(models) * len(data.robust_rows))))
    encode_jobs = [data.bulk[k : k + ENCODE_CHUNK] for k in range(0, len(data.bulk), ENCODE_CHUNK)]
    robust_jobs = [(model, rows) for _ in range(repeats) for model in models for rows in chunks]
    jobs = [((i + 0.5) / len(encode_jobs), "encode", job) for i, job in enumerate(encode_jobs)]
    jobs += [((i + 0.5) / len(robust_jobs), "robust", job) for i, job in enumerate(robust_jobs)]
    for _, phase, job in sorted(jobs, key=lambda j: (j[0], j[1])):
        counters.phase = phase
        if phase == "encode":
            t0 = perf_counter()
            emb = callab_metrics.encode_sentences(loaded["adv"], job, data.vocab)
            out.encode_s += perf_counter() - t0
            n = len(job)
            out.sentences += n
            good = int(np.isfinite(emb).all(axis=1).sum()) if emb.shape == (n, data.enc_cfg.hidden) else 0
            checks.record(n, n - good, f"encode_sentences: {n - good} of {n} rows missing or non-finite")
        else:
            model, rows = job
            t0 = perf_counter()
            rep = callab_metrics.evaluate_under_attack(model, rows, data.vocab, ROBUST_ATTACK)
            out.robust_s += perf_counter() - t0
            out.attacked += len(rows)
            ok = rep.support == len(rows) and 0.0 <= rep.value <= 1.0
            checks.record(1, int(not ok), f"robust eval: {rep.support} rows, value {rep.value}")
    return True


def end_to_end(res: PassResult, setup_s: float) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {"setup_s": (setup_s, "s")}
    for role in ROLES:
        r = res.roles[role]
        m[f"train_examples_per_s.{role}"] = (r.examples / r.wall_s, "examples/s")
        m[f"step_ms_mean.{role}"] = (1000.0 * sum(r.steps) / len(r.steps), "ms")
    m["eval_sentences_per_s"] = (res.sentences / res.encode_s, "sentences/s")
    m["robust_eval_examples_per_s"] = (res.attacked / res.robust_s, "examples/s")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    for role in ROLES:
        m[f"dev_score.{role}"] = (res.roles[role].dev_scores[0], "score")
    return m


def per_layer(
    w: Workload, plain: PassResult, traced: PassResult, tracer: Tracer, counters: Counters
) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Layer metrics from the traced pass; tails and shares of wall time from the plain one.

    Totals that are not per step are per round: rounds are identical, so
    counts repeat exactly whatever number of rounds fitted into the run.
    """
    spans = tracer.spans
    durs = [s[END] - s[START] for s in spans]
    selfs = self_times(spans)
    by_key: dict[tuple[str, str], list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_key[s[NAME], s[PHASE]].append(i)
    m: dict[str, tuple[float, str]] = {}
    diffs: list[str] = []

    def total(name: str, phase: str, times: list[float] = durs) -> float:
        return sum(times[i] for i in by_key[name, phase])

    def count(name: str, phase: str) -> int:
        return len(by_key[name, phase])

    for role, mode in zip(ROLES, w.modes):
        r, p = traced.roles[role], plain.roles[role]
        n = len(r.steps)
        step_s = sum(r.steps)
        top = sum(durs[i] for i, s in enumerate(spans) if s[PHASE] == role and s[PARENT] < 0)
        tapes: dict[int, list[int]] = defaultdict(list)
        for step, phase, nodes in tracer.tapes:
            if phase == role:
                tapes[step].append(nodes)
        tape_shape = list(Tally(tuple(v) for v in tapes.values()).most_common(1)[0][0])
        c = counters.counts[role]
        fwd = count("encoder.encode_from_embeddings", role) / n
        m[f"autodiff.tapes_per_step.{role}"] = (len(tape_shape), "count")
        m[f"autodiff.tape_nodes_per_step.{role}"] = (sum(tape_shape), "count")
        m[f"autodiff.backward_s_per_step.{role}"] = (total("autodiff.backward", role) / n, "s")
        m[f"encoder.forwards_per_step.{role}"] = (fwd, "count")
        m[f"encoder.forward_s_per_step.{role}"] = (
            total("encoder.encode_from_embeddings", role) / n, "s")
        m[f"objectives.loss_s_per_step.{role}"] = (
            sum(total(f"objectives.{f}", role) for f in ("cross_entropy", "info_nce", "info_nce_split")) / n,
            "s")
        if role == "adv":
            attack = sum(total(f"attacks.{f}", role)
                         for f in ("gen_supervised_adv", "gen_unsupervised_adv"))
            m["attacks.attack_s_per_step.adv"] = (attack / n, "s")
            m["attacks.attack_share.adv"] = (attack / step_s, "ratio")
        m[f"trainer.traced_step_ms.{role}"] = (1000.0 * step_s / n, "ms")
        # too few steps for any tail: report the slowest step as the 100th percentile
        pct, tail = tail_percentile(p.steps) or (100, max(p.steps))
        m[f"trainer.step_ms_p50.{role}"] = (1000.0 * statistics.median(p.steps), "ms")
        m[f"trainer.step_ms_tail.{role}"] = (1000.0 * tail, "ms")
        m[f"trainer.step_ms_tail_pct.{role}"] = (pct, "pct")
        m[f"trainer.step_samples.{role}"] = (len(p.steps), "count")
        m[f"trainer.adamw_s_per_step.{role}"] = (total("trainer.adamw_step", role) / n, "s")
        m[f"trainer.adamw_applied_ratio.{role}"] = (
            c["adamw.applied"] / (c["adamw.applied"] + c["adamw.skipped"]), "ratio")
        m[f"trainer.clip_s_per_step.{role}"] = (total("trainer.clip_gradients", role) / n, "s")
        m[f"trainer.clip_fired_ratio.{role}"] = (c["clip.fired"] / c["clip.calls"], "ratio")
        m[f"trainer.loop_other_s_per_step.{role}"] = ((step_s - top) / n, "s")
        m[f"metrics.eval_share.{role}"] = (p.eval_s / p.wall_s, "ratio")

        want_nodes = w.expected_tape_nodes.get(role)
        if want_nodes is not None and tape_shape != want_nodes:
            diffs.append(f"{w.name} {mode}: tape nodes per step {tape_shape}, ROADMAP baseline {want_nodes}")
        want_fwd = w.expected_forwards.get(role)
        if want_fwd is not None and fwd != want_fwd:
            diffs.append(f"{w.name} {mode}: forwards per step {fwd}, ROADMAP baseline {want_fwd}")

    rounds = traced.rounds
    for kind in OP_KINDS:
        op, bwd = f"op:{kind}", f"bwd:{kind}"
        m[f"autodiff.op.{kind}.fwd_s"] = (sum(total(op, r, selfs) for r in ROLES) / rounds, "s")
        m[f"autodiff.op.{kind}.bwd_s"] = (sum(total(bwd, r) for r in ROLES) / rounds, "s")
        m[f"autodiff.op.{kind}.calls"] = (sum(count(op, r) for r in ROLES) // rounds, "count")
    m["autodiff.op.matmul.computed_flops"] = (
        sum(counters.counts[r]["matmul.flops"] for r in ROLES) / rounds, "flop")
    m["autodiff.op.matmul.computed_bytes"] = (
        sum(counters.counts[r]["matmul.bytes"] for r in ROLES) / rounds, "byte")

    encode_spans = [i for i, s in enumerate(spans) if s[NAME] == "text.encode_batch"]
    m["text.encode_batch_s"] = (sum(durs[i] for i in encode_spans) / rounds, "s")
    m["text.encode_batch.calls"] = (len(encode_spans) // rounds, "count")
    m["text.pad_fraction"] = (pad_fraction(counters), "ratio")
    m["encoder.eval_forward_s"] = (total("encoder.encode_from_embeddings", "encode") / rounds, "s")
    m["metrics.dev_eval_s"] = (
        sum(total("metrics.dev_eval", f"{r}-eval") for r in ROLES) / rounds, "s")
    m["metrics.encode_sentences_s"] = (total("metrics.encode_sentences", "encode") / rounds, "s")
    m["metrics.evaluate_under_attack_s"] = (
        total("metrics.evaluate_under_attack", "robust") / rounds, "s")
    m["metrics.attack_eval_forwards_per_batch"] = (
        count("encoder.encode_from_embeddings", "robust") / count("text.encode_batch", "robust"),
        "count")
    m["trainer.save_checkpoint_s"] = (traced.save_s / rounds, "s")
    m["trainer.load_checkpoint_s"] = (traced.load_s / rounds, "s")
    m["trainer.checkpoint_bytes"] = (traced.checkpoint_bytes, "byte")

    def rate(res: PassResult) -> float:
        return sum(res.roles[r].examples for r in ROLES) / sum(res.roles[r].wall_s for r in ROLES)

    m["trace.overhead_ratio"] = (rate(traced) / rate(plain), "ratio")
    return m, diffs


def run_workload(
    w: Workload, seed: int, seconds: float, trace: bool, work_dir: str, import_s: float = 0.0
) -> dict:
    """One benchmark run. Returns the result object plus ``notes``/``crosscheck`` extras.

    The untraced pass measures for ``seconds``. When a traced pass follows, the
    untraced one makes exactly ``MIN_ROUNDS`` rounds, so the step sample
    counts repeat, and the traced pass takes the rest of ``seconds``.
    """
    setup_times = []
    for _ in range(w.setup_reps):
        t0 = perf_counter()
        data, params = setup(w, seed)
        setup_times.append(perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    checks = Checks()
    # warm-up: one short untimed journey, whose outputs are checked all the same
    warm_w = dataclasses.replace(w, steps=(2, 2), robust_examples=1)
    warm_data = dataclasses.replace(data, bulk=data.bulk[:ENCODE_CHUNK],
                                    robust_rows=data.robust_rows[:ROBUST_CHUNK])
    warm_counters = Counters()
    with instrument(warm_counters, None):
        _round(warm_w, warm_data, init_models(data.enc_cfg, w), work_dir, checks, warm_counters,
               None, PassResult())
    start = perf_counter()
    plain = run_pass(w, data, params, start if trace else start + seconds, MIN_ROUNDS,
                     work_dir, checks, Counters(), None)
    extras: dict = {"notes": checks.notes}
    metrics: dict[str, tuple[float, str]] = {}
    if checks.failed == 0:
        if not trace:
            metrics = end_to_end(plain, setup_s)
        else:
            counters = Counters()
            tracer = Tracer(counters)
            traced = run_pass(w, data, init_models(data.enc_cfg, w), start + seconds, 1,
                              work_dir, checks, counters, tracer)
            for role in ROLES:
                same = traced.roles[role].dev_scores[:1] == plain.roles[role].dev_scores[:1]
                checks.record(1, int(not same), f"traced dev_score.{role} differs from the untraced run")
            if checks.failed == 0:
                metrics, extras["crosscheck"] = per_layer(w, plain, traced, tracer, counters)
                extras["tracer"] = tracer
    return {
        "correct": checks.failed == 0,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extras,
    }
