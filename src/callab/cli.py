"""Command-line entry points: build-vocab, train, eval, embed, selfcheck.

Exit codes are stable: 0 success, 1 selfcheck property failure, 2 invalid
config, unusable input or unwritable output path, 3 non-finite training loss,
4 checkpoint/config mismatch. ``main`` alone maps errors to codes
(``EXIT_CODES``); the commands raise. Each input file is read by ``_read``,
whose errors name the file and its kind, and checked by its ``metrics`` rule,
all before a command writes anything. The environment variable CAL_SEED, an
integer, overrides the configured seed. Every training run directory is
self-describing: the resolved configuration plus the seed reproduce the run.

``RunConfig`` declares only the run's paths; its other fields, the ``train``
flags and their help, and ``config.resolved.txt`` derive from
``TrainConfig``/``EncoderConfig``, and every value is parsed by its field's
type and checked by its domain (``encoder.parse_field``, ``check_settings``).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
from dataclasses import dataclass, fields, make_dataclass
from typing import Callable

from .attacks import ATTACK_KINDS, AttackConfig
from .encoder import (FIELD_TYPES, EncoderConfig, EncoderParams, check_settings, domain_text,
                      parse_field, setting)
from .metrics import (
    CLS_METRICS,
    MetricError,
    MetricReport,
    check_nonempty,
    check_similarity_set,
    evaluate_classification,
    evaluate_similarity,
    evaluate_under_attack,
    encode_sentences,
)
from .selfcheck import run_selfcheck
from .text import (
    MIN_MAX_LEN,
    Vocab,
    build_vocab,
    load_similarity_tsv,
    load_supervised_tsv,
    load_unsupervised_lines,
)
from .trainer import (
    SUPERVISED_MODES,
    Checkpoint,
    CheckpointError,
    NonFiniteLossError,
    RunLog,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train_loop,
)

EXIT_OK = 0
EXIT_SELFCHECK = 1
EXIT_BAD_INPUT = 2
EXIT_NONFINITE = 3
EXIT_CKPT_MISMATCH = 4


class InputError(Exception):
    """A config value, input file or flag combination a command cannot use."""


# The exit-code policy, read by main alone. An error of any other kind, such
# as a ValueError from an engine bug, ends in a traceback.
EXIT_CODES = {
    InputError: EXIT_BAD_INPUT,
    OSError: EXIT_BAD_INPUT,  # also an output path that cannot be written
    MetricError: EXIT_BAD_INPUT,
    NonFiniteLossError: EXIT_NONFINITE,
    CheckpointError: EXIT_CKPT_MISMATCH,
}


@dataclass
class _RunPaths:
    """Dataset and output paths; ``RunConfig`` adds every ``TrainConfig`` and
    ``EncoderConfig`` field, default and domain but ``vocab_size`` (the vocab
    file sets it), each domain narrowed by ``_RUN_DOMAINS``."""

    train_file: str = ""
    dev_file: str = ""
    vocab_file: str = ""
    out_dir: str = "run"

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        """Parse a flat key=value file; JSON is accepted as an alternative."""
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        values: dict[str, str] = {}
        if text.lstrip().startswith("{"):
            values = {str(k): v for k, v in json.loads(text).items()}
        else:
            for lineno, line in enumerate(text.splitlines(), start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
                values[key.strip()] = value.strip()
        return cls().with_overrides(values)

    def with_overrides(self, values: dict) -> "RunConfig":
        """Copy with ``values`` applied, each parsed by ``encoder.parse_field``,
        and every field then checked by ``encoder.check_settings``.

        File lines, JSON values and flags all take this one path, so a JSON
        ``null``, a list, ``1.5`` for an int field or a value outside its
        field's domain is a ``ValueError`` naming the key, never a silent
        coercion.
        """
        by_name = {f.name: f for f in fields(self)}
        for key in values:
            if key not in by_name:
                raise ValueError(f"unknown config field {key!r}")
        parsed = {key: parse_field(by_name[key], value) for key, value in values.items()}
        return check_settings(dataclasses.replace(self, **parsed))

    def resolved_text(self) -> str:
        lines = [f"{f.name}={getattr(self, f.name)}" for f in fields(self)]
        return "\n".join(lines) + "\n"

    def _copy_into(self, cls: type, **given):
        shared = {f.name: getattr(self, f.name) for f in fields(cls) if f.name not in given}
        return cls(**shared, **given)

    def encoder_config(self, vocab_size: int) -> EncoderConfig:
        return self._copy_into(EncoderConfig, vocab_size=vocab_size)

    def train_config(self) -> TrainConfig:
        return self._copy_into(TrainConfig)


# a run reads text rows, each at least [CLS], one token and [SEP] long
_RUN_DOMAINS = {"max_len": {"ge": MIN_MAX_LEN}}

RunConfig = make_dataclass(
    "RunConfig",
    [
        (f.name, f.type, setting(f.default, **{**f.metadata, **_RUN_DOMAINS.get(f.name, {})}))
        for f in (*fields(TrainConfig), *fields(EncoderConfig))
        if f.name != "vocab_size"
    ],
    bases=(_RunPaths,),
    namespace={"__module__": __name__, "__doc__": "Flat union of run paths and settings."},
)


def _apply_env_seed(cfg: RunConfig) -> RunConfig:
    env = os.environ.get("CAL_SEED")
    if env is None:
        return cfg
    try:
        return dataclasses.replace(cfg, seed=int(env))
    except ValueError:
        raise InputError(f"CAL_SEED must be an integer, got {env!r}") from None


def _checked(config):
    """``config`` once its ``validate()`` passes; a refusal is an ``InputError``."""
    try:
        config.validate()
    except ValueError as exc:
        raise InputError(f"invalid config: {exc}") from None
    return config


def _read(kind: str, path: str, loader: Callable, rule: Callable | None = None):
    """``loader(path)``, then the ``metrics`` ``rule`` on what it returns. The one
    reader of every input file: a file that cannot be opened, decoded or parsed,
    or that breaks its rule, is an error naming ``kind`` and ``path``."""
    try:
        data = loader(path)
    except (OSError, ValueError) as exc:  # UnicodeDecodeError, DataFormatError are ValueErrors
        raise InputError(f"cannot read {kind} {path!r}: {exc}") from None
    if rule is not None:
        rule(data, f"{kind} {path!r}")
    return data


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_build_vocab(args: argparse.Namespace) -> int:
    corpus = _read("corpus", args.corpus, load_unsupervised_lines, check_nonempty)
    vocab = build_vocab(corpus, min_freq=args.min_freq)
    vocab.save(args.out)
    print(f"wrote {len(vocab)} ids ({len(vocab) - 4} tokens + 4 reserved) to {args.out}")
    return EXIT_OK


def _load_run_config(args: argparse.Namespace) -> tuple[RunConfig, list]:
    """Defaults, ``--config``, flags, ``CAL_SEED``, then the two settings a run derives:
    a supervised run left at ``num_classes=0`` counts its train labels, which
    must then be exactly 0..K-1, and a similarity run has no classifier and
    evaluates ``spearman``, not ``accuracy``.
    Every setting is checked before any file is read, but for heads dividing
    hidden, which waits for ``vocab_size``. Returns the settings and the train
    rows, which are read once."""
    cfg = _read("config file", args.config, RunConfig.from_file) if args.config else RunConfig()
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if getattr(args, f.name) is not None
    }
    try:
        cfg = cfg.with_overrides(overrides)
    except ValueError as exc:
        raise InputError(f"invalid flag: {exc}") from None
    cfg = _apply_env_seed(cfg)
    supervised = cfg.mode in SUPERVISED_MODES
    if not supervised:
        dev_metric = "spearman" if cfg.dev_metric == "accuracy" else cfg.dev_metric
        cfg = dataclasses.replace(cfg, num_classes=0, dev_metric=dev_metric)
    _checked(cfg.train_config())
    if not supervised:
        return cfg, _read("train set", cfg.train_file, load_unsupervised_lines, check_nonempty)
    train_rows = _read("train set", cfg.train_file, load_supervised_tsv, check_nonempty)
    if cfg.num_classes == 0:
        labels = {r.label for r in train_rows}
        top = max(labels)
        gaps = top + 1 - len(labels)
        if gaps:
            shown = itertools.islice((str(i) for i in range(top) if i not in labels), 5)
            raise InputError(
                f"train set {cfg.train_file!r} has no label {', '.join(shown)}"
                f"{', ...' if gaps > 5 else ''} ({gaps} missing below its largest label, {top}); "
                "an inferred num_classes needs every label from 0 up: pass --num-classes "
                "to allow gaps"
            )
        cfg = dataclasses.replace(cfg, num_classes=len(labels))
    return cfg, train_rows


def cmd_train(args: argparse.Namespace) -> int:
    cfg, train_rows = _load_run_config(args)
    vocab = _read("vocab", cfg.vocab_file, Vocab.load)
    supervised = cfg.mode in SUPERVISED_MODES
    if supervised:
        dev_rows = _read("dev set", cfg.dev_file, load_supervised_tsv, check_nonempty)
        top = max(r.label for r in train_rows)
        if not top < cfg.num_classes >= 2:
            raise InputError(
                f"invalid config: train set {cfg.train_file!r} needs labels in [0, num_classes) "
                f"with num_classes >= 2; got num_classes={cfg.num_classes} and label {top}"
            )
    else:
        dev_rows = _read("dev set", cfg.dev_file, load_similarity_tsv, check_similarity_set)
    enc_cfg = _checked(cfg.encoder_config(len(vocab)))
    tcfg = cfg.train_config()

    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "config.resolved.txt"), "w", encoding="utf-8") as fh:
        fh.write(cfg.resolved_text())

    params = EncoderParams.init_random(enc_cfg, seed=tcfg.seed)
    if supervised:
        def eval_fn(p: EncoderParams) -> float:
            return evaluate_classification(p, dev_rows, vocab, tcfg.dev_metric).value
    else:
        def eval_fn(p: EncoderParams) -> float:
            return evaluate_similarity(p, dev_rows, vocab).value

    steps_path = os.path.join(cfg.out_dir, "steps.tsv")
    evals_path = os.path.join(cfg.out_dir, "evals.tsv")
    with open(steps_path, "w", encoding="utf-8") as steps_fh, open(
        evals_path, "w", encoding="utf-8"
    ) as evals_fh:
        log = RunLog(steps=steps_fh, evals=evals_fh)
        result = train_loop(train_rows, vocab, params, tcfg, eval_fn, log=log)

    ckpt_path = os.path.join(cfg.out_dir, "best.ckpt")
    save_checkpoint(result.best, ckpt_path)
    print(
        f"trained {result.steps_run} steps; best {result.best.dev_metric_name}="
        f"{result.best.dev_metric_value:.6f} at step {result.best.step}; "
        f"checkpoint: {ckpt_path}"
    )
    return EXIT_OK


def _load_checkpoint_and_vocab(args: argparse.Namespace) -> tuple[Checkpoint, Vocab]:
    ckpt = _read("checkpoint", args.checkpoint, load_checkpoint)
    vocab = _read("vocab", args.vocab, Vocab.load)
    if len(vocab) != ckpt.config.vocab_size:
        raise CheckpointError(
            f"vocab has {len(vocab)} ids but checkpoint config expects "
            f"{ckpt.config.vocab_size}"
        )
    return ckpt, vocab


def _write_report(report: MetricReport, out_dir: str | None, stem: str) -> None:
    lines = report.format_lines()
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{stem}.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with open(os.path.join(out_dir, f"{stem}.json"), "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    for line in lines:
        print(line)


def cmd_eval(args: argparse.Namespace) -> int:
    attack_cfg = None
    if args.attack is not None:
        if args.task == "similarity":
            raise InputError("attack evaluation needs a labeled dataset")
        attack_cfg = _checked(AttackConfig(kind=args.attack, epsilon=args.epsilon))
    ckpt, vocab = _load_checkpoint_and_vocab(args)
    params = ckpt.build_params()
    if args.task == "similarity":
        pairs = _read("dataset", args.data, load_similarity_tsv, check_similarity_set)
        _write_report(evaluate_similarity(params, pairs, vocab), args.out_dir, "report")
        return EXIT_OK

    if ckpt.config.num_classes < 2:
        raise CheckpointError(
            f"checkpoint {args.checkpoint!r} has num_classes={ckpt.config.num_classes}, "
            "so no classifier head to evaluate a classification task"
        )
    rows = _read("dataset", args.data, load_supervised_tsv, check_nonempty)
    report = evaluate_classification(params, rows, vocab, args.metric)
    _write_report(report, args.out_dir, "report")
    if attack_cfg is not None:
        robust = evaluate_under_attack(params, rows, vocab, attack_cfg, args.metric)
        _write_report(robust, args.out_dir, "report_robust")
    return EXIT_OK


def cmd_embed(args: argparse.Namespace) -> int:
    ckpt, vocab = _load_checkpoint_and_vocab(args)
    sentences = _read("sentences file", args.sentences, load_unsupervised_lines, check_nonempty)
    vectors = encode_sentences(ckpt.build_params(), sentences, vocab)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(f"{vectors.shape[1]} {vectors.shape[0]}\n")
        for row in vectors:
            fh.write(" ".join(f"{x:.6g}" for x in row) + "\n")
    print(f"wrote {vectors.shape[0]} x {vectors.shape[1]} embeddings to {args.out}")
    return EXIT_OK


def cmd_selfcheck(_args: argparse.Namespace) -> int:
    failing = run_selfcheck()
    if failing is not None:
        print(f"selfcheck failed: {failing}", file=sys.stderr)
        return EXIT_SELFCHECK
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_run_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value or JSON config file")
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, type=FIELD_TYPES[f.type], default=None,
                            help=f"{domain_text(f)}, default {f.default!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="callab",
        description="Contrastive adversarial training lab for small text encoders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build a vocabulary file from a corpus")
    p.add_argument("corpus")
    p.add_argument("out")
    p.add_argument("--min-freq", type=int, default=1)
    p.set_defaults(fn=cmd_build_vocab)

    p = sub.add_parser("train", help="train an encoder (modes: scal, uscal, ce, views)")
    _add_run_config_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--task", choices=("classification", "similarity"), default="classification")
    p.add_argument("--metric", choices=tuple(CLS_METRICS), default="accuracy")
    p.add_argument("--attack", choices=ATTACK_KINDS, default=None)
    p.add_argument("--epsilon", type=float, default=AttackConfig.epsilon)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("embed", help="export sentence embeddings")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--sentences", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("selfcheck", help="run gradient, attack, and metric property checks")
    p.set_defaults(fn=cmd_selfcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the only place an error becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    raise SystemExit(main())
