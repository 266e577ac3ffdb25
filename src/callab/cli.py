"""Command-line entry points: build-vocab, train, eval, embed, selfcheck.

Exit codes are stable: 0 success, 1 selfcheck property failure, 2 invalid
config or unreadable input, 3 non-finite training loss, 4 checkpoint/config
mismatch. The environment variable CAL_SEED, an integer, overrides the
configured seed. Every training run directory is self-describing: the
resolved configuration plus the seed reproduce the run.

``RunConfig`` declares only the run's paths; its other fields, the ``train``
flags and ``config.resolved.txt`` derive from ``TrainConfig``/``EncoderConfig``,
and every value is parsed by its field's type (``encoder.parse_field``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, fields, make_dataclass

from .attacks import ATTACK_KINDS, AttackConfig
from .encoder import FIELD_TYPES, EncoderConfig, EncoderParams, parse_field
from .metrics import (
    CLS_METRICS,
    MetricError,
    MetricReport,
    evaluate_classification,
    evaluate_similarity,
    evaluate_under_attack,
    encode_sentences,
)
from .selfcheck import run_selfcheck
from .text import (
    DataFormatError,
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


@dataclass
class _RunPaths:
    """Dataset and output paths; ``RunConfig`` adds every ``TrainConfig`` and
    ``EncoderConfig`` field but ``vocab_size`` (the vocab file sets it)."""

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
        """Copy with ``values`` applied, each parsed by ``encoder.parse_field``.

        File lines, JSON values and flags all take this one path, so a JSON
        ``null``, a list or ``1.5`` for an int field is a ``ValueError``
        naming the key, never a silent coercion.
        """
        by_name = {f.name: f for f in fields(self)}
        for key in values:
            if key not in by_name:
                raise ValueError(f"unknown config field {key!r}")
        parsed = {key: parse_field(by_name[key], value) for key, value in values.items()}
        return dataclasses.replace(self, **parsed)

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


RunConfig = make_dataclass(
    "RunConfig",
    [
        (f.name, f.type, f.default)
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
        raise ValueError(f"CAL_SEED must be an integer, got {env!r}") from None


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_build_vocab(args: argparse.Namespace) -> int:
    try:
        with open(args.corpus, encoding="utf-8") as fh:
            vocab = build_vocab((line for line in fh), min_freq=args.min_freq)
    except OSError as exc:
        return _fail(EXIT_BAD_INPUT, f"cannot read corpus: {exc}")
    except ValueError as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))
    vocab.save(args.out)
    print(f"wrote {len(vocab)} ids ({len(vocab) - 4} tokens + 4 reserved) to {args.out}")
    return EXIT_OK


def _load_run_config(args: argparse.Namespace) -> tuple[RunConfig, list]:
    """Defaults, ``--config``, flags, ``CAL_SEED``, then the two settings a run derives:
    a supervised run left at ``num_classes=0`` counts its train labels, and a
    similarity run has no classifier and evaluates ``spearman``, not ``accuracy``.
    Returns the settings and the train rows, which are read once."""
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if getattr(args, f.name) is not None
    }
    cfg = _apply_env_seed(cfg.with_overrides(overrides))
    if cfg.mode not in SUPERVISED_MODES:
        dev_metric = "spearman" if cfg.dev_metric == "accuracy" else cfg.dev_metric
        cfg = dataclasses.replace(cfg, num_classes=0, dev_metric=dev_metric)
        return cfg, load_unsupervised_lines(cfg.train_file)
    train_rows = load_supervised_tsv(cfg.train_file)
    if cfg.num_classes == 0:
        num_classes = max((r.label for r in train_rows), default=-1) + 1
        cfg = dataclasses.replace(cfg, num_classes=num_classes)
    return cfg, train_rows


def cmd_train(args: argparse.Namespace) -> int:
    try:
        cfg, train_rows = _load_run_config(args)
    except DataFormatError as exc:
        return _fail(EXIT_BAD_INPUT, f"cannot load datasets: {exc}")
    except (OSError, ValueError) as exc:
        return _fail(EXIT_BAD_INPUT, f"invalid config: {exc}")

    try:
        vocab = Vocab.load(cfg.vocab_file)
    except OSError as exc:
        return _fail(EXIT_BAD_INPUT, f"cannot read vocab ({cfg.vocab_file!r}): {exc}")

    supervised = cfg.mode in SUPERVISED_MODES
    try:
        dev_rows = (load_supervised_tsv if supervised else load_similarity_tsv)(cfg.dev_file)
    except (OSError, DataFormatError) as exc:
        return _fail(EXIT_BAD_INPUT, f"cannot load datasets: {exc}")
    if not train_rows:
        return _fail(EXIT_BAD_INPUT, f"empty train set ({cfg.train_file!r})")
    if not dev_rows:
        return _fail(EXIT_BAD_INPUT, "empty dev set")
    if not supervised and len(dev_rows) < 2:
        return _fail(
            EXIT_BAD_INPUT,
            f"similarity dev set needs at least 2 pairs, got {len(dev_rows)} ({cfg.dev_file!r})",
        )
    if not supervised and len({p.score for p in dev_rows}) < 2:
        return _fail(
            EXIT_BAD_INPUT,
            f"similarity dev set has constant gold scores, so Spearman is undefined "
            f"({cfg.dev_file!r})",
        )

    if supervised and cfg.num_classes < 2:
        return _fail(EXIT_BAD_INPUT, "invalid config: num_classes must be >= 2")

    try:
        enc_cfg = cfg.encoder_config(len(vocab))
        enc_cfg.validate()
        tcfg = cfg.train_config()
        tcfg.validate()
    except ValueError as exc:
        return _fail(EXIT_BAD_INPUT, f"invalid config: {exc}")

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
    try:
        with open(steps_path, "w", encoding="utf-8") as steps_fh, open(
            evals_path, "w", encoding="utf-8"
        ) as evals_fh:
            log = RunLog(steps=steps_fh, evals=evals_fh)
            result = train_loop(train_rows, vocab, params, tcfg, eval_fn, log=log)
    except NonFiniteLossError as exc:
        return _fail(EXIT_NONFINITE, str(exc))

    ckpt_path = os.path.join(cfg.out_dir, "best.ckpt")
    save_checkpoint(result.best, ckpt_path)
    print(
        f"trained {result.steps_run} steps; best {result.best.dev_metric_name}="
        f"{result.best.dev_metric_value:.6f} at step {result.best.step}; "
        f"checkpoint: {ckpt_path}"
    )
    return EXIT_OK


def _load_checkpoint_and_vocab(args: argparse.Namespace) -> tuple[Checkpoint, Vocab]:
    if not os.path.exists(args.checkpoint):
        raise FileNotFoundError(f"checkpoint {args.checkpoint!r} does not exist")
    ckpt = load_checkpoint(args.checkpoint)
    vocab = Vocab.load(args.vocab)
    if len(vocab) != ckpt.config.vocab_size:
        raise CheckpointError(
            f"vocab has {len(vocab)} ids but checkpoint config expects "
            f"{ckpt.config.vocab_size}"
        )
    return ckpt, vocab


def _write_report(report: MetricReport, out_dir: str | None, stem: str) -> None:
    for line in report.format_lines():
        print(line)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{stem}.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(report.format_lines()) + "\n")
        with open(os.path.join(out_dir, f"{stem}.json"), "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")


def cmd_eval(args: argparse.Namespace) -> int:
    attack_cfg = None
    if args.attack is not None:
        if args.task == "similarity":
            return _fail(EXIT_BAD_INPUT, "attack evaluation needs a labeled dataset")
        attack_cfg = AttackConfig(kind=args.attack, epsilon=args.epsilon)
        try:
            attack_cfg.validate()
        except ValueError as exc:
            return _fail(EXIT_BAD_INPUT, f"invalid config: {exc}")
    try:
        ckpt, vocab = _load_checkpoint_and_vocab(args)
    except (FileNotFoundError, OSError) as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))
    except CheckpointError as exc:
        return _fail(EXIT_CKPT_MISMATCH, str(exc))
    params = ckpt.build_params()

    try:
        if args.task == "similarity":
            pairs = load_similarity_tsv(args.data)
            report = evaluate_similarity(params, pairs, vocab)
        else:
            rows = load_supervised_tsv(args.data)
            report = evaluate_classification(params, rows, vocab, args.metric)
    except (OSError, DataFormatError) as exc:
        return _fail(EXIT_BAD_INPUT, f"cannot load dataset: {exc}")
    except MetricError as exc:
        return _fail(EXIT_BAD_INPUT, f"cannot evaluate {args.data!r}: {exc}")
    _write_report(report, args.out_dir, "report")

    if attack_cfg is not None:
        robust = evaluate_under_attack(params, rows, vocab, attack_cfg, args.metric)
        _write_report(robust, args.out_dir, "report_robust")
    return EXIT_OK


def cmd_embed(args: argparse.Namespace) -> int:
    try:
        ckpt, vocab = _load_checkpoint_and_vocab(args)
        sentences = load_unsupervised_lines(args.sentences)
    except (FileNotFoundError, OSError) as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))
    except CheckpointError as exc:
        return _fail(EXIT_CKPT_MISMATCH, str(exc))
    if not sentences:
        return _fail(EXIT_BAD_INPUT, "no sentences to embed")
    params = ckpt.build_params()
    vectors = encode_sentences(params, sentences, vocab)
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
        parser.add_argument(flag, type=FIELD_TYPES[f.type], default=None)


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
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
