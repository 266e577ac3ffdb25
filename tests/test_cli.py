"""End-to-end command-line tests: exit codes, files, determinism, selfcheck."""

import dataclasses
import filecmp
import itertools
import json
import re
from dataclasses import fields

import numpy as np
import pytest

from callab import attacks, autodiff, metrics, selfcheck
from callab.attacks import ATTACK_KINDS, AttackConfig
from callab.cli import (
    EXIT_BAD_INPUT,
    EXIT_CODES,
    EXIT_CKPT_MISMATCH,
    EXIT_NONFINITE,
    EXIT_OK,
    EXIT_SELFCHECK,
    RunConfig,
    _load_run_config,
    build_parser,
    main,
)
from callab.encoder import EncoderConfig, EncoderParams
from callab.metrics import CLS_METRICS, MetricError, cosine_rows, encode_sentences
from callab.synthdata import (
    make_group_task,
    make_motif_task,
    make_paraphrase_corpus,
    write_lines,
    write_similarity_tsv,
    write_supervised_tsv,
)
from callab.text import Vocab, load_unsupervised_lines
from callab.objectives import LossConfig
from callab.trainer import (
    SUPERVISED_MODES,
    TRAIN_MODES,
    Checkpoint,
    CheckpointError,
    NonFiniteLossError,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
)

from conftest import with_extra_tensor


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small on-disk task: supervised tsvs, corpus, similarity pairs, vocab."""
    root = tmp_path_factory.mktemp("cli")
    train, dev = make_motif_task(160, 48, seed=0)
    write_supervised_tsv(train, str(root / "train.tsv"))
    write_supervised_tsv(dev, str(root / "dev.tsv"))
    lines, pairs = make_paraphrase_corpus(96, 40, seed=0)
    write_lines(lines, str(root / "corpus.txt"))
    write_similarity_tsv(pairs, str(root / "sims.tsv"))
    write_lines([r.text_a for r in train], str(root / "train_text.txt"))
    assert main(["build-vocab", str(root / "train_text.txt"), str(root / "vocab.txt")]) == EXIT_OK
    assert main(["build-vocab", str(root / "corpus.txt"), str(root / "uvocab.txt")]) == EXIT_OK
    return root


TRAIN_FLAGS = [
    "--hidden", "16", "--layers", "1", "--heads", "2", "--ffn-dim", "32",
    "--max-len", "12", "--lr", "0.002", "--grad-clip", "1.0",
    "--batch-size", "16", "--max-steps", "30", "--eval-interval-steps", "15",
    "--early-stop-patience", "99",
]


def _train_args(workspace, out, mode="scal", extra=()):
    return [
        "train", "--mode", mode,
        "--train-file", str(workspace / "train.tsv"),
        "--dev-file", str(workspace / "dev.tsv"),
        "--vocab-file", str(workspace / "vocab.txt"),
        "--out-dir", str(out),
        *TRAIN_FLAGS, *extra,
    ]


def _train(workspace, out, mode="scal", extra=()):
    return main(_train_args(workspace, out, mode, extra))


class TestBuildVocab:
    def test_idempotent_byte_identical(self, workspace, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        src = str(workspace / "train_text.txt")
        assert main(["build-vocab", src, str(a)]) == EXIT_OK
        assert main(["build-vocab", src, str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_min_freq_one_keeps_every_token(self, workspace, tmp_path):
        out = tmp_path / "v.txt"
        main(["build-vocab", str(workspace / "train_text.txt"), str(out)])
        vocab = Vocab.load(str(out))
        from callab.text import tokenize

        tokens = set()
        for line in load_unsupervised_lines(str(workspace / "train_text.txt")):
            tokens.update(tokenize(line))
        assert all(t in vocab for t in tokens)
        assert len(vocab) == len(tokens) + 4

    def test_unreadable_corpus_exit_2(self, tmp_path):
        assert main(["build-vocab", "/no/such/file", str(tmp_path / "v")]) == EXIT_BAD_INPUT


class TestTrain:
    def test_run_dir_is_self_describing(self, workspace, tmp_path):
        out = tmp_path / "run"
        assert _train(workspace, out, extra=["--seed", "3"]) == EXIT_OK
        assert (out / "config.resolved.txt").exists()
        assert (out / "steps.tsv").exists()
        assert (out / "evals.tsv").exists()
        assert (out / "best.ckpt").exists()
        resolved = (out / "config.resolved.txt").read_text()
        assert "seed=3" in resolved and "mode=scal" in resolved

    def test_same_seed_identical_eval_history_files(self, workspace, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _train(workspace, a, extra=["--seed", "5"]) == EXIT_OK
        assert _train(workspace, b, extra=["--seed", "5"]) == EXIT_OK
        assert filecmp.cmp(a / "evals.tsv", b / "evals.tsv", shallow=False)
        assert filecmp.cmp(a / "steps.tsv", b / "steps.tsv", shallow=False)

    def test_env_seed_override(self, workspace, tmp_path, monkeypatch):
        out = tmp_path / "env"
        monkeypatch.setenv("CAL_SEED", "77")
        assert _train(workspace, out, extra=["--seed", "5"]) == EXIT_OK
        assert "seed=77" in (out / "config.resolved.txt").read_text()

    def test_degenerate_flags_match_ce_trajectory(self, workspace, tmp_path):
        scal_dir, ce_dir = tmp_path / "scal0", tmp_path / "ce0"
        degen = ["--alpha", "0", "--epsilon", "0", "--dropout", "0.0", "--seed", "4"]
        assert _train(workspace, scal_dir, mode="scal", extra=degen) == EXIT_OK
        assert _train(workspace, ce_dir, mode="ce", extra=degen) == EXIT_OK
        scal_steps = [l.split("\t") for l in (scal_dir / "steps.tsv").read_text().splitlines()]
        ce_steps = [l.split("\t") for l in (ce_dir / "steps.tsv").read_text().splitlines()]
        assert len(scal_steps) == len(ce_steps) > 0

        def units(printed):  # "0.693147" -> 693147, the loss in units of its last printed digit
            return int(printed.replace(".", ""))

        for srow, crow in zip(scal_steps, ce_steps):
            assert abs(units(srow[2]) - units(crow[2])) <= 1

    def test_consecutive_skipped_updates_exit_3(self, workspace, tmp_path, monkeypatch, capsys):
        import callab.trainer as trainer_mod

        monkeypatch.setattr(trainer_mod, "adamw_step", lambda *args: False)
        assert _train(workspace, tmp_path / "skip", mode="ce") == EXIT_NONFINITE
        assert "3 consecutive optimizer steps skipped" in capsys.readouterr().err

    def test_uscal_single_line_corpus_terminates_with_zero_losses(self, workspace, tmp_path):
        one = tmp_path / "one.txt"
        one.write_text("alpha0 alpha1 alpha2\n")
        out = tmp_path / "uone"
        args = [
            "train", "--mode", "uscal",
            "--train-file", str(one),
            "--dev-file", str(workspace / "sims.tsv"),
            "--vocab-file", str(workspace / "uvocab.txt"),
            "--out-dir", str(out),
            "--hidden", "16", "--layers", "1", "--heads", "2", "--ffn-dim", "32",
            "--max-len", "12", "--lr", "0.001", "--batch-size", "4",
            "--max-steps", "4", "--eval-interval-steps", "2",
            "--max-epochs", "4", "--dev-metric", "spearman",
        ]
        assert main(args) == EXIT_OK
        for line in (out / "steps.tsv").read_text().splitlines():
            total = float(line.split("\t")[2])
            assert abs(total) < 1e-6

    def test_invalid_config_names_field(self, workspace, tmp_path, capsys):
        out = tmp_path / "bad"
        code = _train(workspace, out, extra=["--heads", "3"])
        assert code == EXIT_BAD_INPUT
        assert "divisible" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("not_a_field=1\n")
        assert main(["train", "--config", str(cfg)]) == EXIT_BAD_INPUT
        assert "not_a_field" in capsys.readouterr().err

    def test_config_file_plus_cli_override(self, workspace, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "mode=scal\nhidden=16\nlayers=1\nheads=2\nffn_dim=32\nmax_len=12\n"
            "lr=0.002\nbatch_size=16\nmax_steps=6\neval_interval_steps=3\nseed=8\n"
            f"train_file={workspace / 'train.tsv'}\n"
            f"dev_file={workspace / 'dev.tsv'}\n"
            f"vocab_file={workspace / 'vocab.txt'}\n"
        )
        out = tmp_path / "cfgrun"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out),
                     "--max-steps", "4"]) == EXIT_OK
        text = (out / "config.resolved.txt").read_text()
        assert "max_steps=4" in text and "seed=8" in text

    def test_json_config_accepted(self, workspace, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "mode": "scal", "hidden": 16, "layers": 1, "heads": 2, "ffn_dim": 32,
            "max_len": 12, "lr": 0.002, "batch_size": 16, "max_steps": 4,
            "eval_interval_steps": 2,
            "train_file": str(workspace / "train.tsv"),
            "dev_file": str(workspace / "dev.tsv"),
            "vocab_file": str(workspace / "vocab.txt"),
        }))
        out = tmp_path / "jsonrun"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK

    def test_empty_train_file_exit_2_named(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        out = tmp_path / "noruns"
        code = main([
            "train", "--mode", "scal", "--train-file", str(empty),
            "--dev-file", str(workspace / "dev.tsv"),
            "--vocab-file", str(workspace / "vocab.txt"), "--out-dir", str(out), *TRAIN_FLAGS,
        ])
        assert code == EXIT_BAD_INPUT
        assert "empty train set" in capsys.readouterr().err
        assert not out.exists()

    def test_one_pair_similarity_dev_exit_2_before_training(self, workspace, tmp_path, capsys):
        one = tmp_path / "one_pair.tsv"
        one.write_text("2.5\talpha0 alpha1\talpha1 alpha2\n")
        out = tmp_path / "onepair"
        code = main([
            "train", "--mode", "uscal", "--train-file", str(workspace / "corpus.txt"),
            "--dev-file", str(one), "--vocab-file", str(workspace / "uvocab.txt"),
            "--out-dir", str(out), *TRAIN_FLAGS,
        ])
        assert code == EXIT_BAD_INPUT
        assert "at least 2 pairs, got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_constant_gold_similarity_dev_exit_2_before_training(self, workspace, tmp_path,
                                                                 capsys):
        flat = tmp_path / "flat.tsv"
        flat.write_text("".join(f"2.5\talpha{i} alpha1\talpha1 alpha2\n" for i in range(3)))
        out = tmp_path / "flatrun"
        code = main([
            "train", "--mode", "uscal", "--train-file", str(workspace / "corpus.txt"),
            "--dev-file", str(flat), "--vocab-file", str(workspace / "uvocab.txt"),
            "--out-dir", str(out), *TRAIN_FLAGS,
        ])
        err = capsys.readouterr().err
        assert code == EXIT_BAD_INPUT
        assert "constant gold scores" in err and str(flat) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("lr", None), ("hidden", [16]), ("max_steps", 1.5),
        ("out_dir", None), ("vocab_file", None), ("mode", None), ("attack_kind", ["fgm"]),
    ])
    def test_json_value_of_wrong_type_exit_2_named(self, workspace, tmp_path, capsys,
                                                   monkeypatch, key, value):
        monkeypatch.chdir(tmp_path)  # a null out_dir must not become ./None
        cfg = tmp_path / "bad.json"
        out = tmp_path / "badjson"
        cfg.write_text(json.dumps({
            "mode": "scal",
            "train_file": str(workspace / "train.tsv"),
            "dev_file": str(workspace / "dev.tsv"),
            "vocab_file": str(workspace / "vocab.txt"),
            "out_dir": str(out),
            key: value,
        }))
        assert main(["train", "--config", str(cfg)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert repr(key) in err and "Traceback" not in err
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    def test_non_integer_env_seed_exit_2_named(self, workspace, tmp_path, capsys, monkeypatch):
        out = tmp_path / "envbad"
        monkeypatch.setenv("CAL_SEED", "abc")
        assert _train(workspace, out) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "CAL_SEED" in err and "'abc'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("mode, metric", [("uscal", "mcc"), ("scal", "spearman")])
    def test_dev_metric_that_does_not_fit_the_mode_exit_2_named(self, workspace, tmp_path,
                                                                capsys, mode, metric):
        out = tmp_path / "misfit"
        out.mkdir()
        extra = ["--dev-metric", metric]
        if mode == "uscal":
            extra += ["--train-file", str(workspace / "corpus.txt"),
                      "--dev-file", str(workspace / "sims.tsv"),
                      "--vocab-file", str(workspace / "uvocab.txt")]
        assert _train(workspace, out, mode, extra) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "dev_metric" in err and repr(mode) in err and repr(metric) in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_supervised_run_reads_each_file_once(self, workspace, tmp_path, monkeypatch):
        import callab.cli as cli_mod

        reads = []
        load = cli_mod.load_supervised_tsv

        def counting(path):
            reads.append(path)
            return load(path)

        monkeypatch.setattr(cli_mod, "load_supervised_tsv", counting)
        assert _train(workspace, tmp_path / "once", "ce", ["--max-steps", "2"]) == EXIT_OK
        assert sorted(reads) == sorted([str(workspace / "train.tsv"), str(workspace / "dev.tsv")])


TRAINED_EXTRA = ["--seed", "11", "--max-steps", "120", "--eval-interval-steps", "40"]


@pytest.fixture(scope="module")
def trained(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert _train(workspace, out, extra=TRAINED_EXTRA) == EXIT_OK
    return out


def _subparser(name):
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return sub.choices[name]


def _subcommand_flags(name):
    """Option strings of one ``callab`` subcommand, as argparse holds them."""
    return {
        opt for action in _subparser(name)._actions for opt in action.option_strings
        if opt not in ("-h", "--help")
    }


class TestSingleDeclaration:
    """Each run setting is declared once, in TrainConfig or EncoderConfig."""

    def test_every_setting_is_a_train_flag_with_its_declared_default(self):
        flags = _subcommand_flags("train")
        run = RunConfig()
        for f in (*fields(TrainConfig), *fields(EncoderConfig)):
            if f.name == "vocab_size":
                assert "--vocab-size" not in flags
                continue
            assert "--" + f.name.replace("_", "-") in flags
            assert getattr(run, f.name) == f.default, f.name

    def test_train_config_shares_loss_and_attack_defaults(self):
        assert TrainConfig().loss_config() == LossConfig()
        assert TrainConfig().attack_config() == AttackConfig()

    def test_train_flags_are_pinned(self):
        assert _subcommand_flags("train") == {
            "--config", "--train-file", "--dev-file", "--vocab-file", "--out-dir",
            "--mode", "--lr", "--weight-decay", "--warmup-ratio", "--batch-size",
            "--max-epochs", "--max-steps", "--early-stop-patience", "--eval-interval-steps",
            "--seed", "--alpha", "--epsilon", "--temperature", "--attack-kind",
            "--negative-mode", "--dev-metric", "--grad-clip", "--hidden", "--layers",
            "--heads", "--ffn-dim", "--dropout", "--max-len", "--num-classes",
        }

    def test_every_numeric_train_flag_help_names_its_domain(self):
        """The help prints each flag's domain from the field that declares it."""
        actions = {a.option_strings[0]: a for a in _subparser("train")._actions}
        numeric = {flag: a.help for flag, a in actions.items() if a.type in (int, float)}
        bounded = re.compile(r"(int|finite float) (>=? \S+|in [\[(]\S+, \S+[\])]), default \S+$")
        assert {flag for flag, text in numeric.items() if not bounded.match(text)} == {"--seed"}
        assert numeric["--seed"] == "int, default 42"
        assert numeric["--dropout"] == "finite float in [0, 1), default 0.1"
        assert numeric["--max-len"] == "int >= 3, default 32"
        assert actions["--mode"].help == "one of 'scal', 'uscal', 'ce', 'views', default 'scal'"
        assert len(numeric) == 20

    def test_eval_attack_choices_are_the_attack_kinds(self):
        attack = next(a for a in _subparser("eval")._actions if a.dest == "attack")
        assert tuple(attack.choices) == ATTACK_KINDS

    def test_resolved_config_fed_back_gives_equal_run_config(self, workspace, trained,
                                                             monkeypatch):
        monkeypatch.delenv("CAL_SEED", raising=False)
        parser = build_parser()
        original, _ = _load_run_config(parser.parse_args(_train_args(
            workspace, trained, extra=TRAINED_EXTRA)))
        resolved = str(trained / "config.resolved.txt")
        assert _load_run_config(parser.parse_args(["train", "--config", resolved]))[0] == original
        assert original != RunConfig()

    def test_eval_metric_choices_are_the_metrics_table(self):
        metric = next(a for a in _subparser("eval")._actions if a.dest == "metric")
        assert tuple(metric.choices) == tuple(CLS_METRICS)

    @pytest.mark.parametrize("mode", TRAIN_MODES)
    def test_dev_metrics_follow_the_mode(self, mode):
        """A supervised mode is scored by a CLS_METRICS name, a similarity mode by spearman."""
        fits = (*CLS_METRICS, "spearman")
        accepted = set()
        for metric in fits:
            try:
                TrainConfig(mode=mode, dev_metric=metric).validate()
                accepted.add(metric)
            except ValueError as exc:
                assert repr(mode) in str(exc) and repr(metric) in str(exc)
        assert accepted == (set(CLS_METRICS) if mode in SUPERVISED_MODES else {"spearman"})

    @pytest.mark.parametrize("mode", ["ce", "uscal"])
    def test_resolved_config_records_the_settings_the_run_uses(self, workspace, tmp_path,
                                                               monkeypatch, mode):
        """num_classes and dev_metric are written as the run uses them, so the file
        fed back needs no rewrite and reruns the same training."""
        monkeypatch.delenv("CAL_SEED", raising=False)
        extra = ["--max-steps", "4", "--eval-interval-steps", "2"]
        if mode == "uscal":
            extra += ["--train-file", str(workspace / "corpus.txt"),
                      "--dev-file", str(workspace / "sims.tsv"),
                      "--vocab-file", str(workspace / "uvocab.txt")]
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(_train_args(workspace, first, mode, extra)) == EXIT_OK
        resolved = first / "config.resolved.txt"
        cfg = RunConfig.from_file(str(resolved))
        ckpt = load_checkpoint(str(first / "best.ckpt"))
        evaluated = {line.split("\t")[1] for line in (first / "evals.tsv").read_text().splitlines()}
        assert cfg.num_classes == ckpt.config.num_classes == (2 if mode == "ce" else 0)
        assert evaluated == {cfg.dev_metric} == {ckpt.dev_metric_name}
        assert cfg.dev_metric == ("accuracy" if mode == "ce" else "spearman")

        fed_back = ["train", "--config", str(resolved), "--out-dir", str(second)]
        assert _load_run_config(build_parser().parse_args(fed_back))[0] == \
            dataclasses.replace(cfg, out_dir=str(second))
        assert main(fed_back) == EXIT_OK
        assert (second / "config.resolved.txt").read_text() == \
            resolved.read_text().replace(f"out_dir={first}", f"out_dir={second}")
        assert filecmp.cmp(first / "best.ckpt", second / "best.ckpt", shallow=False)


class TestEval:
    def test_eval_twice_identical_reports(self, workspace, trained, tmp_path):
        a, b = tmp_path / "ea", tmp_path / "eb"
        base = ["eval", "--checkpoint", str(trained / "best.ckpt"),
                "--vocab", str(workspace / "vocab.txt"),
                "--data", str(workspace / "dev.tsv")]
        assert main(base + ["--out-dir", str(a)]) == EXIT_OK
        assert main(base + ["--out-dir", str(b)]) == EXIT_OK
        assert filecmp.cmp(a / "report.txt", b / "report.txt", shallow=False)

    def test_attack_epsilon_zero_robust_equals_clean(self, workspace, trained, tmp_path):
        out = tmp_path / "rob0"
        assert main([
            "eval", "--checkpoint", str(trained / "best.ckpt"),
            "--vocab", str(workspace / "vocab.txt"),
            "--data", str(workspace / "dev.tsv"),
            "--attack", "fgm", "--epsilon", "0", "--out-dir", str(out),
        ]) == EXIT_OK
        robust = json.loads((out / "report_robust.json").read_text())
        clean = json.loads((out / "report.json").read_text())
        assert robust["value"] == pytest.approx(clean["value"])
        assert robust["clean_accuracy"] == f"{clean['value']:.6f}"

    def test_report_matches_library_evaluation(self, workspace, trained, tmp_path):
        out = tmp_path / "libmatch"
        assert main([
            "eval", "--checkpoint", str(trained / "best.ckpt"),
            "--vocab", str(workspace / "vocab.txt"),
            "--data", str(workspace / "dev.tsv"), "--out-dir", str(out),
        ]) == EXIT_OK
        got = json.loads((out / "report.json").read_text())["value"]
        from callab.metrics import evaluate_classification
        from callab.text import load_supervised_tsv

        ckpt = load_checkpoint(str(trained / "best.ckpt"))
        params = ckpt.build_params()
        vocab = Vocab.load(str(workspace / "vocab.txt"))
        rows = load_supervised_tsv(str(workspace / "dev.tsv"))
        want = evaluate_classification(params, rows, vocab, "accuracy").value
        assert got == pytest.approx(want)

    def test_checkpoint_vocab_mismatch_exit_4(self, workspace, trained, tmp_path):
        small = tmp_path / "small_vocab.txt"
        small.write_text("only\n")
        assert main([
            "eval", "--checkpoint", str(trained / "best.ckpt"),
            "--vocab", str(small),
            "--data", str(workspace / "dev.tsv"),
        ]) == EXIT_CKPT_MISMATCH

    def test_corrupt_checkpoint_exit_4(self, workspace, trained, tmp_path):
        bad = tmp_path / "bad.ckpt"
        blob = bytearray((trained / "best.ckpt").read_bytes())
        blob[:4] = b"JUNK"
        bad.write_bytes(bytes(blob))
        assert main([
            "eval", "--checkpoint", str(bad),
            "--vocab", str(workspace / "vocab.txt"),
            "--data", str(workspace / "dev.tsv"),
        ]) == EXIT_CKPT_MISMATCH

    def test_header_byte_flip_exit_4(self, workspace, trained, tmp_path):
        bad = tmp_path / "flipped.ckpt"
        blob = bytearray((trained / "best.ckpt").read_bytes())
        blob[blob.index(b"[config]") + 1] = 0xFF  # header is no longer UTF-8
        bad.write_bytes(bytes(blob))
        assert main([
            "eval", "--checkpoint", str(bad),
            "--vocab", str(workspace / "vocab.txt"),
            "--data", str(workspace / "dev.tsv"),
        ]) == EXIT_CKPT_MISMATCH

    @pytest.mark.parametrize("refusal", ["missing_meta_key", "tensor_named_twice"])
    def test_header_refusals_exit_4(self, workspace, trained, tmp_path, refusal):
        bad = tmp_path / f"{refusal}.ckpt"
        blob = (trained / "best.ckpt").read_bytes()
        if refusal == "missing_meta_key":
            blob = blob.replace(b"\nstep=", b"\nstap=", 1)  # same length, same header length
        else:
            shape = load_checkpoint(str(trained / "best.ckpt")).tensors["tok_emb"].shape
            blob = with_extra_tensor(blob, "tok_emb", np.full(shape, 7.0))
        bad.write_bytes(blob)
        assert main([
            "eval", "--checkpoint", str(bad),
            "--vocab", str(workspace / "vocab.txt"),
            "--data", str(workspace / "dev.tsv"),
        ]) == EXIT_CKPT_MISMATCH

    def test_trailing_bytes_exit_4(self, workspace, trained, tmp_path):
        bad = tmp_path / "padded.ckpt"
        bad.write_bytes((trained / "best.ckpt").read_bytes() + bytes(64))
        assert main([
            "eval", "--checkpoint", str(bad),
            "--vocab", str(workspace / "vocab.txt"),
            "--data", str(workspace / "dev.tsv"),
        ]) == EXIT_CKPT_MISMATCH

    def test_missing_checkpoint_exit_2(self, workspace):
        assert main([
            "eval", "--checkpoint", "/no/such.ckpt",
            "--vocab", str(workspace / "vocab.txt"),
            "--data", str(workspace / "dev.tsv"),
        ]) == EXIT_BAD_INPUT

    def _eval(self, workspace, trained, data, *extra):
        return main([
            "eval", "--checkpoint", str(trained / "best.ckpt"),
            "--vocab", str(workspace / "vocab.txt"), "--data", str(data), *extra,
        ])

    def test_empty_dataset_exit_2_named(self, workspace, trained, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        assert self._eval(workspace, trained, empty) == EXIT_BAD_INPUT
        assert "empty dataset" in capsys.readouterr().err

    def test_one_pair_similarity_exit_2_named(self, workspace, trained, tmp_path, capsys):
        one = tmp_path / "one_pair.tsv"
        one.write_text("2.5\td00 d01\td01 d02\n")
        assert self._eval(workspace, trained, one, "--task", "similarity") == EXIT_BAD_INPUT
        assert "at least 2 pairs" in capsys.readouterr().err

    def test_attack_on_similarity_fails_before_writing(self, workspace, trained, tmp_path, capsys):
        out = tmp_path / "simattack"
        code = self._eval(workspace, trained, workspace / "sims.tsv", "--task", "similarity",
                          "--attack", "fgm", "--out-dir", str(out))
        captured = capsys.readouterr()
        assert code == EXIT_BAD_INPUT
        assert "needs a labeled dataset" in captured.err
        assert captured.out == "" and not out.exists()


class TestEmbed:
    def test_export_format_and_duplicates(self, workspace, trained, tmp_path):
        sents = tmp_path / "s.txt"
        sents.write_text("zig zag zum d00\nd01 d02\nzig zag zum d00\n")
        out = tmp_path / "emb.txt"
        assert main([
            "embed", "--checkpoint", str(trained / "best.ckpt"),
            "--vocab", str(workspace / "vocab.txt"),
            "--sentences", str(sents), "--out", str(out),
        ]) == EXIT_OK
        lines = out.read_text().splitlines()
        h, b = map(int, lines[0].split())
        assert b == 3 and h == 16
        assert len(lines) == 1 + b
        rows = [np.array([float(x) for x in l.split()]) for l in lines[1:]]
        np.testing.assert_array_equal(rows[0], rows[2])  # duplicate inputs
        assert not np.array_equal(rows[0], rows[1])

    def test_exported_cosines_match_similarity_internals(self, workspace, trained, tmp_path):
        ckpt = load_checkpoint(str(trained / "best.ckpt"))
        params = ckpt.build_params()
        vocab = Vocab.load(str(workspace / "vocab.txt"))
        sents = ["zig zag d00", "zag zum d01"]
        sfile = tmp_path / "pair.txt"
        sfile.write_text("\n".join(sents) + "\n")
        out = tmp_path / "pair_emb.txt"
        assert main([
            "embed", "--checkpoint", str(trained / "best.ckpt"),
            "--vocab", str(workspace / "vocab.txt"),
            "--sentences", str(sfile), "--out", str(out),
        ]) == EXIT_OK
        lines = out.read_text().splitlines()[1:]
        vecs = np.array([[float(x) for x in l.split()] for l in lines])
        want = cosine_rows(*[v[None, :] for v in encode_sentences(params, sents, vocab)])
        got = cosine_rows(vecs[:1], vecs[1:])
        assert got[0] == pytest.approx(want[0], abs=1e-5)


def _random_checkpoint(path, vocab_file, num_classes):
    """An untrained h8 checkpoint over ``vocab_file``; ``num_classes=0`` has no head."""
    cfg = EncoderConfig(vocab_size=len(Vocab.load(str(vocab_file))), hidden=8, layers=1,
                        heads=2, ffn_dim=16, max_len=8, num_classes=num_classes)
    save_checkpoint(Checkpoint.from_params(EncoderParams.init_random(cfg, seed=0)), str(path))
    return path


def _command_argv(command, files, out, train_flags=TRAIN_FLAGS):
    """argv of one command reading ``files`` (role -> path) and writing ``out``."""
    f = {role: str(path) for role, path in files.items()}
    out = str(out)
    if command == "train":
        return ["train", "--mode", "scal", "--train-file", f["train"], "--dev-file", f["dev"],
                "--vocab-file", f["vocab"], "--out-dir", out, *train_flags]
    if command == "train-uscal":
        return ["train", "--mode", "uscal", "--train-file", f["corpus"], "--dev-file", f["sims"],
                "--vocab-file", f["uvocab"], "--out-dir", out, *train_flags]
    if command == "train-config":
        return ["train", "--config", f["config"], "--out-dir", out]
    if command == "eval":
        return ["eval", "--checkpoint", f["checkpoint"], "--vocab", f["vocab"],
                "--data", f["data"], "--out-dir", out]
    if command == "eval-similarity":
        return ["eval", "--task", "similarity", "--checkpoint", f["ucheckpoint"],
                "--vocab", f["uvocab"], "--data", f["sims"], "--out-dir", out]
    if command == "embed":
        return ["embed", "--checkpoint", f["checkpoint"], "--vocab", f["vocab"],
                "--sentences", f["sentences"], "--out", out]
    assert command == "build-vocab"
    return ["build-vocab", f["corpus"], out]


def _insert_non_utf8(blob, at):
    return blob[:at] + b"\xff\xfe" + blob[at:]


UNUSABLE = [  # (case, command, role of the broken file or path, how it is broken)
    ("a", "train", "vocab", "duplicate line"),
    ("a", "eval", "vocab", "duplicate line"),
    ("a", "embed", "vocab", "duplicate line"),
    ("b", "train", "vocab", "non-UTF-8"),
    ("b", "eval", "vocab", "non-UTF-8"),
    ("b", "embed", "vocab", "non-UTF-8"),
    ("c", "train", "dev", "non-UTF-8"),
    ("c", "eval", "data", "non-UTF-8"),
    ("c", "embed", "sentences", "non-UTF-8"),
    ("c", "build-vocab", "corpus", "non-UTF-8"),
    ("d", "train", "train", "non-UTF-8"),
    ("e", "train", "out", "existing file"),
    ("e", "eval", "out", "existing file"),
    ("e", "embed", "out", "missing directory"),
    ("e", "build-vocab", "out", "missing directory"),
]


@pytest.fixture
def reads(monkeypatch):
    """The paths a command asks ``cli``'s loaders and ``Vocab.load`` for; each reads nothing."""
    import callab.cli as cli_mod

    paths = []

    def record(path):
        paths.append(path)
        return []

    for loader in ("load_supervised_tsv", "load_similarity_tsv", "load_unsupervised_lines"):
        monkeypatch.setattr(cli_mod, loader, record)
    monkeypatch.setattr(cli_mod.Vocab, "load", record)
    return paths


class TestExitContract:
    """main alone maps error kinds to exit codes; every input is read and
    checked before a command writes anything."""

    @pytest.mark.parametrize("case, command, role, breakage", UNUSABLE,
                             ids=[f"{c}-{cmd}-{r}" for c, cmd, r, _ in UNUSABLE])
    def test_unusable_input_exit_2_named(self, workspace, trained, tmp_path, capsys,
                                         case, command, role, breakage):
        files = {
            "train": workspace / "train.tsv", "dev": workspace / "dev.tsv",
            "vocab": workspace / "vocab.txt", "checkpoint": trained / "best.ckpt",
            "data": workspace / "dev.tsv", "sentences": workspace / "train_text.txt",
            "corpus": workspace / "train_text.txt",
        }
        out = tmp_path / ("out.txt" if command in ("embed", "build-vocab") else "out")
        if breakage == "existing file":
            out.write_text("keep\n")
            named = out
        elif breakage == "missing directory":
            out = tmp_path / "missing" / "out.txt"
            named = out
        else:
            blob = files[role].read_bytes()
            if breakage == "duplicate line":
                blob += blob.splitlines(keepends=True)[0]
            else:
                blob = _insert_non_utf8(blob, len(blob) // 2)
            named = files[role] = tmp_path / f"broken-{role}"
            named.write_bytes(blob)

        code = main(_command_argv(command, files, out))
        captured = capsys.readouterr()
        assert code == EXIT_BAD_INPUT
        assert str(named) in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        if breakage == "existing file":
            assert out.read_text() == "keep\n"
        else:
            assert not out.exists() and not (tmp_path / "missing").exists()

    def test_unknown_mode_exit_2_before_any_read(self, workspace, tmp_path, reads, capsys):
        out = tmp_path / "sgd"
        assert _train(workspace, out, mode="sgd") == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "'sgd'" in err and all(repr(mode) in err for mode in TRAIN_MODES)
        assert reads == [] and not out.exists()

    @pytest.mark.parametrize("flag, field, value", [
        ("--dropout", "dropout", "1.5"), ("--heads", "heads", "0"), ("--alpha", "alpha", "2"),
    ])
    def test_out_of_domain_flag_exit_2_before_any_read(self, workspace, tmp_path, reads,
                                                       capsys, flag, field, value):
        out = tmp_path / "run"
        assert _train(workspace, out, extra=[f"{flag}={value}"]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert f"config field {field!r}" in err and value in err and "Traceback" not in err
        assert reads == [] and not out.exists()

    @pytest.mark.parametrize("attack", [[], ["--attack", "fgm"]], ids=["clean", "attack"])
    def test_classification_eval_without_head_exit_4_named(self, workspace, tmp_path, capsys,
                                                           attack):
        ckpt = _random_checkpoint(tmp_path / "headless.ckpt", workspace / "vocab.txt", 0)
        out = tmp_path / "report"
        code = main(["eval", "--checkpoint", str(ckpt), "--vocab", str(workspace / "vocab.txt"),
                     "--data", str(workspace / "dev.tsv"), "--out-dir", str(out), *attack])
        captured = capsys.readouterr()
        assert code == EXIT_CKPT_MISMATCH
        assert str(ckpt) in captured.err and "num_classes=0" in captured.err
        assert captured.out == "" and not out.exists()

    def test_train_label_outside_num_classes_exit_2_before_writing(self, workspace, tmp_path,
                                                                   capsys):
        labeled = tmp_path / "labels.tsv"
        labeled.write_text("0\tzig zag\n5\tzag zum\n1\td00 d01\n")
        out = tmp_path / "run"
        extra = ["--train-file", str(labeled), "--num-classes", "2"]
        assert _train(workspace, out, extra=extra) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert str(labeled) in err and "[0, num_classes)" in err and "label 5" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("flag, field, value", [
        ("--lr", "lr", "nan"), ("--grad-clip", "grad_clip", "nan"),
        ("--epsilon", "epsilon", "inf"), ("--temperature", "temperature", "inf"),
        ("--weight-decay", "weight_decay", "-inf"), ("--dropout", "dropout", "nan"),
    ])
    def test_non_finite_float_flag_exit_2_before_writing(self, workspace, tmp_path, capsys,
                                                         reads, flag, field, value):
        out = tmp_path / "run"
        assert _train(workspace, out, extra=[f"{flag}={value}"]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert repr(field) in err and "finite" in err and "Traceback" not in err
        assert reads == [] and not out.exists()

    def test_non_finite_config_file_value_exit_2_named(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr=nan\n")
        out = tmp_path / "run"
        assert _train(workspace, out, extra=["--config", str(cfg)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert str(cfg) in err and "'lr'" in err and not out.exists()

    @pytest.mark.parametrize("labels, named", [
        ([0, 1, 1000000000], "no label 2, 3, 4, 5, 6, ... (999999998 missing"),
        ([0, 2, 3], "no label 1 (1 missing"),
    ])
    def test_inferred_num_classes_needs_every_label_exit_2_before_allocating(
            self, workspace, tmp_path, capsys, monkeypatch, labels, named):
        import callab.cli as cli_mod

        def refuse(*args, **kwargs):
            raise AssertionError("parameters allocated")

        monkeypatch.setattr(cli_mod.EncoderParams, "init_random", refuse)
        labeled = tmp_path / "labels.tsv"
        labeled.write_text("".join(f"{y}\tzig zag d0{i}\n" for i, y in enumerate(labels)))
        out = tmp_path / "run"
        assert _train(workspace, out, extra=["--train-file", str(labeled)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert str(labeled) in err and named in err and "--num-classes" in err
        assert "Traceback" not in err and not out.exists()

    def test_explicit_num_classes_still_allows_label_gaps(self, workspace, tmp_path):
        labeled = tmp_path / "labels.tsv"
        labeled.write_text("".join(f"{y}\tzig zag d0{i}\n" for i, y in enumerate([0, 2, 2, 0])))
        out = tmp_path / "run"
        extra = ["--train-file", str(labeled), "--num-classes", "3", "--max-steps", "2",
                 "--eval-interval-steps", "2"]
        assert _train(workspace, out, extra=extra) == EXIT_OK
        assert "num_classes=3" in (out / "config.resolved.txt").read_text()

    @pytest.mark.parametrize("max_len", ["1", "2"])
    def test_max_len_below_three_exit_2_before_writing(self, workspace, tmp_path, capsys,
                                                       reads, max_len):
        out = tmp_path / "run"
        assert _train(workspace, out, extra=["--max-len", max_len]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "'max_len': expected int >= 3" in err and "Traceback" not in err
        assert reads == [] and not out.exists()

    def test_similarity_run_whose_encoder_ranks_no_pair_scores_zero(self, workspace, tmp_path):
        """A vocab that knows no corpus word encodes both sentences of a pair alike,
        so every dev cosine is 1: Spearman is scored 0, the run is not ended mid-way."""
        unknown = tmp_path / "unknown_vocab.txt"
        unknown.write_text("zzz\n")
        out = tmp_path / "run"
        assert main([
            "train", "--mode", "uscal", "--train-file", str(workspace / "corpus.txt"),
            "--dev-file", str(workspace / "sims.tsv"), "--vocab-file", str(unknown),
            "--out-dir", str(out), *TRAIN_FLAGS, "--max-steps", "2", "--eval-interval-steps", "2",
        ]) == EXIT_OK
        assert (out / "evals.tsv").read_text().split() == ["2", "spearman", "0.000000"]

    @pytest.mark.parametrize("error, code", [
        (ValueError("bug"), None),
        (OSError("disk full"), EXIT_BAD_INPUT),
        (MetricError("undefined metric"), EXIT_BAD_INPUT),
        (NonFiniteLossError(0, float("nan")), EXIT_NONFINITE),
        (CheckpointError("mismatch"), EXIT_CKPT_MISMATCH),
    ], ids=["ValueError", "OSError", "MetricError", "NonFiniteLossError", "CheckpointError"])
    def test_main_alone_maps_error_kinds(self, workspace, tmp_path, monkeypatch, error, code):
        """An error outside EXIT_CODES, such as an engine bug, is re-raised."""
        import callab.trainer as trainer_mod

        def raising(*args, **kwargs):
            raise error

        monkeypatch.setattr(trainer_mod, "train_step", raising)
        argv = _train_args(workspace, tmp_path / "run", "ce", ["--max-steps", "2"])
        if code is None:
            assert not isinstance(error, tuple(EXIT_CODES))
            with pytest.raises(ValueError, match="bug"):
                main(argv)
        else:
            assert main(argv) == code


FUZZ_FLAGS = ["--hidden", "8", "--layers", "1", "--heads", "2", "--ffn-dim", "16",
              "--max-len", "8", "--batch-size", "8", "--max-steps", "2",
              "--eval-interval-steps", "2"]

FUZZ_TARGETS = [  # (command, role of the mutated file)
    ("train", "train"), ("train", "dev"), ("train", "vocab"),
    ("train-uscal", "corpus"), ("train-uscal", "sims"), ("train-uscal", "uvocab"),
    ("train-config", "config"),
    ("eval", "data"), ("eval", "vocab"), ("eval", "checkpoint"),
    ("eval-similarity", "sims"), ("eval-similarity", "uvocab"),
    ("embed", "sentences"), ("embed", "vocab"), ("build-vocab", "corpus"),
]

TEXT_MUTATIONS = ("empty", "one_row", "constant_scores", "bad_score", "bad_label", "non_utf8",
                  "crlf", "missing_tab", "long_row", "duplicate_line")
MUTATIONS_BY_ROLE = {
    "config": ("wrong_type", "empty", "non_utf8", "crlf", "duplicate_line"),
    "checkpoint": ("empty", "one_row", "non_utf8"),
}


def _mutate(blob, mutation, rng):
    """``blob`` (one input file) broken by one named mutation."""
    rows = blob.split(b"\n")
    i = int(rng.integers(len(rows)))

    def first_field(row, value):
        _, tab, rest = row.partition(b"\t")
        return value + tab + rest

    if mutation == "empty":
        return b""
    if mutation == "one_row":
        return rows[0] + b"\n"
    if mutation == "constant_scores":
        return b"\n".join(first_field(r, b"2.5") for r in rows)
    if mutation == "bad_score":
        rows[i] = first_field(rows[i], rng.choice([b"nan", b"inf", b"-inf", b"-1", b"7.5"]))
    elif mutation == "bad_label":
        rows[i] = first_field(rows[i], str(int(rng.integers(2, 10))).encode())
    elif mutation == "non_utf8":
        return _insert_non_utf8(blob, int(rng.integers(len(blob) + 1)))
    elif mutation == "crlf":
        return blob.replace(b"\n", b"\r\n")
    elif mutation == "missing_tab":
        rows[i] = rows[i].replace(b"\t", b" ")
    elif mutation == "long_row":
        rows[i] += b" zig" * 40
    elif mutation == "duplicate_line":
        rows.insert(i, rows[i])
    else:
        assert mutation == "wrong_type"
        cfg = json.loads(blob)
        key = str(rng.choice(sorted(cfg)))
        cfg[key] = [None, [1], 1.5, "x", {"a": 1}][int(rng.integers(5))]
        return json.dumps(cfg).encode()
    return b"\n".join(rows)


@pytest.fixture
def fuzz_files(workspace, tmp_path):
    """role -> path of the valid inputs the fuzz runs start from."""
    valid = tmp_path / "valid"
    valid.mkdir()

    def head(name, n):
        path = valid / name
        path.write_text("".join((workspace / name).read_text().splitlines(keepends=True)[:n]))
        return path

    files = {
        "train": head("train.tsv", 16), "dev": head("dev.tsv", 8),
        "corpus": head("corpus.txt", 16), "sims": head("sims.tsv", 8),
        "sentences": head("train_text.txt", 4),
        "vocab": workspace / "vocab.txt", "uvocab": workspace / "uvocab.txt",
    }
    files["data"] = files["dev"]
    files["checkpoint"] = _random_checkpoint(valid / "h8.ckpt", files["vocab"], 2)
    files["ucheckpoint"] = _random_checkpoint(valid / "u8.ckpt", files["uvocab"], 0)
    files["config"] = valid / "run.json"
    files["config"].write_text(json.dumps({
        "mode": "scal", "train_file": str(files["train"]), "dev_file": str(files["dev"]),
        "vocab_file": str(files["vocab"]), "hidden": 8, "layers": 1, "heads": 2,
        "ffn_dim": 16, "max_len": 8, "batch_size": 8, "max_steps": 2,
        "eval_interval_steps": 2, "lr": 0.002,
    }))
    return files


def _run_fuzz_case(argv, out, where, capsys, argparse_exit_ok=False):
    """The exit code of ``argv``, checked: documented, no traceback, exits 2 and 4 write nothing.

    Nothing may escape ``main``. With ``argparse_exit_ok`` a ``SystemExit(2)``
    is taken as exit 2, but only when parsing ``argv`` alone raises it: that
    is argparse refusing a flag value before any command runs."""
    try:
        code = main(argv)
    except (Exception, SystemExit) as exc:  # report the case, then fail
        if not (argparse_exit_ok and isinstance(exc, SystemExit) and exc.code == EXIT_BAD_INPUT):
            pytest.fail(f"{where}: raised {exc!r}")
        with pytest.raises(SystemExit) as parsed:
            build_parser().parse_args(argv)
        if parsed.value.code != EXIT_BAD_INPUT:
            pytest.fail(f"{where}: raised {exc!r} past argparse")
        code = EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_BAD_INPUT, EXIT_NONFINITE, EXIT_CKPT_MISMATCH), where
    assert "Traceback" not in err, where
    if code in (EXIT_BAD_INPUT, EXIT_CKPT_MISMATCH):
        assert not out.exists(), where
    return code


def test_seeded_cli_fuzz(fuzz_files, tmp_path, capsys):
    """Every mutation of every input of small valid runs, placed by a seeded RNG:
    each command ends on a documented exit code without a traceback, and
    exits 2 and 4 write nothing."""
    files = fuzz_files
    cases = [(command, role, mutation) for command, role in FUZZ_TARGETS
             for mutation in MUTATIONS_BY_ROLE.get(role, TEXT_MUTATIONS)] * 3
    seen = set()
    for seed, (command, role, mutation) in enumerate(cases):
        rng = np.random.default_rng(seed)
        case = tmp_path / f"case{seed}"
        case.mkdir()
        broken = dict(files)
        broken[role] = case / f"mutated-{role}"
        broken[role].write_bytes(_mutate(files[role].read_bytes(), mutation, rng))
        flags = FUZZ_FLAGS + (["--num-classes", "2"] if rng.random() < 0.5 else [])
        out = case / "out"
        argv = _command_argv(command, broken, out, flags)
        where = f"seed {seed}, mutation {mutation} of {role}, argv {argv}"
        seen.add(_run_fuzz_case(argv, out, where, capsys))
    assert {EXIT_OK, EXIT_BAD_INPUT, EXIT_CKPT_MISMATCH} <= seen


NUMERIC_EDGES = ("0", "-1", "nan", "inf", "-inf")


def test_cli_fuzz_numeric_flag_edges(fuzz_files, tmp_path, capsys):
    """Each edge value of each numeric flag of ``train`` and of ``eval --epsilon``
    on valid inputs ends like a mutated input does; every non-finite one exits 2."""
    numeric = [a.option_strings[0] for a in _subparser("train")._actions
               if a.type in (int, float)]
    cases = [("train", flag) for flag in numeric] + [("eval-attack", "--epsilon")]
    for i, ((command, flag), value) in enumerate(itertools.product(cases, NUMERIC_EDGES)):
        out = tmp_path / f"edge{i}"
        if command == "train":
            argv = _command_argv("train", fuzz_files, out, FUZZ_FLAGS + [f"{flag}={value}"])
        else:
            argv = _command_argv("eval", fuzz_files, out) + ["--attack", "fgm",
                                                             f"{flag}={value}"]
        code = _run_fuzz_case(argv, out, f"{command} {flag}={value}", capsys,
                              argparse_exit_ok=True)
        if value in ("nan", "inf", "-inf"):
            assert code == EXIT_BAD_INPUT, f"{command} {flag}={value}"
    assert len(numeric) == 20


class TestSelfcheck:
    def test_fresh_build_passes(self, capsys):
        assert main(["selfcheck"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_sign_flip_mutation_is_caught_and_named(self, monkeypatch, capsys):
        import callab.autodiff as eng

        original = eng._matmul_grad_a

        def flipped(g, b_d):
            return -original(g, b_d)

        monkeypatch.setattr(eng, "_matmul_grad_a", flipped)
        assert main(["selfcheck"]) == EXIT_SELFCHECK
        captured = capsys.readouterr()
        assert "grad:" in captured.err  # failing property names the gradient check
        first_fail = [l for l in captured.out.splitlines() if l.startswith("FAIL")][0]
        assert first_fail.startswith("FAIL grad:")

    @pytest.mark.parametrize("check, module, name, mutate", [
        ("grad:fidelity", autodiff, "_matmul_grad_b", lambda f: lambda a_d, g: 1.01 * f(a_d, g)),
        ("attack:norms", selfcheck, "fgm_perturb",
         lambda f: lambda emb, g, eps: emb + 1.001 * (f(emb, g, eps) - emb)),
        ("attack:ascent", attacks, "_perturb", lambda f: lambda emb, g, cfg: f(emb, -g, cfg)),
        ("loss:info_nce_oracle", selfcheck, "info_nce", lambda f: lambda a, k, t: f(a, k, 1.001 * t)),
        ("metric:oracles", selfcheck, "spearman", lambda f: lambda x, y: f(x, y) + 1e-9),
        ("eval:both_cores", metrics, "map_batches", lambda f: lambda *args: f(*args)[::-1]),
    ])
    def test_mutation_fails_its_check(self, monkeypatch, check, module, name, mutate):
        monkeypatch.setattr(module, name, mutate(getattr(module, name)))
        assert dict(selfcheck.ALL_CHECKS)[check]() is not None


class TestSynthData:
    def test_motif_labels_are_consistent(self):
        from callab.synthdata import _contains_motif

        train, dev = make_motif_task(200, 50, seed=1)
        for row in train + dev:
            assert _contains_motif(row.text_a.split()) == bool(row.label)

    def test_paraphrase_scores_span_levels(self):
        _, pairs = make_paraphrase_corpus(50, 50, seed=1)
        scores = {p.score for p in pairs}
        assert min(scores) == 0.0 and max(scores) == 5.0
        assert all(0.0 <= p.score <= 5.0 for p in pairs)

    def test_group_task_is_separable_by_vocabulary(self):
        rows = make_group_task(50, seed=0)
        for r in rows:
            prefixes = {w[0] for w in r.text_a.split()}
            assert prefixes == ({"b"} if r.label else {"a"})

    def test_writer_main_produces_cli_ready_files(self, tmp_path):
        from callab.synthdata import main as synth_main

        assert synth_main([str(tmp_path), "0"]) == 0
        for name in ("motif_train.tsv", "motif_dev.tsv", "paraphrase.txt", "sims.tsv"):
            assert (tmp_path / name).exists()
