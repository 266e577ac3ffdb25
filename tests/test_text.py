"""Tokenizer, vocabulary, loader, and batching tests."""

import collections
import re

import numpy as np
import pytest

from callab.text import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    Batch,
    DataFormatError,
    LabeledExample,
    ScoredPair,
    Vocab,
    build_vocab,
    encode_batch,
    iter_batches,
    load_similarity_tsv,
    load_supervised_tsv,
    load_unsupervised_lines,
    shuffled_indices,
    tokenize,
)


class TestTokenize:
    def test_punctuation_split(self):
        assert tokenize("Hello, world!") == ["hello", ",", "world", "!"]

    def test_empty(self):
        assert tokenize("") == []

    def test_alnum_runs_survive(self, rng):
        alphabet = "ab1 ,.!?-_\t"
        for _ in range(200):
            n = int(rng.integers(0, 30))
            text = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=n))
            joined = "".join(tokenize(text))
            for run in re.findall(r"[a-z0-9]+", text.lower()):
                assert run in joined


class TestVocab:
    def test_reserved_ids(self):
        v = Vocab(["apple"])
        assert v.id_of("[PAD]") == PAD_ID == 0
        assert v.id_of("[UNK]") == UNK_ID == 1
        assert v.id_of("[CLS]") == CLS_ID == 2
        assert v.id_of("[SEP]") == SEP_ID == 3
        assert v.id_of("apple") == 4

    def test_unknown_maps_to_unk(self):
        v = Vocab(["apple"])
        assert v.id_of("zebra") == UNK_ID

    def test_min_freq_filter(self):
        v = build_vocab(["a a b"], min_freq=2)
        assert "a" in v and "b" not in v

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([], min_freq=1)

    def test_determinism(self, tmp_path):
        corpus = ["the cat sat", "the dog sat", "a cat ran"]
        v1 = build_vocab(corpus, min_freq=1)
        v2 = build_vocab(corpus, min_freq=1)
        p1, p2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        v1.save(str(p1))
        v2.save(str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_id_order_matches_frequency_oracle(self, rng):
        words = [f"w{i}" for i in range(50)]
        lines = []
        for _ in range(1000):
            k = int(rng.integers(1, 8))
            lines.append(" ".join(words[i] for i in rng.integers(0, 50, size=k)))
        v = build_vocab(lines, min_freq=1)
        counts = collections.Counter(tok for line in lines for tok in line.split())
        want = sorted(counts, key=lambda t: (-counts[t], t))
        got = [v.token_of(i) for i in range(4, len(v))]
        assert got == want

    def test_save_load_roundtrip_stable_ids(self, tmp_path):
        v = build_vocab(["red green blue", "green blue", "blue"], min_freq=1)
        path = tmp_path / "v.txt"
        v.save(str(path))
        loaded = Vocab.load(str(path))
        assert len(loaded) == len(v)
        for i in range(len(v)):
            assert loaded.token_of(i) == v.token_of(i)

    def test_file_format_line_to_id(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("alpha\nbeta\n")
        v = Vocab.load(str(path))
        assert v.id_of("alpha") == 4  # line 1 - 1 + 4 reserved
        assert v.id_of("beta") == 5


class TestEncodeBatch:
    @pytest.fixture
    def vocab(self):
        return Vocab(["a", "b", "c", "d", "e"])

    def test_single_sentence_layout(self, vocab):
        # the longer companion row sets the batch width, so row 0 gets a [PAD]
        batch = encode_batch(["a b", "a b c"], vocab, max_len=8)
        np.testing.assert_array_equal(
            batch.token_ids[0],
            [CLS_ID, vocab.id_of("a"), vocab.id_of("b"), SEP_ID, PAD_ID],
        )
        np.testing.assert_array_equal(batch.attn_mask[0], [1, 1, 1, 1, 0])
        np.testing.assert_array_equal(batch.attn_mask[1], [1, 1, 1, 1, 1])

    def test_width_is_longest_row_capped_at_max_len(self, vocab, rng):
        for _ in range(20):
            n = int(rng.integers(1, 8))
            rows = [" ".join("a" for _ in range(int(rng.integers(0, 14)))) for _ in range(n)]
            L = int(rng.integers(3, 12))
            batch = encode_batch(rows, vocab, L)
            longest = max(len(r.split()) + 2 for r in rows)
            assert batch.token_ids.shape == batch.attn_mask.shape == (n, min(L, longest))
            # some row fills the width: no all-padding column is kept
            assert batch.attn_mask[:, -1].max() == 1.0

    def test_pair_packing(self, vocab):
        rows = [LabeledExample(1, "a b", "c")]
        batch = encode_batch(rows, vocab, max_len=8)
        ids = list(batch.token_ids[0][batch.attn_mask[0] > 0])
        assert ids == [
            CLS_ID, vocab.id_of("a"), vocab.id_of("b"), SEP_ID, vocab.id_of("c"), SEP_ID,
        ]
        assert batch.labels[0] == 1

    def test_truncation_keeps_cls_and_sep(self, vocab):
        long = " ".join(["a"] * 30)
        batch = encode_batch([long], vocab, max_len=6)
        row = batch.token_ids[0]
        assert batch.attn_mask[0].sum() == 6
        assert row[0] == CLS_ID and row[-1] == SEP_ID

    def test_mask_sums_match_count_oracle(self, vocab, rng):
        rows = []
        for _ in range(64):
            n = int(rng.integers(0, 20))
            rows.append(" ".join("a" for _ in range(n)))
        L = 12
        batch = encode_batch(rows, vocab, L)
        for i, row in enumerate(rows):
            count = len(row.split())
            assert batch.attn_mask[i].sum() == min(count + 2, L)

    def test_roundtrip_decode(self, vocab):
        text = "a b c d"
        batch = encode_batch([text], vocab, max_len=10)
        ids = batch.token_ids[0][batch.attn_mask[0] > 0]
        toks = [vocab.token_of(int(i)) for i in ids]
        assert toks == ["[CLS]", "a", "b", "c", "d", "[SEP]"]

    def test_unknown_token_becomes_unk(self, vocab):
        batch = encode_batch(["a zzz"], vocab, max_len=6)
        assert batch.token_ids[0][2] == UNK_ID

    def test_max_len_minimum(self, vocab):
        with pytest.raises(ValueError):
            encode_batch(["a"], vocab, max_len=2)

    def test_missing_sentence_rejected_with_index(self, vocab):
        with pytest.raises(ValueError, match="row 1"):
            encode_batch([LabeledExample(0, "a"), LabeledExample(0, None)], vocab, 6)

    def test_label_range_recorded(self, vocab):
        rows = [LabeledExample(0, "a"), LabeledExample(2, "b")]
        batch = encode_batch(rows, vocab, 6)
        assert batch.labels.tolist() == [0, 2]


class TestLoaders:
    def test_supervised_single(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("1\tgood movie\n0\tbad film\n")
        rows = load_supervised_tsv(str(p))
        assert rows[0] == LabeledExample(1, "good movie")
        assert rows[1].label == 0

    def test_supervised_pair(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("1\tsent one\tsent two\n")
        rows = load_supervised_tsv(str(p))
        assert rows[0].text_b == "sent two"

    def test_supervised_bad_label_reports_line(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("1\tok\nx\tbad\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_supervised_tsv(str(p))

    def test_supervised_bad_columns(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("only one field\n")
        with pytest.raises(DataFormatError, match=":1"):
            load_supervised_tsv(str(p))

    def test_similarity_basic(self, tmp_path):
        p = tmp_path / "s.tsv"
        p.write_text("4.6\ta man\ta person\n")
        rows = load_similarity_tsv(str(p))
        assert rows[0] == ScoredPair(4.6, "a man", "a person")

    def test_similarity_score_range(self, tmp_path):
        p = tmp_path / "s.tsv"
        p.write_text("5.1\ta\tb\n")
        with pytest.raises(DataFormatError, match=r"\[0, 5\]"):
            load_similarity_tsv(str(p))

    def test_unsupervised_skips_blanks(self, tmp_path):
        p = tmp_path / "u.txt"
        p.write_text("first\n\nsecond\n")
        assert load_unsupervised_lines(str(p)) == ["first", "second"]


class TestBatchIteration:
    def test_shuffle_is_reproducible(self):
        a = shuffled_indices(100, seed=5, epoch=2)
        b = shuffled_indices(100, seed=5, epoch=2)
        np.testing.assert_array_equal(a, b)
        c = shuffled_indices(100, seed=5, epoch=3)
        assert not np.array_equal(a, c)

    def test_epoch_covers_all_rows_and_keeps_short_batch(self):
        rows = [f"w{i}" for i in range(10)]
        vocab = Vocab(rows)
        batches = list(iter_batches(rows, vocab, 4, batch_size=4, seed=0, epoch=0))
        assert [b.size for b in batches] == [4, 4, 2]
        seen = [vocab.token_of(int(b.token_ids[r, 1])) for b in batches for r in range(b.size)]
        assert sorted(seen) == sorted(rows)

    def test_identical_epochs_across_runs(self):
        rows = [f"w{i}" for i in range(17)]
        vocab = Vocab(rows)
        run1 = [b.token_ids.tolist() for b in iter_batches(rows, vocab, 4, 5, seed=9, epoch=1)]
        run2 = [b.token_ids.tolist() for b in iter_batches(rows, vocab, 4, 5, seed=9, epoch=1)]
        assert run1 == run2
