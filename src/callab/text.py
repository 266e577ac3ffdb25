"""Vocabulary, tokenization, dataset loading, and batching.

A deliberately simple whitespace-plus-punctuation tokenizer stands in for a
subword tokenizer; the training objectives are tokenizer-agnostic. Sentence
pairs are packed into one sequence as [CLS] s1 [SEP] s2 [SEP].
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .autodiff import derive_seed, rng_from_seed

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3
RESERVED = ("[PAD]", "[UNK]", "[CLS]", "[SEP]")

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


class DataFormatError(ValueError):
    """A dataset line does not match its documented format."""


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, and split punctuation into its own tokens."""
    return _TOKEN_RE.findall(text.lower())


class Vocab:
    """Token-to-id map with reserved ids 0..3 for [PAD], [UNK], [CLS], [SEP]."""

    def __init__(self, tokens: Sequence[str]):
        self._id_to_token: list[str] = list(RESERVED) + list(tokens)
        self._token_to_id: dict[str, int] = {
            tok: i for i, tok in enumerate(self._id_to_token)
        }
        if len(self._token_to_id) != len(self._id_to_token):
            raise ValueError("duplicate token in vocabulary")

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def id_of(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def token_of(self, idx: int) -> str:
        return self._id_to_token[idx]

    def encode_tokens(self, tokens: Iterable[str]) -> list[int]:
        get = self._token_to_id.get
        return [get(t, UNK_ID) for t in tokens]

    def save(self, path: str) -> None:
        """One non-reserved token per line; id = line number - 1 + 4."""
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self._id_to_token[len(RESERVED) :]:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path: str) -> "Vocab":
        with open(path, encoding="utf-8") as fh:
            tokens = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
        return cls(tokens)


def build_vocab(corpus: Iterable[str], min_freq: int = 1) -> Vocab:
    """Count tokens over the corpus lines and keep those with frequency >= min_freq.

    Id order is deterministic: frequency descending, then lexicographic.
    """
    counts: Counter[str] = Counter()
    n_lines = 0
    for line in corpus:
        n_lines += 1
        counts.update(tokenize(line))
    if n_lines == 0:
        raise ValueError("build_vocab: empty corpus")
    kept = [t for t, c in counts.items() if c >= min_freq]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocab(kept)


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


@dataclass
class LabeledExample:
    label: int
    text_a: str
    text_b: Optional[str] = None


@dataclass
class ScoredPair:
    score: float
    text_a: str
    text_b: str


def _tsv_fields(path: str, widths: tuple[int, ...]):
    """``("path:lineno", fields)`` for each non-blank line, which must have ``widths`` fields."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) not in widths:
                expected = " or ".join(map(str, widths))
                raise DataFormatError(
                    f"{path}:{lineno}: expected {expected} tab-separated fields, got {len(parts)}"
                )
            yield f"{path}:{lineno}", parts


def load_supervised_tsv(path: str) -> list[LabeledExample]:
    """Rows of ``label<TAB>sentence1[<TAB>sentence2]`` with integer labels."""
    rows: list[LabeledExample] = []
    for where, parts in _tsv_fields(path, (2, 3)):
        try:
            label = int(parts[0])
        except ValueError:
            raise DataFormatError(f"{where}: label {parts[0]!r} is not an integer") from None
        if label < 0:
            raise DataFormatError(f"{where}: label must be >= 0")
        rows.append(LabeledExample(label, parts[1], parts[2] if len(parts) == 3 else None))
    return rows


def load_unsupervised_lines(path: str) -> list[str]:
    """One sentence per line; blank lines are skipped."""
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def load_similarity_tsv(path: str) -> list[ScoredPair]:
    """Rows of ``score<TAB>sentence1<TAB>sentence2`` with score in [0, 5]."""
    rows: list[ScoredPair] = []
    for where, parts in _tsv_fields(path, (3,)):
        try:
            score = float(parts[0])
        except ValueError:
            raise DataFormatError(f"{where}: score {parts[0]!r} is not a number") from None
        if not 0.0 <= score <= 5.0:
            raise DataFormatError(f"{where}: score {score} outside [0, 5]")
        rows.append(ScoredPair(score, parts[1], parts[2]))
    return rows


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    """Padded token-id matrix plus mask, with optional labels."""

    token_ids: np.ndarray          # int64, B x L; L = min(max_len, longest packed row)
    attn_mask: np.ndarray          # float32 0/1, B x L; 1 exactly on non-PAD slots
    labels: Optional[np.ndarray] = None        # int64, B

    @property
    def size(self) -> int:
        return self.token_ids.shape[0]


def _pack_ids(example: Union[LabeledExample, ScoredPair, str], vocab: Vocab,
              max_len: int, row_index: int) -> list[int]:
    if isinstance(example, str):
        text_a, text_b = example, None
    else:
        text_a, text_b = example.text_a, getattr(example, "text_b", None)
    if text_a is None:
        raise ValueError(f"encode_batch: row {row_index} is missing its sentence")
    ids = [CLS_ID] + vocab.encode_tokens(tokenize(text_a)) + [SEP_ID]
    if text_b is not None:
        ids += vocab.encode_tokens(tokenize(text_b)) + [SEP_ID]
    if len(ids) > max_len:
        ids = ids[: max_len - 1] + [SEP_ID]
    return ids


# the shortest row a batch can hold: [CLS], one token, [SEP]
MIN_MAX_LEN = 3


def encode_batch(
    rows: Sequence[Union[LabeledExample, ScoredPair, str]],
    vocab: Vocab,
    max_len: int,
) -> Batch:
    """Tokenize and pad rows into one batch.

    Sequences are truncated to ``max_len`` keeping [CLS] and the trailing
    [SEP], then right-padded with [PAD] to the longest packed row, so the
    batch width is ``min(max_len, longest row)``; the mask marks non-pad
    positions. The encoder draws its dropout masks at ``max_len``, so the
    width never changes a value at a real position.
    """
    if max_len < MIN_MAX_LEN:
        raise ValueError(f"encode_batch: max_len must be >= {MIN_MAX_LEN}, got {max_len}")
    if not rows:
        raise ValueError("encode_batch: empty row list")
    packed = [_pack_ids(r, vocab, max_len, i) for i, r in enumerate(rows)]
    width = max(len(ids) for ids in packed)
    b = len(packed)
    token_ids = np.full((b, width), PAD_ID, dtype=np.int64)
    mask = np.zeros((b, width), dtype=np.float32)
    for i, ids in enumerate(packed):
        token_ids[i, : len(ids)] = ids
        mask[i, : len(ids)] = 1.0

    labels = None
    if isinstance(rows[0], LabeledExample):
        labels = np.array([r.label for r in rows], dtype=np.int64)
    return Batch(token_ids, mask, labels=labels)


def shuffled_indices(n: int, seed: int, epoch: int) -> np.ndarray:
    """Deterministic permutation of range(n) for one epoch."""
    return rng_from_seed(derive_seed(seed, "shuffle", epoch)).permutation(n)


def iter_batches(
    rows: Sequence,
    vocab: Vocab,
    max_len: int,
    batch_size: int,
    seed: int,
    epoch: int,
):
    """Yield shuffled Batches covering ``rows`` once; the final short batch is kept."""
    n = len(rows)
    order = shuffled_indices(n, seed, epoch)
    for start in range(0, n, batch_size):
        take = order[start : start + batch_size]
        yield encode_batch([rows[i] for i in take], vocab, max_len)
