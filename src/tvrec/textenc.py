"""Tokenization and tf-idf encoding of program text into sparse embeddings.

Embeddings are CSR rows (:class:`tvrec.arrays.Rows`), one per text, of the
dimension codes of its distinct tokens and float64 weights. The idf scheme is
the smoothed form ``ln((1+N)/(1+df)) + 1`` with raw term counts for tf and L2
normalization of non-zero rows, which bounds dot-product scores.
"""

from __future__ import annotations

import math
import re
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .arrays import Rows
from .errors import DataError

# Hiragana, katakana, and the main CJK ideograph blocks: treated as unigrams;
# everything else tokenizes as lowercased alphanumeric runs.
_CJK = "぀-ヿ㐀-䶿一-鿿"
_TOKEN_RE = re.compile(f"[{_CJK}]|[^\\W_{_CJK}]+")


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric runs, CJK chars as unigrams."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocabulary:
    """Fitted token inventory: token -> (dimension index, idf weight)."""

    index: Mapping[str, int]
    idf: Mapping[str, float]

    @property
    def size(self) -> int:
        return len(self.index)

    def to_dict(self) -> dict:
        tokens = sorted(self.index, key=self.index.__getitem__)
        return {"tokens": [[t, self.index[t], self.idf[t]] for t in tokens]}


class _Codes(dict):
    """Token -> code, numbering a token it has not seen by its arrival."""

    def __missing__(self, token: str) -> int:
        code = self[token] = len(self)
        return code


def fit(texts: Sequence[str]) -> tuple[Vocabulary, Rows]:
    """Fit idf weights over ``texts``, tokenizing each text once.

    Every token of the texts enters the vocabulary, indexed in alphabetical
    order. Returns the vocabulary and every text's term counts, for
    :func:`encode`: row ``i`` holds the dimension codes of text ``i``'s
    distinct tokens, in order of first occurrence, and how often each occurs.
    Raises :class:`DataError` when the texts hold no token at all.
    """
    codes = _Codes()
    ptr = np.zeros(len(texts) + 1, dtype=np.int64)
    col, counts = array("i"), array("i")
    for i, text in enumerate(texts, 1):
        tf = Counter(tokenize(text))
        col.extend(map(codes.__getitem__, tf))
        counts.extend(tf.values())
        ptr[i] = len(col)
    if not codes:
        raise DataError("the corpus holds no token: it has no text, or only empty ones")

    tokens = sorted(codes)
    dim_of = np.argsort([codes[t] for t in tokens]).astype(np.int32)
    dims = dim_of[np.frombuffer(col, dtype=np.int32)]
    df = np.bincount(dims, minlength=len(tokens)).tolist()
    # math.log, not np.log, whose last bit may differ.
    vocab = Vocabulary(
        index={t: i for i, t in enumerate(tokens)},
        idf={t: math.log((1 + len(texts)) / (1 + d)) + 1.0 for t, d in zip(tokens, df)},
    )
    return vocab, Rows(ptr, dims, np.frombuffer(counts, dtype=np.int32))


def encode(vocab: Vocabulary, counts: Rows) -> Rows:
    """Encode rows of :func:`fit`'s term counts as L2-normalized tf-idf rows,
    entries in the same order; a row without tokens stays empty."""
    idf = np.array([vocab.idf[t] for t in vocab.index])
    weights = counts.val * idf[counts.col]
    # Each row's squared norm, added in entry order as Python's sum adds
    # (numpy's sum regroups the additions).
    lens = np.diff(counts.ptr)
    norm2 = np.zeros(len(lens))
    np.add.at(norm2, np.repeat(np.arange(len(lens)), lens), weights * weights)
    inv = np.zeros(len(lens))
    np.divide(1.0, np.sqrt(norm2), out=inv, where=norm2 > 0)
    return Rows(counts.ptr, counts.col, weights * np.repeat(inv, lens))
