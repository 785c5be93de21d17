"""Tokenization and tf-idf encoding of program text into sparse embeddings.

Embeddings are CSR rows (:class:`tvrec.arrays.Rows`), one per text, of the
dimension codes of its distinct tokens and float64 weights. The idf scheme is
the smoothed form ``ln((1+N)/(1+df)) + 1`` with raw term counts for tf and L2
normalization of non-zero rows, which bounds dot-product scores.

:func:`tokenize` defines a token. :func:`fit` gets the same tokens without
tokenizing text by text or counting in a per-text ``Counter``: it splits
blocks of texts with one ``findall`` each and counts the (text, token) pairs
of a block with one ``np.unique``.
"""

from __future__ import annotations

import functools
import math
import re
from array import array
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


_FIT_BLOCK_TEXTS = 2048


@functools.cache
def _block_tokens() -> re.Pattern[str]:
    """A token, or the "\\n" that ends a text in a block of texts joined by
    "\\n". Compiled on first use, since a process that only serves never
    fits: compiling it takes about 1.5 ms."""
    return re.compile(f"\n|{_TOKEN_RE.pattern}")


def fit(texts: Sequence[str]) -> tuple[Vocabulary, Rows]:
    """Fit idf weights over ``texts``, tokenizing each text once.

    Every token of the texts enters the vocabulary, indexed in alphabetical
    order. Returns the vocabulary and every text's term counts, for
    :func:`encode`: row ``i`` holds the dimension codes of text ``i``'s
    distinct tokens, in order of first occurrence, and how often each occurs.
    Raises :class:`DataError` when the texts hold no token at all.

    No text is tokenized on its own. Each block of ``_FIT_BLOCK_TEXTS`` texts
    is joined by ``"\n"`` (after any ``"\n"`` inside a text becomes a space,
    which separates tokens as well), lowercased and split with one
    ``findall`` that also yields each joining ``"\n"``. That gives every
    text's :func:`tokenize` tokens: neither character is cased or
    case-ignorable, so lowercasing, Greek final sigma included, sees each
    text's ends as it would alone. The (text, token) pairs are then counted
    with ``np.unique``, in order of first occurrence.
    """
    codes = _Codes()
    end = codes["\n"]
    ptr = np.zeros(len(texts) + 1, dtype=np.int64)
    col, counts = array("i"), array("i")
    for lo in range(0, len(texts), _FIT_BLOCK_TEXTS):
        block = texts[lo : lo + _FIT_BLOCK_TEXTS]
        joined = "\n".join(block)
        if joined.count("\n") != len(block) - 1:
            joined = "\n".join(text.replace("\n", " ") for text in block)
        found = np.fromiter(map(codes.__getitem__, _block_tokens().findall(joined.lower())), dtype=np.int64)
        text = np.cumsum(found == end)  # each token's text in the block
        token = found != end
        # One key per (text, token) pair, in text order; unique's first index
        # orders each text's distinct tokens by first occurrence.
        pairs, first, n = np.unique(text[token] * len(codes) + found[token], return_index=True, return_counts=True)
        by_first = np.argsort(first)
        pairs, n = pairs[by_first], n[by_first]
        ptr[lo + 1 : lo + len(block) + 1] = len(col) + np.cumsum(np.bincount(pairs // len(codes), minlength=len(block)))
        col.frombytes((pairs % len(codes)).astype(np.int32).tobytes())
        counts.frombytes(n.astype(np.int32).tobytes())
    del codes["\n"]
    if not codes:
        raise DataError("the corpus holds no token: it has no text, or only empty ones")

    tokens = sorted(codes)
    dim_of = np.zeros(len(codes) + 1, dtype=np.int32)  # by code; code 0 is the "\n"
    dim_of[[codes[t] for t in tokens]] = np.arange(len(tokens), dtype=np.int32)
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
