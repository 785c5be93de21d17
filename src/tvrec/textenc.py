"""Tokenization and tf-idf encoding of program text into sparse embeddings.

Embeddings are CSR rows (:class:`tvrec.arrays.Rows`), one per text, of the
dimension codes of its distinct tokens and float64 weights. The idf scheme is
the smoothed form ``ln((1+N)/(1+df)) + 1`` with raw term counts for tf and L2
normalization of non-zero rows, which bounds dot-product scores.

:func:`tokenize` defines a token. :func:`fit` gets the same tokens without
tokenizing text by text or counting in a per-text ``Counter``. It splits a
block of texts that is ASCII once lowercased by one pass over its bytes: a
byte-class table marks ``[a-z0-9]``, each maximal run is a token, and
:func:`tvrec.arrays.intern` numbers the tokens as it numbers names in the
parsers. Any other block is split by one ``findall``. Either way the
(text, token) pairs of a block are counted with one ``np.unique``.
"""

from __future__ import annotations

import functools
import math
import re
from array import array
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .arrays import INTERN_BYTES, Rows, intern
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


@functools.cache
def _token_bytes() -> np.ndarray:
    """Whether each byte value is one of ``[a-z0-9]``: on lowercased ASCII
    text, a token is a maximal run of them. Built on first use."""
    table = np.zeros(256, dtype=bool)
    table[np.frombuffer(b"abcdefghijklmnopqrstuvwxyz0123456789", dtype=np.uint8)] = True
    return table


def _ascii_tokens(lowered: str, codes: _Codes) -> tuple[np.ndarray, np.ndarray] | None:
    """Each token's text and code in ``lowered``, an ASCII block of texts
    joined by "\\n", found by a byte-class pass and numbered by
    :func:`tvrec.arrays.intern`; None when a token is longer than
    ``INTERN_BYTES``."""
    data = lowered.encode("ascii") + bytes(INTERN_BYTES)  # ends in a byte outside every token
    raw = np.frombuffer(data, dtype=np.uint8)
    is_token = _token_bytes()[raw]
    # Where a run of token bytes starts or ends, in turn: no run reaches the
    # padding. One pass and one index array, so the block's working set stays
    # small.
    edge = np.flatnonzero(is_token[1:] != is_token[:-1])
    edge += 1
    if is_token[0]:
        edge = np.concatenate(([0], edge))
    start, stop = edge[0::2], edge[1::2]
    if len(start) and int((stop - start).max()) > INTERN_BYTES:
        return None
    text = np.searchsorted(np.flatnonzero(raw == ord("\n")), start)
    return text, intern(lowered, data, start, stop, codes)


def fit(texts: Sequence[str]) -> tuple[Vocabulary, Rows]:
    """Fit idf weights over ``texts``, tokenizing each text once.

    Every token of the texts enters the vocabulary, indexed in alphabetical
    order. Returns the vocabulary and every text's term counts, for
    :func:`encode`: row ``i`` holds the dimension codes of text ``i``'s
    distinct tokens, in order of first occurrence, and how often each occurs.
    Raises :class:`DataError` when the texts hold no token at all.

    No text is tokenized on its own. Each block of ``_FIT_BLOCK_TEXTS`` texts
    is joined by ``"\n"`` (after any ``"\n"`` inside a text becomes a space,
    which separates tokens as well) and lowercased. That gives every text's
    :func:`tokenize` tokens: neither character is cased or case-ignorable, so
    lowercasing, Greek final sigma included, sees each text's ends as it
    would alone. A block that is ASCII once lowercased, with no token longer
    than ``INTERN_BYTES``, is split by a byte-class pass (see
    :func:`_ascii_tokens`); any other block by one ``findall`` that also
    yields each joining ``"\n"``. Both number tokens in one table, in order
    of arrival. The (text, token) pairs are then counted with ``np.unique``,
    in order of first occurrence.
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
        lowered = joined.lower()
        found = _ascii_tokens(lowered, codes) if lowered.isascii() else None
        if found is None:
            tokens = np.fromiter(map(codes.__getitem__, _block_tokens().findall(lowered)), dtype=np.int64)
            is_token = tokens != end
            found = np.cumsum(~is_token)[is_token], tokens[is_token]
        text, token = found  # each token's text in the block, and its code
        # One key per (text, token) pair, in text order; unique's first index
        # orders each text's distinct tokens by first occurrence.
        pairs, first, n = np.unique(text * len(codes) + token, return_index=True, return_counts=True)
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
