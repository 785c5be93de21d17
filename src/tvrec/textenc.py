"""Tokenization and tf-idf encoding of program text into sparse embeddings.

Embeddings are sparse vectors represented as ``{dimension_index: weight}``
dicts. The idf scheme is the smoothed form ``ln((1+N)/(1+df)) + 1`` with raw
term counts for tf and L2 normalization of non-zero vectors, which bounds
dot-product scores and avoids division by zero for unseen tokens.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Container, Iterable, Mapping

from .errors import DataError

Embedding = dict[int, float]

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


def term_counts(text: str) -> Counter[str]:
    """How often each token occurs in ``text``, in order of first occurrence."""
    return Counter(tokenize(text))


def fit(
    corpus: Iterable[tuple[str, str]], keep: Container[str] = frozenset()
) -> tuple[Vocabulary, dict[str, Counter[str]]]:
    """Fit idf weights over a corpus of ``(program_id, text)`` pairs.

    Every token of the corpus enters the vocabulary, indexed in alphabetical
    order. Each text is tokenized once: the :func:`term_counts` of the
    documents whose id is in ``keep`` come back with the vocabulary, keyed by
    id, for :func:`encode`. Raises :class:`DataError` when the corpus is empty
    or yields no tokens at all.
    """
    df: Counter[str] = Counter()
    counts: dict[str, Counter[str]] = {}
    n_docs = 0
    for pid, text in corpus:
        n_docs += 1
        if pid in keep:
            tf = counts[pid] = term_counts(text)
            df.update(tf.keys())
        else:
            df.update(set(tokenize(text)))
    if n_docs == 0:
        raise DataError("cannot fit a vocabulary on an empty corpus")
    if not df:
        raise DataError("corpus contains no tokens; all documents are empty")

    tokens = sorted(df)
    index = {t: i for i, t in enumerate(tokens)}
    idf = {t: math.log((1 + n_docs) / (1 + df[t])) + 1.0 for t in tokens}
    return Vocabulary(index=index, idf=idf), counts


def encode(vocab: Vocabulary, tf: Mapping[str, int]) -> Embedding:
    """Encode a text's :func:`term_counts` as an L2-normalized sparse tf-idf
    vector; out-of-vocabulary tokens are ignored and a text with no known
    tokens encodes to the zero vector."""
    vec: Embedding = {}
    index = vocab.index
    idf = vocab.idf
    for token, count in tf.items():
        i = index.get(token)
        if i is not None:
            vec[i] = count * idf[token]
    if vec:
        inv = 1.0 / math.sqrt(sum(w * w for w in vec.values()))
        vec = {i: w * inv for i, w in vec.items()}
    return vec


def dot(a: Embedding, b: Embedding) -> float:
    """Sparse dot product."""
    if len(a) > len(b):
        a, b = b, a
    get = b.get
    return sum(w * get(i, 0.0) for i, w in a.items())


def mean_embedding(vectors: Iterable[Embedding]) -> Embedding:
    """Arithmetic mean of sparse vectors (no re-normalization)."""
    acc: dict[int, float] = {}
    count = 0
    for vec in vectors:
        count += 1
        for i, w in vec.items():
            acc[i] = acc.get(i, 0.0) + w
    if count == 0:
        raise ValueError("mean of zero embeddings is undefined")
    inv = 1.0 / count
    return {i: w * inv for i, w in acc.items()}
