import json
import math
import random

import numpy as np
import pytest

from oracles import dot, encode_dict, fit_dicts, l2_norm, mean_embedding, row_dicts, term_counts
from tvrec import synth, textenc
from tvrec.errors import DataError
from tvrec.textenc import (
    encode,
    fit,
    tokenize,
)

CORPUS = ["news tokyo", "news sports"]


def embeddings(texts):
    """Every text's tf-idf embedding as a dict, fitted on ``texts``."""
    return row_dicts(encode(*fit(texts)))


def test_tokenize_lowercases_and_splits():
    assert tokenize("Tokyo News 2019") == ["tokyo", "news", "2019"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_deterministic():
    text = "Late Night MOVIE marathon 42"
    assert tokenize(text) == tokenize(text)


def test_tokenize_cjk_characters_are_unigrams():
    assert tokenize("東京news") == ["東", "京", "news"]


def test_tokenize_keeps_accented_word_runs():
    assert tokenize("Café Olé") == ["café", "olé"]


def test_idf_token_in_every_document():
    vocab, _ = fit(CORPUS)
    assert vocab.idf["news"] == pytest.approx(1.0)
    assert min(vocab.idf.values()) == vocab.idf["news"]


def test_idf_token_in_half_the_documents():
    vocab, _ = fit(CORPUS)
    assert vocab.idf["tokyo"] == pytest.approx(math.log(3 / 2) + 1, abs=1e-12)


def test_encode_weights_and_normalization():
    vocab, counts = fit(CORPUS)
    emb = row_dicts(encode(vocab, counts))[0]  # "news tokyo"
    weights = {tok: emb[vocab.index[tok]] for tok in ("news", "tokyo")}
    assert weights["news"] == pytest.approx(0.580, abs=1e-3)
    assert weights["tokyo"] == pytest.approx(0.815, abs=1e-3)
    # Each token occurs once, so normalization keeps the ratio of the raw
    # tf-idf weights: idf(tokyo) / idf(news).
    assert weights["tokyo"] / weights["news"] == pytest.approx(math.log(3 / 2) + 1, abs=1e-12)
    assert l2_norm(emb) == pytest.approx(1.0, abs=1e-12)


def test_encode_empty_text_is_zero_vector():
    assert embeddings([*CORPUS, "", "  ...  "])[2:] == [{}, {}]


def test_encode_deterministic():
    vocab, counts = fit(["news sports tokyo"])
    assert row_dicts(encode(vocab, counts)) == row_dicts(encode(vocab, counts))


def test_fit_empty_corpus_rejected():
    with pytest.raises(DataError):
        fit([])
    with pytest.raises(DataError):
        fit(["", "  "])


def test_vocabulary_indices_are_a_bijection():
    vocab, _ = fit(["x y z", "y z w", "z w v"])
    assert sorted(vocab.index.values()) == list(range(vocab.size))


def test_nonzero_embeddings_have_unit_norm():
    rng = random.Random(2)
    words = [f"w{i}" for i in range(40)]
    corpus = [" ".join(rng.choices(words, k=rng.randint(1, 12))) for _ in range(60)]
    for emb in embeddings(corpus):
        if emb:
            assert abs(l2_norm(emb) - 1.0) <= 1e-9


def test_adding_a_document_recomputes_idf_per_formula():
    rng = random.Random(4)
    words = [f"w{i}" for i in range(10)]
    docs = [" ".join(rng.choices(words, k=5)) for _ in range(8)]
    for cut in range(1, len(docs)):
        base = docs[:cut]
        grown = base + [docs[cut]]
        (v0, _), (v1, _) = fit(base), fit(grown)
        n, df1 = cut + 1, {}
        for text in grown:
            for tok in set(tokenize(text)):
                df1[tok] = df1.get(tok, 0) + 1
        for tok in v0.index:
            assert v1.idf[tok] == pytest.approx(math.log((1 + n) / (1 + df1[tok])) + 1)


def test_vocabulary_json_round_trip():
    vocab, _ = fit(CORPUS)
    tokens = json.loads(json.dumps(vocab.to_dict()))["tokens"]
    assert [t for t, _, _ in tokens] == sorted(vocab.index, key=vocab.index.__getitem__)
    assert {t: i for t, i, _ in tokens} == vocab.index
    assert {t: w for t, _, w in tokens} == vocab.idf


def test_dot_and_mean_helpers():
    a = {0: 1.0, 2: 2.0}
    b = {0: 0.5, 1: 3.0}
    assert dot(a, b) == pytest.approx(0.5)
    assert dot(b, a) == pytest.approx(0.5)
    mean = mean_embedding([a, b])
    assert mean == {0: 0.75, 2: 1.0, 1: 1.5}
    with pytest.raises(ValueError):
        mean_embedding([])


def test_fit_returns_every_texts_term_counts_in_first_occurrence_order():
    texts = ["News TOKYO news", "", "news sports", "東京 news"]
    vocab, counts = fit(texts)
    token = sorted(vocab.index, key=vocab.index.__getitem__)
    rows = [[(token[dim], n) for dim, n in row.items()] for row in row_dicts(counts)]
    assert rows == [list(term_counts(text).items()) for text in texts]
    assert rows[0] == [("news", 2), ("tokyo", 1)]


_WORDS = ["news", "tokyo", "Café", "olé", "東京", "ニュース", "drama", "x2", "naïve", "über", "a_b", "42"]
_WORDS += [f"w{i}" for i in range(60)]


def _random_text(rng):
    """A text of repeated words, CJK runs, accents and punctuation; or an
    empty or token-less one."""
    kind = rng.random()
    if kind < 0.1:
        return ""
    if kind < 0.2:
        return rng.choice([" ", "...", "-- _ --", "\t!?"])
    return rng.choice([" ", ", ", "; "]).join(rng.choices(_WORDS, k=rng.randint(1, 40)))


@pytest.mark.parametrize("seed", range(6))
def test_array_builders_equal_the_dict_references(seed):
    # fit and encode against the dict references, bit for bit: idf, the
    # vocabulary file, term counts and embeddings, values and column order.
    rng = random.Random(seed)
    if seed == 0:  # a one-text corpus
        texts = ["Café 東京 café news news"]
    else:
        texts = [_random_text(rng) for _ in range(rng.randint(2, 80))]
    vocab, counts = fit(texts)
    want = fit_dicts(texts)
    assert vocab == want
    assert json.dumps(vocab.to_dict()) == json.dumps(want.to_dict())
    token = sorted(vocab.index, key=vocab.index.__getitem__)
    assert [[(token[d], n) for d, n in row.items()] for row in row_dicts(counts)] == [
        list(term_counts(text).items()) for text in texts
    ]
    got = row_dicts(encode(vocab, counts))
    assert [list(row.items()) for row in got] == [list(encode_dict(want, term_counts(t)).items()) for t in texts]


# Texts whose tokens depend on how fit joins, splits and lowercases a block.
_LOWERS_TO_TWO = [c for c in map(chr, range(0x110000)) if c.isprintable() and len(c.lower()) > 1]  # İ
_EDGE_TEXTS = [
    "Σ", "ΣΑΣ", "ΑΣ", "ΟΔΟΣ ΣΟΦΟΣ", "ΑΣ'", "Α", "ΑΣ'Β", "'Σ", "Σ'Σ", "ΑΣ’s", "ΑΣ", "ΣΑ",
    *(f"{c}stanbul x{c} {c}{c}" for c in _LOWERS_TO_TWO), "İ", "Σİ", "İΣ",
    "a\nb", "\n", "ΑΣ\nΒ", "news\r\nsports", "\r", "Σ\r", "x\n\n",
    "", "", "東京ニュース", "東京news2019 café", "news東京", " ", "...", "\t", "_", "-- _ --",
]
# Texts at the edges of the byte path: token lengths around its word size and
# its 64-byte limit, "_", digits and case, control bytes, line breaks, no
# token at all, and a non-ASCII letter that lowercases to ASCII (Kelvin sign).
_ASCII_EDGE_TEXTS = [
    *("x" * n for n in (7, 8, 9, 16, 17, 64, 65)), "ab" * 32 + " " + "ab" * 32, "9" * 65 + "z",
    "a_b", "A_B_c __x__", "UPPER lower MiXeD 123abc", "x_9_Y 0x7F", "2019",
    "a\x7fb", "c\x00d", "e\x01f\x1fg", "\x1b[0mred\x1b[0m", "\x7f",
    "ab\rcd", "ab\ncd", "x\r\n\ry",
    "", " ", "_ _", "\t\x0b\x0c", "\u212aelvin",
]
_EDGE_TEXTS += _ASCII_EDGE_TEXTS


def _per_text_fit(texts):
    """fit's result from oracles.term_counts, text by text."""
    vocab = fit_dicts(texts)
    rows = [term_counts(text) for text in texts]
    ptr = np.cumsum([0, *map(len, rows)], dtype=np.int64)
    col = np.array([vocab.index[token] for row in rows for token in row], dtype=np.int32)
    val = np.array([n for row in rows for n in row.values()], dtype=np.int32)
    return vocab, ptr, col, val


@pytest.mark.parametrize("corpus", ["edges", "edges without a newline", "several blocks", "small blocks"])
def test_fit_equals_per_text_term_counts_on_edge_texts(corpus, monkeypatch):
    texts = _EDGE_TEXTS
    if corpus == "edges without a newline":
        texts = [text for text in texts if "\n" not in text]
    elif corpus == "several blocks":
        rng = random.Random(7)
        texts = [rng.choice(_EDGE_TEXTS) for _ in range(2 * textenc._FIT_BLOCK_TEXTS + 9)]
    elif corpus == "small blocks":
        # Blocks of three texts, so each path reads many. The first block is
        # not ASCII and the second is, and shares its tokens: both paths
        # number tokens in one table.
        monkeypatch.setattr(textenc, "_FIT_BLOCK_TEXTS", 3)
        rng = random.Random(8)
        texts = ["Café News", "ÜBER tokyo", "東京 x2", "news TOKYO", "x2 NEWS", "cafe"]
        texts += [*_ASCII_EDGE_TEXTS, *(rng.choice(_EDGE_TEXTS) for _ in range(300))]
        ascii_tokens, blocks = textenc._ascii_tokens, []

        def recording(lowered, codes):
            found = ascii_tokens(lowered, codes)
            blocks.append((lowered, found is not None))
            return found

        monkeypatch.setattr(textenc, "_ascii_tokens", recording)
    vocab, counts = fit(texts)
    if corpus == "small blocks":
        assert blocks[0] == ("news tokyo\nx2 news\ncafe", True)  # the first block is not ASCII
        assert ("x" * 65 + "\n" + "ab" * 32 + " " + "ab" * 32 + "\n" + "9" * 65 + "z", False) in blocks
        assert len(blocks) < len(texts) // 3  # and other blocks are not ASCII either
    want, ptr, col, val = _per_text_fit(texts)
    assert vocab.index == want.index
    assert list(vocab.idf.items()) == list(want.idf.items())
    for got, expected in zip(counts, (ptr, col, val)):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_synth_texts_never_reach_the_findall_path(monkeypatch):
    # Synth's texts are ASCII with short tokens, so every block takes the byte
    # path; a change that sent one to findall would keep every row and lose
    # the byte path's speed. This makes it fail.
    cfg = synth.SynthConfig(n_users=10, n_channels=4, n_topics=5, weeks_train=2, weeks_test=1, rng_seed=3)
    texts = list(synth.gen_world(cfg).programs.text)
    assert len(texts) > textenc._FIT_BLOCK_TEXTS
    want_vocab, want = fit(texts)

    def no_findall():
        raise AssertionError("a block of synth's texts went to the findall path")

    monkeypatch.setattr(textenc, "_block_tokens", no_findall)
    vocab, counts = fit(texts)
    assert vocab == want_vocab
    for got, expected in zip(counts, want):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
