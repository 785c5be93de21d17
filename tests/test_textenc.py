import json
import math
import random

import pytest

from oracles import l2_norm
from tvrec.errors import DataError
from tvrec.textenc import (
    dot,
    encode,
    fit,
    mean_embedding,
    term_counts,
    tokenize,
)

CORPUS = [("a", "news tokyo"), ("b", "news sports")]


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
    vocab, _ = fit(CORPUS)
    emb = encode(vocab, term_counts("news tokyo"))
    weights = {tok: emb[vocab.index[tok]] for tok in ("news", "tokyo")}
    assert weights["news"] == pytest.approx(0.580, abs=1e-3)
    assert weights["tokyo"] == pytest.approx(0.815, abs=1e-3)
    # Each token occurs once, so normalization keeps the ratio of the raw
    # tf-idf weights: idf(tokyo) / idf(news).
    assert weights["tokyo"] / weights["news"] == pytest.approx(math.log(3 / 2) + 1, abs=1e-12)
    assert l2_norm(emb) == pytest.approx(1.0, abs=1e-12)


def test_encode_empty_text_is_zero_vector():
    assert encode(fit(CORPUS)[0], term_counts("")) == {}


def test_encode_out_of_vocabulary_ignored():
    vocab, _ = fit(CORPUS)
    assert encode(vocab, term_counts("quantum flux")) == {}


def test_encode_deterministic():
    vocab, _ = fit(CORPUS)
    assert encode(vocab, term_counts("news sports tokyo")) == encode(vocab, term_counts("news sports tokyo"))


def test_fit_empty_corpus_rejected():
    with pytest.raises(DataError):
        fit([])
    with pytest.raises(DataError):
        fit([("a", ""), ("b", "  ")])


def test_vocabulary_indices_are_a_bijection():
    vocab, _ = fit([("a", "x y z"), ("b", "y z w"), ("c", "z w v")])
    assert sorted(vocab.index.values()) == list(range(vocab.size))


def test_nonzero_embeddings_have_unit_norm():
    rng = random.Random(2)
    words = [f"w{i}" for i in range(40)]
    corpus = [
        (f"d{i}", " ".join(rng.choices(words, k=rng.randint(1, 12)))) for i in range(60)
    ]
    vocab, _ = fit(corpus)
    for _, text in corpus:
        emb = encode(vocab, term_counts(text))
        if emb:
            assert abs(l2_norm(emb) - 1.0) <= 1e-9


def test_adding_a_document_recomputes_idf_per_formula():
    rng = random.Random(4)
    words = [f"w{i}" for i in range(10)]
    docs = [" ".join(rng.choices(words, k=5)) for _ in range(8)]
    for cut in range(1, len(docs)):
        base = [(str(i), d) for i, d in enumerate(docs[:cut])]
        grown = base + [("new", docs[cut])]
        (v0, _), (v1, _) = fit(base), fit(grown)
        n, df1 = cut + 1, {}
        for _, text in grown:
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


def test_fit_keeps_the_term_counts_of_kept_documents():
    corpus = [("a", "News TOKYO news"), ("b", "news sports"), ("c", "東京 news")]
    vocab, counts = fit(corpus, keep={"a", "c"})
    assert vocab == fit(corpus)[0]
    assert counts == {"a": term_counts("News TOKYO news"), "c": term_counts("東京 news")}
    assert list(counts["a"].items()) == [("news", 2), ("tokyo", 1)]
    assert encode(vocab, counts["a"]) == encode(vocab, term_counts("News TOKYO news"))
