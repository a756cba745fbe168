"""Corpus tooling: TSV parsing, vocabulary determinism, batch encoding, and
the dataset deformation builders."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catvrnn.errors import ConfigurationError, DataError
from catvrnn.data import (
    PAD_ID,
    PAD_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    LabeledCorpus,
    LabeledSentence,
    Vocabulary,
    build_icq_variant,
    build_ica_series,
    build_vocabulary,
    corpus_manifest,
    decode_ids,
    encode_batch,
    filter_by_length,
    load_corpus,
    make_synthetic_corpus,
    oracle_category_accuracy,
    save_corpus,
    subsample_per_category,
    word_membership_oracle,
)


def corpus_of(rows, k=None):
    sentences = [LabeledSentence(tuple(text.split()), cat) for cat, text in rows]
    kk = k if k is not None else max(cat for cat, _ in rows) + 1
    return LabeledCorpus(sentences=sentences, num_categories=kk)


# --- load_corpus -------------------------------------------------------------


def test_load_two_line_file(tmp_path):
    p = tmp_path / "c.tsv"
    p.write_text("0\thello there\n1\tbye now\n", encoding="utf-8")
    corpus = load_corpus(p)
    assert len(corpus) == 2
    assert corpus.num_categories == 2
    assert corpus.sentences[0].tokens == ("hello", "there")


def test_load_reports_line_number_for_missing_tab(tmp_path):
    p = tmp_path / "c.tsv"
    p.write_text("0\tok line\nbroken line\n", encoding="utf-8")
    with pytest.raises(DataError, match=r":2"):
        load_corpus(p)


def test_load_rejects_bad_category_and_empty_text(tmp_path):
    p = tmp_path / "c.tsv"
    p.write_text("x\thello\n", encoding="utf-8")
    with pytest.raises(DataError, match="non-integer"):
        load_corpus(p)
    p.write_text("0\t   \n", encoding="utf-8")
    with pytest.raises(DataError, match="empty"):
        load_corpus(p)
    with pytest.raises(DataError):
        load_corpus(tmp_path / "missing.tsv")


def test_load_skips_comment_header(tmp_path):
    p = tmp_path / "c.tsv"
    p.write_text("# seed=3\n0\thello\n", encoding="utf-8")
    assert len(load_corpus(p)) == 1


def test_load_reproduces_per_class_counts(tmp_path):
    # sentiment-filtered review style file: per-class totals must round-trip
    rows = [(0, f"pos sentence {i}") for i in range(37)]
    rows += [(1, f"neg sentence {i}") for i in range(48)]
    p = tmp_path / "mr.tsv"
    p.write_text("\n".join(f"{c}\t{t}" for c, t in rows) + "\n", encoding="utf-8")
    corpus = load_corpus(p)
    assert corpus.category_counts() == [37, 48]


def test_save_load_roundtrip(tmp_path):
    corpus = corpus_of([(0, "a b c"), (1, "d e")])
    p = tmp_path / "c.tsv"
    save_corpus(p, corpus, header={"seed": 7})
    again = load_corpus(p)
    assert [s.tokens for s in again.sentences] == [s.tokens for s in corpus.sentences]
    assert "# seed=7" in p.read_text()


# --- filter_by_length ----------------------------------------------------------


def test_filter_boundary_inclusion():
    corpus = corpus_of([
        (0, " ".join(["w"] * 10)),
        (0, " ".join(["w"] * 15)),
        (1, " ".join(["w"] * 30)),
        (1, " ".join(["w"] * 31)),
    ])
    kept = filter_by_length(corpus, 15, 30)
    assert sorted(len(s.tokens) for s in kept.sentences) == [15, 30]


def test_filter_empty_result_is_legal():
    corpus = corpus_of([(0, "a b")])
    kept = filter_by_length(corpus, 15, 30)
    assert len(kept) == 0


def test_filter_rejects_inverted_range():
    with pytest.raises(ConfigurationError):
        filter_by_length(corpus_of([(0, "a")]), 10, 5)


@settings(max_examples=30)
@given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=50))
def test_filter_matches_length_scan_oracle(lengths):
    corpus = corpus_of([(0, " ".join(["tok"] * n)) for n in lengths])
    kept = filter_by_length(corpus, 15, 30)
    expected = [n for n in lengths if 15 <= n <= 30]
    assert [len(s.tokens) for s in kept.sentences] == expected


# --- vocabulary ------------------------------------------------------------------


def test_vocabulary_small_example():
    corpus = corpus_of([(0, "a b"), (0, "a")], k=1)
    vocab = build_vocabulary(corpus)
    assert vocab.id_to_token == [PAD_TOKEN, UNK_TOKEN, "a", "b"]
    assert vocab.token_to_id["a"] == 2


def test_vocabulary_deterministic_rebuild():
    corpus = corpus_of([(0, "z y x"), (1, "x y")],)
    assert build_vocabulary(corpus).id_to_token == build_vocabulary(corpus).id_to_token


def test_vocabulary_counting_oracle():
    corpus = corpus_of([(0, "red blue red"), (1, "green blue")])
    unique = {t for s in corpus.sentences for t in s.tokens}
    assert len(build_vocabulary(corpus)) == len(unique) + 2


def test_vocabulary_min_freq_and_digest():
    corpus = corpus_of([(0, "a a b")], k=1)
    vocab = build_vocabulary(corpus, min_freq=2)
    assert "b" not in vocab.token_to_id
    assert vocab.digest() != build_vocabulary(corpus).digest()


def test_vocabulary_save_load(tmp_path):
    corpus = corpus_of([(0, "c a b a")], k=1)
    vocab = build_vocabulary(corpus)
    vocab.save(tmp_path / "v.txt")
    again = Vocabulary.load(tmp_path / "v.txt")
    assert again.id_to_token == vocab.id_to_token
    assert again.digest() == vocab.digest()


@settings(max_examples=25)
@given(st.permutations(list(range(6))))
def test_vocabulary_order_independent_of_input_shuffle(order):
    rows = [(0, "a b"), (0, "c"), (0, "b"), (0, "d d"), (0, "e"), (0, "a")]
    shuffled = [rows[i] for i in order]
    base = build_vocabulary(corpus_of(rows, k=1))
    other = build_vocabulary(corpus_of(shuffled, k=1))
    assert base.id_to_token == other.id_to_token


# --- encode_batch ------------------------------------------------------------------


def test_encode_layout_and_boundary():
    corpus = corpus_of([(0, "a b c"), (1, "d")])
    vocab = build_vocabulary(corpus)
    batch = encode_batch(corpus.sentences, vocab, 4)
    # inputs start with PAD, targets are left-shifted
    assert batch.inputs[0].tolist() == [PAD_ID, vocab.token_to_id["a"],
                                        vocab.token_to_id["b"],
                                        vocab.token_to_id["c"]]
    assert batch.targets[0].tolist() == [vocab.token_to_id["a"],
                                         vocab.token_to_id["b"],
                                         vocab.token_to_id["c"], PAD_ID]
    # full-length sentence: zero trailing pads in targets
    assert PAD_ID not in batch.targets[0][:3]
    # single-token sentence: T-1 trailing pads
    assert batch.targets[1].tolist()[1:] == [PAD_ID] * 3
    assert batch.lengths.tolist() == [3, 1]


def test_encode_full_length_has_no_trailing_pad_targets():
    corpus = corpus_of([(0, "a b c d")], k=1)
    vocab = build_vocabulary(corpus)
    batch = encode_batch(corpus.sentences, vocab, 4)
    assert PAD_ID not in batch.targets[0]


def test_encode_rejects_overlong():
    corpus = corpus_of([(0, "a b c d e")], k=1)
    vocab = build_vocabulary(corpus)
    with pytest.raises(DataError):
        encode_batch(corpus.sentences, vocab, 4)


def test_encode_decode_roundtrip_with_unk():
    train = corpus_of([(0, "a b c")], k=1)
    vocab = build_vocabulary(train)
    novel = [LabeledSentence(("a", "mystery", "c"), 0)]
    batch = encode_batch(novel, vocab, 5)
    decoded = decode_ids(batch.targets[0][:3], vocab)
    assert decoded == ["a", UNK_TOKEN, "c"]


@settings(max_examples=30)
@given(st.lists(
    st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6).map(tuple),
    min_size=1, max_size=8,
))
def test_encode_decode_roundtrip_property(token_rows):
    sentences = [LabeledSentence(row, 0) for row in token_rows]
    corpus = LabeledCorpus(sentences=sentences, num_categories=1)
    vocab = build_vocabulary(corpus)
    batch = encode_batch(sentences, vocab, 8)
    for i, row in enumerate(token_rows):
        got = decode_ids(batch.targets[i][: len(row)], vocab)
        assert tuple(got) == row


# --- ICQ builder ----------------------------------------------------------------------


def icq_base(per_cell=1000):
    sentences = []
    for product in range(5):
        for sentiment in range(2):
            cell = product * 2 + sentiment
            for i in range(per_cell):
                sentences.append(LabeledSentence(
                    (f"p{product}", f"s{sentiment}", f"n{i % 7}"), cell))
    return LabeledCorpus(sentences=sentences, num_categories=10,
                         provenance="icq-base")


def test_icq_variants_shapes():
    base = icq_base()
    v10 = build_icq_variant(base, "icq-10c")
    assert v10.num_categories == 10
    assert v10.category_counts() == [1000] * 10
    v2 = build_icq_variant(base, "2c")
    assert v2.num_categories == 2
    assert v2.category_counts() == [5000, 5000]
    v5 = build_icq_variant(base, "5c")
    assert v5.category_counts() == [2000] * 5
    v1 = build_icq_variant(base, "1c")
    assert v1.category_counts() == [10000]


def test_icq_2c_splits_by_sentiment():
    base = icq_base()
    v2 = build_icq_variant(base, "2c")
    for s in v2.sentences:
        sentiment = int(s.tokens[1][1:])
        assert s.category == sentiment


def test_icq_variants_share_token_multiset():
    base = icq_base()
    multisets = {v: Counter(t for s in build_icq_variant(base, v).sentences
                            for t in s.tokens)
                 for v in ("1c", "2c", "5c", "10c")}
    first = next(iter(multisets.values()))
    assert all(m == first for m in multisets.values())
    vocabs = {v: build_vocabulary(build_icq_variant(base, v)).digest()
              for v in ("1c", "2c", "5c", "10c")}
    assert len(set(vocabs.values())) == 1


def test_icq_rejects_malformed_base():
    with pytest.raises(DataError):
        build_icq_variant(icq_base(per_cell=999), "2c")
    small = LabeledCorpus(
        sentences=[LabeledSentence(("a",), 0)], num_categories=1)
    with pytest.raises(DataError):
        build_icq_variant(small, "2c")
    with pytest.raises(ConfigurationError):
        build_icq_variant(icq_base(), "3c")


# --- ICA builder -----------------------------------------------------------------------


def ica_products(n_products=5, per_product=2000):
    sentences = []
    for p in range(n_products):
        for i in range(per_product):
            sentences.append(LabeledSentence((f"p{p}", f"w{i % 11}"), p))
    return LabeledCorpus(sentences=sentences, num_categories=n_products,
                         provenance="ica-products")


def test_ica_sizes_and_nesting():
    products = ica_products()
    series = {k: build_ica_series(products, k) for k in (2, 3, 4, 5)}
    for k, corpus in series.items():
        assert len(corpus) == 2000 * k
        assert corpus.num_categories == k
        assert corpus.category_counts() == [2000] * k
    for k in (2, 3, 4):
        smaller = {(s.tokens, s.category) for s in series[k].sentences}
        larger = {(s.tokens, s.category) for s in series[k + 1].sentences}
        assert smaller <= larger


def test_ica_shared_products_keep_identical_labels():
    products = ica_products()
    s3 = build_ica_series(products, 3)
    s5 = build_ica_series(products, 5)
    labels3 = {s.tokens[0]: s.category for s in s3.sentences}
    labels5 = {s.tokens[0]: s.category for s in s5.sentences}
    for product, label in labels3.items():
        assert labels5[product] == label


def test_ica_rejects_insufficient_data():
    with pytest.raises(DataError):
        build_ica_series(ica_products(per_product=1500), 2)
    with pytest.raises(ConfigurationError):
        build_ica_series(ica_products(n_products=3), 4)
    with pytest.raises(ConfigurationError):
        build_ica_series(ica_products(), 1)


# --- synthetic corpus ---------------------------------------------------------------------


def test_synthetic_corpus_construction():
    corpus = make_synthetic_corpus(2, 200, 50, (5, 12), seed=3)
    assert len(corpus) == 400
    assert corpus.category_counts() == [200, 200]
    by_cat = {0: set(), 1: set()}
    for s in corpus.sentences:
        by_cat[s.category].update(s.tokens)
        assert 5 <= len(s.tokens) <= 12
    assert not (by_cat[0] & by_cat[1])


def test_synthetic_corpus_deterministic():
    a = make_synthetic_corpus(3, 10, 5, (2, 4), seed=9)
    b = make_synthetic_corpus(3, 10, 5, (2, 4), seed=9)
    assert [s.tokens for s in a.sentences] == [s.tokens for s in b.sentences]


def test_membership_oracle_is_exact_on_corpus():
    corpus = make_synthetic_corpus(2, 50, 20, (3, 6), seed=1)
    classify = word_membership_oracle(corpus)
    samples = [(list(s.tokens), s.category) for s in corpus.sentences]
    assert oracle_category_accuracy(samples, classify) == 1.0


def test_membership_oracle_tie_handling():
    corpus = make_synthetic_corpus(2, 5, 4, (2, 3), seed=2)
    classify = word_membership_oracle(corpus)
    tied = [(["c0w0", "c1w0"], 0)]
    assert oracle_category_accuracy(tied, classify) == 0.5
    assert classify([]) is None


# --- subsampling and manifest ----------------------------------------------------------------


def test_subsample_per_category_is_seeded():
    corpus = corpus_of([(c, f"w{i} x y") for c in (0, 1) for i in range(20)])
    a = subsample_per_category(corpus, 5, seed=4)
    b = subsample_per_category(corpus, 5, seed=4)
    c = subsample_per_category(corpus, 5, seed=5)
    assert [s.tokens for s in a.sentences] == [s.tokens for s in b.sentences]
    assert [s.tokens for s in a.sentences] != [s.tokens for s in c.sentences]
    assert a.category_counts() == [5, 5]
    with pytest.raises(DataError):
        subsample_per_category(corpus, 50, seed=0)


def test_manifest_contents():
    corpus = make_synthetic_corpus(2, 10, 5, (2, 4), seed=6)
    manifest = corpus_manifest(corpus, seed=6)
    assert manifest["num_sentences"] == 20
    assert manifest["category_counts"] == [10, 10]
    assert manifest["seed"] == 6
    assert manifest["vocab_size"] == len(build_vocabulary(corpus))
