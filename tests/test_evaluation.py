"""Metric suite: classifier training, category accuracy, perplexity anchors,
and BLEU against a brute-force counting oracle."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catvrnn.errors import ConfigurationError, DataError
from catvrnn.numeric import Rng, check_gradient
from catvrnn import numeric as nm
from catvrnn.model import CatVrnnParams, ModelConfig, forward_teacher
from catvrnn.data import (
    LabeledCorpus,
    LabeledSentence,
    Vocabulary,
    build_vocabulary,
    encode_batch,
    make_synthetic_corpus,
)
from catvrnn.training import write_container
from catvrnn.evaluation import (
    CLF_DROPOUT,
    CLF_EMBED,
    CLF_MAPS,
    CLF_WIDTHS,
    PPL_BATCH,
    PREDICT_CHUNK,
    ClassifierConfig,
    EvalClassifier,
    bleu_corpus,
    bleu_harmonic,
    category_accuracy,
    eval_report,
    perplexity,
    sample_categories,
    score_samples,
    train_eval_classifier,
)


# --- brute-force BLEU oracle (independent implementation) ---------------------


def oracle_bleu(cands, refs, n):
    def ngram_counts(seq, k):
        d = {}
        for i in range(len(seq) - k + 1):
            g = tuple(seq[i: i + k])
            d[g] = d.get(g, 0) + 1
        return d

    log_terms = []
    for k in range(1, n + 1):
        num = 0
        den = 0
        for cand in cands:
            counts = ngram_counts(cand, k)
            for g, c in counts.items():
                best = 0
                for r in refs:
                    rc = ngram_counts(r, k).get(g, 0)
                    if rc > best:
                        best = rc
                num += min(c, best)
            den += max(len(cand) - k + 1, 0)
        if den == 0:
            continue
        log_terms.append(math.log(max(num, 1e-9) / den))
    gm = math.exp(sum(log_terms) / len(log_terms)) if log_terms else 1.0
    c_len = sum(len(c) for c in cands)
    r_len = sum(
        len(min(refs, key=lambda r: (abs(len(r) - len(cand)), len(r))))
        for cand in cands
    )
    bp = 1.0 if c_len > r_len else math.exp(1.0 - r_len / c_len)
    return gm * bp


# --- classifier -----------------------------------------------------------------


@pytest.fixture(scope="module")
def disjoint_corpus():
    return make_synthetic_corpus(2, 150, 30, (4, 9), seed=21)


@pytest.fixture(scope="module")
def trained_clf(disjoint_corpus):
    return train_eval_classifier(disjoint_corpus, seed=5, epochs=8)


def test_classifier_separates_disjoint_vocabularies(trained_clf):
    assert trained_clf.val_accuracy >= 0.99


def test_classifier_chance_level_on_shuffled_labels():
    base = make_synthetic_corpus(2, 400, 30, (4, 9), seed=33)
    rng = np.random.default_rng(13)
    labels = rng.permutation([s.category for s in base.sentences])
    shuffled = LabeledCorpus(
        sentences=[LabeledSentence(s.tokens, int(c))
                   for s, c in zip(base.sentences, labels)],
        num_categories=2,
    )
    clf = train_eval_classifier(shuffled, seed=6, epochs=4, val_fraction=0.4)
    assert abs(clf.val_accuracy - 0.5) < 0.05, clf.val_accuracy


def test_classifier_training_is_deterministic(disjoint_corpus):
    a = train_eval_classifier(disjoint_corpus, seed=9, epochs=2)
    b = train_eval_classifier(disjoint_corpus, seed=9, epochs=2)
    assert a.store.layout() == b.store.layout()
    np.testing.assert_array_equal(a.store.flat, b.store.flat)


def test_classifier_rejects_single_category():
    corpus = LabeledCorpus(
        sentences=[LabeledSentence(("a", "b"), 0)] * 4, num_categories=1)
    with pytest.raises(DataError):
        train_eval_classifier(corpus, seed=0)


def test_classifier_save_load_roundtrip(tmp_path, trained_clf, disjoint_corpus):
    path = tmp_path / "clf.bin"
    trained_clf.save(path)
    again = EvalClassifier.load(path)
    batch = trained_clf.encode_sentences(disjoint_corpus.sentences[:20])
    np.testing.assert_array_equal(trained_clf.predict(batch.inputs),
                                  again.predict(batch.inputs))
    assert again.val_accuracy == trained_clf.val_accuracy


def window_gather_forward(clf, ids, dropout_rng=None):
    """The classifier's logits in plain numpy, with one window gather and one
    matmul per filter width, the reference the one-table form is checked
    against: (logits, what ``window_gather_backward`` reads). Dropout is
    drawn from ``dropout_rng`` when given."""
    p = clf.store.views(clf.store.flat)
    b, t = ids.shape
    e, f = CLF_EMBED, CLF_MAPS
    lo, pooled, windows = 0, [], []
    for w in CLF_WIDTHS:
        npos = t - w + 1
        win = np.lib.stride_tricks.sliding_window_view(ids, w, axis=1).reshape(-1, w)
        # each window's w embeddings side by side, (b * npos, w * E)
        cols = p["embedding"][win].reshape(len(win), w * e)
        # conv.w (E, sum(widths)*F) holds each width's offset blocks side by
        # side; stacked by rows, a width's blocks are its (w*E, F) filter bank
        bank = np.vstack([p["conv.w"][:, lo + k * f: lo + (k + 1) * f] for k in range(w)])
        lo += w * f
        conv = np.maximum(cols @ bank + p[f"conv{w}.b"], 0.0).reshape(b, npos, f)
        first = conv.argmax(axis=1)
        pooled.append(np.take_along_axis(conv, first[:, None], axis=1)[:, 0])
        windows.append((w, win, cols, bank, first))
    features = np.concatenate(pooled, axis=1)
    mask = np.ones_like(features)
    if dropout_rng is not None:
        keep = 1.0 - CLF_DROPOUT
        mask = (dropout_rng.random(features.shape) < keep) / keep
    logits = (features * mask) @ p["head.w"] + p["head.b"]
    return logits, dict(windows=windows, features=features, mask=mask)


def window_gather_backward(clf, targets, logits, saved):
    """The batch-mean cross-entropy of ``window_gather_forward``'s logits and
    its gradient, name -> array, written out naively: each pooled gradient
    goes to its argmax window, a bank gets ``cols.T @ g`` and the embedding
    rows are scattered with ``np.add.at``."""
    p = clf.store.views(clf.store.flat)
    b, e, f = len(logits), CLF_EMBED, CLF_MAPS
    rows = np.arange(b)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = -logp[rows, targets].mean()
    g_logits = np.exp(logp)
    g_logits[rows, targets] -= 1.0
    g_logits /= b
    grads = {name: np.zeros_like(a) for name, a in p.items()}
    grads["head.w"] = (saved["features"] * saved["mask"]).T @ g_logits
    grads["head.b"] = g_logits.sum(axis=0)
    # through the dropout, then the relu where the pooled map is > 0
    g_pooled = (g_logits @ p["head.w"].T) * saved["mask"] * (saved["features"] > 0)
    lo = 0
    for j, (w, win, cols, bank, first) in enumerate(saved["windows"]):
        npos = len(win) // b
        g_conv = np.zeros((b, npos, f))
        np.put_along_axis(g_conv, first[:, None], g_pooled[:, None, j * f: (j + 1) * f],
                          axis=1)
        g_conv = g_conv.reshape(b * npos, f)
        grads[f"conv{w}.b"] = g_conv.sum(axis=0)
        g_bank = cols.T @ g_conv
        for k in range(w):
            grads["conv.w"][:, lo + k * f: lo + (k + 1) * f] = g_bank[k * e: (k + 1) * e]
        lo += w * f
        np.add.at(grads["embedding"], win, (g_conv @ bank.T).reshape(len(win), w, e))
    return loss, grads


def random_classifier(max_len, vocab_size=40, seed=3):
    vocab = Vocabulary(["<pad>", "<unk>"] + [f"w{i}" for i in range(vocab_size - 2)])
    cfg = ClassifierConfig(vocab_size=vocab_size, num_categories=3, max_len=max_len)
    clf = EvalClassifier(cfg, vocab, rng=Rng(seed))
    rng = np.random.default_rng(seed)
    for name in clf.store.names():
        if name.endswith(".b"):  # biases start at zero; make them count
            clf.store[name][:] = rng.normal(size=clf.store[name].shape) * 0.1
    return clf


def assert_matches_the_window_gather_reference(clf, ids, targets):
    """``logits`` and ``loss_and_grad``'s gradient, read through
    ``store.views``, against the numpy reference's, to 1e-12 of each norm."""
    ref, saved = window_gather_forward(clf, ids, dropout_rng=np.random.default_rng(5))
    ref_loss, ref_grads = window_gather_backward(clf, targets, ref, saved)
    new = clf.logits(ids, train_mode=True, dropout_rng=np.random.default_rng(5))
    assert np.linalg.norm(new - ref) <= 1e-12 * np.linalg.norm(ref)
    grad = np.full_like(clf.store.flat, np.nan)
    loss = clf.loss_and_grad(ids, targets, np.random.default_rng(5), grad)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    grads = clf.store.views(grad)
    assert len(grads) == len(ref_grads) == 7
    for name, g in ref_grads.items():
        assert np.linalg.norm(grads[name] - g) <= 1e-12 * np.linalg.norm(g), name
    return grads


def test_the_window_gather_reference_gradient_matches_finite_differences():
    # the reference's own backward, against central differences on every tensor
    clf = random_classifier(7)
    rng = np.random.default_rng(6)
    ids = rng.integers(0, clf.cfg.vocab_size, size=(5, 7))
    ids[3, 4:] = 0
    targets = rng.integers(0, 3, size=5)

    def loss_and_grads():
        logits, saved = window_gather_forward(clf, ids, np.random.default_rng(5))
        return window_gather_backward(clf, targets, logits, saved)

    grads = loss_and_grads()[1]
    analytic = np.concatenate([grads[name].ravel() for name in clf.store.names()])
    report = check_gradient(lambda: loss_and_grads()[0], clf.store, analytic)
    assert report.passed, report.summary()
    assert len(report.per_param) == 7


@pytest.mark.parametrize("t", [5, 13])
def test_logits_and_gradients_match_the_window_gather_reference(t):
    # T == 5: the widest filter fits once; row 1 is all PAD
    clf = random_classifier(t)
    rng = np.random.default_rng(t)
    ids = rng.integers(0, clf.cfg.vocab_size, size=(6, t))
    ids[1] = 0
    ids[4, 3:] = 0
    targets = rng.integers(0, 3, size=6)
    assert_matches_the_window_gather_reference(clf, ids, targets)


def test_loss_and_grad_sums_a_token_that_fills_most_of_the_batch():
    # token 7 is 86 of 96 positions: its products' gradient is summed over
    # every window of every row that pools at it
    clf = random_classifier(12)
    ids = np.full((8, 12), 7)
    ids[[0, 3, 5], [2, 6, 11]] = [4, 9, 30]
    ids[6, 8:] = 0
    ids[2, :3] = [11, 12, 13]
    grads = assert_matches_the_window_gather_reference(clf, ids, np.arange(8) % 3)
    untouched = np.setdiff1d(np.arange(clf.cfg.vocab_size), ids)
    assert not grads["embedding"][untouched].any()


def test_loss_and_grad_on_all_pad_rows():
    clf = random_classifier(7)
    ids = np.zeros((4, 7), dtype=np.int64)
    ids[2] = [5, 6, 7, 8, 0, 0, 0]
    assert_matches_the_window_gather_reference(clf, ids, np.array([0, 1, 2, 1]))


def test_loss_and_grad_of_a_width_whose_windows_are_all_cut_by_the_relu():
    # every width-4 window is <= 0 after its bias: the relu passes nothing
    # back through that width
    clf = random_classifier(9)
    clf.store["conv4.b"][:] = -1e3
    ids = np.random.default_rng(2).integers(0, clf.cfg.vocab_size, size=(5, 9))
    grads = assert_matches_the_window_gather_reference(clf, ids, np.array([0, 1, 2, 0, 1]))
    assert not grads["conv4.b"].any()
    assert not grads["conv.w"][:, 300: 700].any()
    assert grads["conv.w"][:, :300].any() and grads["conv.w"][:, 700:].any()


def test_logits_reject_inputs_shorter_than_the_widest_filter():
    clf = random_classifier(6)
    clf.logits(np.zeros((2, 5), dtype=np.int64))
    with pytest.raises(ConfigurationError, match="widest filter"):
        clf.logits(np.zeros((2, 4), dtype=np.int64))


@pytest.mark.parametrize("bad", [-1, 40])
def test_logits_reject_ids_outside_the_vocabulary(bad):
    clf = random_classifier(6)
    ids = np.zeros((2, 6), dtype=np.int64)
    ids[1, 3] = bad
    with pytest.raises(ConfigurationError, match="out of range"):
        clf.logits(ids)


def test_classifier_file_with_the_hand_written_layout_loads(tmp_path):
    # tensor names and shapes written out by hand: conv.w is (E, 12*F)
    vocab = Vocabulary(["<pad>", "<unk>"] + [f"w{i}" for i in range(18)])
    e, f, k = CLF_EMBED, CLF_MAPS, 2
    cfg = ClassifierConfig(vocab_size=20, num_categories=k, max_len=7)
    rng = np.random.default_rng(12)
    arrays = {"embedding": rng.normal(size=(20, e)),
              "conv.w": rng.normal(size=(e, (3 + 4 + 5) * f))}
    for w in (3, 4, 5):
        arrays[f"conv{w}.b"] = rng.normal(size=f) * 0.1
    arrays["head.w"] = rng.normal(size=(3 * f, k))
    arrays["head.b"] = rng.normal(size=k) * 0.1
    write_container(tmp_path / "clf.bin",
                    {"kind": "eval_classifier", "config": cfg.to_dict(),
                     "vocab": vocab.id_to_token, "val_accuracy": 0.75},
                    [[name, list(a.shape)] for name, a in arrays.items()],
                    np.concatenate([a.ravel() for a in arrays.values()]))
    clf = EvalClassifier.load(tmp_path / "clf.bin")
    assert clf.val_accuracy == 0.75
    ids = rng.integers(0, 20, size=(50, 7))
    expected = window_gather_forward(clf, ids)[0].argmax(axis=1)
    assert len(set(expected)) == k
    np.testing.assert_array_equal(clf.predict(ids), expected)


def test_predict_memory_does_not_grow_with_rows():
    clf = random_classifier(9)
    ids = np.random.default_rng(4).integers(0, 40, size=(4 * PREDICT_CHUNK, 9))

    def peak(rows):
        tracemalloc.start()
        clf.predict(rows)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak

    one = peak(ids[:PREDICT_CHUNK])
    assert peak(ids) < 1.25 * one
    np.testing.assert_array_equal(
        clf.predict(ids)[PREDICT_CHUNK:], clf.predict(ids[PREDICT_CHUNK:]))


# --- category accuracy ---------------------------------------------------------


def test_category_accuracy_all_intended(trained_clf, disjoint_corpus):
    samples = [(list(s.tokens), s.category)
               for s in disjoint_corpus.sentences[:50]]
    assert category_accuracy(samples, trained_clf) >= 0.98


def test_category_accuracy_random_labels_near_chance(trained_clf, disjoint_corpus):
    rng = np.random.default_rng(3)
    samples = [(list(s.tokens), int(rng.integers(2)))
               for s in disjoint_corpus.sentences]
    acc = category_accuracy(samples, trained_clf)
    assert abs(acc - 0.5) < 0.08


def test_category_accuracy_matches_manual_count(trained_clf, disjoint_corpus):
    samples = [(list(s.tokens), s.category if i % 3 else 1 - s.category)
               for i, s in enumerate(disjoint_corpus.sentences[:10])]
    batch = trained_clf.encode_sentences(
        [LabeledSentence(tuple(t), c) for t, c in samples])
    preds = trained_clf.predict(batch.inputs)
    manual = sum(int(p == c) for p, (_, c) in zip(preds, samples)) / 10
    assert category_accuracy(samples, trained_clf) == manual


def test_category_accuracy_permutation_invariant(trained_clf, disjoint_corpus):
    samples = [(list(s.tokens), s.category)
               for s in disjoint_corpus.sentences[:30]]
    rng = np.random.default_rng(8)
    shuffled = [samples[i] for i in rng.permutation(30)]
    assert category_accuracy(samples, trained_clf) == category_accuracy(
        shuffled, trained_clf)


def test_category_accuracy_rejects_empty(trained_clf):
    with pytest.raises(DataError):
        category_accuracy([], trained_clf)


# --- perplexity -------------------------------------------------------------------


def test_perplexity_uniform_model_equals_vocab_size():
    corpus = make_synthetic_corpus(2, 20, 10, (3, 6), seed=2)
    vocab = build_vocabulary(corpus)
    cfg = ModelConfig(vocab_size=len(vocab), num_categories=2, embed_dim=6,
                      hidden_dim=5, latent_dim=3, max_len=7)
    params = CatVrnnParams(cfg)
    ppl = perplexity(params, cfg, corpus, vocab)
    assert abs(ppl - len(vocab)) < 1e-9 * len(vocab)


def test_perplexity_hand_computed_two_token_case():
    corpus = LabeledCorpus(
        sentences=[LabeledSentence(("alpha", "beta"), 0)], num_categories=1)
    vocab = build_vocabulary(corpus)
    cfg = ModelConfig(vocab_size=len(vocab), num_categories=1, embed_dim=5,
                      hidden_dim=4, latent_dim=3, max_len=4, init_mode="none")
    params = CatVrnnParams(cfg, Rng(3))
    got = perplexity(params, cfg, corpus, vocab, seed=12)

    batch = encode_batch(corpus.sentences, vocab, cfg.max_len)
    fwd = forward_teacher(batch.inputs, batch.categories, params, cfg, Rng(12),
                          train_mode=False)
    total = 0.0
    for t in range(3):  # two real tokens plus the terminating PAD
        logits = [float(v) for v in fwd.logits[t][0]]
        m = max(logits)
        lse = m + math.log(sum(math.exp(v - m) for v in logits))
        total += lse - logits[batch.targets[0, t]]
    assert abs(got - math.exp(total / 3)) < 1e-10


def test_perplexity_at_least_one():
    corpus = make_synthetic_corpus(2, 10, 6, (2, 4), seed=4)
    vocab = build_vocabulary(corpus)
    cfg = ModelConfig(vocab_size=len(vocab), num_categories=2, embed_dim=6,
                      hidden_dim=5, latent_dim=3, max_len=5)
    for seed in range(3):
        params = CatVrnnParams(cfg, Rng(seed))
        assert perplexity(params, cfg, corpus, vocab) >= 1.0


def test_perplexity_rejects_empty():
    corpus = make_synthetic_corpus(1, 2, 3, (1, 2), seed=0)
    vocab = build_vocabulary(corpus)
    cfg = ModelConfig(vocab_size=len(vocab), num_categories=1, embed_dim=4,
                      hidden_dim=3, latent_dim=2, max_len=3)
    empty = LabeledCorpus(sentences=[], num_categories=1)
    with pytest.raises(DataError):
        perplexity(CatVrnnParams(cfg), cfg, empty, vocab)


def perplexity_full_batch(params, cfg, corpus, vocab, seed=0):
    """``perplexity`` as ``forward_teacher`` over every step of every row of
    each PPL_BATCH sentences, scoring the positions it counts afterwards."""
    batch = encode_batch(corpus.sentences, vocab, cfg.max_len)
    rng = Rng(seed)
    ll_sum = 0.0
    n_positions = 0
    for start in range(0, len(batch), PPL_BATCH):
        sl = slice(start, start + PPL_BATCH)
        fwd = forward_teacher(batch.inputs[sl], batch.categories[sl], params,
                              cfg, rng, train_mode=False)
        scored = np.minimum(batch.lengths[sl] + 1, cfg.max_len)
        active = scored[None, :] > np.arange(cfg.max_len)[:, None]
        nll = nm.nll_rows(fwd.logits[active], batch.targets[sl].T[active])[0]
        ll_sum += float(nll.sum(dtype=np.float64))
        n_positions += int(active.sum())
    return float(np.exp(ll_sum / n_positions))


def mixed_length_corpus(num_categories, max_len):
    """A first batch whose rows all stop before the last step, one of them a
    single token, then a short last batch of any lengths, one of them
    max_len."""
    rng = np.random.default_rng(8)
    lengths = [1, *rng.integers(1, max_len - 1, PPL_BATCH - 1), max_len,
               *rng.integers(1, max_len + 1, PPL_BATCH // 2)]
    return LabeledCorpus(sentences=[
        LabeledSentence(tuple(f"w{j}" for j in rng.integers(0, 9, n)),
                        i % num_categories)
        for i, n in enumerate(lengths)], num_categories=num_categories)


@pytest.mark.parametrize("kw", [
    dict(init_mode="static"),
    dict(init_mode="none"),
    dict(init_mode="adaptive", num_categories=3, use_feature_extractors=True,
         use_kl_term=True),
], ids=["static", "none", "adaptive-featz-kl"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_perplexity_matches_the_full_batch_pass(kw, dtype):
    kw = dict(kw)
    k = kw.pop("num_categories", 2)
    corpus = mixed_length_corpus(k, max_len=8)
    vocab = build_vocabulary(corpus)
    cfg = ModelConfig(vocab_size=len(vocab), num_categories=k, embed_dim=7,
                      hidden_dim=6, latent_dim=4, max_len=8, dtype=dtype, **kw)
    params = CatVrnnParams(cfg, Rng(5))
    got = perplexity(params, cfg, corpus, vocab, seed=7)
    assert got == perplexity_full_batch(params, cfg, corpus, vocab, seed=7)
    assert len(corpus) > PPL_BATCH and len(corpus) % PPL_BATCH


# --- BLEU ---------------------------------------------------------------------------


def test_bleu_identity_is_one():
    corpus = [("a", "b", "c", "d"), ("e", "f", "g"), ("a", "c")]
    for n in (2, 3, 4, 5):
        assert bleu_corpus(corpus, corpus, n) == pytest.approx(1.0, abs=1e-12)


def test_bleu_disjoint_is_smoothing_floor():
    cands = [("x", "y", "z", "w", "v")]
    refs = [("a", "b", "c", "d", "e")]
    assert bleu_corpus(cands, refs, 2) < 1e-4


def test_bleu_three_sentence_toy_matches_oracle():
    cands = [("the", "cat", "sat"), ("a", "dog", "ran", "far"),
             ("the", "dog", "sat")]
    refs = [("the", "cat", "sat", "down"), ("a", "dog", "ran"),
            ("the", "bird", "flew")]
    for n in (2, 3, 4, 5):
        got = bleu_corpus(cands, refs, n)
        assert abs(got - oracle_bleu(cands, refs, n)) < 1e-9


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=8)
             .map(tuple), min_size=1, max_size=5),
    st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=8)
             .map(tuple), min_size=1, max_size=5),
    st.integers(min_value=2, max_value=5),
)
def test_bleu_matches_oracle_on_random_corpora(cands, refs, n):
    assert abs(bleu_corpus(cands, refs, n) - oracle_bleu(cands, refs, n)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=8)
                .map(tuple), min_size=1, max_size=5))
def test_bleu_self_identity_property(corpus):
    for n in (2, 5):
        assert bleu_corpus(corpus, corpus, n) == pytest.approx(1.0, abs=1e-12)


def test_bleu_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        bleu_corpus([("a",)], [("a",)], 6)
    with pytest.raises(DataError):
        bleu_corpus([], [("a",)], 2)


# --- harmonic mean ---------------------------------------------------------------------


def test_harmonic_identity_and_example():
    for x in (0.1, 0.5, 0.93):
        assert bleu_harmonic(x, x) == pytest.approx(x, abs=1e-15)
    assert bleu_harmonic(0.8, 0.6) == pytest.approx(2 * 0.8 * 0.6 / 1.4, abs=1e-15)
    assert bleu_harmonic(0.0, 0.0) == 0.0


@settings(max_examples=100)
@given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
def test_harmonic_symmetric_and_bracketed(f, b):
    ha = bleu_harmonic(f, b)
    assert ha == pytest.approx(bleu_harmonic(b, f), abs=1e-15)
    assert min(f, b) - 1e-12 <= ha <= max(f, b) + 1e-12


# --- full report -------------------------------------------------------------------------


def test_eval_report_fields_and_determinism(disjoint_corpus, trained_clf):
    vocab = build_vocabulary(disjoint_corpus)
    cfg = ModelConfig(vocab_size=len(vocab), num_categories=2, embed_dim=12,
                      hidden_dim=10, latent_dim=4, max_len=10)
    params = CatVrnnParams(cfg, Rng(1))
    r1 = eval_report(params, cfg, disjoint_corpus, vocab, trained_clf,
                     n_samples=10, seed=3)
    r2 = eval_report(params, cfg, disjoint_corpus, vocab, trained_clf,
                     n_samples=10, seed=3)
    assert r1 == r2
    assert 0.0 <= r1.category_accuracy <= 1.0
    assert r1.perplexity >= 1.0
    for n in (2, 3, 4, 5):
        f, b, ha = r1.bleu_f[n], r1.bleu_b[n], r1.bleu_ha[n]
        assert 0.0 <= f <= 1.0 and 0.0 <= b <= 1.0
        assert min(f, b) - 1e-12 <= ha <= max(f, b) + 1e-12
    assert r1.config["vocab_size"] == len(vocab)


def test_score_samples_scores_external_generated(disjoint_corpus, trained_clf):
    generated = [(list(s.tokens), s.category) for s in disjoint_corpus.sentences]
    report = score_samples(generated, disjoint_corpus, trained_clf, seed=0)
    # self-copied training set: forward BLEU is exactly one
    for n in (2, 3, 4, 5):
        assert report.bleu_f[n] == pytest.approx(1.0, abs=1e-12)
    assert report.perplexity is None
    assert report.category_accuracy >= 0.98


def test_score_samples_backward_subsampling_flagged(disjoint_corpus, trained_clf):
    generated = [(list(s.tokens), s.category)
                 for s in disjoint_corpus.sentences[:40]]
    report = score_samples(generated, disjoint_corpus, trained_clf, seed=1,
                           backward_cap=50)
    assert report.backward_subsampled
    assert report.backward_subsample_seed == 1


def test_eval_report_is_sample_then_score(disjoint_corpus, trained_clf):
    vocab = build_vocabulary(disjoint_corpus)
    cfg = ModelConfig(vocab_size=len(vocab), num_categories=2, embed_dim=12,
                      hidden_dim=10, latent_dim=4, max_len=10)
    params = CatVrnnParams(cfg, Rng(1))
    samples = sample_categories(params, cfg, vocab, 10, seed=3)
    assert [c for _, c in samples] == [0] * 10 + [1] * 10
    scored = score_samples(samples, disjoint_corpus, trained_clf, seed=3,
                           perplexity=perplexity(params, cfg, disjoint_corpus,
                                                 vocab, seed=3))
    report = eval_report(params, cfg, disjoint_corpus, vocab, trained_clf,
                         n_samples=10, seed=3)
    assert report == replace(scored, n_samples_per_category=10,
                             num_categories=cfg.num_categories,
                             config=cfg.to_dict())
