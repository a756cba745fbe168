"""Acceptance criteria, one test per criterion, each printing a PASS line.

Full-scale table reproductions need multi-hour runs; these are the
property-based and scaled-down behavioral checks that gate the build.
"""

import itertools
import math
import statistics
import time
from collections import Counter

import numpy as np
import pytest

from catvrnn.numeric import Rng, check_gradient
from catvrnn.model import (
    CatVrnnParams,
    ModelConfig,
    forward_teacher,
    init_hidden_adaptive,
    init_hidden_static,
    init_hidden_zero,
    joint_loss,
    loss_and_grad,
    parameter_count,
)
from catvrnn.data import (
    LabeledCorpus,
    LabeledSentence,
    build_icq_variant,
    build_ica_series,
    build_vocabulary,
    encode_batch,
    make_synthetic_corpus,
    oracle_category_accuracy,
    word_membership_oracle,
)
from catvrnn.training import (
    AdamState,
    TrainPlan,
    checkpoint_digest,
    load_checkpoint,
    run_training,
    train_epoch,
)
from catvrnn.evaluation import (
    bleu_corpus,
    bleu_harmonic,
    perplexity,
    sample_categories,
)
from catvrnn.cli import main as cli_main

from test_evaluation import oracle_bleu


def announce(number, name):
    print(f"\nACCEPTANCE {number} {name}: PASS")


# --- shared desk-scale setup -------------------------------------------------


@pytest.fixture(scope="module")
def synth():
    corpus = make_synthetic_corpus(2, 200, 50, (5, 12), seed=11)
    vocab = build_vocabulary(corpus)
    return {
        "corpus": corpus,
        "vocab": vocab,
        "oracle": word_membership_oracle(corpus),
        "batch": encode_batch(corpus.sentences, vocab, 13),
    }


def synth_config(vocab, init_mode="static", **kw):
    return ModelConfig(vocab_size=len(vocab), num_categories=2, embed_dim=48,
                       hidden_dim=128, latent_dim=16, max_len=13,
                       init_mode=init_mode, **kw)


def train_model(synth, cfg, seed, epochs, lr=1e-3):
    rng = Rng(seed)
    params = CatVrnnParams(cfg, rng)
    plan = TrainPlan(epochs=epochs, batch_size=32, lr=lr)
    adam = AdamState.from_plan(params.store, plan)
    batch = synth["batch"]
    stats = None
    history = []
    for epoch in range(1, epochs + 1):
        stats = train_epoch(batch.inputs, batch.targets, batch.categories,
                            params, adam, cfg, rng, epoch, plan)
        history.append(stats)
    return params, stats, history


def steering_accuracy(synth, params, cfg, n=100, seed=123):
    samples = sample_categories(params, cfg, synth["vocab"], n, seed)
    return oracle_category_accuracy(samples, synth["oracle"])


# --- criterion 1: gradient suite ------------------------------------------------


def test_c01_gradient_suite_full_joint_loss():
    t0 = time.time()
    x_ids = np.array([[0, 3, 7, 2, 5], [0, 4, 4, 9, 11]])
    targets = np.array([[3, 7, 2, 5, 11], [4, 4, 9, 11, 0]])
    cats = np.array([0, 1])
    for init_mode, use_kl in itertools.product(("static", "adaptive"),
                                               (False, True)):
        cfg = ModelConfig(vocab_size=12, num_categories=2, embed_dim=8,
                          hidden_dim=6, latent_dim=4, max_len=5,
                          init_mode=init_mode, use_kl_term=use_kl)
        params = CatVrnnParams(cfg, Rng(0))

        def loss():
            fwd = forward_teacher(x_ids, cats, params, cfg, Rng(1),
                                  train_mode=True)
            return joint_loss(fwd, targets, cats, cfg).total.mean()

        analytic = np.empty_like(params.store.flat)
        loss_and_grad(x_ids, targets, cats, params, cfg, Rng(1), analytic)
        report = check_gradient(loss, params.store, analytic, tolerance=1e-4,
                                max_checks=256)
        assert report.passed, (init_mode, use_kl, report.summary())
    elapsed = time.time() - t0
    assert elapsed < 60, f"gradient suite took {elapsed:.1f}s"
    announce("C01", "gradient-suite")


# --- criterion 2: initialization invariants ---------------------------------------


def test_c02_initialization_invariants():
    cfg = ModelConfig(vocab_size=20, num_categories=2, embed_dim=8,
                      hidden_dim=32, latent_dim=4, max_len=5,
                      init_mode="static", static_omega=8.5)
    rng = Rng(17)
    for draw in range(1000):
        c = draw % 2
        h0 = init_hidden_static(c, cfg, rng)[0]
        sign = 1.0 if c == 0 else -1.0
        assert np.all(np.sign(h0) == sign)
        assert abs(h0.sum() - sign * 8.5) < 1e-10

    acfg = ModelConfig(vocab_size=20, num_categories=6, embed_dim=8,
                       hidden_dim=32, latent_dim=4, max_len=5,
                       init_mode="adaptive")
    params = CatVrnnParams(acfg, Rng(3))
    h = [init_hidden_adaptive(c, params, False, rng)[0] for c in range(6)]
    for c in range(5):
        np.testing.assert_allclose(h[c + 1] - h[c], params.init_omega.data,
                                   atol=1e-12)

    z1 = init_hidden_zero(cfg, batch=4)
    consumed = Rng(5)
    consumed.stream("init").random(1000)
    z2 = init_hidden_zero(cfg, batch=4)
    np.testing.assert_array_equal(z1, np.zeros((4, 32)))
    np.testing.assert_array_equal(z1, z2)
    announce("C02", "initialization-invariants")


# --- criterion 3: category steering at desk scale -----------------------------------


@pytest.fixture(scope="module")
def steering_models(synth):
    t0 = time.time()
    epochs = 140
    assert epochs <= 200
    models = {}
    for mode in ("static", "adaptive", "none"):
        cfg = synth_config(synth["vocab"], init_mode=mode)
        params, _, _ = train_model(synth, cfg, seed=0, epochs=epochs)
        models[mode] = (params, cfg)
    return {"models": models, "elapsed": time.time() - t0}


def test_c03_category_steering(synth, steering_models):
    results = {mode: steering_accuracy(synth, params, cfg)
               for mode, (params, cfg) in steering_models["models"].items()}
    elapsed = steering_models["elapsed"]
    assert results["static"] >= 0.90, results
    assert results["adaptive"] >= 0.90, results
    assert abs(results["none"] - 0.50) <= 0.10, results
    assert elapsed < 600, f"steering runs took {elapsed:.0f}s"
    print(f"\n  steering accuracies: {results} ({elapsed:.0f}s)")
    announce("C03", "category-steering")


def test_report_category_accuracy_matches_membership_oracle(synth, steering_models):
    # the trained scoring classifier and the exact word-membership oracle
    # agree on the disjoint-vocabulary setup
    from catvrnn.evaluation import eval_report, train_eval_classifier

    params, cfg = steering_models["models"]["static"]
    clf = train_eval_classifier(synth["corpus"], seed=4, epochs=8)
    report = eval_report(params, cfg, synth["corpus"], synth["vocab"], clf,
                         n_samples=50, seed=77)

    samples = sample_categories(params, cfg, synth["vocab"], 50, 77)
    oracle_acc = oracle_category_accuracy(samples, synth["oracle"])
    assert abs(report.category_accuracy - oracle_acc) <= 0.02


# --- criterion 4: multi-task benefit ordering ------------------------------------------


def test_c04_mtl_benefit_ordering(synth):
    epochs = 10
    nll = {True: [], False: []}
    acc = {True: [], False: []}
    for seed in (0, 1, 2):
        for mtl in (True, False):
            cfg = synth_config(synth["vocab"], init_mode="static",
                               use_classification=mtl)
            params, stats, _ = train_model(synth, cfg, seed=seed, epochs=epochs)
            nll[mtl].append(stats.mean_gen_nll)
            acc[mtl].append(steering_accuracy(synth, params, cfg))

    med_acc_joint = statistics.median(acc[True])
    med_acc_single = statistics.median(acc[False])
    med_nll_joint = statistics.median(nll[True])
    med_nll_single = statistics.median(nll[False])
    print(f"\n  joint: acc {acc[True]} nll {nll[True]}")
    print(f"  single: acc {acc[False]} nll {nll[False]}")
    assert med_acc_joint >= med_acc_single
    assert med_nll_joint <= med_nll_single
    announce("C04", "mtl-benefit-ordering")


# --- criterion 5: KL-ablation direction ---------------------------------------------------


def test_c05_kl_ablation_direction(synth):
    epochs = 50
    degraded = 0
    for seed in (0, 1, 2):
        finals = {}
        for use_kl in (True, False):
            cfg = synth_config(synth["vocab"], init_mode="static",
                               use_kl_term=use_kl)
            params, stats, history = train_model(synth, cfg, seed=seed,
                                                 epochs=epochs)
            finals[use_kl] = stats
            if use_kl:
                assert all(h.mean_kl >= 0 for h in history)
        if finals[True].mean_gen_nll > finals[False].mean_gen_nll:
            degraded += 1

    # per-step KL values are reported and non-negative on a fresh forward
    cfg = synth_config(synth["vocab"], use_kl_term=True)
    params = CatVrnnParams(cfg, Rng(0))
    batch = synth["batch"]
    fwd = forward_teacher(batch.inputs[:8], batch.categories[:8], params, cfg,
                          Rng(1))
    assert fwd.kl_sum is not None
    assert np.all(fwd.kl_sum >= 0)

    assert degraded >= 2, f"KL hurt generation in only {degraded}/3 seeds"
    announce("C05", "kl-ablation-direction")


# --- criterion 6: BLEU oracle equivalence ---------------------------------------------------


def test_c06_bleu_oracle_equivalence():
    alphabet = ["w0", "w1", "w2", "w3", "w4", "w5"]
    rng = np.random.default_rng(61)

    def random_corpus(n_sentences):
        return [tuple(alphabet[i] for i in
                      rng.integers(0, 6, size=rng.integers(1, 9)))
                for _ in range(n_sentences)]

    checked = 0
    for n_cands, n_refs, n in itertools.product(range(1, 6), range(1, 6),
                                                (2, 3, 4, 5)):
        for _ in range(2):
            cands = random_corpus(n_cands)
            refs = random_corpus(n_refs)
            got = bleu_corpus(cands, refs, n)
            want = oracle_bleu(cands, refs, n)
            assert abs(got - want) < 1e-9, (cands, refs, n)
            checked += 1
    assert checked == 200

    # edge shapes: identical corpora, single-token sentences, repeated n-grams
    edge_cases = [
        ([("w0",)], [("w0",)]),
        ([("w0", "w0", "w0")], [("w0", "w0")]),
        ([("w1", "w2")] * 5, [("w1", "w2", "w3")]),
    ]
    for cands, refs in edge_cases:
        for n in (2, 5):
            assert abs(bleu_corpus(cands, refs, n) - oracle_bleu(cands, refs, n)) < 1e-9

    for trial in range(100):
        corpus = random_corpus(int(rng.integers(1, 6)))
        n = int(rng.integers(2, 6))
        assert abs(bleu_corpus(corpus, corpus, n) - 1.0) < 1e-12
        f, b = rng.random(), rng.random()
        ha = bleu_harmonic(f, b)
        assert min(f, b) - 1e-12 <= ha <= max(f, b) + 1e-12
        assert abs(ha - bleu_harmonic(b, f)) < 1e-15
    announce("C06", "bleu-oracle-equivalence")


# --- criterion 7: perplexity anchors ----------------------------------------------------------


@pytest.fixture(scope="module")
def memorized():
    sentence = LabeledSentence(("the", "quick", "fox", "jumps", "high", "today"), 0)
    corpus = LabeledCorpus(sentences=[sentence], num_categories=1)
    vocab = build_vocabulary(corpus)
    cfg = ModelConfig(vocab_size=len(vocab), num_categories=1, embed_dim=12,
                      hidden_dim=12, latent_dim=4, max_len=8, init_mode="static")
    rng = Rng(2)
    params = CatVrnnParams(cfg, rng)
    batch = encode_batch(corpus.sentences, vocab, cfg.max_len)
    plan = TrainPlan(epochs=600, batch_size=1, lr=5e-3)
    adam = AdamState.from_plan(params.store, plan)
    for epoch in range(1, 601):
        train_epoch(batch.inputs, batch.targets, batch.categories, params,
                    adam, cfg, rng, epoch, plan)
    return {"corpus": corpus, "vocab": vocab, "cfg": cfg, "params": params,
            "sentence": sentence}


def test_c07_perplexity_anchors(memorized):
    corpus = make_synthetic_corpus(2, 30, 12, (3, 7), seed=9)
    vocab = build_vocabulary(corpus)
    cfg = ModelConfig(vocab_size=len(vocab), num_categories=2, embed_dim=10,
                      hidden_dim=8, latent_dim=4, max_len=8)
    uniform = CatVrnnParams.zeros(cfg)
    ppl_uniform = perplexity(uniform, cfg, corpus, vocab)
    assert abs(ppl_uniform - len(vocab)) < 1e-9 * len(vocab)

    ppl_memo = perplexity(memorized["params"], memorized["cfg"],
                          memorized["corpus"], memorized["vocab"], seed=7)
    assert ppl_memo <= 1.1, ppl_memo

    for seed in range(3):
        params = CatVrnnParams(cfg, Rng(seed))
        assert perplexity(params, cfg, corpus, vocab) >= 1.0

    # overfit model reproduces its sentence in nearly every sample
    samples = sample_categories(memorized["params"], memorized["cfg"],
                                memorized["vocab"], 100, 5, categories=[0])
    target = list(memorized["sentence"].tokens)
    texts = [tokens for tokens, _ in samples]
    assert sum(t == target for t in texts) >= 95
    print(f"\n  uniform ppl {ppl_uniform:.6f}, memorized ppl {ppl_memo:.6f}")
    announce("C07", "perplexity-anchors")


# --- criterion 8: determinism and persistence ----------------------------------------------------


def test_c08_determinism_and_persistence(tmp_path):
    corpus = make_synthetic_corpus(2, 24, 8, (3, 6), seed=14)
    corpus_path = tmp_path / "corpus.tsv"
    from catvrnn.data import save_corpus

    save_corpus(corpus_path, corpus)
    run_dir = tmp_path / "run"
    args = ["train", "--corpus", str(corpus_path), "--out", str(run_dir),
            "--epochs", "4", "--batch-size", "8", "--embed-dim", "10",
            "--hidden-dim", "8", "--latent-dim", "4", "--max-len", "7",
            "--seed", "6"]
    assert cli_main(list(args)) == 0

    gen_a = tmp_path / "gen_a.tsv"
    gen_b = tmp_path / "gen_b.tsv"
    for out in (gen_a, gen_b):
        code = cli_main(["generate", "--checkpoint",
                         str(run_dir / "epoch_0004.ckpt"), "--vocab",
                         str(run_dir / "vocab.txt"), "--out", str(out),
                         "-n", "25", "--seed", "8"])
        assert code == 0
    assert gen_a.read_bytes() == gen_b.read_bytes()

    # resume from a mid checkpoint and land on an identical final state
    run_half = tmp_path / "half"
    assert cli_main(["train", "--corpus", str(corpus_path), "--out",
                     str(run_half), "--epochs", "4", "--batch-size", "8",
                     "--embed-dim", "10", "--hidden-dim", "8", "--latent-dim",
                     "4", "--max-len", "7", "--seed", "6",
                     "--save-every", "2"]) == 0
    run_resumed = tmp_path / "resumed"
    assert cli_main(["train", "--corpus", str(corpus_path), "--out",
                     str(run_resumed), "--epochs", "4", "--batch-size", "8",
                     "--max-len", "7", "--seed", "6", "--resume",
                     str(run_half / "epoch_0002.ckpt")]) == 0
    assert checkpoint_digest(run_dir / "epoch_0004.ckpt") == checkpoint_digest(
        run_resumed / "epoch_0004.ckpt")

    gen_c = tmp_path / "gen_c.tsv"
    assert cli_main(["generate", "--checkpoint",
                     str(run_resumed / "epoch_0004.ckpt"), "--vocab",
                     str(run_dir / "vocab.txt"), "--out", str(gen_c),
                     "-n", "25", "--seed", "8"]) == 0

    def sentences(path):
        return [l for l in path.read_text().splitlines()
                if not l.startswith("#")]

    # same seed, different checkpoint path: identical generated text (the
    # header echoes the differing path argument)
    assert sentences(gen_c) == sentences(gen_a)
    announce("C08", "determinism-and-persistence")


# --- criterion 9: dataset builders -----------------------------------------------------------------


def test_c09_dataset_builders():
    rng = np.random.default_rng(19)
    base_sentences = []
    for product in range(5):
        for sentiment in range(2):
            cell = product * 2 + sentiment
            for i in range(1000):
                tokens = tuple(f"p{product}s{sentiment}w{rng.integers(40)}"
                               for _ in range(rng.integers(3, 8)))
                base_sentences.append(LabeledSentence(tokens, cell))
    base = LabeledCorpus(sentences=base_sentences, num_categories=10,
                         provenance="icq-base")

    variants = {v: build_icq_variant(base, v) for v in ("1c", "2c", "5c", "10c")}
    assert variants["1c"].num_categories == 1
    assert variants["2c"].num_categories == 2
    assert variants["5c"].num_categories == 5
    assert variants["10c"].num_categories == 10
    assert variants["10c"].category_counts() == [1000] * 10
    assert variants["2c"].category_counts() == [5000, 5000]
    multisets = [Counter(t for s in v.sentences for t in s.tokens)
                 for v in variants.values()]
    assert all(m == multisets[0] for m in multisets)

    products = LabeledCorpus(
        sentences=[LabeledSentence((f"prod{p}", f"w{i % 13}"), p)
                   for p in range(5) for i in range(2000)],
        num_categories=5,
    )
    series = {k: build_ica_series(products, k) for k in (2, 3, 4, 5)}
    for k, corpus in series.items():
        assert corpus.category_counts() == [2000] * k
    for k in (2, 3, 4):
        smaller = {(s.tokens, s.category) for s in series[k].sentences}
        larger = {(s.tokens, s.category) for s in series[k + 1].sentences}
        assert smaller < larger
    announce("C09", "dataset-builders")


# --- criterion 10: parameter accounting --------------------------------------------------------------


def test_c10_parameter_accounting():
    # brute-force enumeration at the default widths, two vocabulary sizes
    counts = {}
    for v in (50, 51, 80):
        cfg = ModelConfig(vocab_size=v, num_categories=2)
        params = CatVrnnParams.zeros(cfg)
        enumerated = sum(t.data.size for _, t in params.store.items())
        assert enumerated == parameter_count(params)
        counts[v] = enumerated
    assert counts[51] - counts[50] == 601
    assert counts[80] - counts[50] == 601 * 30

    # the vocabulary-dependent part is embedding (300/V) plus output (301/V)
    cfg = ModelConfig(vocab_size=50, num_categories=2)
    params = CatVrnnParams.zeros(cfg)
    emb = params.store["embedding"].data.size
    out_w = params.store["out.w"].data.size
    out_b = params.store["out.b"].data.size
    assert emb == 300 * 50 and out_w == 300 * 50 and out_b == 50
    announce("C10", "parameter-accounting")
