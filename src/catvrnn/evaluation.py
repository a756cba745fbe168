"""Metric suite: category accuracy via an independently trained convolutional
sentence classifier, teacher-forced perplexity, and corpus-level forward /
backward / harmonic BLEU.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .errors import ConfigurationError, DataError, require_ints
from . import numeric as nm
from .numeric import ParamStore, Rng
from .model import CatVrnnParams, ModelConfig, generate, teacher_nll
from .data import (
    Batch,
    LabeledCorpus,
    LabeledSentence,
    Vocabulary,
    build_vocabulary,
    decode_ids,
    encode_batch,
)
from .training import AdamState, optimizer_step, read_container, write_container

log = logging.getLogger(__name__)

BLEU_EPS = 1e-9
BLEU_ORDERS = (2, 3, 4, 5)
# rows the classifier scores per call in ``predict``: a chunk's products
# are one (U, 1200) table for its U <= rows * T distinct tokens, so at the
# fit's batch size scoring needs no larger block than the fit already used
PREDICT_CHUNK = 32
# the classifier fit's minibatch size and Adam step size
CLF_BATCH = 32
CLF_LR = 1e-3
# the classifier's sizes (Kim 2014): embedding width, filter widths, feature
# maps per width, and the dropout rate of the fit
CLF_EMBED = 128
CLF_WIDTHS = (3, 4, 5)
CLF_MAPS = 100
CLF_DROPOUT = 0.5
# for each of ``conv.w``'s 12 column blocks, the index in CLF_WIDTHS of the
# block's width and the block's offset
_BLOCK_WIDTH = np.repeat(np.arange(len(CLF_WIDTHS)), CLF_WIDTHS)
_BLOCK_OFFSET = np.concatenate([np.arange(w) for w in CLF_WIDTHS])
# sentences per batch in ``perplexity``; each batch draws its own h0 and
# latent blocks, so the value depends on it
PPL_BATCH = 64


# --- convolutional sentence classifier --------------------------------------


@dataclass
class ClassifierConfig:
    vocab_size: int
    num_categories: int
    max_len: int

    def __post_init__(self):
        require_ints(1, vocab_size=self.vocab_size, num_categories=self.num_categories,
                     max_len=self.max_len)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ClassifierConfig":
        return cls(**d)


class EvalClassifier:
    """Kim-style text CNN: embedding, parallel convolutions over token
    windows, max-over-time pooling, dropout (training only), linear head.

    Trained on real data only and frozen at scoring time; scoring generated
    text with the generator's own head would be circular.
    """

    def __init__(self, cfg: ClassifierConfig, vocab: Vocabulary,
                 rng: Rng | None = None):
        if cfg.max_len < max(CLF_WIDTHS):
            raise ConfigurationError(
                f"max_len {cfg.max_len} shorter than widest filter {max(CLF_WIDTHS)}"
            )
        self.cfg = cfg
        self.vocab = vocab
        self.val_accuracy: float | None = None
        gen = rng.stream("init") if rng is not None else None
        dt = np.float64

        def draw(shape, scale=None):
            if gen is None or scale is None:
                return np.zeros(shape, dtype=dt)
            return gen.uniform(-scale, scale, size=shape)

        e, f, widths = CLF_EMBED, CLF_MAPS, CLF_WIDTHS
        weights = [("embedding", draw((cfg.vocab_size, e), scale=0.1))]
        # each width's filter bank is drawn as (w*E, F), its E-row block k the
        # filter of offset k; "conv.w" holds the blocks side by side, width by
        # width, as (E, sum(widths)*F): the column order ``logits`` reads
        banks = [draw((w * e, f), scale=np.sqrt(6.0 / (w * e + f)))
                 .reshape(w, e, f).transpose(1, 0, 2).reshape(e, w * f) for w in widths]
        weights += [("conv.w", np.hstack(banks)), *((f"conv{w}.b", draw(f)) for w in widths)]
        head_in = f * len(widths)
        limit = np.sqrt(6.0 / (head_in + cfg.num_categories))
        weights += [("head.w", draw((head_in, cfg.num_categories), scale=limit)),
                    ("head.b", draw(cfg.num_categories))]
        self.store = ParamStore(weights)

    def logits(self, ids: np.ndarray, train_mode: bool = False,
               dropout_rng: np.random.Generator | None = None,
               saved: dict | None = None) -> np.ndarray:
        """Class logits for encoded inputs (B, T), in numpy.

        The batch's U distinct tokens' embeddings are multiplied once by
        every filter's row block of every width (``conv.w``), as one (U, 12·F)
        table; each width's convolution is then the sum of its offsets'
        column blocks, read through each position's index into that table.
        ``saved``, when given, receives what ``loss_and_grad``'s backward
        reads.
        """
        ids = np.asarray(ids, dtype=np.int64)
        b, t = ids.shape
        if t < max(CLF_WIDTHS):
            raise ConfigurationError(
                f"inputs of length {t} shorter than widest filter {max(CLF_WIDTHS)}"
            )
        embedding = self.store["embedding"]
        if ids.size and (ids.min() < 0 or ids.max() >= len(embedding)):
            raise ConfigurationError(
                f"row id out of range [0, {len(embedding)}): {ids.min()}..{ids.max()}"
            )
        uniq, inv = np.unique(ids, return_inverse=True)
        inv = inv.reshape(b, t)
        emb = embedding[uniq]
        table = emb @ self.store["conv.w"]
        f, lo = CLF_MAPS, 0
        pooled, argmax = [], []
        for w in CLF_WIDTHS:
            npos = t - w + 1
            conv = table[inv[:, :npos], lo: lo + f]
            for k in range(1, w):
                conv += table[inv[:, k: k + npos], lo + k * f: lo + (k + 1) * f]
            lo += w * f
            conv += self.store[f"conv{w}.b"]
            np.maximum(conv, 0.0, out=conv)
            # max over positions, at the first argmax
            idx = conv.argmax(axis=1)
            pooled.append(np.take_along_axis(conv, idx[:, None, :], axis=1)[:, 0, :])
            argmax.append(idx)
        features = np.concatenate(pooled, axis=-1)
        mask = None
        if train_mode:
            if dropout_rng is None:
                raise ConfigurationError("training-mode logits need a dropout rng")
            keep = 1.0 - CLF_DROPOUT
            mask = (dropout_rng.random(features.shape) < keep) / keep
            features = features * mask
        out = features @ self.store["head.w"]
        out += self.store["head.b"]
        if saved is not None:
            saved.update(uniq=uniq, inv=inv, emb=emb, features=features, mask=mask,
                         argmax=np.stack(argmax, axis=1))
        return out

    def loss_and_grad(self, ids: np.ndarray, targets: np.ndarray,
                      dropout_rng: np.random.Generator, grad: np.ndarray) -> float:
        """The batch-mean cross-entropy of the training-mode logits, with
        dropout drawn from ``dropout_rng``, and its gradient, written into
        ``grad``, an array laid out like ``store.flat``.

        Max-pooling sends each (row, map) gradient of a width to one
        position, so the products' gradient has only B·F·12 nonzeros; one
        weighted ``np.bincount`` sums them per distinct token into a
        (U, 12·F) array G. ``conv.w`` then gets ``emb.T @ G``, the batch's
        embedding rows ``G @ conv.w.T`` and every other row zero.
        """
        saved: dict = {}
        logits = self.logits(ids, train_mode=True, dropout_rng=dropout_rng, saved=saved)
        targets = np.asarray(targets, dtype=np.int64)
        nll, m, ls = nm.nll_rows(logits, targets)
        loss = float(nll.mean())
        b, f = len(logits), CLF_MAPS
        views = self.store.views(grad)
        g_logits = nm.cross_entropy_grad(logits, m, ls, targets,
                                         np.full(b, 1.0 / b), out=logits)
        np.matmul(saved["features"].T, g_logits, out=views["head.w"])
        np.sum(g_logits, axis=0, out=views["head.b"])
        g_pool = g_logits @ self.store["head.w"].T
        g_pool *= saved["mask"]
        # the relu passes a pooled map's gradient only where its max is > 0
        # (a feature dropout zeroed has none left to pass)
        g_pool *= saved["features"] > 0
        g_pool = g_pool.reshape(b, len(CLF_WIDTHS), f)
        for j, w in enumerate(CLF_WIDTHS):
            np.sum(g_pool[:, j], axis=0, out=views[f"conv{w}.b"])
        # block j of conv.w's columns gets, for each (row, map), the pooled
        # gradient at the token its width's argmax window reads at its offset
        pos = saved["argmax"][:, _BLOCK_WIDTH] + _BLOCK_OFFSET[:, None]
        tokens = np.take_along_axis(saved["inv"], pos.reshape(b, -1), axis=1)
        cols = len(_BLOCK_WIDTH) * f
        uniq = saved["uniq"]
        g_table = np.bincount(
            (tokens * cols + np.arange(cols)).ravel(),
            weights=g_pool[:, _BLOCK_WIDTH].ravel(),
            minlength=len(uniq) * cols,
        ).reshape(len(uniq), cols)
        np.matmul(saved["emb"].T, g_table, out=views["conv.w"])
        g_emb = views["embedding"]
        g_emb.fill(0.0)
        g_emb[uniq] = g_table @ self.store["conv.w"].T
        return loss

    def predict(self, ids: np.ndarray) -> np.ndarray:
        """Predicted classes, scored PREDICT_CHUNK rows at a time so that
        memory does not grow with the number of rows."""
        ids = np.asarray(ids)
        preds = [self.logits(ids[i: i + PREDICT_CHUNK]).argmax(axis=1)
                 for i in range(0, len(ids), PREDICT_CHUNK)]
        return np.concatenate(preds) if preds else np.zeros(0, dtype=np.int64)

    def encode_sentences(self, sentences: list[LabeledSentence]) -> Batch:
        clipped = []
        for s in sentences:
            if len(s.tokens) > self.cfg.max_len:
                clipped.append(LabeledSentence(s.tokens[: self.cfg.max_len],
                                               s.category))
            else:
                clipped.append(s)
        return encode_batch(clipped, self.vocab, self.cfg.max_len)

    def save(self, path):
        meta = {
            "kind": "eval_classifier",
            "config": self.cfg.to_dict(),
            "vocab": self.vocab.id_to_token,
            "val_accuracy": self.val_accuracy,
        }
        write_container(path, meta, self.store.layout(), self.store.flat)

    @classmethod
    def load(cls, path) -> "EvalClassifier":
        def parse(header):
            clf = cls(ClassifierConfig.from_dict(header["config"]),
                      Vocabulary(header["vocab"]))
            if len(clf.vocab) != clf.cfg.vocab_size:
                raise ValueError(f"a vocabulary of {len(clf.vocab)} words for "
                                 f"vocab_size {clf.cfg.vocab_size}")
            clf.val_accuracy = header["val_accuracy"]
            return clf, clf.store.layout(), np.float64, 1

        clf, body = read_container(path, "eval_classifier",
                                   {"config", "vocab", "val_accuracy"}, parse)
        clf.store.flat[...] = body[0]
        return clf


def train_eval_classifier(corpus: LabeledCorpus, seed: int, epochs: int = 25,
                          val_fraction: float = 0.1) -> EvalClassifier:
    """Train the scoring classifier on real data with a stratified validation
    split; the resulting weights are a pure function of (corpus, seed). Its
    inputs are as wide as the corpus's longest sentence, and at least 5."""
    if corpus.num_categories < 2:
        raise DataError("classifier training needs at least two categories")
    vocab = build_vocabulary(corpus)
    t = max(corpus.max_length(), 5)
    cfg = ClassifierConfig(vocab_size=len(vocab),
                           num_categories=corpus.num_categories, max_len=t)
    rng = Rng(seed)
    clf = EvalClassifier(cfg, vocab, rng=rng)

    split_rng = rng.keyed("clf-split")
    by_cat: dict[int, list[int]] = {}
    for i, s in enumerate(corpus.sentences):
        by_cat.setdefault(s.category, []).append(i)
    val_idx: list[int] = []
    for cat in sorted(by_cat):
        pool = np.array(by_cat[cat])
        n_val = max(1, int(round(len(pool) * val_fraction)))
        val_idx.extend(split_rng.permutation(pool)[:n_val].tolist())
    val_set = set(val_idx)
    train_sents = [s for i, s in enumerate(corpus.sentences) if i not in val_set]
    val_sents = [corpus.sentences[i] for i in sorted(val_set)]

    train_batch = clf.encode_sentences(train_sents)
    val_batch = clf.encode_sentences(val_sents)
    adam = AdamState(clf.store, lr=CLF_LR)
    dropout_rng = rng.stream("dropout")
    for epoch in range(1, epochs + 1):
        order = rng.keyed(f"clf-ep{epoch}").permutation(len(train_sents))
        for start in range(0, len(order), CLF_BATCH):
            idx = order[start: start + CLF_BATCH]
            clf.loss_and_grad(train_batch.inputs[idx], train_batch.categories[idx],
                              dropout_rng, adam.grad)
            optimizer_step(clf.store, adam.grad, adam)
    preds = clf.predict(val_batch.inputs)
    clf.val_accuracy = float((preds == val_batch.categories).mean())
    log.info("classifier validation accuracy: %.4f", clf.val_accuracy)
    return clf


def category_accuracy(samples: list[tuple[list[str], int]],
                      clf: EvalClassifier) -> float:
    """Fraction of generated sentences whose predicted class matches the
    intended category. Empty token lists count as misses."""
    if not samples:
        raise DataError("no generated sentences to score")
    nonempty = [LabeledSentence(tuple(tokens), cat) for tokens, cat in samples
                if tokens]
    if not nonempty:
        return 0.0
    batch = clf.encode_sentences(nonempty)
    preds = clf.predict(batch.inputs)
    hits = int((preds == batch.categories).sum())
    return hits / len(samples)


# --- perplexity --------------------------------------------------------------


def perplexity(params: CatVrnnParams, cfg: ModelConfig, corpus: LabeledCorpus,
               vocab: Vocabulary, seed: int = 0) -> float:
    """exp of the mean per-token cross-entropy under teacher forcing.

    Scored positions per sentence: the real tokens plus one terminating PAD
    when it fits inside max_len; the padding tail is excluded so PAD
    repetition earns nothing, and is not computed.
    """
    if not corpus.sentences:
        raise DataError("cannot score an empty corpus")
    batch = encode_batch(corpus.sentences, vocab, cfg.max_len)
    scored = np.minimum(batch.lengths + 1, cfg.max_len)
    nll = teacher_nll(batch.inputs, batch.targets, scored, batch.categories,
                      params, cfg, Rng(seed), PPL_BATCH)
    # (T, N) like the NLL; summed a batch at a time, each in time-major order
    active = scored > np.arange(cfg.max_len)[:, None]
    ll_sum = 0.0
    for start in range(0, len(scored), PPL_BATCH):
        sl = slice(start, start + PPL_BATCH)
        ll_sum += float(nll[:, sl][active[:, sl]].sum(dtype=np.float64))
    return float(np.exp(ll_sum / int(active.sum())))


# --- BLEU ---------------------------------------------------------------------


@dataclass
class NgramStats:
    """Corpus-level clipped counts per order, candidate totals, and the
    brevity inputs."""

    clipped: list[int]
    totals: list[int]
    candidate_len: int
    reference_len: int


def _ngrams(tokens, k: int) -> Counter:
    return Counter(tuple(tokens[i: i + k]) for i in range(len(tokens) - k + 1))


def corpus_ngram_stats(candidates, references, n: int) -> NgramStats:
    """Clipped modified k-gram matches for k = 1..n, every candidate scored
    against the full reference set; reference length is the closest reference
    length per candidate (ties toward the shorter)."""
    if not candidates or not references:
        raise DataError("BLEU needs non-empty candidate and reference sides")
    ref_ngrams: list[dict] = []
    for k in range(1, n + 1):
        merged: dict = {}
        for ref in references:
            for gram, cnt in _ngrams(ref, k).items():
                if cnt > merged.get(gram, 0):
                    merged[gram] = cnt
        ref_ngrams.append(merged)
    ref_lens = sorted(len(r) for r in references)
    clipped = [0] * n
    totals = [0] * n
    cand_len = 0
    ref_len = 0
    ref_lens_arr = np.array(ref_lens)
    for cand in candidates:
        cand_len += len(cand)
        pos = int(np.argmin(np.abs(ref_lens_arr - len(cand))))
        ref_len += int(ref_lens_arr[pos])
        for k in range(1, n + 1):
            counts = _ngrams(cand, k)
            totals[k - 1] += max(len(cand) - k + 1, 0)
            merged = ref_ngrams[k - 1]
            clipped[k - 1] += sum(
                min(cnt, merged.get(gram, 0)) for gram, cnt in counts.items()
            )
    return NgramStats(clipped=clipped, totals=totals, candidate_len=cand_len,
                      reference_len=ref_len)


def _bleu_from_stats(stats: NgramStats, n: int) -> float:
    """BLEU-n from the first n orders of ``stats``, which may hold more."""
    log_sum = 0.0
    used = 0
    for clipped, total in zip(stats.clipped[:n], stats.totals[:n]):
        if total == 0:
            continue
        log_sum += np.log(max(clipped, BLEU_EPS) / total)
        used += 1
    precision = np.exp(log_sum / used) if used else 1.0
    c, r = stats.candidate_len, stats.reference_len
    bp = 1.0 if c > r else np.exp(1.0 - r / c)
    return float(precision * bp)


def bleu_corpus(candidates, references, n: int) -> float:
    """Corpus-level BLEU-n: geometric mean of the clipped modified k-gram
    precisions for k = 1..n (zero match counts floored at 1e-9), times the
    brevity penalty. Orders with no candidate k-grams at all are skipped.
    """
    if not 2 <= n <= 5:
        raise ConfigurationError(f"n must be in 2..5, got {n}")
    candidates = [tuple(c) for c in candidates]
    references = [tuple(r) for r in references]
    return _bleu_from_stats(corpus_ngram_stats(candidates, references, n), n)


def bleu_harmonic(f: float, b: float) -> float:
    """Harmonic mean 2fb/(f+b); zero when both sides are zero."""
    if f < 0 or b < 0:
        raise ConfigurationError("BLEU values must be non-negative")
    if f + b == 0:
        return 0.0
    return 2.0 * f * b / (f + b)


# --- full report --------------------------------------------------------------


def sample_categories(params: CatVrnnParams, cfg: ModelConfig, vocab: Vocabulary,
                      n: int, seed: int,
                      categories: list[int] | None = None) -> list[tuple[list[str], int]]:
    """``n`` decoded samples per category (all of them by default), drawn in
    category order from one ``Rng(seed)``. Empty samples are kept, because
    category accuracy counts them as misses."""
    rng = Rng(seed)
    if categories is None:
        categories = range(cfg.num_categories)
    return [(decode_ids(ids, vocab), c) for c in categories
            for ids in generate(c, n, params, cfg, rng)]


@dataclass
class MetricsReport:
    category_accuracy: float
    perplexity: float | None
    bleu_f: dict[int, float]
    bleu_b: dict[int, float]
    bleu_ha: dict[int, float]
    num_categories: int
    seed: int
    backward_subsampled: bool = False
    backward_subsample_seed: int | None = None
    classifier_val_accuracy: float | None = None
    n_samples_per_category: int | None = None
    config: dict = field(default_factory=dict)

    def to_json(self) -> str:
        d = asdict(self)
        for key in ("bleu_f", "bleu_b", "bleu_ha"):
            d[key] = {str(k): v for k, v in d[key].items()}
        return json.dumps(d, indent=2, sort_keys=True)


def score_samples(generated: list[tuple[list[str], int]], corpus: LabeledCorpus,
                  clf: EvalClassifier, seed: int, perplexity: float | None = None,
                  backward_cap: int = 5000) -> MetricsReport:
    """Category accuracy and the BLEU family of decoded samples against the
    real corpus, plus the given perplexity. The report describes the corpus:
    its ``num_categories`` is the corpus's and its ``config`` is empty."""
    if not generated:
        raise DataError("nothing generated to evaluate")
    gen_tokens = [tuple(tokens) for tokens, _ in generated if tokens]
    real_tokens = [s.tokens for s in corpus.sentences]
    if not gen_tokens:
        raise DataError("all generated sentences were empty")

    back_candidates = real_tokens
    subsampled = len(real_tokens) > backward_cap
    if subsampled:
        picker = Rng(seed).keyed("bleu-backward")
        idx = picker.choice(len(real_tokens), size=backward_cap, replace=False)
        back_candidates = [real_tokens[i] for i in sorted(idx)]

    # one n-gram pass per direction at the highest order serves every order
    top = max(BLEU_ORDERS)
    forward = corpus_ngram_stats(gen_tokens, real_tokens, top)
    backward = corpus_ngram_stats(back_candidates, gen_tokens, top)
    bleu_f = {n: _bleu_from_stats(forward, n) for n in BLEU_ORDERS}
    bleu_b = {n: _bleu_from_stats(backward, n) for n in BLEU_ORDERS}
    bleu_ha = {n: bleu_harmonic(bleu_f[n], bleu_b[n]) for n in BLEU_ORDERS}

    return MetricsReport(
        category_accuracy=category_accuracy(generated, clf),
        perplexity=perplexity,
        bleu_f=bleu_f,
        bleu_b=bleu_b,
        bleu_ha=bleu_ha,
        num_categories=corpus.num_categories,
        seed=seed,
        backward_subsampled=subsampled,
        backward_subsample_seed=seed if subsampled else None,
        classifier_val_accuracy=clf.val_accuracy,
    )


def eval_report(params: CatVrnnParams, cfg: ModelConfig, corpus: LabeledCorpus,
                vocab: Vocabulary, clf: EvalClassifier, n_samples: int,
                seed: int, backward_cap: int = 5000) -> MetricsReport:
    """Sample ``n_samples`` sentences per category, then score them, with the
    model's teacher-forced perplexity on the real corpus."""
    generated = sample_categories(params, cfg, vocab, n_samples, seed)
    ppl = perplexity(params, cfg, corpus, vocab, seed=seed)
    report = score_samples(generated, corpus, clf, seed, perplexity=ppl,
                           backward_cap=backward_cap)
    return replace(report, n_samples_per_category=n_samples,
                   num_categories=cfg.num_categories, config=cfg.to_dict())
