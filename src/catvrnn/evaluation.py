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

from .errors import ConfigurationError, DataError
from . import numeric as nm
from .numeric import ParamStore, Rng, Tensor
from .model import CatVrnnParams, ModelConfig, forward_teacher, generate
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
# are (rows * T, 1200) floats, so at the fit's batch size scoring needs no
# larger block than the fit already used
PREDICT_CHUNK = 32
# the classifier fit's minibatch size and Adam step size
CLF_BATCH = 32
CLF_LR = 1e-3
# sentences per teacher-forced pass in ``perplexity``
PPL_BATCH = 64


# --- convolutional sentence classifier --------------------------------------


@dataclass
class ClassifierConfig:
    vocab_size: int
    num_categories: int
    max_len: int
    embed_dim: int = 128
    filter_widths: tuple[int, ...] = (3, 4, 5)
    feature_maps: int = 100
    dropout: float = 0.5

    def to_dict(self) -> dict:
        d = asdict(self)
        d["filter_widths"] = list(self.filter_widths)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ClassifierConfig":
        d = dict(d)
        d["filter_widths"] = tuple(d["filter_widths"])
        return cls(**d)


class EvalClassifier:
    """Kim-style text CNN: embedding, parallel convolutions over token
    windows, max-over-time pooling, dropout (training only), linear head.

    Trained on real data only and frozen at scoring time; scoring generated
    text with the generator's own head would be circular.
    """

    def __init__(self, cfg: ClassifierConfig, vocab: Vocabulary,
                 rng: Rng | None = None):
        if cfg.max_len < max(cfg.filter_widths):
            raise ConfigurationError(
                f"max_len {cfg.max_len} shorter than widest filter "
                f"{max(cfg.filter_widths)}"
            )
        self.cfg = cfg
        self.vocab = vocab
        self.store = ParamStore()
        self.val_accuracy: float | None = None
        gen = rng.stream("init") if rng is not None else None
        dt = np.float64

        def draw(shape, scale=None):
            if gen is None or scale is None:
                return np.zeros(shape, dtype=dt)
            return gen.uniform(-scale, scale, size=shape)

        add = self.store.add
        e, f, widths = cfg.embed_dim, cfg.feature_maps, cfg.filter_widths
        add("embedding", draw((cfg.vocab_size, e), scale=0.1))
        # each width's filter bank is drawn as (w*E, F), its E-row block k the
        # filter of offset k; "conv.w" holds the blocks side by side, width by
        # width, as (E, sum(widths)*F): the column order ``window_sum`` reads
        banks = [draw((w * e, f), scale=np.sqrt(6.0 / (w * e + f)))
                 .reshape(w, e, f).transpose(1, 0, 2).reshape(e, w * f) for w in widths]
        add("conv.w", np.hstack(banks))
        for w in widths:
            add(f"conv{w}.b", draw(f))
        head_in = f * len(widths)
        limit = np.sqrt(6.0 / (head_in + cfg.num_categories))
        add("head.w", draw((head_in, cfg.num_categories), scale=limit))
        add("head.b", draw(cfg.num_categories))

    def logits(self, ids: np.ndarray, train_mode: bool = False,
               dropout_rng: np.random.Generator | None = None) -> Tensor:
        """Class logits for encoded inputs (B, T).

        Every token's embedding is gathered once and multiplied by every
        filter's row block of every width (``conv.w``) in one matmul; each
        width's convolution is then the sum of its shifted blocks
        (``window_sum``).
        """
        ids = np.asarray(ids, dtype=np.int64)
        b, t = ids.shape
        widths = self.cfg.filter_widths
        if t < max(widths):
            raise ConfigurationError(
                f"inputs of length {t} shorter than widest filter {max(widths)}"
            )
        emb = nm.gather_rows(self.store["embedding"], ids.reshape(b * t))
        products = nm.matmul(emb, self.store["conv.w"])
        pooled = []
        for w, conv in zip(widths, nm.window_sum(products, t, widths)):
            conv = nm.relu(nm.add(conv, self.store[f"conv{w}.b"]))
            pooled.append(nm.max_pool_rows(conv, t - w + 1))
        features = nm.concat(pooled, axis=-1)
        if train_mode and self.cfg.dropout > 0:
            if dropout_rng is None:
                raise ConfigurationError("training-mode logits need a dropout rng")
            keep = 1.0 - self.cfg.dropout
            mask = (dropout_rng.random(features.data.shape) < keep) / keep
            features = nm.mul(features, Tensor(mask))
        return nm.linear(features, self.store["head.w"], self.store["head.b"])

    def predict(self, ids: np.ndarray) -> np.ndarray:
        """Predicted classes, scored PREDICT_CHUNK rows at a time so that
        memory does not grow with the number of rows."""
        ids = np.asarray(ids)
        with nm.no_grad():
            preds = [self.logits(ids[i: i + PREDICT_CHUNK]).data.argmax(axis=1)
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
        write_container(path, meta, self.store.views(self.store.flat))

    @classmethod
    def load(cls, path) -> "EvalClassifier":
        header, arrays = read_container(path)
        if header.get("kind") != "eval_classifier":
            raise DataError(f"{path}: not an eval-classifier checkpoint")
        clf = cls(ClassifierConfig.from_dict(header["config"]),
                  Vocabulary(header["vocab"]))
        clf.store.load(arrays)
        clf.val_accuracy = header.get("val_accuracy")
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
            logits = clf.logits(train_batch.inputs[idx], train_mode=True,
                                dropout_rng=dropout_rng)
            loss = nm.mean(nm.cross_entropy_rows(logits, train_batch.categories[idx]))
            optimizer_step(clf.store, loss, adam)
            # the batch's tape goes before the next forward builds its own
            del logits, loss
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
    repetition earns nothing.
    """
    if not corpus.sentences:
        raise DataError("cannot score an empty corpus")
    batch = encode_batch(corpus.sentences, vocab, cfg.max_len)
    rng = Rng(seed)
    ll_sum = 0.0
    n_positions = 0
    with nm.no_grad():
        for start in range(0, len(batch), PPL_BATCH):
            sl = slice(start, start + PPL_BATCH)
            fwd = forward_teacher(batch.inputs[sl], batch.categories[sl], params,
                                  cfg, rng, train_mode=False)
            scored = np.minimum(batch.lengths[sl] + 1, cfg.max_len)
            # (T, B) like the time-major logits
            active = scored[None, :] > np.arange(cfg.max_len)[:, None]
            nll = nm.cross_entropy_rows(fwd.logits.data[active],
                                        batch.targets[sl].T[active])
            ll_sum += float(nll.data.sum(dtype=np.float64))
            n_positions += int(active.sum())
            # the batch's logits go before the next forward makes its own
            del fwd, nll
    return float(np.exp(ll_sum / n_positions))


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
