"""The staged train -> checkpoint -> sample -> evaluate pipeline.

Every call into the program goes through a module attribute
(``training.train_epoch``, not a name import) so that ``spans.Tracer`` can
time it. Each call is one operation in the ``Ledger``; an operation fails
when its output misses a correctness gate.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from catvrnn import data, evaluation, model, numeric, training

import workloads

# fewest rounds of the repeated stages, so each has a median of three
MIN_ROUNDS = 3
# least time each repeated stage gets in a round
MIN_STAGE_S = 0.5
# epochs of each evaluation-classifier fit: short fits, so that many of
# them spread over a run
CLF_EPOCHS = 5
BLEU_ORDERS = (2, 3, 4, 5)
# fixed cost of one sentence's k-gram count table in ``bleu_corpus``, in
# k-grams: ~10 us against ~1.25 us a k-gram on a 2-core Intel Xeon
BLEU_TABLE_GRAMS = 9

clock = time.perf_counter


class Ledger:
    """Operations attempted and failed. An operation is one call into the
    program, or one comparison with an earlier run of the same seed; it
    fails when it misses a gate. Failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._last_ok = True

    def record(self, what: str, *gates: tuple[bool, str]):
        self.attempted += 1
        self._last_ok = True
        for ok, msg in gates:
            self.amend(ok, f"{what}: {msg}")

    def amend(self, ok: bool, msg: str):
        """Apply one more gate to the last recorded operation."""
        if not ok:
            print(f"FAILED {msg}", file=sys.stderr)
            if self._last_ok:
                self.failed += 1
                self._last_ok = False


@dataclass
class State:
    corpus: data.LabeledCorpus
    vocab: data.Vocabulary
    batch: data.Batch
    cfg: model.ModelConfig
    params: model.CatVrnnParams
    adam: training.AdamState
    rng: numeric.Rng
    plan: training.TrainPlan
    epoch: int = 0
    last: training.EpochStats | None = None


def digest(store: numeric.ParamStore) -> str:
    """SHA-256 over every tensor's name, dtype and bytes."""
    h = hashlib.sha256()
    for name, t in store.items():
        h.update(name.encode())
        h.update(str(t.data.dtype).encode())
        h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()


def finite_stats(stats: training.EpochStats) -> bool:
    return all(math.isfinite(v) for v in
               (stats.mean_gen_nll, stats.mean_cls_nll, stats.mean_kl))


class Pipeline:
    def __init__(self, w: workloads.Workload, seed: int, workdir: Path,
                 ledger: Ledger, tracer=None):
        self.w = w
        self.seed = seed
        self.workdir = workdir
        self.ledger = ledger
        self.tracer = tracer
        self.corpus_path = workdir / "corpus.tsv"
        self.n_sentences = workloads.write_corpus(w, seed, self.corpus_path)

    @contextlib.contextmanager
    def stage(self, name: str):
        """One call into the program. Garbage left by the previous call is
        collected first, so neither its collection time nor its memory is
        charged to this one; under tracing, spans get ``name`` as run id."""
        gc.collect()
        if self.tracer is None:
            yield
            return
        prev, self.tracer.run_id = self.tracer.run_id, name
        try:
            yield
        finally:
            self.tracer.run_id = prev

    # --- training --------------------------------------------------------

    def setup(self) -> tuple[State, float]:
        """Corpus load, vocabulary, encoding, model init and the cold first
        epoch; returns the state and its wall time."""
        w = self.w
        with self.stage("setup"):
            t0 = clock()
            corpus = data.load_corpus(self.corpus_path)
            vocab = data.build_vocabulary(corpus)
            batch = data.encode_batch(corpus.sentences, vocab, w.max_len)
            cfg = model.ModelConfig(vocab_size=len(vocab),
                                    num_categories=corpus.num_categories,
                                    **w.model_options())
            rng = numeric.Rng(self.seed)
            params = model.CatVrnnParams(cfg, rng)
            plan = training.TrainPlan(epochs=1 + w.warm_epochs,
                                      batch_size=w.batch_size)
            adam = training.AdamState.from_plan(params.store, plan)
            dt = clock() - t0
        state = State(corpus, vocab, batch, cfg, params, adam, rng, plan)
        return state, dt + self.epoch(state, "train.cold")

    def epoch(self, s: State, stage: str) -> float:
        """One training epoch of ``s``; returns its wall time."""
        with self.stage(stage):
            t0 = clock()
            s.epoch += 1
            s.last = training.train_epoch(s.batch.inputs, s.batch.targets,
                                          s.batch.categories, s.params, s.adam,
                                          s.cfg, s.rng, s.epoch, s.plan)
            dt = clock() - t0
        self.ledger.record(f"train epoch {s.epoch}",
                           (finite_stats(s.last), f"non-finite loss {s.last}"))
        return dt

    def train(self, s: State) -> list[float]:
        """The warm epochs; returns each epoch's wall time."""
        return [self.epoch(s, "train.warm") for _ in range(self.w.warm_epochs)]

    def snapshot(self, s: State) -> training.Checkpoint:
        return training.Checkpoint.capture(s.params, s.epoch, s.vocab.digest(),
                                           s.rng, s.adam)

    def replay(self, s: State, snap: training.Checkpoint) -> tuple[tuple, float]:
        """One more warm epoch from the in-memory snapshot ``snap`` of ``s``,
        on a copy, so every call does the same work and ``s`` is untouched.
        Returns (parameter digest and stats, seconds)."""
        params = snap.build_params()
        rng = numeric.Rng(self.seed)
        rng.set_state(snap.rng_state)
        copy = State(s.corpus, s.vocab, s.batch, s.cfg, params,
                     snap.build_adam(params.store), rng, s.plan, epoch=snap.epoch)
        dt = self.epoch(copy, "train.replay")
        return (digest(params.store), copy.last), dt

    def checkpoint(self, s: State) -> Path:
        """Save, load and re-save; the round trip must be bit-exact."""
        path = self.workdir / "model.ckpt"
        with self.stage("checkpoint.save"):
            training.save_checkpoint(path, self.snapshot(s))
        with self.stage("checkpoint.load"):
            loaded = training.load_checkpoint(path)
        again = self.workdir / "model-resaved.ckpt"
        training.save_checkpoint(again, loaded)
        same = digest(loaded.build_params().store) == digest(s.params.store) and all(
            loaded.adam_m[name].tobytes() == s.adam.m[name].tobytes()
            and loaded.adam_v[name].tobytes() == s.adam.v[name].tobytes()
            for name in s.adam.m
        )
        self.ledger.record(
            "checkpoint round trip",
            (same, "loaded tensors differ from the saved ones"),
            (training.checkpoint_digest(path) == training.checkpoint_digest(again),
             "checkpoint_digest changed after load and re-save"),
        )
        return path

    # --- sampling and scoring -----------------------------------------------

    def generate(self, path: Path) -> tuple[list[list[list[int]]], float]:
        """Load the checkpoint and sample every category, the way
        ``evaluation.eval_report`` does: one Rng(seed), categories in order."""
        with self.stage("generate"):
            t0 = clock()
            ckpt = training.load_checkpoint(path)
            params = ckpt.build_params()
            rng = numeric.Rng(self.seed)
            out = [model.generate(c, self.w.samples_per_category, params,
                                  ckpt.config, rng)
                   for c in range(ckpt.config.num_categories)]
            dt = clock() - t0
        v, t = ckpt.config.vocab_size, ckpt.config.max_len
        ok = all(len(ids) <= t and all(0 <= i < v for i in ids)
                 for per_cat in out for ids in per_cat)
        self.ledger.record("generate", (ok, "sampled id out of range"))
        return out, dt

    def perplexity(self, s: State) -> tuple[float, float]:
        with self.stage("perplexity"):
            t0 = clock()
            ppl = evaluation.perplexity(s.params, s.cfg, s.corpus, s.vocab,
                                        seed=self.seed)
            dt = clock() - t0
        self.ledger.record("perplexity",
                           (math.isfinite(ppl) and ppl >= 1.0,
                            f"perplexity {ppl} not finite and >= 1"))
        return ppl, dt

    def scored_tokens(self, s: State) -> int:
        """Positions ``evaluation.perplexity`` scores: each sentence's
        tokens plus a terminating PAD when it fits."""
        return int(np.minimum(s.batch.lengths + 1, s.cfg.max_len).sum())

    def fit_classifier(self, s: State):
        with self.stage("clf_fit"):
            t0 = clock()
            clf = evaluation.train_eval_classifier(s.corpus, seed=self.seed,
                                                   epochs=CLF_EPOCHS)
            dt = clock() - t0
        acc = clf.val_accuracy
        self.ledger.record("classifier fit",
                           (acc is not None and 0.0 <= acc <= 1.0,
                            f"validation accuracy {acc} outside [0, 1]"))
        return clf, dt

    def accuracy(self, samples, clf) -> float:
        with self.stage("accuracy"):
            acc = evaluation.category_accuracy(samples, clf)
        self.ledger.record("category accuracy",
                           (0.0 <= acc <= 1.0, f"accuracy {acc} outside [0, 1]"))
        return acc

    def bleu(self, samples, s: State) -> tuple[dict, float]:
        """Forward and backward BLEU 2-5 as ``eval_report`` computes them."""
        gen = [tuple(tokens) for tokens, _ in samples if tokens]
        real = [sent.tokens for sent in s.corpus.sentences]
        if len(real) > 5000:
            raise ValueError("eval_report subsamples the backward side above "
                             "5000 sentences; keep workload corpora smaller")
        out = {}
        with self.stage("bleu"):
            t0 = clock()
            for n in BLEU_ORDERS:
                out[f"f{n}"] = evaluation.bleu_corpus(gen, real, n)
                out[f"b{n}"] = evaluation.bleu_corpus(real, gen, n)
            dt = clock() - t0
        for key, value in out.items():
            self.ledger.record(f"bleu {key}",
                               (0.0 <= value <= 1.0, f"BLEU {value} outside [0, 1]"))
        return out, dt

    def bleu_grams(self, samples, s: State) -> int:
        """BLEU's work in k-grams: each of the 8 calls counts the k-grams,
        k = 1..n, of every sentence on both sides, and each sentence's count
        table costs BLEU_TABLE_GRAMS k-grams more. A rate over this moves
        far less with the sample lengths, which differ from seed to seed,
        than a rate over tokens."""
        lengths = ([len(tokens) for tokens, _ in samples if tokens]
                   + [len(sent.tokens) for sent in s.corpus.sentences])
        return 2 * sum(max(m - k + 1, 0) + BLEU_TABLE_GRAMS
                       for n in BLEU_ORDERS for k in range(1, n + 1)
                       for m in lengths)

    def decode(self, s: State, ids_per_cat) -> list[tuple[list[str], int]]:
        return [([s.vocab.decode_id(i) for i in ids], c)
                for c, per_cat in enumerate(ids_per_cat) for ids in per_cat]


@dataclass
class Calls:
    """One stage's calls: the first call's result, which every repeat with
    the same seed must equal, and each call's seconds. Later results are
    dropped once checked, so the heap (and the garbage collector's work)
    stays the same however many rounds a run makes."""
    first: object = None
    seconds: list[float] = field(default_factory=list)


def keep(ledger: Ledger, calls: Calls, what: str, value, dt: float):
    """Record one call's result and seconds in ``calls``."""
    if calls.seconds:
        ledger.amend(value == calls.first,
                     f"{what}: repeat with the same seed differs from the first")
    else:
        calls.first = value
    calls.seconds.append(dt)


def rounds(ledger: Ledger, budget_s: float, stages: dict, runs: dict,
           sparse: dict):
    """Call every stage in turn, in a closed loop, for at least MIN_ROUNDS
    rounds and as long as another round fits in ``budget_s``, keeping each
    call in ``runs[stage]``, a ``Calls``. A stage is a function returning
    (result, seconds); in each round it is called until its calls add up to
    MIN_STAGE_S, so that short stages get enough samples. A ``sparse``
    stage runs in the first round after each third of the budget, twice in
    all. Interleaving spreads every stage's samples evenly over the whole
    window, so a slow or fast spell of a shared machine does not land on
    one stage alone."""
    start = clock()
    deadline = start + budget_s
    due = {name: start + budget_s / 3 for name in sparse}
    n = 0
    last = 0.0
    while n < MIN_ROUNDS or clock() + last <= deadline:
        t0 = clock()
        for name, fn in sparse.items():
            if t0 >= due[name]:
                keep(ledger, runs[name], name, *fn())
                due[name] += budget_s / 3
        for name, fn in stages.items():
            spent = 0.0
            while spent < MIN_STAGE_S:
                result, dt = fn()
                keep(ledger, runs[name], name, result, dt)
                spent += dt
        last = clock() - t0
        n += 1
