"""The two kinds of run: end to end with tracing off, and traced per layer."""

import hashlib
import json
import math
import resource
import statistics
import tracemalloc
from pathlib import Path

from catvrnn import data, evaluation, model, numeric, training

import pipeline as pl
import spans
import workloads

MB = 1024.0 * 1024.0

# per-layer metrics of the traced run; NOTES.md says which end-to-end
# metric and workload each one should move
LAYER_UNITS = {
    "numeric.ops_per_step": "count",
    "numeric.matmul_gflop_per_step": "GFLOP",
    "numeric.matmul_s_per_step": "s",
    "numeric.fwd_self_s_per_step": "s",
    "numeric.backward_s_per_step": "s",
    "numeric.trace_overhead_pct": "%",
    "model.forward_self_s_per_step": "s",
    "model.loss_s_per_step": "s",
    "model.generate_s_per_sentence": "s",
    "training.adam_s_per_step": "s",
    "training.step_self_s": "s",
    "training.cold_epoch_s": "s",
    "training.save_checkpoint_s": "s",
    "training.load_checkpoint_s": "s",
    "training.checkpoint_mb": "MB",
    "data.load_corpus_s": "s",
    "data.build_vocabulary_s": "s",
    "data.encode_batch_s": "s",
    "evaluation.clf_forward_s": "s",
    "evaluation.clf_backward_s": "s",
    "evaluation.clf_adam_s": "s",
    "evaluation.perplexity_s": "s",
    "evaluation.bleu_calls": "count",
    "evaluation.bleu_s_per_call": "s",
    "evaluation.accuracy_peak_mb": "MB",
    "train.peak_mb": "MB",
    "sample.peak_mb": "MB",
    "evaluate.peak_mb": "MB",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_sent_per_s": "sent/s",
    "gen_sent_per_s": "sent/s",
    "ppl_tok_per_s": "tok/s",
    "clf_sent_per_s": "sent/s",
    "bleu_gram_per_s": "gram/s",
    "peak_rss_mb": "MB",
    "train_gen_nll": "nats",
    "steer_accuracy": "fraction",
}


def median(xs):
    return float(statistics.median(xs))


def sample_line(name, unit, xs):
    xs = sorted(xs)
    extra = f"  min {xs[0]:.6g}  max {xs[-1]:.6g}" if len(xs) > 1 else ""
    return f"{name:<22} {median(xs):>14.6g} {unit:<9} n={len(xs)}{extra}"


def end_to_end(w, seed, seconds, workdir, ledger, import_s):
    """Tracing off. Returns (metrics, samples per metric, quality record).

    Set-up, then the warm epochs (fixed work, so that the quality metrics
    are a pure function of the seed) and a checkpoint. Then, for
    ``seconds``, rounds of one warm epoch replayed from an in-memory
    snapshot, sampling, perplexity, BLEU and a classifier fit, with a fresh
    set-up after each third of the window. Every stage's samples thus
    spread evenly over the window, and a slow or fast spell of a shared
    machine does not fall on one stage alone. The first round's results are
    the reference every later round must repeat.
    """
    pipe = pl.Pipeline(w, seed, workdir, ledger)
    runs = {name: pl.Calls() for name in
            ("setup", "clf_fit", "train", "generate", "perplexity", "bleu")}
    state, dt = pipe.setup()
    pl.keep(ledger, runs["setup"], "setup", pl.digest(state.params.store), dt)
    pipe.train(state)
    snap = pipe.snapshot(state)
    path = pipe.checkpoint(state)
    first = {}

    def generate():
        ids, dt = pipe.generate(path)
        first.setdefault("samples", pipe.decode(state, ids))
        return ids, dt

    def fit():
        clf, dt = pipe.fit_classifier(state)
        first.setdefault("clf", clf)
        return pl.digest(clf.store), dt

    def setup():
        other, dt = pipe.setup()
        return pl.digest(other.params.store), dt

    pl.rounds(ledger, seconds, {
        "train": lambda: pipe.replay(state, snap),
        "generate": generate,
        "perplexity": lambda: pipe.perplexity(state),
        "bleu": lambda: pipe.bleu(first["samples"], state),
        "clf_fit": fit,
    }, runs, sparse={"setup": setup})
    samples, clf = first["samples"], first["clf"]
    accuracy = pipe.accuracy(samples, clf)
    times = {name: calls.seconds for name, calls in runs.items()}

    scored = pipe.scored_tokens(state)
    bleu_grams = pipe.bleu_grams(samples, state)
    clf_sents = pl.CLF_EPOCHS * pipe.n_sentences
    raw = {
        "setup_s": [import_s + s for s in times["setup"]],
        "train_sent_per_s": [pipe.n_sentences / s for s in times["train"]],
        "gen_sent_per_s": [len(samples) / s for s in times["generate"]],
        "ppl_tok_per_s": [scored / s for s in times["perplexity"]],
        "clf_sent_per_s": [clf_sents / s for s in times["clf_fit"]],
        "bleu_gram_per_s": [bleu_grams / s for s in times["bleu"]],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
        "train_gen_nll": [state.last.mean_gen_nll],
        "steer_accuracy": [workloads.steer_accuracy(samples)],
    }
    metrics = {k: median(v) for k, v in raw.items()}
    quality = {
        "params_sha256": pl.digest(state.params.store),
        "train_gen_nll": state.last.mean_gen_nll,
        "steer_accuracy": metrics["steer_accuracy"],
        "perplexity": runs["perplexity"].first,
        "category_accuracy": accuracy,
        "classifier_val_accuracy": clf.val_accuracy,
        "bleu": runs["bleu"].first,
    }
    return metrics, raw, quality


def traced(w, seed, workdir, ledger):
    """Untraced reference training, then the traced pipeline, then a
    tracemalloc pass. Returns (per-layer metrics, quality record, tracer)."""
    pipe = pl.Pipeline(w, seed, workdir, ledger)
    ref, _ = pipe.setup()
    ref_epochs = pipe.train(ref)
    ref_digest = pl.digest(ref.params.store)
    del ref

    tracer = spans.Tracer()
    tracer.install(
        [numeric, model, training, data, evaluation],
        [(numeric.Tensor, "backward"), (evaluation.EvalClassifier, "logits"),
         (evaluation.EvalClassifier, "predict")],
        work={"numeric.matmul": spans.matmul_flops},
    )
    pipe.tracer = tracer
    try:
        state, _ = pipe.setup()
        epochs = pipe.train(state)
        digest = pl.digest(state.params.store)
        gen_nll = state.last.mean_gen_nll
        ledger.amend(digest == ref_digest,
                     "traced run's final parameters differ from the untraced run's")
        path = pipe.checkpoint(state)
        gen, _ = pipe.generate(path)
        samples = pipe.decode(state, gen)
        ppl, _ = pipe.perplexity(state)
        clf, _ = pipe.fit_classifier(state)
        accuracy = pipe.accuracy(samples, clf)
        bleu, _ = pipe.bleu(samples, state)
    finally:
        tracer.uninstall()

    peaks = {}
    tracemalloc.start()
    try:
        def peak(label, fn):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn()
            peaks[label] = (tracemalloc.get_traced_memory()[1] - base) / MB

        peak("train", lambda: pipe.epoch(state, "train.memory"))
        peak("sample", lambda: pipe.generate(path))
        peak("perplexity", lambda: pipe.perplexity(state))
        peak("accuracy", lambda: pipe.accuracy(samples, clf))
        peak("bleu", lambda: pipe.bleu(samples, state))
    finally:
        tracemalloc.stop()

    t = tracer.table()
    for line in t.summary():
        print(line)
    steps = w.warm_epochs * math.ceil(pipe.n_sentences / w.batch_size)
    warm = ["train.warm"]

    def total(names, runs, col=None):
        return float((t.dur if col is None else col)[t.select(names, runs)].sum())

    backward = "numeric.Tensor.backward"
    numeric_other = t.select(runs=warm, exclude=["numeric.matmul", backward]) & (
        t.module == "numeric")
    bleu_calls = int(t.select(["evaluation.bleu_corpus"], ["bleu"]).sum())
    layer = {
        "numeric.ops_per_step":
            float((t.is_op & t.select(runs=warm, exclude=[backward])).sum()) / steps,
        "numeric.matmul_gflop_per_step":
            total(["numeric.matmul"], warm, t.work) / steps / 1e9,
        "numeric.matmul_s_per_step": total(["numeric.matmul"], warm) / steps,
        "numeric.fwd_self_s_per_step": float(t.self_time[numeric_other].sum()) / steps,
        "numeric.backward_s_per_step": total([backward], warm) / steps,
        "numeric.trace_overhead_pct": 100.0 * (sum(epochs) / sum(ref_epochs) - 1.0),
        "model.forward_self_s_per_step":
            total(["model.forward_teacher", "model.cell_step"], warm, t.self_time)
            / steps,
        "model.loss_s_per_step": total(["model.joint_loss"], warm) / steps,
        "model.generate_s_per_sentence":
            total(["model.generate"], ["generate"]) / len(samples),
        "training.adam_s_per_step": total(["training.adam_step"], warm) / steps,
        "training.step_self_s":
            total(["training.train_epoch"], warm, t.self_time) / steps,
        "training.cold_epoch_s": total(["training.train_epoch"], ["train.cold"]),
        "training.save_checkpoint_s":
            total(["training.save_checkpoint"], ["checkpoint.save"]),
        "training.load_checkpoint_s":
            total(["training.load_checkpoint"], ["checkpoint.load"]),
        "training.checkpoint_mb": path.stat().st_size / MB,
        "data.load_corpus_s": total(["data.load_corpus"], ["setup"]),
        "data.build_vocabulary_s": total(["data.build_vocabulary"], ["setup"]),
        "data.encode_batch_s": total(["data.encode_batch"], ["setup"]),
        "evaluation.clf_forward_s":
            total(["evaluation.EvalClassifier.logits"], ["clf_fit"]),
        "evaluation.clf_backward_s": total([backward], ["clf_fit"]),
        "evaluation.clf_adam_s": total(["training.adam_step"], ["clf_fit"]),
        "evaluation.perplexity_s": total(["evaluation.perplexity"], ["perplexity"]),
        "evaluation.bleu_calls": float(bleu_calls),
        "evaluation.bleu_s_per_call":
            total(["evaluation.bleu_corpus"], ["bleu"]) / bleu_calls,
        "evaluation.accuracy_peak_mb": peaks["accuracy"],
        "train.peak_mb": peaks["train"],
        "sample.peak_mb": peaks["sample"],
        "evaluate.peak_mb": max(peaks["perplexity"], peaks["accuracy"], peaks["bleu"]),
    }
    quality = {
        "params_sha256": digest,
        "train_gen_nll": gen_nll,
        "steer_accuracy": workloads.steer_accuracy(samples),
        "perplexity": ppl,
        "category_accuracy": accuracy,
        "classifier_val_accuracy": clf.val_accuracy,
        "bleu": bleu,
    }
    return layer, quality, tracer


def check_quality(ledger, out: Path, w, seed: int, quality: dict):
    """Same workload and seed must give identical quality in every run: the
    first run of a seed stores its record under ``out``, later runs compare
    with it. Records are keyed by the workload's definition and the
    classifier's epochs, so editing either starts fresh records instead of
    failing against old ones."""
    key = hashlib.sha256(repr((w, pl.CLF_EPOCHS)).encode()).hexdigest()[:12]
    path = out / f"quality-{w.name}-{key}-s{seed}.json"
    if path.exists():
        stored = json.loads(path.read_text(encoding="utf-8"))
        for key, value in quality.items():
            ledger.record(f"same-seed {key}",
                          (stored.get(key) == json.loads(json.dumps(value)),
                           f"{value!r} differs from an earlier run's "
                           f"{stored.get(key)!r}"))
    else:
        path.write_text(json.dumps(quality, sort_keys=True) + "\n", encoding="utf-8")


