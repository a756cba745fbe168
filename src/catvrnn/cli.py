"""Command-line entry points: build-data, train, generate, evaluate, grad-check.

Option precedence is flags > config file > defaults, applied by argparse: the
``--config`` file's values become the subcommand's defaults before a second
parse, so a flag given on the command line wins even when it equals its
default. ``train --resume`` puts the checkpoint's model options and training
plan between the file and the defaults. The resolved values and their
sources are printed at startup.
Exit codes: 0 success, 1 usage/configuration error, 2 data error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError, NumericError
from .numeric import Rng, check_gradient, nll_rows
from .model import (
    CatVrnnParams,
    ModelConfig,
    SequenceForward,
    forward_stepwise,
    forward_teacher,
    joint_loss,
    loss_and_grad,
    parameter_count,
)
from .data import (
    SPECIALS,
    LabeledCorpus,
    LabeledSentence,
    Vocabulary,
    atomic_write_text,
    build_icq_variant,
    build_ica_series,
    build_vocabulary,
    corpus_manifest,
    encode_batch,
    filter_by_length,
    load_corpus,
    make_synthetic_corpus,
    read_text,
    save_corpus,
    subsample_per_category,
    write_json,
)
from .training import (
    Checkpoint,
    TrainPlan,
    checkpoint_digest,
    load_checkpoint,
    run_training,
)
from .evaluation import (
    ClassifierConfig,
    EvalClassifier,
    perplexity,
    sample_categories,
    score_samples,
    train_eval_classifier,
)

log = logging.getLogger(__name__)


class UsageError(ConfigurationError):
    pass


class ArgumentParser(argparse.ArgumentParser):
    """Raises UsageError instead of exiting. Built with
    ``argument_default=argparse.SUPPRESS`` it drops every argument's own
    default too, so a parse returns only the options given as flags."""

    def add_argument(self, *args, **kwargs):
        if self.argument_default is argparse.SUPPRESS:
            kwargs.pop("default", None)
        return super().add_argument(*args, **kwargs)

    def error(self, message):
        raise UsageError(message)


def load_config_file(path, parser: argparse.ArgumentParser) -> tuple[dict, dict]:
    """Flat key=value file; # starts a comment. Values stay strings, which
    argparse converts with each option's own type as it converts a flag.
    A switch (an option whose default is a bool) takes true or false; a key
    is given once. Returns the values and each key's line number."""
    values, lines = {}, {}
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        key = key.replace("-", "_")
        if key in lines:
            raise UsageError(f"{path}:{lineno}: {key} is already set on line "
                             f"{lines[key]}")
        if isinstance(parser.get_default(key), bool):
            if value.lower() not in ("true", "false"):
                raise UsageError(f"{path}:{lineno}: {key} is a switch: "
                                 f"expected true or false, got {value!r}")
            value = value.lower() == "true"
        values[key] = value
        lines[key] = lineno
    return values, lines


# --- build-data ---------------------------------------------------------------


def add_build_data_parser(sub):
    p = sub.add_parser("build-data", help="corpus filtering and dataset builders")
    p.add_argument("--config", default=None)
    p.add_argument("--input", default=None, help="input corpus TSV")
    p.add_argument("--output", required=True, help="output corpus TSV")
    p.add_argument("--manifest", default=None, help="manifest JSON path")
    p.add_argument("--variant", default=None,
                   help="icq-1c|icq-2c|icq-5c|icq-10c|ica-<K>c")
    p.add_argument("--filter-len", default=None, metavar="MIN:MAX")
    p.add_argument("--take-per-category", type=int, default=None)
    p.add_argument("--synthetic", action="store_true")
    p.add_argument("--categories", type=int, default=2)
    p.add_argument("--per-category", type=int, default=200)
    p.add_argument("--vocab-per-category", type=int, default=50)
    p.add_argument("--len-range", default="5:12", metavar="MIN:MAX")
    p.add_argument("--seed", type=int, default=0)
    return p


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise UsageError(f"expected MIN:MAX, got {text!r}")


def cmd_build_data(opts: dict) -> int:
    seed = opts["seed"]
    if opts["synthetic"]:
        corpus = make_synthetic_corpus(
            opts["categories"], opts["per_category"], opts["vocab_per_category"],
            _parse_range(opts["len_range"]), seed,
        )
    elif opts["input"]:
        corpus = load_corpus(opts["input"])
    else:
        raise UsageError("build-data needs --input or --synthetic")

    if opts["filter_len"]:
        lo, hi = _parse_range(opts["filter_len"])
        corpus = filter_by_length(corpus, lo, hi)
    if opts["take_per_category"]:
        corpus = subsample_per_category(corpus, opts["take_per_category"], seed)
    variant = (opts["variant"] or "").lower()
    if variant.startswith("icq-"):
        corpus = build_icq_variant(corpus, variant)
    elif variant.startswith("ica-"):
        try:
            k = int(variant[len("ica-"):].rstrip("c"))
        except ValueError:
            raise UsageError(f"bad ica variant {variant!r}")
        corpus = build_ica_series(corpus, k)
    elif variant:
        raise UsageError(f"unknown variant {variant!r}")

    header = {"seed": seed, "config": {k: v for k, v in opts.items() if v is not None}}
    save_corpus(opts["output"], corpus, header=header)
    manifest = corpus_manifest(corpus, seed=seed, extra={"config": header["config"]})
    manifest_path = opts["manifest"] or (str(opts["output"]) + ".manifest.json")
    write_json(manifest_path, manifest)
    print(f"wrote {len(corpus)} sentences to {opts['output']}")
    print(f"manifest: {manifest_path}")
    return 0


# --- train ----------------------------------------------------------------------


def add_train_parser(sub):
    p = sub.add_parser("train", help="train a model on a corpus TSV")
    p.add_argument("--config", default=None)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.add_argument("--epochs", type=int, default=250)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--grad-clip", type=float, default=None)
    p.add_argument("--init", default="static", choices=["none", "static", "adaptive"])
    p.add_argument("--omega", type=float, default=8.5)
    p.add_argument("--embed-dim", type=int, default=300)
    p.add_argument("--hidden-dim", type=int, default=256)
    p.add_argument("--latent-dim", type=int, default=128)
    p.add_argument("--max-len", type=int, default=30)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--use-kl", action="store_true")
    p.add_argument("--feature-extractors", action="store_true")
    p.add_argument("--no-classification", action="store_true")
    p.add_argument("--mask-pad-loss", action="store_true")
    p.add_argument("--precision", default="float64", choices=["float64", "float32"])
    p.add_argument("--min-freq", type=int, default=1)
    p.add_argument("--save-every", type=int, default=0)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--seed", type=int, default=0)
    return p


# the model options of ``train``: option name -> ModelConfig field
MODEL_OPTIONS = {
    "embed_dim": "embed_dim", "hidden_dim": "hidden_dim", "latent_dim": "latent_dim",
    "max_len": "max_len", "init": "init_mode", "omega": "static_omega",
    "use_kl": "use_kl_term", "feature_extractors": "use_feature_extractors",
    "no_classification": "use_classification", "mask_pad_loss": "mask_pad_loss",
    "temperature": "temperature", "precision": "dtype",
}


def _convert(name: str, value):
    """A model option's value as its ModelConfig field's value, and back:
    only ``no_classification`` differs, as the negation."""
    return not value if name == "no_classification" else value


# the training plan options of ``train``, each a TrainPlan field
PLAN_OPTIONS = ("epochs", "batch_size", "lr", "grad_clip")


def _model_options(cfg: ModelConfig) -> dict:
    """The ``train`` model options that rebuild ``cfg``."""
    return {name: _convert(name, getattr(cfg, field))
            for name, field in MODEL_OPTIONS.items()}


def _checkpoint_options(ckpt: Checkpoint) -> dict:
    """The ``train`` options a checkpoint records: its model's, and its
    training plan's when it has one."""
    plan = {} if ckpt.plan is None else {k: getattr(ckpt.plan, k) for k in PLAN_OPTIONS}
    return {**_model_options(ckpt.config), **plan}


def _check_resume_options(opts: dict, cfg: ModelConfig):
    """A resumed run keeps the checkpoint's model. Model options not given
    resolve to the checkpoint's, so any that differ were given by flag or
    config file."""
    clash = [f"{name} = {opts[name]} (checkpoint: {value})"
             for name, value in _model_options(cfg).items()
             if opts[name] != value]
    if clash:
        raise UsageError("--resume keeps the checkpoint's model options; "
                         f"these differ from it: {', '.join(clash)}")


def cmd_train(opts: dict, ckpt: Checkpoint | None = None) -> int:
    """Train from scratch, or on from ``ckpt``, the ``--resume`` checkpoint
    that ``run`` read."""
    corpus = load_corpus(opts["corpus"])
    if corpus.max_length() > opts["max_len"]:
        raise DataError(
            f"corpus has sentences up to {corpus.max_length()} tokens; "
            f"raise --max-len {opts['max_len']}"
        )
    vocab = build_vocabulary(corpus, min_freq=opts["min_freq"])
    rng = Rng(opts["seed"])
    plan = TrainPlan(epochs=opts["epochs"], batch_size=opts["batch_size"],
                     lr=opts["lr"], grad_clip=opts["grad_clip"])
    start_epoch = 0
    adam = None
    if ckpt is not None:
        if plan.epochs <= ckpt.epoch:
            raise UsageError(f"--epochs {plan.epochs} leaves nothing to train "
                             f"after the checkpoint's epoch {ckpt.epoch}")
        _check_resume_options(opts, ckpt.config)
        if ckpt.vocab_digest != vocab.digest():
            raise DataError("checkpoint vocabulary digest does not match corpus")
        cfg = ckpt.config
        params = ckpt.build_params()
        adam = ckpt.build_adam(params.store)
        adam.lr = plan.lr  # the checkpoint's unless given
        rng.set_state(ckpt.rng_state)
        start_epoch = ckpt.epoch
        print(f"resuming from epoch {start_epoch}")
    else:
        cfg = ModelConfig(vocab_size=len(vocab), num_categories=corpus.num_categories,
                          **{field: _convert(name, opts[name])
                             for name, field in MODEL_OPTIONS.items()})
        params = CatVrnnParams(cfg, rng)
    print(f"model parameters: {parameter_count(params)}")
    out_dir = Path(opts["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    vocab.save(out_dir / "vocab.txt")

    batch = encode_batch(corpus.sentences, vocab, cfg.max_len)
    config_echo = {"seed": opts["seed"], "plan": asdict(plan),
                   "model": cfg.to_dict(), "corpus": str(opts["corpus"])}
    write_json(out_dir / "run_config.json", config_echo)

    def report(stats):
        print(f"epoch {stats.epoch}: gen={stats.mean_gen_nll:.4f} "
              f"cls={stats.mean_cls_nll:.4f} kl={stats.mean_kl:.4f}")

    run_training(batch.inputs, batch.targets, batch.categories, params, cfg,
                 plan, rng, vocab.digest(), start_epoch=start_epoch, adam=adam,
                 checkpoint_dir=out_dir, save_every=opts["save_every"],
                 metrics_path=out_dir / "metrics.jsonl", on_epoch=report)
    final = out_dir / f"epoch_{plan.epochs:04d}.ckpt"
    print(f"final checkpoint: {final}")
    print(f"checkpoint digest: {checkpoint_digest(final)}")
    return 0


# --- generate --------------------------------------------------------------------


def add_generate_parser(sub):
    p = sub.add_parser("generate", help="sample category text from a checkpoint")
    p.add_argument("--config", default=None)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", default=None, help="vocab.txt saved by train")
    p.add_argument("--corpus", default=None, help="corpus TSV to rebuild the vocab")
    p.add_argument("--out", required=True, help="generated TSV path")
    p.add_argument("-n", "--samples", type=int, default=100)
    p.add_argument("-c", "--categories", default=None,
                   help="comma-separated ids; default all")
    p.add_argument("--temperature", type=float, default=None,
                   help="override the checkpoint's sampling temperature")
    p.add_argument("--seed", type=int, default=0)
    return p


def _vocab_for(ckpt: Checkpoint, opts: dict) -> Vocabulary:
    if opts.get("vocab"):
        vocab = Vocabulary.load(opts["vocab"])
    elif opts.get("corpus"):
        vocab = build_vocabulary(load_corpus(opts["corpus"]))
    else:
        raise UsageError("need --vocab or --corpus to map token ids")
    if vocab.digest() != ckpt.vocab_digest:
        raise DataError("vocabulary digest does not match the checkpoint")
    return vocab


def cmd_generate(opts: dict) -> int:
    cats = None
    if opts["categories"]:
        try:
            cats = [int(c) for c in opts["categories"].split(",")]
        except ValueError:
            raise UsageError("-c expects comma-separated category ids, "
                             f"got {opts['categories']!r}")
    ckpt = load_checkpoint(opts["checkpoint"])
    vocab = _vocab_for(ckpt, opts)
    cfg = ckpt.config
    if opts["temperature"] is not None:
        cfg = replace(cfg, temperature=opts["temperature"])
    for c in cats or ():
        if not 0 <= c < cfg.num_categories:
            raise ConfigurationError(
                f"category {c} out of range [0, {cfg.num_categories})")
    samples = sample_categories(ckpt.build_params(), cfg, vocab, opts["samples"],
                                opts["seed"], cats)
    # the exchange format cannot hold empty sentences: the header counts them
    sentences = [LabeledSentence(tuple(tokens), c) for tokens, c in samples if tokens]
    empty = [0] * cfg.num_categories
    for tokens, c in samples:
        empty[c] += not tokens
    if len(sentences) < len(samples):
        print(f"dropped {len(samples) - len(sentences)} empty generation(s)")
    header = {"seed": opts["seed"], "config": cfg.to_dict(),
              "checkpoint": str(opts["checkpoint"]), "samples": opts["samples"],
              EMPTY_KEY: empty}
    save_corpus(opts["out"], LabeledCorpus(sentences, cfg.num_categories),
                header=header)
    print(f"wrote {len(sentences)} sentences to {opts['out']}")
    return 0


# the generated TSV header key of the per-category counts of empty samples
EMPTY_KEY = "empty"


def _empty_samples(path, num_categories: int) -> list[tuple[list[str], int]]:
    """The empty samples of a generated TSV, from the per-category counts
    that ``generate`` writes into its header; none when it has no count.
    The counts may not name a category past ``num_categories``, nor exceed
    the samples per category, which the header's ``samples`` gives."""
    fields = dict(line[2:].split("=", 1) for line in read_text(path).splitlines()
                  if line.startswith("# ") and "=" in line)
    if EMPTY_KEY not in fields:
        return []
    prefix = f"# {EMPTY_KEY}="
    try:
        counts = json.loads(fields[EMPTY_KEY])
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: bad {prefix!r} header: {e}") from e
    samples = fields.get("samples", "")
    if not (isinstance(counts, list) and len(counts) <= num_categories
            and all(type(k) is int and k >= 0 for k in counts)
            and samples.isdigit() and max(counts, default=0) <= int(samples)):
        raise DataError(f"{path}: {prefix!r} needs a list of at most {num_categories} "
                        f"counts, each at most '# samples={samples}', got {counts!r}")
    return [([], c) for c, k in enumerate(counts) for _ in range(k)]


# --- evaluate --------------------------------------------------------------------


def add_evaluate_parser(sub):
    p = sub.add_parser("evaluate", help="compute the metric report")
    p.add_argument("--config", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--corpus", required=True, help="real corpus TSV")
    p.add_argument("--vocab", default=None)
    p.add_argument("--generated", default=None,
                   help="score an existing generated TSV instead of sampling")
    p.add_argument("--out", default=None, help="report JSON path")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--classifier", default=None, help="saved classifier file")
    p.add_argument("--save-classifier", default=None)
    p.add_argument("--classifier-epochs", type=int, default=25)
    p.add_argument("--bleu-cap", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    return p


def cmd_evaluate(opts: dict) -> int:
    for key in ("bleu_cap", "classifier_epochs"):
        if opts[key] < 1:
            raise UsageError(f"--{key.replace('_', '-')} must be >= 1, got {opts[key]}")
    if opts["classifier"] and opts["save_classifier"]:
        raise UsageError("--save-classifier saves the classifier evaluate fits; "
                         "with --classifier it fits none")
    corpus = load_corpus(opts["corpus"])
    clf = None
    if opts["classifier"]:
        # read before sampling, so that a file that cannot score this corpus
        # fails first
        clf = EvalClassifier.load(opts["classifier"])
        if clf.cfg.num_categories != corpus.num_categories:
            raise DataError(
                f"{opts['classifier']}: a classifier of {clf.cfg.num_categories} "
                f"categories, but {opts['corpus']} has {corpus.num_categories}"
            )
    if opts["generated"]:
        gen_corpus = load_corpus(opts["generated"],
                                 num_categories=corpus.num_categories)
        # the empty samples count as misses, as when evaluate samples them
        generated = ([(list(s.tokens), s.category) for s in gen_corpus.sentences]
                     + _empty_samples(opts["generated"], corpus.num_categories))
    elif not opts["checkpoint"]:
        raise UsageError("evaluate needs --checkpoint or --generated")
    ppl, model = None, {}
    if opts["checkpoint"]:
        ckpt = load_checkpoint(opts["checkpoint"])
        cfg = ckpt.config
        if corpus.num_categories > cfg.num_categories:
            raise DataError(
                f"{opts['corpus']}: {corpus.num_categories} categories, but the "
                f"model has {cfg.num_categories}"
            )
        vocab = _vocab_for(ckpt, opts)
        params = ckpt.build_params()
        if not opts["generated"]:
            # sampled as generate samples, before the classifier is fitted
            generated = sample_categories(params, cfg, vocab, opts["samples"],
                                          opts["seed"])
        ppl = perplexity(params, cfg, corpus, vocab, seed=opts["seed"])
        model = {"num_categories": cfg.num_categories, "config": cfg.to_dict()}

    if clf is None:
        clf = train_eval_classifier(corpus, seed=opts["seed"],
                                    epochs=opts["classifier_epochs"])
        if opts["save_classifier"]:
            clf.save(opts["save_classifier"])

    # samples read from --generated were not drawn here: no per-category count
    sampled = None if opts["generated"] else opts["samples"]
    report = replace(score_samples(generated, corpus, clf, opts["seed"],
                                   perplexity=ppl, backward_cap=opts["bleu_cap"]),
                     n_samples_per_category=sampled, **model)
    report.config["command_options"] = {
        k: v for k, v in opts.items() if isinstance(v, (int, float, str, bool))
    }
    text = report.to_json()
    if opts["out"]:
        atomic_write_text(opts["out"], text + "\n")
        print(f"report written to {opts['out']}")
    print(text)
    return 0


# --- grad-check --------------------------------------------------------------------


def add_grad_check_parser(sub):
    p = sub.add_parser("grad-check", help="finite-difference check of the joint loss "
                       "and of the scoring classifier's loss")
    p.add_argument("--config", default=None)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--max-checks", type=int, default=256)
    p.add_argument("--corrupt-backward", action="store_true",
                   help="negative control: perturb analytic gradients")
    p.add_argument("--seed", type=int, default=0)
    return p


# the model variants grad-check differentiates, as changes to a tiny config
GRAD_CHECK_VARIANTS = {
    "static": {},
    "adaptive": {"init_mode": "adaptive"},
    "static+kl": {"use_kl_term": True},
    "adaptive+kl": {"init_mode": "adaptive", "use_kl_term": True},
    "feature-extractors": {"use_feature_extractors": True},
    # every branch of the recurrence's backward in one run
    "ablation": {"init_mode": "adaptive", "use_kl_term": True,
                 "use_feature_extractors": True, "mask_pad_loss": True,
                 "num_categories": 3},
}


def grad_check_config(variant: str) -> ModelConfig:
    base = dict(vocab_size=12, num_categories=2, embed_dim=8, hidden_dim=6,
                latent_dim=4, max_len=5, init_mode="static")
    return ModelConfig(**{**base, **GRAD_CHECK_VARIANTS[variant]})


def _max_rel_diff(a: SequenceForward, b: SequenceForward) -> float:
    pairs = [(a.logits, b.logits), (a.class_logits, b.class_logits),
             (a.final_hidden, b.final_hidden)]
    if a.kl_sum is not None:
        pairs.append((a.kl_sum, b.kl_sum))
    return max(float(np.max(np.abs(x - y) / np.maximum(
        np.maximum(np.abs(x), np.abs(y)), 1e-8))) for x, y in pairs)


def hoisted_difference(x_ids, cats, params: CatVrnnParams, cfg: ModelConfig,
                       seed: int) -> float:
    """Max relative difference between forward_teacher, which training runs,
    and a fold of model._step, which generate runs, in both train modes;
    infinite when the two draw different random numbers."""
    worst = 0.0
    for train_mode in (True, False):
        hoisted, stepwise = Rng(seed), Rng(seed)
        a = forward_teacher(x_ids, cats, params, cfg, hoisted, train_mode)
        b = forward_stepwise(x_ids, cats, params, cfg, stepwise, train_mode)
        if hoisted.state() != stepwise.state():
            return float("inf")
        worst = max(worst, _max_rel_diff(a, b))
    return worst


def _print_worst(report, store):
    """How many of the store's tensors a gradient check reached, and the
    three with the largest errors."""
    print(f"      {len(report.per_param)}/{len(store)} tensors checked")
    for entry in sorted(report.per_param, key=lambda e: -e.max_rel_err)[:3]:
        print(f"      {entry.name}: {entry.max_rel_err:.3e} ({entry.checked} checked)")


def cmd_grad_check(opts: dict) -> int:
    corrupt = opts["corrupt_backward"]
    tol = opts["tolerance"]
    seed = opts["seed"]
    worst = 0.0
    ok = True

    x_ids = np.array([[0, 3, 7, 2, 5], [0, 4, 4, 9, 0]])
    targets = np.array([[3, 7, 2, 5, 11], [4, 4, 9, 0, 0]])
    cats = np.array([0, 1])

    print("full-model joint loss:")
    for name in GRAD_CHECK_VARIANTS:
        cfg = grad_check_config(name)
        params = CatVrnnParams(cfg, Rng(seed))

        def loss_fn(cfg=cfg, params=params):
            fwd = forward_teacher(x_ids, cats, params, cfg, Rng(seed + 1),
                                  train_mode=True)
            return joint_loss(fwd, targets, cats, cfg).total.mean()

        analytic = np.empty_like(params.store.flat)
        loss_and_grad(x_ids, targets, cats, params, cfg, Rng(seed + 1), analytic)
        report = check_gradient(loss_fn, params.store, analytic, tolerance=tol,
                                max_checks=opts["max_checks"], corrupt=corrupt)
        diff = hoisted_difference(x_ids, cats, params, cfg, seed + 1)
        worst = max(worst, report.max_rel_err, diff)
        ok = ok and report.passed and diff <= tol
        print(f"  {name}: {report.summary()}")
        _print_worst(report, params.store)
        print(f"      forward_teacher vs _step fold: max rel diff {diff:.3e}")

    print("scoring classifier (V=12, T=5):")
    clf = EvalClassifier(ClassifierConfig(vocab_size=12, num_categories=2, max_len=5),
                         Vocabulary([*SPECIALS, *(f"w{i}" for i in range(10))]),
                         rng=Rng(seed))

    def clf_loss():
        logits = clf.logits(x_ids, train_mode=True,
                            dropout_rng=np.random.default_rng(seed + 1))
        return nll_rows(logits, cats)[0].mean()

    analytic = np.empty_like(clf.store.flat)
    clf.loss_and_grad(x_ids, cats, np.random.default_rng(seed + 1), analytic)
    report = check_gradient(clf_loss, clf.store, analytic, tolerance=tol,
                            max_checks=opts["max_checks"], corrupt=corrupt)
    worst = max(worst, report.max_rel_err)
    ok = ok and report.passed
    print(f"  {report.summary()}")
    _print_worst(report, clf.store)
    print(f"overall: {'PASS' if ok else 'FAIL'} (worst {worst:.3e}, tol {tol:.1e})")
    return 0 if ok else 3


# --- entry point ----------------------------------------------------------------------


# name -> (add the subparser, run it with the resolved options)
COMMANDS = {
    "build-data": (add_build_data_parser, cmd_build_data),
    "train": (add_train_parser, cmd_train),
    "generate": (add_generate_parser, cmd_generate),
    "evaluate": (add_evaluate_parser, cmd_evaluate),
    "grad-check": (add_grad_check_parser, cmd_grad_check),
}

EXIT_CODES = {
    UsageError: ("usage error", 1),
    ConfigurationError: ("configuration error", 1),
    FileNotFoundError: ("data error", 2),
    DataError: ("data error", 2),
    NumericError: ("numeric failure", 3),
}


def build_parser(argument_default=None):
    """The top-level parser and a dict of its subparsers by command name."""
    parser = ArgumentParser(prog="catvrnn",
                            description="category-steered variational RNN toolkit",
                            argument_default=argument_default)
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=partial(ArgumentParser, argument_default=argument_default))
    return parser, {name: add(sub) for name, (add, _) in COMMANDS.items()}


def _options(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("command", "config")}


def run(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    subparser = subparsers[args.command]
    file_values, file_lines = (load_config_file(args.config, subparser) if args.config
                               else ({}, {}))
    unknown = set(file_values) - set(_options(args))
    if unknown:
        raise UsageError(f"unknown config file keys: {sorted(unknown)}")
    # a resumed run keeps the checkpoint's model options and training plan
    # unless overridden
    resume = getattr(args, "resume", None) or file_values.get("resume")
    ckpt = load_checkpoint(resume) if resume else None
    ckpt_values = _checkpoint_options(ckpt) if ckpt else {}
    if file_values or ckpt_values:
        # these become the subcommand's defaults, so flags still win
        subparser.set_defaults(**{**ckpt_values, **file_values})
        try:
            args = parser.parse_args(argv)
        except UsageError as e:
            # the flags parsed above, so a file value is at fault: argparse
            # names its option as "argument [-x/]--key: ..."
            named = str(e).split(":", 1)[0].removeprefix("argument ").split("/")
            key = next((k for k in file_values if f"--{k.replace('_', '-')}" in named),
                       None)
            if key is None:
                raise
            raise UsageError(f"{args.config}:{file_lines[key]}: {e}") from e
    flags = vars(build_parser(argparse.SUPPRESS)[0].parse_args(argv))
    if ckpt is not None and ckpt.plan is None:
        missing = [f"--{k.replace('_', '-')}" for k in ("batch_size", "lr")
                   if k not in flags and k not in file_values]
        if missing:
            raise UsageError(f"{resume} records no training plan; pass "
                             f"{' and '.join(missing)} (and --grad-clip if its run "
                             "clipped) to resume it")
    opts = _options(args)
    print("options (flags > file > defaults):")
    for key in sorted(opts):
        source = ("flag" if key in flags else "file" if key in file_values
                  else "checkpoint" if key in ckpt_values else "default")
        print(f"  {key} = {opts[key]} ({source})")
    _, command = COMMANDS[args.command]
    # train --resume gets the checkpoint read above, not a second read
    return command(opts) if ckpt is None else command(opts, ckpt)


def main(argv=None) -> int:
    try:
        return run(argv)
    except tuple(EXIT_CODES) as e:
        prefix, code = next(EXIT_CODES[t] for t in type(e).__mro__ if t in EXIT_CODES)
        print(f"{prefix}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
