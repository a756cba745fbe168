#!/usr/bin/env python3
"""Desk-scale steering comparison on a disjoint-vocabulary synthetic corpus.

Trains the static, adaptive, and no-initialization variants on identical data
and reports word-membership oracle category accuracy for each, mirroring the
category-accuracy comparison across initialization variants.
"""

import argparse
import time

from catvrnn.numeric import Rng
from catvrnn.model import CatVrnnParams, ModelConfig
from catvrnn.data import (
    build_vocabulary,
    encode_batch,
    make_synthetic_corpus,
    oracle_category_accuracy,
    word_membership_oracle,
)
from catvrnn.training import TrainPlan, run_training
from catvrnn.evaluation import sample_categories


def desk_corpus(per_category=200):
    """The two-category synthetic corpus of the experiments, its vocabulary
    and its encoding at max length 13."""
    corpus = make_synthetic_corpus(2, per_category, 50, (5, 12), seed=11)
    vocab = build_vocabulary(corpus)
    return corpus, vocab, encode_batch(corpus.sentences, vocab, 13)


def train_desk_model(vocab, batch, seed, epochs, hidden_dim, **model_options):
    """Train a desk-scale model (E48/L16/T13, batch 32, lr 1e-3); returns
    its parameters, config and per-epoch stats."""
    cfg = ModelConfig(vocab_size=len(vocab), num_categories=2, embed_dim=48,
                      hidden_dim=hidden_dim, latent_dim=16, max_len=13,
                      **model_options)
    rng = Rng(seed)
    params = CatVrnnParams(cfg, rng)
    plan = TrainPlan(epochs=epochs, batch_size=32, lr=1e-3)
    history = run_training(batch.inputs, batch.targets, batch.categories,
                           params, cfg, plan, rng, vocab.digest())
    return params, cfg, history


def steering_accuracy(params, cfg, vocab, oracle, n=100, seed=123):
    return oracle_category_accuracy(
        sample_categories(params, cfg, vocab, n, seed), oracle)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epochs", type=int, default=140)
    ap.add_argument("--hidden-dim", type=int, default=128)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--per-category", type=int, default=200)
    args = ap.parse_args()

    corpus, vocab, batch = desk_corpus(args.per_category)
    oracle = word_membership_oracle(corpus)

    print(f"corpus: {len(corpus)} sentences, vocab {len(vocab)}")
    for mode in ("static", "adaptive", "none"):
        t0 = time.time()
        params, cfg, history = train_desk_model(vocab, batch, args.seed, args.epochs,
                                                args.hidden_dim, init_mode=mode)
        acc = steering_accuracy(params, cfg, vocab, oracle)
        print(f"{mode:>8}: oracle accuracy {acc:.3f} "
              f"(final gen nll {history[-1].mean_gen_nll:.2f}, {time.time()-t0:.0f}s)")


if __name__ == "__main__":
    main()
