#!/usr/bin/env python3
"""Desk-scale steering comparison on a disjoint-vocabulary synthetic corpus.

Trains the static, adaptive, and no-initialization variants on identical data
and reports word-membership oracle category accuracy for each, mirroring the
category-accuracy comparison across initialization variants.
"""

import argparse
import time

from catvrnn.numeric import Rng
from catvrnn.model import CatVrnnParams, ModelConfig, generate
from catvrnn.data import (
    build_vocabulary,
    encode_batch,
    make_synthetic_corpus,
    oracle_category_accuracy,
    word_membership_oracle,
)
from catvrnn.training import TrainPlan, run_training


def steering_accuracy(params, cfg, vocab, oracle, n=100, seed=123):
    samples = []
    rng = Rng(seed)
    for c in range(cfg.num_categories):
        for ids in generate(c, n, params, cfg, rng):
            samples.append(([vocab.decode_id(i) for i in ids], c))
    return oracle_category_accuracy(samples, oracle)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epochs", type=int, default=140)
    ap.add_argument("--hidden-dim", type=int, default=128)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--per-category", type=int, default=200)
    args = ap.parse_args()

    corpus = make_synthetic_corpus(2, args.per_category, 50, (5, 12), seed=11)
    vocab = build_vocabulary(corpus)
    oracle = word_membership_oracle(corpus)
    batch = encode_batch(corpus.sentences, vocab, 13)
    plan = TrainPlan(epochs=args.epochs, batch_size=32, lr=1e-3)

    print(f"corpus: {len(corpus)} sentences, vocab {len(vocab)}")
    for mode in ("static", "adaptive", "none"):
        cfg = ModelConfig(vocab_size=len(vocab), num_categories=2, embed_dim=48,
                          hidden_dim=args.hidden_dim, latent_dim=16, max_len=13,
                          init_mode=mode)
        rng = Rng(args.seed)
        params = CatVrnnParams(cfg, rng)
        t0 = time.time()
        stats = run_training(batch.inputs, batch.targets, batch.categories,
                             params, cfg, plan, rng, vocab.digest())[-1]
        acc = steering_accuracy(params, cfg, vocab, oracle)
        print(f"{mode:>8}: oracle accuracy {acc:.3f} "
              f"(final gen nll {stats.mean_gen_nll:.2f}, {time.time()-t0:.0f}s)")


if __name__ == "__main__":
    main()
