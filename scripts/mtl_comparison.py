#!/usr/bin/env python3
"""Multi-task benefit probe: generation loss and steering accuracy of the
joint model against the same network with the classification loss detached,
over several seeds at matched epochs."""

import argparse
import statistics

from catvrnn.numeric import Rng
from catvrnn.model import CatVrnnParams, ModelConfig
from catvrnn.data import build_vocabulary, encode_batch, make_synthetic_corpus
from catvrnn.data import word_membership_oracle
from catvrnn.training import TrainPlan, run_training
from steering_experiment import steering_accuracy


def run(corpus, vocab, seed, epochs, hidden, use_classification):
    cfg = ModelConfig(vocab_size=len(vocab), num_categories=2, embed_dim=48,
                      hidden_dim=hidden, latent_dim=16, max_len=13,
                      init_mode="static", use_classification=use_classification)
    rng = Rng(seed)
    params = CatVrnnParams(cfg, rng)
    batch = encode_batch(corpus.sentences, vocab, cfg.max_len)
    plan = TrainPlan(epochs=epochs, batch_size=32, lr=1e-3)
    history = run_training(batch.inputs, batch.targets, batch.categories,
                           params, cfg, plan, rng, vocab.digest())
    return params, cfg, history[-1].mean_gen_nll


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epochs", type=int, default=10)
    ap.add_argument("--hidden-dim", type=int, default=128)
    ap.add_argument("--seeds", default="0,1,2")
    args = ap.parse_args()

    corpus = make_synthetic_corpus(2, 200, 50, (5, 12), seed=11)
    vocab = build_vocabulary(corpus)
    oracle = word_membership_oracle(corpus)
    seeds = [int(s) for s in args.seeds.split(",")]

    results = {True: {"nll": [], "acc": []}, False: {"nll": [], "acc": []}}
    for seed in seeds:
        for mtl in (True, False):
            params, cfg, nll = run(corpus, vocab, seed, args.epochs,
                                   args.hidden_dim, mtl)
            acc = steering_accuracy(params, cfg, vocab, oracle)
            results[mtl]["nll"].append(nll)
            results[mtl]["acc"].append(acc)
            label = "joint" if mtl else "generation-only"
            print(f"seed {seed} {label:>16}: gen nll {nll:.3f} accuracy {acc:.3f}")

    for mtl, label in ((True, "joint"), (False, "generation-only")):
        print(f"{label:>16}: median nll {statistics.median(results[mtl]['nll']):.3f} "
              f"median accuracy {statistics.median(results[mtl]['acc']):.3f}")


if __name__ == "__main__":
    main()
