#!/usr/bin/env python3
"""KL-term ablation: train with the conditional prior + KL objective restored
and compare generation loss against the default (KL removed) at matched
epochs, over several seeds."""

import argparse

from catvrnn.numeric import Rng
from catvrnn.model import CatVrnnParams, ModelConfig
from catvrnn.data import build_vocabulary, encode_batch, make_synthetic_corpus
from catvrnn.training import TrainPlan, run_training


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epochs", type=int, default=50)
    ap.add_argument("--hidden-dim", type=int, default=128)
    ap.add_argument("--seeds", default="0,1,2")
    args = ap.parse_args()

    corpus = make_synthetic_corpus(2, 200, 50, (5, 12), seed=11)
    vocab = build_vocabulary(corpus)
    batch = encode_batch(corpus.sentences, vocab, 13)

    worse = 0
    seeds = [int(s) for s in args.seeds.split(",")]
    for seed in seeds:
        finals = {}
        for use_kl in (True, False):
            cfg = ModelConfig(vocab_size=len(vocab), num_categories=2,
                              embed_dim=48, hidden_dim=args.hidden_dim,
                              latent_dim=16, max_len=13, init_mode="static",
                              use_kl_term=use_kl)
            rng = Rng(seed)
            params = CatVrnnParams(cfg, rng)
            plan = TrainPlan(epochs=args.epochs, batch_size=32, lr=1e-3)
            history = run_training(batch.inputs, batch.targets,
                                   batch.categories, params, cfg, plan, rng,
                                   vocab.digest())
            if use_kl:
                assert all(stats.mean_kl >= 0 for stats in history)
            finals[use_kl] = history[-1]
        on, off = finals[True], finals[False]
        worse += on.mean_gen_nll > off.mean_gen_nll
        print(f"seed {seed}: gen nll with KL {on.mean_gen_nll:.3f} "
              f"(kl {on.mean_kl:.4f}) vs without {off.mean_gen_nll:.3f}")
    print(f"KL term degraded generation loss in {worse}/{len(seeds)} seeds")


if __name__ == "__main__":
    main()
