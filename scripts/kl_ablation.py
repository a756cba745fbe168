#!/usr/bin/env python3
"""KL-term ablation: train with the conditional prior + KL objective restored
and compare generation loss against the default (KL removed) at matched
epochs, over several seeds."""

import argparse

from steering_experiment import desk_corpus, train_desk_model


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epochs", type=int, default=50)
    ap.add_argument("--hidden-dim", type=int, default=128)
    ap.add_argument("--seeds", default="0,1,2")
    args = ap.parse_args()

    _, vocab, batch = desk_corpus()

    worse = 0
    seeds = [int(s) for s in args.seeds.split(",")]
    for seed in seeds:
        finals = {}
        for use_kl in (True, False):
            _, _, history = train_desk_model(vocab, batch, seed, args.epochs,
                                             args.hidden_dim, init_mode="static",
                                             use_kl_term=use_kl)
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
