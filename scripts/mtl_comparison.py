#!/usr/bin/env python3
"""Multi-task benefit probe: generation loss and steering accuracy of the
joint model against the same network with the classification loss detached,
over several seeds at matched epochs."""

import argparse
import statistics

from catvrnn.data import word_membership_oracle
from steering_experiment import desk_corpus, steering_accuracy, train_desk_model


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epochs", type=int, default=10)
    ap.add_argument("--hidden-dim", type=int, default=128)
    ap.add_argument("--seeds", default="0,1,2")
    args = ap.parse_args()

    corpus, vocab, batch = desk_corpus()
    oracle = word_membership_oracle(corpus)
    seeds = [int(s) for s in args.seeds.split(",")]

    results = {True: {"nll": [], "acc": []}, False: {"nll": [], "acc": []}}
    for seed in seeds:
        for mtl in (True, False):
            params, cfg, history = train_desk_model(
                vocab, batch, seed, args.epochs, args.hidden_dim,
                init_mode="static", use_classification=mtl)
            nll = history[-1].mean_gen_nll
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
