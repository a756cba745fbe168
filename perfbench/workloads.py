"""Workload shapes and the benchmark's own input generator.

Every workload trains on a disjoint-vocabulary corpus that the benchmark
writes itself from ``--seed``: category ``k`` owns the words ``k<k>v<i>``, so
the benchmark knows each word's category without asking the program, and
its steering oracle is independent of ``catvrnn.data``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    categories: int
    per_category: int
    words_per_category: int
    len_range: tuple[int, int]
    embed_dim: int
    hidden_dim: int
    latent_dim: int
    max_len: int
    batch_size: int
    init_mode: str
    # fixed so that the quality metrics are a pure function of the seed
    warm_epochs: int
    samples_per_category: int
    use_kl_term: bool = False
    use_feature_extractors: bool = False

    def model_options(self) -> dict:
        return dict(embed_dim=self.embed_dim, hidden_dim=self.hidden_dim,
                    latent_dim=self.latent_dim, max_len=self.max_len,
                    init_mode=self.init_mode, use_kl_term=self.use_kl_term,
                    use_feature_extractors=self.use_feature_extractors)


WORKLOADS = {
    w.name: w
    for w in (
        # README quick-start shape: small matrices, so time goes to Python
        # and tape overhead rather than BLAS.
        Workload("desk", "README quick-start shape (E48/H128/L16/T13, V~100): "
                 "Python and tape overhead on small matrices",
                 categories=2, per_category=200, words_per_category=50,
                 len_range=(5, 12), embed_dim=48, hidden_dim=128, latent_dim=16,
                 max_len=13, batch_size=32, init_mode="static",
                 warm_epochs=12, samples_per_category=1000),
        # Paper dimensions: 2.1M parameters, so time goes to BLAS matmuls and
        # to Adam over every parameter.
        Workload("paper", "paper dims (E300/H256/L128/T30, V~1.6k, 2.1M params): "
                 "BLAS matmuls and Adam over every parameter",
                 categories=2, per_category=64, words_per_category=1100,
                 len_range=(15, 30), embed_dim=300, hidden_dim=256,
                 latent_dim=128, max_len=30, batch_size=64, init_mode="static",
                 warm_epochs=3, samples_per_category=100),
        # The only workload that reaches the prior net, the KL term, the
        # feature extractors and the gradient of the adaptive h0. Not in
        # BENCHMARK.json (NOTES.md says why); run it by name to check that a
        # change to the default cell leaves these paths no slower.
        Workload("ablation", "desk dims, 4 categories, adaptive init, KL term and "
                 "feature extractors: the paths the default cell skips",
                 categories=4, per_category=100, words_per_category=25,
                 len_range=(5, 12), embed_dim=48, hidden_dim=128, latent_dim=16,
                 max_len=13, batch_size=32, init_mode="adaptive",
                 warm_epochs=8, samples_per_category=250,
                 use_kl_term=True, use_feature_extractors=True),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload shrunk to run in a few seconds, for smoke tests."""
    return replace(w, per_category=12, words_per_category=8, embed_dim=8,
                   hidden_dim=16, latent_dim=4, batch_size=8, warm_epochs=2,
                   samples_per_category=10)


def word(category: int, index: int) -> str:
    return f"k{category}v{index}"


def write_corpus(w: Workload, seed: int, path: Path) -> int:
    """Write the workload's corpus TSV for ``seed``; returns its size."""
    rng = np.random.default_rng([seed, zlib.crc32(w.name.encode())])
    lo, hi = w.len_range
    lines = [f"# perfbench workload={w.name} seed={seed}"]
    for cat in range(w.categories):
        for _ in range(w.per_category):
            n = int(rng.integers(lo, hi + 1))
            idx = rng.integers(0, w.words_per_category, size=n)
            lines.append(f"{cat}\t{' '.join(word(cat, int(i)) for i in idx)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return w.categories * w.per_category


def owner(token: str) -> int | None:
    """Category that owns a generated word, or None for any other token."""
    head, sep, tail = token[1:].partition("v")
    if token[:1] != "k" or not sep or not head.isdigit() or not tail.isdigit():
        return None
    return int(head)


def steer_accuracy(samples) -> float:
    """Share of the sampled words that belong to their sample's target
    category. Counting words rather than whole samples keeps the figure
    steady across seeds while the model is still near chance."""
    hits = total = 0
    for tokens, category in samples:
        hits += sum(owner(tok) == category for tok in tokens)
        total += len(tokens)
    return hits / total
