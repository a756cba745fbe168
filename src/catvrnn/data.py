"""Corpus ingestion, vocabulary construction, batching, and dataset builders.

The corpus exchange format is a TSV: ``<category-id> TAB <space-tokenized
text>``, UTF-8, one sentence per line. Lines starting with ``#`` are header
comments (writers embed the seed and effective configuration there).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError

log = logging.getLogger(__name__)

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
SPECIALS = (PAD_TOKEN, UNK_TOKEN)


@dataclass(frozen=True)
class LabeledSentence:
    tokens: tuple[str, ...]
    category: int


@dataclass
class LabeledCorpus:
    sentences: list[LabeledSentence]
    num_categories: int
    provenance: str = "unknown"

    def __post_init__(self):
        for s in self.sentences:
            if not 0 <= s.category < self.num_categories:
                raise DataError(
                    f"category {s.category} out of range [0, {self.num_categories})"
                )

    def __len__(self) -> int:
        return len(self.sentences)

    def category_counts(self) -> list[int]:
        counts = [0] * self.num_categories
        for s in self.sentences:
            counts[s.category] += 1
        return counts

    def max_length(self) -> int:
        return max((len(s.tokens) for s in self.sentences), default=0)


class Vocabulary:
    """Token <-> id maps with fixed specials PAD=0 (doubles as the start
    token) and UNK=1. Ids are assigned by descending frequency, ties broken
    lexicographically, so rebuilding on the same corpus is deterministic."""

    def __init__(self, id_to_token: list[str]):
        if id_to_token[: len(SPECIALS)] != list(SPECIALS):
            raise ConfigurationError(f"vocabulary must start with {SPECIALS}")
        self.id_to_token = list(id_to_token)
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ConfigurationError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode_token(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def decode_id(self, idx: int) -> str:
        return self.id_to_token[idx]

    def digest(self) -> str:
        payload = "\n".join(self.id_to_token).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def save(self, path):
        atomic_write_text(path, "\n".join(self.id_to_token) + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        try:
            return cls(read_text(path).splitlines())
        except ConfigurationError as e:
            raise DataError(f"{path}: {e}") from e


def build_vocabulary(corpus: LabeledCorpus, min_freq: int = 1) -> Vocabulary:
    """Map every token with frequency >= min_freq; special literals never get
    fresh ids."""
    if not corpus.sentences:
        raise DataError("cannot build a vocabulary from an empty corpus")
    counts: Counter = Counter()
    for s in corpus.sentences:
        counts.update(tok for tok in s.tokens if tok not in SPECIALS)
    kept = sorted(
        (tok for tok, n in counts.items() if n >= min_freq),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary(list(SPECIALS) + kept)


@dataclass
class Batch:
    """Encoded sentences: inputs start with PAD, targets are inputs shifted
    left with PAD fill."""

    inputs: np.ndarray
    targets: np.ndarray
    lengths: np.ndarray
    categories: np.ndarray

    def __len__(self) -> int:
        return self.inputs.shape[0]


def encode_batch(sentences: list[LabeledSentence], vocab: Vocabulary, max_len: int) -> Batch:
    """Encode to fixed width: inputs [PAD, w1..wS, PAD...], targets
    [w1..wS, PAD...]. Out-of-vocabulary words map to UNK."""
    n = len(sentences)
    inputs = np.full((n, max_len), PAD_ID, dtype=np.int64)
    targets = np.full((n, max_len), PAD_ID, dtype=np.int64)
    lengths = np.empty(n, dtype=np.int64)
    categories = np.empty(n, dtype=np.int64)
    for i, s in enumerate(sentences):
        if len(s.tokens) > max_len:
            raise DataError(
                f"sentence of length {len(s.tokens)} exceeds max_len {max_len}"
            )
        if not s.tokens:
            raise DataError("cannot encode an empty sentence")
        ids = [vocab.encode_token(tok) for tok in s.tokens]
        inputs[i, 1: len(ids) + 1] = ids[: max_len - 1]
        targets[i, : len(ids)] = ids
        lengths[i] = len(ids)
        categories[i] = s.category
    return Batch(inputs=inputs, targets=targets, lengths=lengths,
                 categories=categories)


def decode_ids(ids, vocab: Vocabulary) -> list[str]:
    return [vocab.decode_id(int(i)) for i in ids]


# --- corpus file I/O --------------------------------------------------------


def load_corpus(path, num_categories: int | None = None) -> LabeledCorpus:
    """Parse a corpus TSV; malformed lines are reported with their numbers."""
    path = Path(path)
    try:
        text = read_text(path)
    except OSError as e:
        raise DataError(f"cannot read corpus file {path}: {e}") from e
    sentences = []
    max_cat = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        if "\t" not in line:
            raise DataError(f"{path}:{lineno}: missing TAB separator")
        cat_str, text_part = line.split("\t", 1)
        try:
            cat = int(cat_str)
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-integer category {cat_str!r}")
        if cat < 0:
            raise DataError(f"{path}:{lineno}: negative category {cat}")
        tokens = tuple(text_part.split())
        if not tokens:
            raise DataError(f"{path}:{lineno}: empty sentence text")
        if PAD_TOKEN in tokens:
            raise DataError(f"{path}:{lineno}: embedded {PAD_TOKEN} token")
        sentences.append(LabeledSentence(tokens=tokens, category=cat))
        max_cat = max(max_cat, cat)
    if not sentences:
        raise DataError(f"{path}: no sentences found")
    k = num_categories if num_categories is not None else max_cat + 1
    return LabeledCorpus(sentences=sentences, num_categories=k,
                         provenance=path.name)


@contextmanager
def atomic_open(path):
    """Binary file for writing ``path`` crash-safely: the data goes to a
    temporary file in the same directory, which replaces ``path`` only when
    the block completes, so a failed write leaves any old file intact."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_text(path) -> str:
    """A UTF-8 text file's contents; a file that is not UTF-8 is a data
    error naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text: {e}") from e


def atomic_write_text(path, text: str):
    """Write ``text`` as UTF-8 through ``atomic_open``."""
    with atomic_open(path) as f:
        f.write(text.encode("utf-8"))


def save_corpus(path, corpus: LabeledCorpus, header: dict | None = None):
    """Write the corpus TSV, embedding any header metadata as # comments."""
    lines = []
    if header:
        for key, value in header.items():
            val = json.dumps(value) if isinstance(value, (dict, list)) else value
            lines.append(f"# {key}={val}")
    for s in corpus.sentences:
        lines.append(f"{s.category}\t{' '.join(s.tokens)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def corpus_manifest(corpus: LabeledCorpus, seed: int | None = None,
                    extra: dict | None = None) -> dict:
    manifest = {
        "provenance": corpus.provenance,
        "num_categories": corpus.num_categories,
        "num_sentences": len(corpus),
        "category_counts": corpus.category_counts(),
        "vocab_size": len(build_vocabulary(corpus)) if corpus.sentences else 0,
        "seed": seed,
    }
    if extra:
        manifest.update(extra)
    return manifest


def write_json(path, obj: dict):
    """Write ``obj`` as indented JSON with sorted keys, crash-safely."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# --- corpus transforms ------------------------------------------------------


def filter_by_length(corpus: LabeledCorpus, min_len: int = 15,
                     max_len: int = 30) -> LabeledCorpus:
    """Keep sentences with min_len <= length <= max_len (inclusive bounds)."""
    if min_len > max_len:
        raise ConfigurationError(f"min length {min_len} exceeds max {max_len}")
    kept = [s for s in corpus.sentences if min_len <= len(s.tokens) <= max_len]
    if not kept:
        log.warning("length filter [%d, %d] kept no sentences", min_len, max_len)
    return LabeledCorpus(sentences=kept, num_categories=corpus.num_categories,
                         provenance=f"{corpus.provenance}|len{min_len}:{max_len}")


def subsample_per_category(corpus: LabeledCorpus, per_category: int,
                           seed: int) -> LabeledCorpus:
    """Random per-category subsample with an explicit recorded seed."""
    rng = np.random.default_rng(seed)
    by_cat: dict[int, list[LabeledSentence]] = {}
    for s in corpus.sentences:
        by_cat.setdefault(s.category, []).append(s)
    kept = []
    for cat in sorted(by_cat):
        pool = by_cat[cat]
        if len(pool) < per_category:
            raise DataError(
                f"category {cat} has {len(pool)} sentences, need {per_category}"
            )
        idx = rng.choice(len(pool), size=per_category, replace=False)
        kept.extend(pool[i] for i in sorted(idx))
    return LabeledCorpus(sentences=kept, num_categories=corpus.num_categories,
                         provenance=f"{corpus.provenance}|sub{per_category}s{seed}")


ICQ_VARIANTS = ("1c", "2c", "5c", "10c")
ICQ_PRODUCTS = 5
ICQ_SENTIMENTS = 2
ICQ_PER_CELL = 1000


def build_icq_variant(base: LabeledCorpus, variant: str) -> LabeledCorpus:
    """Relabel the 10-cell base (5 products x 2 sentiments, 1000 sentences per
    cell) into 1, 2, 5, or 10 categories.

    The base labels cells as ``product * 2 + sentiment``. Relabeling keeps the
    sample list and vocabulary identical across variants: 1C collapses all
    cells, 2C keeps sentiment only, 5C keeps product only, 10C keeps cells.
    """
    variant = variant.lower().removeprefix("icq-")
    if variant not in ICQ_VARIANTS:
        raise ConfigurationError(f"unknown icq variant {variant!r}")
    cells = ICQ_PRODUCTS * ICQ_SENTIMENTS
    counts = Counter(s.category for s in base.sentences)
    if base.num_categories != cells or set(counts) != set(range(cells)) or any(
        counts[c] != ICQ_PER_CELL for c in range(cells)
    ):
        raise DataError(
            f"icq base must have exactly {cells} cells of {ICQ_PER_CELL} "
            f"sentences each, got counts {dict(sorted(counts.items()))}"
        )
    if variant == "1c":
        relabel, k = (lambda cell: 0), 1
    elif variant == "2c":
        relabel, k = (lambda cell: cell % ICQ_SENTIMENTS), ICQ_SENTIMENTS
    elif variant == "5c":
        relabel, k = (lambda cell: cell // ICQ_SENTIMENTS), ICQ_PRODUCTS
    else:
        relabel, k = (lambda cell: cell), cells
    sentences = [
        LabeledSentence(tokens=s.tokens, category=relabel(s.category))
        for s in base.sentences
    ]
    return LabeledCorpus(sentences=sentences, num_categories=k,
                         provenance=f"ICQ-{variant.upper()}")


ICA_PER_PRODUCT = 2000


def build_ica_series(products: LabeledCorpus, k: int) -> LabeledCorpus:
    """Take the first k products (labels 0..k-1) with their first 2000
    sentences each, preserving file order so each series member is a strict
    superset of the smaller ones with identical labels."""
    if k < 2 or k > products.num_categories:
        raise ConfigurationError(
            f"k must be in [2, {products.num_categories}], got {k}"
        )
    by_product: dict[int, list[LabeledSentence]] = {}
    for s in products.sentences:
        by_product.setdefault(s.category, []).append(s)
    sentences = []
    for product in range(k):
        pool = by_product.get(product, [])
        if len(pool) < ICA_PER_PRODUCT:
            raise DataError(
                f"product {product} has {len(pool)} sentences, "
                f"need {ICA_PER_PRODUCT}"
            )
        sentences.extend(pool[:ICA_PER_PRODUCT])
    return LabeledCorpus(sentences=sentences, num_categories=k,
                         provenance=f"ICA-{k}C")


def make_synthetic_corpus(num_categories: int, per_category: int,
                          vocab_per_category: int, len_range: tuple[int, int],
                          seed: int) -> LabeledCorpus:
    """Random sentences drawn from disjoint per-category vocabularies.

    Words are named ``c<cat>w<idx>`` so membership alone identifies the
    category and a word-membership oracle classifier is exact.
    """
    lo, hi = len_range
    if lo < 1 or hi < lo:
        raise ConfigurationError(f"bad length range {len_range}")
    rng = np.random.default_rng(seed)
    sentences = []
    for cat in range(num_categories):
        words = [f"c{cat}w{i}" for i in range(vocab_per_category)]
        for _ in range(per_category):
            n = int(rng.integers(lo, hi + 1))
            idx = rng.integers(0, vocab_per_category, size=n)
            sentences.append(
                LabeledSentence(tokens=tuple(words[i] for i in idx), category=cat)
            )
    return LabeledCorpus(sentences=sentences, num_categories=num_categories,
                         provenance=f"synthetic-k{num_categories}-s{seed}")


def word_membership_oracle(corpus: LabeledCorpus):
    """Classifier from word identity alone, valid when per-category
    vocabularies are disjoint. Returns tokens -> (category | None for ties or
    fully unknown sentences)."""
    owner: dict[str, int] = {}
    for s in corpus.sentences:
        for tok in s.tokens:
            prev = owner.setdefault(tok, s.category)
            if prev != s.category:
                raise ConfigurationError(
                    f"word {tok!r} appears in categories {prev} and {s.category}"
                )

    def classify(tokens) -> int | None:
        votes = Counter(owner[t] for t in tokens if t in owner)
        if not votes:
            return None
        ranked = votes.most_common(2)
        if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
            return None
        return ranked[0][0]

    return classify


def oracle_category_accuracy(samples: list[tuple[list[str], int]], classify) -> float:
    """Fraction of samples whose oracle class equals the intended category;
    ties and unknowns count half, matching random tie-breaking in expectation."""
    if not samples:
        raise DataError("no samples to score")
    credit = 0.0
    for tokens, intended in samples:
        got = classify(tokens)
        if got is None:
            credit += 0.5
        elif got == intended:
            credit += 1.0
    return credit / len(samples)
