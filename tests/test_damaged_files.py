"""Every damaged model checkpoint or classifier file is a data error naming
the file.

Each case derives a damaged copy of a good file, runs the command that reads
it through ``cli.main`` in process, and expects exit 2, the file's path in
the message and no traceback. Header edits are re-digested unless the case
says otherwise, so that only the edit is wrong.
"""

import hashlib
import json
import math
import struct

import pytest

from catvrnn import training
from catvrnn.cli import main
from catvrnn.data import build_vocabulary, load_corpus
from catvrnn.evaluation import ClassifierConfig, EvalClassifier


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """A model checkpoint and a classifier file, the corpus they come from,
    and the model's vocabulary file."""
    root = tmp_path_factory.mktemp("good")
    corpus = root / "corpus.tsv"
    assert main(["build-data", "--synthetic", "--categories", "2",
                 "--per-category", "12", "--vocab-per-category", "6",
                 "--len-range", "3:5", "--seed", "2", "--output", str(corpus)]) == 0
    assert main(["train", "--corpus", str(corpus), "--out", str(root / "run"),
                 "--epochs", "1", "--batch-size", "8", "--embed-dim", "6",
                 "--hidden-dim", "5", "--latent-dim", "3", "--max-len", "6"]) == 0
    labeled = load_corpus(corpus)
    vocab = build_vocabulary(labeled)
    classifier = root / "eval.clf"
    EvalClassifier(ClassifierConfig(len(vocab), labeled.num_categories, max_len=6),
                   vocab).save(classifier)
    return {"model": root / "run" / "epoch_0001.ckpt", "classifier": classifier,
            "corpus": corpus, "vocab": root / "run" / "vocab.txt"}


def split(raw: bytes) -> tuple[dict, bytes]:
    (size,) = struct.unpack("<Q", raw[:8])
    return json.loads(raw[8: 8 + size]), raw[8 + size:]


def join(header: dict, body: bytes) -> bytes:
    text = json.dumps(header).encode("utf-8")
    return struct.pack("<Q", len(text)) + text + body


def edited(edit, redigest=True):
    """The file with ``edit`` applied to its header, re-digested unless
    ``redigest`` is false or the edit dropped the digest."""
    def damage(raw):
        header, body = split(raw)
        edit(header)
        if redigest and "sha256" in header:
            header["sha256"] = training._digest(header, body)
        return join(header, body)
    return damage


def setting(key: str, value):
    """A header edit that sets the dotted ``key`` (``adam.step``, or
    ``layout.0.1.0`` with list indices) to ``value``."""
    *parents, last = [int(k) if k.isdigit() else k for k in key.split(".")]

    def edit(header):
        for parent in parents:
            header = header[parent]
        header[last] = value
    return edit


def float_size(header):
    shape = header["layout"][0][1]
    shape[0] = float(shape[0])


def dropping(key: str):
    return lambda header: header.pop(key)


def flipped(raw: bytes) -> bytes:
    damaged = bytearray(raw)
    damaged[-3] ^= 0xFF
    return bytes(damaged)


def version3(raw: bytes) -> bytes:
    """The same content as format 3 wrote it: one manifest entry with name,
    shape, dtype and offset per tensor (and per moment), a body digest."""
    header, body = split(raw)
    prefixes = ["param.", "adam.m.", "adam.v."] if header["kind"] == "model" else [""]
    itemsize = 8 if header["dtype"] == "float64" else 4
    manifest, offset = [], 0
    for prefix in prefixes:
        for name, shape in header["layout"]:
            manifest.append({"name": prefix + name, "shape": shape,
                             "dtype": header["dtype"], "offset": offset})
            offset += math.prod(shape) * itemsize
    for key in ("layout", "dtype", "sha256"):
        del header[key]
    header.update(format_version=3, manifest=manifest,
                  body_sha256=hashlib.sha256(body).hexdigest())
    return join(header, body)


MODEL_KEYS = sorted(training.CONTAINER_KEYS
                    | {"config", "epoch", "vocab_digest", "rng", "adam", "plan"})
CLASSIFIER_KEYS = sorted(training.CONTAINER_KEYS | {"config", "vocab", "val_accuracy"})

# damages both files share: the layout, the dtype and the bytes
COMMON = {
    "layout-duplicate-entry": edited(lambda h: h["layout"].insert(1, h["layout"][0])),
    "layout-drop-entry": edited(lambda h: h["layout"].pop()),
    "layout-reshape-entry": edited(lambda h: h["layout"][0][1].reverse()),
    "layout-name-not-a-string": edited(setting("layout.0.0", 3)),
    "layout-float-size": edited(float_size),
    "layout-negative-size": edited(setting("layout.0.1.0", -1)),
    "layout-not-a-list": edited(setting("layout", "embedding")),
    "dtype-int64": edited(setting("dtype", "int64")),
    "dtype-unknown": edited(setting("dtype", "float99")),
    "empty-file": lambda raw: b"",
    "cut-in-prefix": lambda raw: raw[:5],
    "cut-in-header": lambda raw: raw[: 8 + struct.unpack("<Q", raw[:8])[0] // 2],
    "cut-in-body": lambda raw: raw[:-8],
    "flipped-body-byte": flipped,
    "header-edited-not-redigested": edited(
        lambda h: h["config"].update(max_len=h["config"]["max_len"] + 1), redigest=False),
    "version-3": version3,
}

MODEL = {
    **{f"no-{key}": edited(dropping(key)) for key in MODEL_KEYS},
    "unknown-key": edited(setting("extra", 1)),
    "epoch-negative": edited(setting("epoch", -5)),
    "epoch-float": edited(setting("epoch", 1.5)),
    "epoch-bool": edited(setting("epoch", True)),
    "epoch-string": edited(setting("epoch", "1")),
    "adam-step-negative": edited(setting("adam.step", -7)),
    "adam-step-float": edited(setting("adam.step", 2.0)),
    "adam-lr-negative": edited(setting("adam.lr", -1e-3)),
    "adam-lr-zero": edited(setting("adam.lr", 0)),
    "adam-lr-string": edited(setting("adam.lr", "0.001")),
    "adam-lr-nan": edited(setting("adam.lr", float("nan"))),
    "adam-no-lr": edited(lambda h: h["adam"].pop("lr")),
    "hidden-dim-float": edited(setting("config.hidden_dim", 8.5)),
    "hidden-dim-negative": edited(setting("config.hidden_dim", -5)),
    "hidden-dim-bool": edited(setting("config.hidden_dim", True)),
    "vocab-size-zero": edited(setting("config.vocab_size", 0)),
    "max-len-string": edited(setting("config.max_len", "6")),
    "plan-epochs-float": edited(setting("plan.epochs", 1.5)),
    "plan-batch-size-bool": edited(setting("plan.batch_size", True)),
    "vocab-digest-not-a-string": edited(setting("vocab_digest", 7)),
    "rng-not-a-state": edited(setting("rng", None)),
    "rng-seed-float": edited(setting("rng.seed", 1.5)),
    "temperature-nan": edited(setting("config.temperature", float("nan"))),
    "dtype-float32": edited(setting("dtype", "float32")),
    "a-classifier-file": None,  # the good classifier file, read as a checkpoint
    **COMMON,
}

CLASSIFIER = {
    **{f"no-{key}": edited(dropping(key)) for key in CLASSIFIER_KEYS},
    "unknown-key": edited(setting("extra", 1)),
    "vocab-size-float": edited(setting("config.vocab_size", 8.5)),
    "vocab-size-negative": edited(setting("config.vocab_size", -3)),
    "num-categories-bool": edited(setting("config.num_categories", True)),
    "max-len-below-widest-filter": edited(setting("config.max_len", 2)),
    "vocab-shorter-than-vocab-size": edited(lambda h: h["vocab"].pop()),
    "dtype-float32": edited(setting("dtype", "float32")),
    "a-model-checkpoint": None,  # the good checkpoint, read as a classifier
    **COMMON,
}


def read_damaged(good, tmp_path, kind, name, damage, command="read"):
    """Write the damaged file and run the command that reads it; returns the
    exit code and the damaged file's path."""
    damaged = tmp_path / f"damaged-{name}"
    other = "classifier" if kind == "model" else "model"
    damaged.write_bytes(good[other].read_bytes() if damage is None
                        else damage(good[kind].read_bytes()))
    if kind == "classifier":
        argv = ["evaluate", "--corpus", str(good["corpus"]), "--generated",
                str(good["corpus"]), "--classifier", str(damaged)]
    elif command == "resume":
        argv = ["train", "--corpus", str(good["corpus"]), "--out", str(tmp_path / "run"),
                "--epochs", "2", "--resume", str(damaged)]
    else:
        argv = ["generate", "--checkpoint", str(damaged), "--vocab", str(good["vocab"]),
                "--out", str(tmp_path / "gen.tsv"), "--samples", "2"]
    return main(argv), damaged


CASES = [("model", name) for name in MODEL] + [("classifier", name) for name in CLASSIFIER]


@pytest.mark.parametrize("kind, name", CASES, ids=[f"{k}-{n}" for k, n in CASES])
def test_a_damaged_file_is_a_data_error_naming_it(good, tmp_path, capsys, kind, name):
    damage = (MODEL if kind == "model" else CLASSIFIER)[name]
    code, damaged = read_damaged(good, tmp_path, kind, name, damage)
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"data error: {damaged}: " in err or f"data error: cannot read {damaged}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["epoch-negative", "epoch-float", "adam-step-negative",
                                  "hidden-dim-float", "layout-duplicate-entry"])
def test_train_resume_from_a_damaged_checkpoint_is_a_data_error(good, tmp_path, capsys,
                                                                name):
    # these resumed and trained on, or stopped on a non-finite loss or a
    # traceback, while the header went unchecked
    code, damaged = read_damaged(good, tmp_path, "model", name, MODEL[name], "resume")
    assert code == 2
    assert f"data error: {damaged}: " in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("kind", ["model", "classifier"])
def test_the_good_files_are_read(good, tmp_path, kind):
    # the control: the same commands on an undamaged copy succeed
    code, _ = read_damaged(good, tmp_path, kind, "none", lambda raw: raw)
    assert code == 0
