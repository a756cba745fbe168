"""End-to-end command-line behavior: builders, training, generation,
evaluation, gradient checking, config precedence, and exit codes."""

import dataclasses
import json
import re
import struct

import numpy as np
import pytest

from catvrnn import cli, numeric
from catvrnn.cli import main
from catvrnn.data import (
    build_vocabulary,
    load_corpus,
    make_synthetic_corpus,
    save_corpus,
)
from catvrnn.data import LabeledCorpus, LabeledSentence
from catvrnn.evaluation import ClassifierConfig, EvalClassifier
from catvrnn.model import ModelConfig
from catvrnn import training
from catvrnn.training import TrainPlan, checkpoint_digest, load_checkpoint, save_checkpoint


def run_cli(*argv):
    return main(list(argv))


def rewrite_header(source, dest, edit):
    """Copy the container ``source`` to ``dest`` with ``edit`` applied to its
    JSON header and the digest recomputed (unless ``edit`` dropped it), so
    that only the edit is wrong; the body stays as written."""
    raw = source.read_bytes()
    (size,) = struct.unpack("<Q", raw[:8])
    header = json.loads(raw[8:8 + size])
    edit(header)
    if "sha256" in header:
        header["sha256"] = training._digest(header, raw[8 + size:])
    text = json.dumps(header).encode("utf-8")
    dest.write_bytes(struct.pack("<Q", len(text)) + text + raw[8 + size:])


@pytest.fixture(scope="module")
def synth_corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synthetic.tsv"
    code = run_cli(
        "build-data", "--synthetic", "--categories", "2", "--per-category", "30",
        "--vocab-per-category", "10", "--len-range", "3:6", "--seed", "5",
        "--output", str(path),
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, synth_corpus_file):
    out = tmp_path_factory.mktemp("run")
    code = run_cli(
        "train", "--corpus", str(synth_corpus_file), "--out", str(out),
        "--epochs", "3", "--batch-size", "16", "--init", "static",
        "--embed-dim", "10", "--hidden-dim", "8", "--latent-dim", "4",
        "--max-len", "7", "--seed", "3",
    )
    assert code == 0
    return out


# --- build-data -----------------------------------------------------------------


def test_build_data_synthetic_manifest(synth_corpus_file):
    manifest = json.loads(
        (synth_corpus_file.parent / "synthetic.tsv.manifest.json").read_text())
    assert manifest["num_sentences"] == 60
    assert manifest["category_counts"] == [30, 30]
    assert manifest["seed"] == 5
    corpus = load_corpus(synth_corpus_file)
    assert len(corpus) == 60


def test_build_data_missing_input_exits_nonzero(tmp_path):
    code = run_cli("build-data", "--input", str(tmp_path / "nope.tsv"),
                   "--output", str(tmp_path / "out.tsv"))
    assert code == 2


def test_build_data_filter_len_matches_scan(tmp_path):
    src = tmp_path / "src.tsv"
    lengths = [3, 15, 22, 30, 31, 9, 16]
    rows = [f"0\t{' '.join(['w'] * n)}" for n in lengths]
    src.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "filtered.tsv"
    code = run_cli("build-data", "--input", str(src), "--output", str(out),
                   "--filter-len", "15:30")
    assert code == 0
    manifest = json.loads((tmp_path / "filtered.tsv.manifest.json").read_text())
    assert manifest["num_sentences"] == sum(1 for n in lengths if 15 <= n <= 30)


def test_build_data_icq_variant(tmp_path):
    base = tmp_path / "icq_base.tsv"
    sentences = []
    for cell in range(10):
        for i in range(1000):
            sentences.append(LabeledSentence((f"cell{cell}", f"w{i % 5}"), cell))
    save_corpus(base, LabeledCorpus(sentences=sentences, num_categories=10))
    out = tmp_path / "icq10.tsv"
    code = run_cli("build-data", "--input", str(base), "--variant", "icq-10c",
                   "--output", str(out))
    assert code == 0
    manifest = json.loads((tmp_path / "icq10.tsv.manifest.json").read_text())
    assert manifest["num_categories"] == 10
    assert manifest["category_counts"] == [1000] * 10

    out2 = tmp_path / "icq2.tsv"
    assert run_cli("build-data", "--input", str(base), "--variant", "icq-2c",
                   "--output", str(out2)) == 0
    manifest2 = json.loads((tmp_path / "icq2.tsv.manifest.json").read_text())
    assert manifest2["category_counts"] == [5000, 5000]


def test_build_data_usage_error_exit_code(tmp_path):
    assert run_cli("build-data", "--output", str(tmp_path / "x.tsv")) == 1


# --- train ------------------------------------------------------------------------


def test_train_writes_artifacts(trained_run):
    assert (trained_run / "vocab.txt").exists()
    assert (trained_run / "epoch_0003.ckpt").exists()
    metrics = (trained_run / "metrics.jsonl").read_text().splitlines()
    assert len(metrics) == 3
    config = json.loads((trained_run / "run_config.json").read_text())
    assert config["seed"] == 3
    assert config["model"]["init_mode"] == "static"
    assert config["model"]["static_omega"] == 8.5


def test_train_rejects_overlong_corpus(tmp_path, synth_corpus_file):
    code = run_cli(
        "train", "--corpus", str(synth_corpus_file), "--out", str(tmp_path),
        "--epochs", "1", "--max-len", "3",
        "--embed-dim", "6", "--hidden-dim", "5", "--latent-dim", "3",
    )
    assert code == 2


def test_train_init_none_runs(tmp_path, synth_corpus_file):
    code = run_cli(
        "train", "--corpus", str(synth_corpus_file), "--out", str(tmp_path),
        "--epochs", "1", "--batch-size", "16", "--init", "none",
        "--embed-dim", "8", "--hidden-dim", "6", "--latent-dim", "3",
        "--max-len", "7", "--seed", "0",
    )
    assert code == 0
    config = json.loads((tmp_path / "run_config.json").read_text())
    assert config["model"]["init_mode"] == "none"


def test_train_resume_with_nothing_left_is_usage_error(tmp_path, trained_run,
                                                      synth_corpus_file):
    out = tmp_path / "resumed"
    code = run_cli(
        "train", "--corpus", str(synth_corpus_file), "--out", str(out),
        "--resume", str(trained_run / "epoch_0003.ckpt"), "--epochs", "3",
        "--max-len", "7",
    )
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize("init_mode", ["static", "none"])
def test_train_two_category_init_on_three_categories_is_usage_error(tmp_path,
                                                                   init_mode):
    corpus_path = tmp_path / "three.tsv"
    save_corpus(corpus_path, make_synthetic_corpus(3, 6, 5, (2, 4), seed=1))
    out = tmp_path / "run"
    code = run_cli(
        "train", "--corpus", str(corpus_path), "--out", str(out), "--epochs", "1",
        "--init", init_mode, "--embed-dim", "6", "--hidden-dim", "5",
        "--latent-dim", "3", "--max-len", "6",
    )
    assert code == 1
    assert not out.exists()


def test_train_resume_rejects_model_options_that_differ(tmp_path, trained_run,
                                                        synth_corpus_file, capsys):
    resume = ("train", "--corpus", str(synth_corpus_file), "--epochs", "4",
              "--resume", str(trained_run / "epoch_0003.ckpt"))
    cfg_file = tmp_path / "kl.cfg"
    cfg_file.write_text("use_kl = true\n")
    for differing in (("--hidden-dim", "16"), ("--init", "adaptive"),
                      ("--config", str(cfg_file))):
        out = tmp_path / "rejected"
        assert run_cli(*resume, "--out", str(out), *differing) == 1
        assert not out.exists()
    err = capsys.readouterr().err
    assert "hidden_dim = 16 (checkpoint: 8)" in err
    assert "use_kl = True (checkpoint: False)" in err
    # options that agree with the checkpoint, or none at all, resume as before
    for agreeing in ((), ("--hidden-dim", "8", "--init", "static")):
        out = tmp_path / f"resumed{len(agreeing)}"
        assert run_cli(*resume, "--out", str(out), *agreeing) == 0
        assert (out / "epoch_0004.ckpt").exists()


def test_train_resume_prints_the_checkpoint_options(tmp_path, trained_run,
                                                    synth_corpus_file, capsys):
    cfg_file = tmp_path / "resume.cfg"
    cfg_file.write_text("omega = 8.5\n")
    out = tmp_path / "resumed"
    assert run_cli("train", "--corpus", str(synth_corpus_file), "--out", str(out),
                   "--epochs", "4", "--resume", str(trained_run / "epoch_0003.ckpt"),
                   "--latent-dim", "4", "--config", str(cfg_file)) == 0
    printed = capsys.readouterr().out
    # flags > file > checkpoint > defaults
    for line in ("embed_dim = 10 (checkpoint)", "hidden_dim = 8 (checkpoint)",
                 "max_len = 7 (checkpoint)", "init = static (checkpoint)",
                 "latent_dim = 4 (flag)", "omega = 8.5 (file)",
                 "batch_size = 16 (checkpoint)", "grad_clip = None (checkpoint)",
                 "epochs = 4 (flag)"):
        assert line in printed
    assert (out / "epoch_0004.ckpt").exists()


def test_train_resume_continues_the_checkpoint_training_plan(tmp_path,
                                                              synth_corpus_file):
    model = ("--embed-dim", "10", "--hidden-dim", "8", "--latent-dim", "4",
             "--max-len", "7", "--seed", "3", "--batch-size", "8", "--grad-clip", "0.5",
             "--lr", "0.002")
    corpus = ("train", "--corpus", str(synth_corpus_file))
    whole, first, resumed = tmp_path / "whole", tmp_path / "first", tmp_path / "resumed"
    assert run_cli(*corpus, "--out", str(whole), "--epochs", "2", *model) == 0
    assert run_cli(*corpus, "--out", str(first), "--epochs", "1", *model) == 0
    # the batch size, grad clip and lr come from the checkpoint, not the defaults
    assert run_cli(*corpus, "--out", str(resumed), "--epochs", "2",
                   "--resume", str(first / "epoch_0001.ckpt")) == 0
    assert (checkpoint_digest(resumed / "epoch_0002.ckpt")
            == checkpoint_digest(whole / "epoch_0002.ckpt"))
    config = json.loads((resumed / "run_config.json").read_text())
    assert config["plan"] == json.loads((whole / "run_config.json").read_text())["plan"]


@pytest.mark.parametrize("line", ["garbage", "[1, 2]", '{"loss": 1.0}',
                                  '{"epoch": "2"}'],
                         ids=["not-json", "not-an-object", "no-epoch", "string-epoch"])
def test_train_resume_stops_at_a_damaged_metrics_line(tmp_path, trained_run,
                                                      synth_corpus_file, capsys, line):
    out = tmp_path / "run"
    out.mkdir()
    metrics = out / "metrics.jsonl"
    metrics.write_text((trained_run / "metrics.jsonl").read_text() + line + "\n",
                       encoding="utf-8")
    code = run_cli("train", "--corpus", str(synth_corpus_file), "--out", str(out),
                   "--epochs", "4", "--resume", str(trained_run / "epoch_0003.ckpt"))
    assert code == 2
    assert f"data error: {metrics}: line 4 " in capsys.readouterr().err
    assert not (out / "epoch_0004.ckpt").exists()


def test_train_resume_without_a_recorded_plan_needs_the_plan_flags(tmp_path, trained_run,
                                                                   synth_corpus_file,
                                                                   capsys):
    planless = tmp_path / "planless.ckpt"
    save_checkpoint(planless, dataclasses.replace(
        load_checkpoint(trained_run / "epoch_0003.ckpt"), plan=None))
    resume = ("train", "--corpus", str(synth_corpus_file), "--epochs", "4",
              "--resume", str(planless))
    assert run_cli(*resume, "--out", str(tmp_path / "rejected")) == 1
    err = capsys.readouterr().err
    assert "usage error:" in err and "--batch-size and --lr" in err
    assert not (tmp_path / "rejected").exists()
    assert run_cli(*resume, "--out", str(tmp_path / "resumed"),
                   "--batch-size", "16", "--lr", "1e-3") == 0


@pytest.mark.parametrize("flag", [("--lr", "-0.01"), ("--lr", "0"),
                                  ("--grad-clip", "0"), ("--grad-clip", "-1")])
def test_train_rejects_a_non_positive_lr_or_grad_clip(tmp_path, synth_corpus_file,
                                                      capsys, flag):
    out = tmp_path / "run"
    code = run_cli("train", "--corpus", str(synth_corpus_file), "--out", str(out),
                   "--epochs", "1", "--embed-dim", "6", "--hidden-dim", "5",
                   "--latent-dim", "3", "--max-len", "7", *flag)
    assert code == 1
    assert "configuration error:" in capsys.readouterr().err
    assert not out.exists()


def test_train_resume_reads_the_checkpoint_once(tmp_path, trained_run,
                                                synth_corpus_file, monkeypatch):
    reads = []

    def counted(path):
        reads.append(path)
        return load_checkpoint(path)

    monkeypatch.setattr(cli, "load_checkpoint", counted)
    out = tmp_path / "resumed"
    assert run_cli("train", "--corpus", str(synth_corpus_file), "--out", str(out),
                   "--epochs", "4",
                   "--resume", str(trained_run / "epoch_0003.ckpt")) == 0
    assert len(reads) == 1
    assert (out / "epoch_0004.ckpt").exists()


# --- generate -----------------------------------------------------------------------


def test_generate_deterministic_and_counted(tmp_path, trained_run, synth_corpus_file):
    ckpt = trained_run / "epoch_0003.ckpt"
    out1 = tmp_path / "gen1.tsv"
    out2 = tmp_path / "gen2.tsv"
    for out in (out1, out2):
        code = run_cli(
            "generate", "--checkpoint", str(ckpt), "--vocab",
            str(trained_run / "vocab.txt"), "--out", str(out),
            "-n", "20", "-c", "0,1", "--seed", "9",
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 40
    cats = {int(l.split("\t")[0]) for l in lines if "\t" in l}
    assert cats <= {0, 1}


def test_generate_rejects_out_of_range_category(tmp_path, trained_run):
    code = run_cli(
        "generate", "--checkpoint", str(trained_run / "epoch_0003.ckpt"),
        "--vocab", str(trained_run / "vocab.txt"),
        "--out", str(tmp_path / "g.tsv"), "-n", "2", "-c", "5",
    )
    assert code == 1


def test_generate_rejects_malformed_category_list(tmp_path, trained_run, capsys):
    code = run_cli(
        "generate", "--checkpoint", str(trained_run / "epoch_0003.ckpt"),
        "--vocab", str(trained_run / "vocab.txt"),
        "--out", str(tmp_path / "g.tsv"), "-n", "2", "-c", "a",
    )
    assert code == 1
    assert "usage error:" in capsys.readouterr().err
    assert not (tmp_path / "g.tsv").exists()


def test_generate_detects_vocab_mismatch(tmp_path, trained_run):
    other = make_synthetic_corpus(2, 5, 4, (2, 3), seed=99)
    other_path = tmp_path / "other.tsv"
    save_corpus(other_path, other)
    code = run_cli(
        "generate", "--checkpoint", str(trained_run / "epoch_0003.ckpt"),
        "--corpus", str(other_path), "--out", str(tmp_path / "g.tsv"), "-n", "2",
    )
    assert code == 2


def test_generate_missing_checkpoint(tmp_path):
    code = run_cli("generate", "--checkpoint", str(tmp_path / "none.ckpt"),
                   "--vocab", str(tmp_path / "v.txt"),
                   "--out", str(tmp_path / "g.tsv"))
    assert code == 2


def test_generate_counts_empty_samples_and_evaluate_scores_them(tmp_path, trained_run,
                                                                 synth_corpus_file):
    # one checkpoint, seed and -n: the same category accuracy whether evaluate
    # samples or reads generate's TSV, whose header counts the empty samples
    ckpt = str(trained_run / "epoch_0003.ckpt")
    generated = tmp_path / "gen.tsv"
    assert run_cli("generate", "--checkpoint", ckpt, "--vocab",
                   str(trained_run / "vocab.txt"), "--out", str(generated),
                   "-n", "40", "--seed", "4") == 0
    counts = [json.loads(line[len("# empty="):])
              for line in generated.read_text().splitlines()
              if line.startswith("# empty=")]
    assert len(counts) == 1 and sum(counts[0]) > 0
    reports = []
    for source in (["--checkpoint", ckpt, "--samples", "40"],
                   ["--generated", str(generated)]):
        path = tmp_path / f"report{len(reports)}.json"
        assert run_cli("evaluate", "--corpus", str(synth_corpus_file), *source,
                       "--out", str(path), "--classifier-epochs", "3",
                       "--seed", "4") == 0
        reports.append(json.loads(path.read_text()))
    assert reports[0]["category_accuracy"] == reports[1]["category_accuracy"]
    assert reports[0]["bleu_f"] == reports[1]["bleu_f"]


# --- evaluate ------------------------------------------------------------------------


def test_evaluate_self_copied_training_set_bleu_f_is_one(tmp_path, synth_corpus_file):
    report_path = tmp_path / "report.json"
    code = run_cli(
        "evaluate", "--corpus", str(synth_corpus_file), "--generated",
        str(synth_corpus_file), "--out", str(report_path),
        "--classifier-epochs", "3", "--seed", "1",
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    for n in ("2", "3", "4", "5"):
        assert report["bleu_f"][n] == pytest.approx(1.0, abs=1e-12)
    assert report["config"]["command_options"]["seed"] == 1
    assert report["perplexity"] is None


def test_evaluate_model_checkpoint_full_report(tmp_path, trained_run, synth_corpus_file):
    report_path = tmp_path / "report.json"
    code = run_cli(
        "evaluate", "--checkpoint", str(trained_run / "epoch_0003.ckpt"),
        "--corpus", str(synth_corpus_file), "--out", str(report_path),
        "--samples", "10", "--classifier-epochs", "3", "--seed", "2",
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["perplexity"] >= 1.0
    assert 0.0 <= report["category_accuracy"] <= 1.0
    assert report["config"]["hidden_dim"] == 8
    assert report["n_samples_per_category"] == 10


@pytest.mark.parametrize("with_checkpoint", [False, True])
def test_evaluate_generated_reports_no_sample_count(tmp_path, trained_run,
                                                     synth_corpus_file, with_checkpoint):
    # --generated samples were not drawn by evaluate, so --samples counts nothing
    model = (["--checkpoint", str(trained_run / "epoch_0003.ckpt")]
             if with_checkpoint else [])
    report_path = tmp_path / "report.json"
    code = run_cli(
        "evaluate", "--corpus", str(synth_corpus_file), "--generated",
        str(synth_corpus_file), "--out", str(report_path), "--samples", "10",
        "--classifier-epochs", "1", *model,
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["n_samples_per_category"] is None
    assert (report["perplexity"] is not None) == with_checkpoint


def test_evaluate_requires_model_or_generated(tmp_path, synth_corpus_file):
    assert run_cli("evaluate", "--corpus", str(synth_corpus_file)) == 1


def test_evaluate_zero_samples_fails_before_the_classifier_fit(tmp_path, trained_run,
                                                               synth_corpus_file):
    clf_path = tmp_path / "eval.clf"
    code = run_cli(
        "evaluate", "--checkpoint", str(trained_run / "epoch_0003.ckpt"),
        "--corpus", str(synth_corpus_file), "--samples", "0",
        "--save-classifier", str(clf_path), "--classifier-epochs", "1",
    )
    assert code == 1
    assert not clf_path.exists()


def test_evaluate_classifier_file_missing_a_tensor(tmp_path, synth_corpus_file,
                                                   capsys):
    corpus = load_corpus(synth_corpus_file)
    vocab = build_vocabulary(corpus)
    full = tmp_path / "full.clf"
    EvalClassifier(ClassifierConfig(len(vocab), corpus.num_categories, max_len=7),
                   vocab).save(full)
    partial = tmp_path / "partial.clf"
    rewrite_header(full, partial, lambda header: header["layout"].pop())
    code = run_cli("evaluate", "--corpus", str(synth_corpus_file),
                   "--generated", str(synth_corpus_file),
                   "--classifier", str(partial))
    assert code == 2
    assert (f"data error: {partial}: damaged header: layout entry 6 is None, "
            "the store's is ['head.b', [2]]") in capsys.readouterr().err


def never_sample(monkeypatch):
    def sample(*args, **kwargs):
        raise AssertionError("evaluate sampled before reading the classifier")

    monkeypatch.setattr(cli, "sample_categories", sample)


@pytest.mark.parametrize("source", ["checkpoint", "generated"])
def test_evaluate_rejects_a_classifier_of_another_category_count(
        tmp_path, trained_run, synth_corpus_file, capsys, monkeypatch, source):
    # a 3-category classifier scoring the 2-category corpus, and a
    # 2-category one scoring a 3-category corpus, could never predict some
    # of the corpus's categories, or would predict ones it does not have
    corpus = load_corpus(synth_corpus_file)
    vocab = build_vocabulary(corpus)
    clf_path = tmp_path / "other.clf"
    if source == "checkpoint":
        clf_categories, corpus_path = 3, synth_corpus_file
        argv = ("--checkpoint", str(trained_run / "epoch_0003.ckpt"),
                "--vocab", str(trained_run / "vocab.txt"))
    else:
        clf_categories, corpus_path = 2, tmp_path / "three.tsv"
        save_corpus(corpus_path, LabeledCorpus(
            sentences=[*corpus.sentences, LabeledSentence(("w0",), 2)],
            num_categories=3))
        argv = ("--generated", str(corpus_path))
    EvalClassifier(ClassifierConfig(len(vocab), clf_categories, max_len=7),
                   vocab).save(clf_path)
    never_sample(monkeypatch)
    code = run_cli("evaluate", "--corpus", str(corpus_path), *argv,
                   "--classifier", str(clf_path), "--out", str(tmp_path / "r.json"))
    assert code == 2
    assert f"data error: {clf_path}: a classifier of {clf_categories} categories" \
        in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_evaluate_reads_a_damaged_classifier_before_sampling(tmp_path, trained_run,
                                                            synth_corpus_file, capsys,
                                                            monkeypatch):
    corpus = load_corpus(synth_corpus_file)
    vocab = build_vocabulary(corpus)
    full = tmp_path / "full.clf"
    EvalClassifier(ClassifierConfig(len(vocab), corpus.num_categories, max_len=7),
                   vocab).save(full)
    damaged = tmp_path / "damaged.clf"
    damaged.write_bytes(full.read_bytes()[:-10])
    never_sample(monkeypatch)
    code = run_cli("evaluate", "--checkpoint", str(trained_run / "epoch_0003.ckpt"),
                   "--vocab", str(trained_run / "vocab.txt"),
                   "--corpus", str(synth_corpus_file), "--classifier", str(damaged))
    assert code == 2
    assert f"data error: {damaged}" in capsys.readouterr().err


def test_evaluate_save_classifier_next_to_classifier_is_a_usage_error(tmp_path,
                                                                      capsys):
    # nothing exists: a file read first would exit 2
    saved = tmp_path / "saved.clf"
    code = run_cli("evaluate", "--corpus", str(tmp_path / "none.tsv"),
                   "--generated", str(tmp_path / "none.tsv"),
                   "--classifier", str(tmp_path / "none.clf"),
                   "--save-classifier", str(saved))
    assert code == 1
    assert "usage error: --save-classifier" in capsys.readouterr().err
    assert not saved.exists()


def test_generate_checkpoint_missing_a_tensor(tmp_path, trained_run, capsys):
    def drop_gru_b(header):
        header["layout"] = [entry for entry in header["layout"] if entry[0] != "gru.b"]

    partial = tmp_path / "partial.ckpt"
    rewrite_header(trained_run / "epoch_0003.ckpt", partial, drop_gru_b)
    code = run_cli("generate", "--checkpoint", str(partial),
                   "--vocab", str(trained_run / "vocab.txt"),
                   "--out", str(tmp_path / "gen.tsv"))
    assert code == 2
    assert "the store's is ['gru.b', [24]]" in capsys.readouterr().err


@pytest.mark.parametrize("kind, edit", [
    ("model", lambda header: header["config"].update(unknown=1)),
    ("classifier", lambda header: header["config"].update(unknown=1)),
    ("model", lambda header: header.pop("epoch")),
    ("model", lambda header: header["plan"].update(unknown=1)),
    ("model", lambda header: header["plan"].update(epochs=0)),
    ("model", lambda header: header["adam"].pop("step")),
    # valid JSON that is not an object: the header's text, not an edit
    ("model", "[1, 2]"),
    ("classifier", "[1, 2]"),
], ids=["config-key", "classifier-config-key", "no-epoch", "plan-key", "plan-epochs",
        "no-adam-step", "not-an-object", "classifier-not-an-object"])
def test_damaged_header_is_a_data_error_naming_the_file(tmp_path, trained_run,
                                                        synth_corpus_file, capsys,
                                                        kind, edit):
    damaged = tmp_path / "damaged"
    if kind == "model":
        source = trained_run / "epoch_0003.ckpt"
        argv = ("generate", "--checkpoint", str(damaged),
                "--vocab", str(trained_run / "vocab.txt"),
                "--out", str(tmp_path / "gen.tsv"))
    else:
        corpus = load_corpus(synth_corpus_file)
        vocab = build_vocabulary(corpus)
        source = tmp_path / "full.clf"
        EvalClassifier(ClassifierConfig(len(vocab), corpus.num_categories, max_len=7),
                       vocab).save(source)
        argv = ("evaluate", "--corpus", str(synth_corpus_file),
                "--generated", str(synth_corpus_file), "--classifier", str(damaged))
    if isinstance(edit, str):
        raw = source.read_bytes()
        (size,) = struct.unpack("<Q", raw[:8])
        damaged.write_bytes(struct.pack("<Q", len(edit)) + edit.encode() + raw[8 + size:])
    else:
        rewrite_header(source, damaged, edit)
    assert run_cli(*argv) == 2
    assert f"data error: {damaged}: damaged header" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda header: header.pop("sha256"), "digest mismatch"),
    (lambda header: header.pop("layout"), "damaged header: keys missing ['layout']"),
    (lambda header: header["layout"][0].pop(0), "damaged header: layout entry 0"),
    (lambda header: header.pop("dtype"), "damaged header: keys missing ['dtype']"),
    (lambda header: header["layout"][0].pop(1), "damaged header: layout entry 0"),
    (lambda header: header.update(dtype="float99"), "damaged header: dtype 'float99'"),
], ids=["no-body-sha256", "no-manifest", "no-name", "no-dtype", "no-shape",
        "unknown-dtype"])
def test_damaged_container_header_is_a_data_error_naming_the_file(tmp_path, trained_run,
                                                                  capsys, edit, message):
    # the digest, the layout (format 3's manifest) and the dtype
    damaged = tmp_path / "damaged.ckpt"
    rewrite_header(trained_run / "epoch_0003.ckpt", damaged, edit)
    code = run_cli("generate", "--checkpoint", str(damaged),
                   "--vocab", str(trained_run / "vocab.txt"),
                   "--out", str(tmp_path / "gen.tsv"))
    assert code == 2
    assert f"data error: {damaged}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("state", [
    {"bit_generator": "MT19937", "state": {"key": [0] * 624, "pos": 0}},
    "not a state",
], ids=["other-generator", "string"])
def test_resume_from_a_damaged_rng_state_is_a_data_error_naming_the_file(
        tmp_path, trained_run, synth_corpus_file, capsys, state):
    damaged = tmp_path / "damaged.ckpt"
    rewrite_header(trained_run / "epoch_0003.ckpt", damaged,
                   lambda header: header["rng"]["streams"].update(latent=state))
    out = tmp_path / "run"
    code = run_cli("train", "--resume", str(damaged), "--corpus",
                   str(synth_corpus_file), "--out", str(out), "--epochs", "4")
    assert code == 2
    assert f"data error: {damaged}: damaged header" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dtype", ["float32", "int64"])
@pytest.mark.parametrize("kind", ["model", "classifier"])
def test_a_tensor_of_another_dtype_is_a_data_error_naming_it(
        tmp_path, trained_run, synth_corpus_file, capsys, kind, dtype):
    # the digest still holds: the header alone says how to read the body
    damaged = tmp_path / "damaged"
    if kind == "model":
        source = trained_run / "epoch_0003.ckpt"
        argv = ("generate", "--checkpoint", str(damaged),
                "--vocab", str(trained_run / "vocab.txt"),
                "--out", str(tmp_path / "gen.tsv"))
    else:
        corpus = load_corpus(synth_corpus_file)
        vocab = build_vocabulary(corpus)
        source = tmp_path / "full.clf"
        EvalClassifier(ClassifierConfig(len(vocab), corpus.num_categories, max_len=7),
                       vocab).save(source)
        argv = ("evaluate", "--corpus", str(synth_corpus_file),
                "--generated", str(synth_corpus_file), "--classifier", str(damaged))

    rewrite_header(source, damaged, lambda header: header.update(dtype=dtype))
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert f"data error: {damaged}: damaged header: dtype '{dtype}', expected float64" in err


@pytest.mark.parametrize("reader", ["corpus", "vocab", "generated", "config"])
def test_a_file_that_is_not_utf8_is_a_data_error_naming_it(tmp_path, trained_run,
                                                          synth_corpus_file, capsys,
                                                          reader):
    bad = tmp_path / "bad"
    source = {"corpus": synth_corpus_file, "vocab": trained_run / "vocab.txt",
              "generated": synth_corpus_file}.get(reader)
    text = source.read_bytes() if source else b"seed = 1\n"
    bad.write_bytes(text + b"\xff\n")
    argv = {
        "corpus": ("train", "--corpus", str(bad), "--out", str(tmp_path / "run")),
        "vocab": ("generate", "--checkpoint", str(trained_run / "epoch_0003.ckpt"),
                  "--vocab", str(bad), "--out", str(tmp_path / "gen.tsv")),
        "generated": ("evaluate", "--corpus", str(synth_corpus_file),
                      "--generated", str(bad)),
        "config": ("train", "--config", str(bad), "--corpus", str(synth_corpus_file),
                   "--out", str(tmp_path / "run")),
    }[reader]
    assert run_cli(*argv) == 2
    assert f"data error: {bad}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("damage", [
    lambda tokens: tokens + tokens[-1:],
    lambda tokens: tokens[1:],
], ids=["duplicate-token", "no-specials"])
def test_damaged_vocab_file_is_a_data_error_naming_it(tmp_path, trained_run, capsys,
                                                      damage):
    vocab = tmp_path / "vocab.txt"
    tokens = (trained_run / "vocab.txt").read_text(encoding="utf-8").splitlines()
    vocab.write_text("\n".join(damage(tokens)) + "\n", encoding="utf-8")
    code = run_cli("generate", "--checkpoint", str(trained_run / "epoch_0003.ckpt"),
                   "--vocab", str(vocab), "--out", str(tmp_path / "gen.tsv"))
    assert code == 2
    assert f"data error: {vocab}: vocabulary" in capsys.readouterr().err


def test_evaluate_rejects_a_corpus_with_more_categories_than_the_model(
        tmp_path, trained_run, synth_corpus_file, capsys, monkeypatch):
    # the model has 2 categories; the corpus adds a sentence of category 2
    three = tmp_path / "three.tsv"
    save_corpus(three, LabeledCorpus(
        sentences=[*load_corpus(synth_corpus_file).sentences,
                   LabeledSentence(("w0",), 2)], num_categories=3))

    def sample(*args, **kwargs):
        raise AssertionError("evaluate sampled before checking the corpus")

    monkeypatch.setattr(cli, "sample_categories", sample)
    code = run_cli("evaluate", "--checkpoint", str(trained_run / "epoch_0003.ckpt"),
                   "--vocab", str(trained_run / "vocab.txt"), "--corpus", str(three))
    assert code == 2
    assert f"data error: {three}: 3 categories" in capsys.readouterr().err


def test_evaluate_generated_rejects_empty_counts_past_the_corpus_categories(
        tmp_path, synth_corpus_file, capsys):
    # the corpus has 2 categories; counts for categories 2 and 3 name none
    generated = tmp_path / "gen.tsv"
    generated.write_text("# empty=[0, 0, 3, 4]\n" + synth_corpus_file.read_text(),
                         encoding="utf-8")
    code = run_cli("evaluate", "--corpus", str(synth_corpus_file),
                   "--generated", str(generated), "--classifier-epochs", "1")
    assert code == 2
    assert f"data error: {generated}: '# empty=' needs a list of at most 2 counts" \
        in capsys.readouterr().err


def test_every_config_field_is_set_by_an_option_or_the_corpus():
    # a field that no option sets and the corpus does not determine is a
    # setting no run can reach
    def names(cls):
        return tuple(f.name for f in dataclasses.fields(cls))

    assert set(names(ModelConfig)) == {*cli.MODEL_OPTIONS.values(), "vocab_size",
                                       "num_categories"}
    assert names(TrainPlan) == cli.PLAN_OPTIONS
    assert names(ClassifierConfig) == ("vocab_size", "num_categories", "max_len")


@pytest.mark.parametrize("flag", [("--bleu-cap", "0"), ("--bleu-cap", "-1"),
                                  ("--classifier-epochs", "0")])
def test_evaluate_rejects_a_cap_or_epochs_below_one_before_loading(tmp_path,
                                                                   synth_corpus_file,
                                                                   capsys, flag):
    # a missing checkpoint would exit 2 if evaluate read it first
    code = run_cli("evaluate", "--corpus", str(synth_corpus_file),
                   "--checkpoint", str(tmp_path / "none.ckpt"),
                   "--out", str(tmp_path / "report.json"), *flag)
    assert code == 1
    assert "usage error:" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


# --- grad-check -----------------------------------------------------------------------


def test_grad_check_passes_and_corrupt_fails(capsys):
    assert run_cli("grad-check", "--max-checks", "60") == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "static" in out and "adaptive+kl" in out
    assert "scoring classifier (V=12, T=5):\n  PASS:" in out
    # every tensor of each variant's store and of the classifier's is checked
    counts = re.findall(r"^      (\d+)/(\d+) tensors checked$", out, flags=re.M)
    assert len(counts) == len(cli.GRAD_CHECK_VARIANTS) + 1
    assert all(checked == total for checked, total in counts), counts
    assert run_cli("grad-check", "--max-checks", "40", "--corrupt-backward") == 3
    assert "scoring classifier (V=12, T=5):\n  FAIL:" in capsys.readouterr().out


def test_grad_check_fails_on_a_wrong_classifier_gradient(monkeypatch, capsys):
    original = cli.EvalClassifier.loss_and_grad

    def skewed(self, ids, targets, dropout_rng, grad):
        loss = original(self, ids, targets, dropout_rng, grad)
        self.store.views(grad)["conv.w"][...] *= 1.001
        return loss

    monkeypatch.setattr(cli.EvalClassifier, "loss_and_grad", skewed)
    assert run_cli("grad-check", "--max-checks", "40") == 3
    out = capsys.readouterr().out
    # the model's variants still pass
    assert out.count(": PASS") == len(cli.GRAD_CHECK_VARIANTS)
    assert "scoring classifier (V=12, T=5):\n  FAIL:" in out


@pytest.mark.parametrize("variant, tensor", [
    ("static", "cls.b"), ("adaptive", "init.bias"), ("classifier", "head.w"),
])
def test_grad_check_fails_on_a_wrong_gradient_of_a_small_tensor(monkeypatch, capsys,
                                                               variant, tensor):
    # a uniform sample of 256 elements missed each of these tensors; every
    # tensor's quota of elements catches its gradient reversed and tripled
    if variant == "classifier":
        original = cli.EvalClassifier.loss_and_grad

        def wrong(self, ids, targets, dropout_rng, grad):
            loss = original(self, ids, targets, dropout_rng, grad)
            self.store.views(grad)[tensor][...] *= -3.0
            return loss

        monkeypatch.setattr(cli.EvalClassifier, "loss_and_grad", wrong)
        failing = "scoring classifier (V=12, T=5):\n  FAIL:"
    else:
        original = cli.loss_and_grad

        def wrong(x_ids, targets, c, params, cfg, rng, grad):
            out = original(x_ids, targets, c, params, cfg, rng, grad)
            if cfg == cli.grad_check_config(variant):
                params.store.views(grad)[tensor][...] *= -3.0
            return out

        monkeypatch.setattr(cli, "loss_and_grad", wrong)
        failing = f"  {variant}: FAIL:"
    assert run_cli("grad-check") == 3
    out = capsys.readouterr().out
    assert failing in out and out.count("FAIL:") == 1


def test_grad_check_fails_when_training_and_sampling_paths_diverge(monkeypatch,
                                                                  capsys):
    original = cli.forward_stepwise

    def skewed(*args, **kwargs):
        fwd = original(*args, **kwargs)
        return dataclasses.replace(fwd, logits=fwd.logits * 1.001)

    assert run_cli("grad-check", "--max-checks", "20") == 0
    out = capsys.readouterr().out
    assert out.count("forward_teacher vs _step fold") == len(cli.GRAD_CHECK_VARIANTS)
    # the gradients still check, but the skewed cell that generate runs no
    # longer matches the teacher-forced pass that training runs
    monkeypatch.setattr(cli, "forward_stepwise", skewed)
    assert run_cli("grad-check", "--max-checks", "20") == 3
    out = capsys.readouterr().out
    assert out.count(": PASS") == len(cli.GRAD_CHECK_VARIANTS)
    assert "overall: FAIL" in out


# --- parameters by name ------------------------------------------------------------


def test_the_program_never_builds_a_parameter_handle(tmp_path, synth_corpus_file,
                                                     monkeypatch):
    # every weight is read as store[name] and every gradient written through
    # the store's views of it; only the benchmark builds numeric.Tensor handles
    def refuse(self, data):
        raise AssertionError("a numeric.Tensor handle was built")

    monkeypatch.setattr(numeric.Tensor, "__init__", refuse)
    corpus, run = str(synth_corpus_file), tmp_path / "run"
    assert run_cli("train", "--corpus", corpus, "--out", str(run), "--epochs", "1",
                   "--batch-size", "16", "--init", "adaptive", "--use-kl",
                   "--feature-extractors", "--embed-dim", "6", "--hidden-dim", "5",
                   "--latent-dim", "3", "--max-len", "7") == 0
    ckpt, vocab = str(run / "epoch_0001.ckpt"), str(run / "vocab.txt")
    assert run_cli("train", "--corpus", corpus, "--out", str(run), "--epochs", "2",
                   "--resume", ckpt) == 0
    generated, clf = str(tmp_path / "gen.tsv"), str(tmp_path / "eval.clf")
    assert run_cli("generate", "--checkpoint", ckpt, "--vocab", vocab, "--out",
                   generated, "-n", "4") == 0
    # a classifier fit, sampling and perplexity, and the classifier saved
    assert run_cli("evaluate", "--checkpoint", ckpt, "--vocab", vocab, "--corpus",
                   corpus, "--samples", "4", "--classifier-epochs", "1",
                   "--save-classifier", clf) == 0
    assert run_cli("evaluate", "--corpus", corpus, "--generated", generated,
                   "--classifier", clf) == 0
    assert run_cli("grad-check", "--max-checks", "0") == 0


# --- config file precedence ----------------------------------------------------------


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("per-category = 7\nseed = 11\n", encoding="utf-8")
    out = tmp_path / "c.tsv"
    code = run_cli("build-data", "--synthetic", "--config", str(cfg_file),
                   "--seed", "3", "--vocab-per-category", "4",
                   "--len-range", "2:3", "--output", str(out))
    assert code == 0
    printed = capsys.readouterr().out
    assert "seed = 3 (flag)" in printed
    assert "per_category = 7 (file)" in printed
    assert "categories = 2 (default)" in printed
    manifest = json.loads((tmp_path / "c.tsv.manifest.json").read_text())
    assert manifest["category_counts"] == [7, 7]
    assert manifest["seed"] == 3


def test_flag_equal_to_default_beats_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed = 11\n", encoding="utf-8")
    code = run_cli("build-data", "--synthetic", "--config", str(cfg_file),
                   "--seed", "0", "--per-category", "3",
                   "--output", str(tmp_path / "c.tsv"))
    assert code == 0
    assert "seed = 0 (flag)" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "c.tsv.manifest.json").read_text())
    assert manifest["seed"] == 0


def test_config_file_unknown_key_is_usage_error(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("not_a_real_option = 1\n", encoding="utf-8")
    code = run_cli("build-data", "--synthetic", "--config", str(cfg_file),
                   "--output", str(tmp_path / "c.tsv"))
    assert code == 1


def test_config_file_and_flags_build_one_checkpoint(tmp_path, synth_corpus_file):
    cfg_file = tmp_path / "omega.cfg"
    cfg_file.write_text("omega = 7\n", encoding="utf-8")
    train = ("train", "--corpus", str(synth_corpus_file), "--epochs", "1",
             "--batch-size", "16", "--embed-dim", "6", "--hidden-dim", "5",
             "--latent-dim", "3", "--max-len", "7")
    from_file, from_flag = tmp_path / "file", tmp_path / "flag"
    assert run_cli(*train, "--out", str(from_file), "--config", str(cfg_file)) == 0
    assert run_cli(*train, "--out", str(from_flag), "--omega", "7") == 0
    assert (checkpoint_digest(from_file / "epoch_0001.ckpt")
            == checkpoint_digest(from_flag / "epoch_0001.ckpt"))


@pytest.mark.parametrize("line", ["use_kl = no", "feature_extractors = off",
                                  "epochs = 1.5", "batch_size = 2.5"])
def test_config_file_value_the_option_cannot_take_is_usage_error(tmp_path,
                                                                 synth_corpus_file,
                                                                 capsys, line):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("seed = 3\n" + line + "\n", encoding="utf-8")
    out = tmp_path / "run"
    code = run_cli("train", "--corpus", str(synth_corpus_file), "--out", str(out),
                   "--config", str(cfg_file))
    assert code == 1
    assert f"usage error: {cfg_file}:2: " in capsys.readouterr().err
    assert not out.exists()


def test_config_file_switch_takes_true_or_false_in_any_case(tmp_path,
                                                            synth_corpus_file, capsys):
    cfg_file = tmp_path / "kl.cfg"
    cfg_file.write_text("use-kl = FALSE\n", encoding="utf-8")
    out = tmp_path / "run"
    assert run_cli("train", "--corpus", str(synth_corpus_file), "--out", str(out),
                   "--epochs", "1", "--batch-size", "16", "--embed-dim", "6",
                   "--hidden-dim", "5", "--latent-dim", "3", "--max-len", "7",
                   "--config", str(cfg_file)) == 0
    assert "use_kl = False (file)" in capsys.readouterr().out
    config = json.loads((out / "run_config.json").read_text())
    assert config["model"]["use_kl_term"] is False


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_train_numeric_failure_exit_code(tmp_path, synth_corpus_file):
    # an absurd learning rate overflows the parameters into non-finite loss
    old = np.seterr(all="ignore")
    try:
        code = run_cli(
            "train", "--corpus", str(synth_corpus_file), "--out", str(tmp_path),
            "--epochs", "30", "--batch-size", "16", "--lr", "1e200",
            "--embed-dim", "8", "--hidden-dim", "6", "--latent-dim", "3",
            "--max-len", "7", "--seed", "0",
        )
    finally:
        np.seterr(**old)
    assert code == 3


def test_evaluate_memorized_toy_model_perplexity(tmp_path, capsys):
    corpus = tmp_path / "mem.tsv"
    corpus.write_text(
        "0\talpha beta gamma delta\n"
        "0\talpha beta gamma delta\n"
        "1\tred green blue white\n"
        "1\tred green blue white\n", encoding="utf-8")
    run = tmp_path / "run"
    assert run_cli("train", "--corpus", str(corpus), "--out", str(run),
                   "--epochs", "500", "--batch-size", "4", "--lr", "5e-3",
                   "--embed-dim", "12", "--hidden-dim", "12", "--latent-dim",
                   "4", "--max-len", "6", "--seed", "2") == 0
    report_path = tmp_path / "report.json"
    assert run_cli("evaluate", "--checkpoint", str(run / "epoch_0500.ckpt"),
                   "--corpus", str(corpus), "--out", str(report_path),
                   "--samples", "20", "--classifier-epochs", "5",
                   "--seed", "3") == 0
    report = json.loads(report_path.read_text())
    assert report["perplexity"] <= 1.1
    assert report["config"]["command_options"]["samples"] == 20
