"""Optimizer behavior, epoch loop determinism, and checkpoint persistence."""

import builtins
import hashlib
import io
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from catvrnn.errors import DataError
from catvrnn.numeric import ParamStore, Rng
from catvrnn.model import CatVrnnParams, ModelConfig, forward_teacher, generate
from catvrnn.data import (
    Vocabulary,
    atomic_write_text,
    build_vocabulary,
    encode_batch,
    make_synthetic_corpus,
    save_corpus,
    write_json,
)
from catvrnn.evaluation import EvalClassifier, train_eval_classifier
from catvrnn import training
from catvrnn.training import (
    CHECKPOINT_VERSION,
    AdamState,
    Checkpoint,
    TrainPlan,
    adam_step,
    checkpoint_digest,
    load_checkpoint,
    run_training,
    save_checkpoint,
    train_epoch,
)


def tiny_cfg(**kw):
    base = dict(vocab_size=14, num_categories=2, embed_dim=10, hidden_dim=8,
                latent_dim=4, max_len=6, init_mode="static")
    base.update(kw)
    return ModelConfig(**base)


def tiny_corpus_arrays(cfg, rows, cats):
    inputs = np.full((len(rows), cfg.max_len), 0, dtype=np.int64)
    targets = np.full((len(rows), cfg.max_len), 0, dtype=np.int64)
    for i, row in enumerate(rows):
        inputs[i, 1: 1 + len(row)] = row[: cfg.max_len - 1]
        targets[i, : len(row)] = row
    return inputs, targets, np.asarray(cats, dtype=np.int64)


# --- adam_step ----------------------------------------------------------------


def test_adam_zero_gradient_leaves_parameters_unchanged():
    store = ParamStore([("w", np.array([1.0, -2.0, 3.0]))])
    state = AdamState(store)
    before = store["w"].copy()
    adam_step(store, np.zeros(3), state)
    np.testing.assert_array_equal(store["w"], before)


def test_adam_first_step_magnitude_is_lr():
    store = ParamStore([("w", np.array([0.0]))])
    state = AdamState(store, lr=1e-3)
    adam_step(store, np.array([2.5]), state)
    # bias-corrected first step moves by ~ -lr * sign(g)
    assert abs(store["w"][0] + 1e-3) < 1e-9
    store2 = ParamStore([("w", np.array([0.0]))])
    adam_step(store2, np.array([-0.01]), AdamState(store2, lr=1e-3))
    assert abs(store2["w"][0] - 1e-3) < 1e-9


def test_adam_optimizes_scalar_quadratic_and_matches_reference():
    store = ParamStore([("w", np.array([0.0]))])
    w = store["w"]
    state = AdamState(store, lr=0.1)

    # independent reference: scalar Adam recurrence with plain floats
    ref_w, ref_m, ref_v = 0.0, 0.0, 0.0
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.1
    trajectory = []
    for t in range(1, 101):
        g = 2.0 * (ref_w - 3.0)
        ref_m = b1 * ref_m + (1 - b1) * g
        ref_v = b2 * ref_v + (1 - b2) * g * g
        mhat = ref_m / (1 - b1 ** t)
        vhat = ref_v / (1 - b2 ** t)
        ref_w -= lr * mhat / (math.sqrt(vhat) + eps)
        trajectory.append(ref_w)

    for t in range(100):
        g = 2.0 * (w - 3.0)
        adam_step(store, g.copy(), state)
        assert abs(w[0] - trajectory[t]) < 1e-12
    assert abs(w[0] - 3.0) < 0.5


def reference_adam(params, grads, m, v, lr, beta1, beta2, eps, step):
    """Adam over per-tensor arrays, as one loop over the tensors: the
    formula ``adam_step`` runs over the store's one buffer."""
    bc1 = 1.0 - beta1 ** step
    bc2 = 1.0 - beta2 ** step
    for p, g, mt, vt in zip(params, grads, m, v):
        mt *= beta1
        mt += (1.0 - beta1) * g
        vt *= beta2
        vt += (1.0 - beta2) * (g * g)
        p -= lr * (mt / bc1) / (np.sqrt(vt / bc2) + eps)


@pytest.mark.parametrize("chunk", [training.ADAM_CHUNK, 7])   # 7: pieces cut tensors
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_flat_adam_equals_the_per_tensor_formula_bit_for_bit(dtype, chunk, monkeypatch):
    monkeypatch.setattr(training, "ADAM_CHUNK", chunk)
    rng = np.random.default_rng(6)
    shapes = [(4, 3), (5,), (2, 2, 2)]
    store = ParamStore((f"t{i}", rng.normal(size=shape).astype(dtype))
                       for i, shape in enumerate(shapes))
    state = AdamState(store, lr=0.01)
    ref = [store[name].copy() for name in store.names()]
    ref_m = [np.zeros_like(p) for p in ref]
    ref_v = [np.zeros_like(p) for p in ref]
    for step in range(1, 6):
        grads = [rng.normal(size=shape).astype(dtype) for shape in shapes]
        grads[0][0, :] = -0.0  # signed zeros, and a row that stays at zero
        grads[1][::2] *= 1e-3
        reference_adam(ref, grads, ref_m, ref_v, 0.01, 0.9, 0.999, 1e-8, step)
        adam_step(store, np.concatenate([g.reshape(-1) for g in grads]), state)
        for name, p, m, v in zip(store.names(), ref, ref_m, ref_v):
            assert store[name].dtype == dtype
            assert store[name].tobytes() == p.tobytes(), (name, step)
            assert state.m[name].tobytes() == m.tobytes(), (name, step)
            assert state.v[name].tobytes() == v.tobytes(), (name, step)


# --- gradient clipping -------------------------------------------------------------


def test_clip_grads_scales_an_aliased_pair_once():
    # two tensors with the same gradient, (1.5, 2) each: the gradient, laid
    # out like the store's buffer, is clipped once, to a global norm of 1
    store = ParamStore([("a", np.zeros(2)), ("b", np.zeros(2))])
    state = AdamState(store)
    training.optimizer_step(store, np.array([1.5, 2.0, 1.5, 2.0]), state, grad_clip=1.0)
    # the first moment is (1 - beta1) times the clipped gradient
    clipped = np.array([3.0, 4.0]) / math.sqrt(50.0)
    np.testing.assert_allclose(state.m["a"], 0.1 * clipped, rtol=1e-12)
    np.testing.assert_allclose(state.m["b"], 0.1 * clipped, rtol=1e-12)


def test_clip_grads_accepts_read_only_views():
    # a (2, 2) tensor whose gradient is 1 everywhere, a global norm of 2:
    # each element is clipped to 0.5
    store = ParamStore([("w", np.zeros((2, 2)))])
    state = AdamState(store)
    training.optimizer_step(store, np.ones(4), state, grad_clip=1.0)
    np.testing.assert_allclose(state.m["w"], np.full((2, 2), 0.1 * 0.5), rtol=1e-12)


# --- train_epoch ------------------------------------------------------------------


def run_one_epoch(seed=0, **cfg_kw):
    cfg = tiny_cfg(**cfg_kw)
    rng = Rng(seed)
    params = CatVrnnParams(cfg, rng)
    inputs, targets, cats = tiny_corpus_arrays(
        cfg, [[2, 3, 4], [5, 6], [7, 8, 9, 10], [11, 12]], [0, 1, 0, 1])
    plan = TrainPlan(epochs=1, batch_size=2)
    state = AdamState.from_plan(params.store, plan)
    stats = train_epoch(inputs, targets, cats, params, state, cfg, rng, 1, plan)
    return stats, params


def test_train_epoch_deterministic():
    s1, p1 = run_one_epoch(seed=3)
    s2, p2 = run_one_epoch(seed=3)
    assert s1 == s2
    assert p1.store.layout() == p2.store.layout()
    np.testing.assert_array_equal(p1.store.flat, p2.store.flat)


def test_train_epoch_rejects_empty():
    cfg = tiny_cfg()
    params = CatVrnnParams(cfg, Rng(0))
    plan = TrainPlan(epochs=1, batch_size=2)
    state = AdamState.from_plan(params.store, plan)
    empty = np.zeros((0, cfg.max_len), dtype=np.int64)
    with pytest.raises(DataError):
        train_epoch(empty, empty, np.zeros(0, dtype=np.int64), params, state,
                    cfg, Rng(0), 1, plan)


def test_detached_zero_classifier_reports_log_k():
    # classifier head frozen at its zero initialization and excluded from the
    # total: the classification NLL stays exactly log K
    cfg = tiny_cfg(use_classification=False)
    rng = Rng(1)
    params = CatVrnnParams(cfg, rng)
    params.store["cls.w"][:] = 0.0
    params.store["cls.b"][:] = 0.0
    inputs, targets, cats = tiny_corpus_arrays(cfg, [[2, 3], [4, 5]], [0, 1])
    plan = TrainPlan(epochs=1, batch_size=2)
    state = AdamState.from_plan(params.store, plan)
    for epoch in range(1, 4):
        stats = train_epoch(inputs, targets, cats, params, state, cfg, rng,
                            epoch, plan)
        assert abs(stats.mean_cls_nll - math.log(2)) < 1e-12


def test_memorization_two_sentences():
    cfg = tiny_cfg()
    rng = Rng(7)
    params = CatVrnnParams(cfg, rng)
    inputs, targets, cats = tiny_corpus_arrays(
        cfg, [[2, 3, 4, 5], [6, 7, 8, 9]], [0, 1])
    plan = TrainPlan(epochs=150, batch_size=2, lr=5e-3)
    state = AdamState.from_plan(params.store, plan)
    first = None
    last = None
    for epoch in range(1, 151):
        stats = train_epoch(inputs, targets, cats, params, state, cfg, rng,
                            epoch, plan)
        if epoch == 1:
            first = stats.mean_gen_nll
        last = stats.mean_gen_nll
    assert last < 0.1 * first, (first, last)


def test_loss_decreases_on_synthetic_corpus():
    corpus = make_synthetic_corpus(2, 30, 8, (3, 5), seed=5)
    vocab = build_vocabulary(corpus)
    cfg = ModelConfig(vocab_size=len(vocab), num_categories=2, embed_dim=12,
                      hidden_dim=10, latent_dim=4, max_len=6)
    rng = Rng(2)
    params = CatVrnnParams(cfg, rng)
    batch = encode_batch(corpus.sentences, vocab, cfg.max_len)
    plan = TrainPlan(epochs=40, batch_size=16)
    state = AdamState.from_plan(params.store, plan)
    totals = []
    for epoch in range(1, 41):
        stats = train_epoch(batch.inputs, batch.targets, batch.categories,
                            params, state, cfg, rng, epoch, plan)
        # the default cell scores generation and classification, not the KL
        totals.append(stats.mean_gen_nll + stats.mean_cls_nll)
    assert all(t < totals[0] for t in totals[19:])


def test_epoch_means_sum_float32_terms_in_float64(monkeypatch):
    cfg = tiny_cfg(dtype="float32", use_kl_term=True)
    rng = Rng(6)
    params = CatVrnnParams(cfg, rng)
    inputs, targets, cats = tiny_corpus_arrays(
        cfg, [[2, 3, 4], [5, 6], [7, 8, 9, 10], [11, 12], [3, 5, 7], [9]],
        [0, 1, 0, 1, 0, 1])
    plan = TrainPlan(epochs=1, batch_size=3)
    state = AdamState.from_plan(params.store, plan)
    batches = []

    def capture(*args, **kwargs):
        batches.append(training_loss_and_grad(*args, **kwargs))
        return batches[-1]

    training_loss_and_grad = training.loss_and_grad
    monkeypatch.setattr(training, "loss_and_grad", capture)
    stats = train_epoch(inputs, targets, cats, params, state, cfg, rng, 1, plan)
    assert len(batches) == 2
    for mean_name, term in (("mean_gen_nll", "gen_nll"), ("mean_cls_nll", "cls_nll"),
                            ("mean_kl", "kl")):
        assert getattr(batches[0], term).dtype == np.float32
        wide = sum(getattr(b, term).astype(np.float64).sum() for b in batches)
        np.testing.assert_allclose(getattr(stats, mean_name), wide / len(inputs),
                                   rtol=1e-15)


def test_an_epoch_holds_one_batch_tape_at_a_time():
    # desk shape, 32-sentence batches: with each batch's forward and
    # backward arrays freed before the next batch, two batches peak no
    # higher than one
    corpus = make_synthetic_corpus(2, 32, 50, (5, 12), seed=11)
    vocab = build_vocabulary(corpus)
    cfg = ModelConfig(vocab_size=len(vocab), num_categories=2, embed_dim=48,
                      hidden_dim=128, latent_dim=16, max_len=13)
    batch = encode_batch(corpus.sentences, vocab, cfg.max_len)
    plan = TrainPlan(epochs=1, batch_size=32)

    def peak(n):
        rng = Rng(0)
        params = CatVrnnParams(cfg, rng)
        state = AdamState.from_plan(params.store, plan)
        tracemalloc.start()
        try:
            train_epoch(batch.inputs[:n], batch.targets[:n], batch.categories[:n],
                        params, state, cfg, rng, 1, plan)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, two = peak(32), peak(64)
    assert two <= 1.1 * one, (one / 2**20, two / 2**20)


# --- checkpoints -------------------------------------------------------------------


def trained_setup(tmp_path, epochs=3):
    cfg = tiny_cfg()
    rng = Rng(4)
    params = CatVrnnParams(cfg, rng)
    inputs, targets, cats = tiny_corpus_arrays(
        cfg, [[2, 3, 4], [5, 6, 7]], [0, 1])
    plan = TrainPlan(epochs=epochs, batch_size=2)
    adam = AdamState.from_plan(params.store, plan)
    for epoch in range(1, epochs + 1):
        train_epoch(inputs, targets, cats, params, adam, cfg, rng, epoch, plan)
    return cfg, params, adam, rng


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg, params, adam, rng = trained_setup(tmp_path)
    ckpt = Checkpoint.capture(params, epoch=3, vocab_digest="digest", rng=rng,
                              adam=adam)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)

    assert loaded.epoch == 3
    assert loaded.vocab_digest == "digest"
    assert loaded.config == cfg
    rebuilt = loaded.build_params()
    for name in params.store.names():
        np.testing.assert_array_equal(rebuilt.store[name], params.store[name])
        np.testing.assert_array_equal(loaded.adam_m[name], adam.m[name])
        np.testing.assert_array_equal(loaded.adam_v[name], adam.v[name])
    rebuilt_adam = loaded.build_adam(rebuilt.store)
    assert rebuilt_adam.step == adam.step
    for name in adam.m:
        np.testing.assert_array_equal(rebuilt_adam.m[name], adam.m[name])
        np.testing.assert_array_equal(rebuilt_adam.v[name], adam.v[name])


def test_checkpoint_forward_pass_identical_after_reload(tmp_path):
    cfg, params, adam, rng = trained_setup(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, Checkpoint.capture(params, 3, "d", rng=rng, adam=adam))
    loaded = load_checkpoint(path)
    params2 = loaded.build_params()
    x = np.zeros((1, cfg.max_len), dtype=np.int64)
    a = forward_teacher(x, 0, params, cfg, Rng(9), train_mode=False)
    b = forward_teacher(x, 0, params2, cfg, Rng(9), train_mode=False)
    for l1, l2 in zip(a.logits, b.logits):
        np.testing.assert_array_equal(l1, l2)


def test_checkpoint_corruption_detected(tmp_path):
    cfg, params, adam, rng = trained_setup(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, Checkpoint.capture(params, 3, "d", rng=rng, adam=adam))
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="digest"):
        load_checkpoint(path)


def test_checkpoint_truncation_detected(tmp_path):
    cfg, params, adam, rng = trained_setup(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, Checkpoint.capture(params, 3, "d", rng=rng, adam=adam))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(DataError):
        load_checkpoint(path)


def rewrite_container(path, edit):
    """Rewrite the container at ``path`` with ``edit(header, body)`` applied,
    which returns the new body, and the digest recomputed, so that only the
    edit is wrong."""
    raw = path.read_bytes()
    (size,) = struct.unpack("<Q", raw[:8])
    header = json.loads(raw[8: 8 + size])
    body = edit(header, raw[8 + size:])
    header["sha256"] = training._digest(header, body)
    header_bytes = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(struct.pack("<Q", len(header_bytes)) + header_bytes + body)


@pytest.mark.parametrize("kind, version", [
    ("model", 1), ("classifier", 1),    # every file of the per-gate layout
    ("model", 2), ("classifier", 2),    # every file with widths and betas
    ("model", 3), ("classifier", 3),    # every file of one blob per tensor
    ("model", CHECKPOINT_VERSION + 1),
])
def test_checkpoint_version_mismatch(tmp_path, kind, version):
    path = tmp_path / kind
    if kind == "model":
        cfg, params, adam, rng = trained_setup(tmp_path)
        save_checkpoint(path, Checkpoint.capture(params, 3, "d", rng=rng, adam=adam))
        load = load_checkpoint
    else:
        corpus = make_synthetic_corpus(2, 20, 8, (5, 7), seed=3)
        train_eval_classifier(corpus, seed=1, epochs=1).save(path)
        load = EvalClassifier.load
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[:8])
    header = json.loads(raw[8: 8 + hlen])
    assert header["format_version"] == CHECKPOINT_VERSION
    header["format_version"] = version
    header_bytes = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(struct.pack("<Q", len(header_bytes)) + header_bytes + raw[8 + hlen:])
    with pytest.raises(DataError, match=f"unsupported format version {version}"):
        load(path)


@pytest.mark.parametrize("cut", [
    lambda body, itemsize: body[: len(body) // 3 * 2],
    lambda body, itemsize: body + bytes(5 * itemsize),
], ids=["missing", "misshaped"])
def test_resume_rejects_optimizer_moments_that_do_not_fit_the_store(tmp_path, cut):
    # a body without Adam's second moment, or with elements past it, is a
    # data error naming the file, raised when the file is read rather than
    # inside the first adam_step
    cfg, params, adam, rng = trained_setup(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, Checkpoint.capture(params, 3, "d", rng=rng, adam=adam))
    rewrite_container(path, lambda header, body: cut(body, 8))
    with pytest.raises(DataError, match=rf"{path}: a body of \d+ bytes, "
                                        rf"expected 3 x {params.store.flat.size} float64"):
        load_checkpoint(path)


CREATED = "2026-01-02T03:04:05Z"


def reference_container_bytes(meta, layout, sections):
    """The container laid out tensor by tensor: each section's tensors cut by
    ``layout`` and cast to little endian one at a time, joined in order (the
    body format 3 wrote), with ``CREATED`` as the time and the digest of the
    header without it and the body."""
    dtype = sections[0].dtype.newbyteorder("<")
    chunks = []
    for section in sections:
        lo = 0
        for _, shape in layout:
            size = math.prod(shape)
            chunks.append(np.ascontiguousarray(section).reshape(-1)[lo: lo + size]
                          .astype(dtype).tobytes())
            lo += size
    body = b"".join(chunks)
    header = dict(meta, format_version=CHECKPOINT_VERSION, layout=layout,
                  dtype=dtype.name)
    digest = hashlib.sha256(json.dumps(header, sort_keys=True).encode("utf-8"))
    digest.update(body)
    header.update(created=CREATED, sha256=digest.hexdigest())
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    return struct.pack("<Q", len(header_bytes)) + header_bytes + body


def test_container_bytes_match_the_copying_writer(tmp_path, monkeypatch):
    # the timestamp pinned, a model checkpoint, a classifier file and odd
    # bodies (transposed, big-endian; a 0-d and an empty tensor) are byte for
    # byte the reference layout
    monkeypatch.setattr(training.time, "strftime", lambda *_: CREATED)
    written = []
    real = training.write_container

    def recording(path, meta, layout, body):
        written.append((path, meta, layout, np.atleast_2d(body)))
        real(path, meta, layout, body)

    monkeypatch.setattr(training, "write_container", recording)
    cfg, params, adam, rng = trained_setup(tmp_path)
    save_checkpoint(tmp_path / "model.ckpt",
                    Checkpoint.capture(params, 3, "d", rng=rng, adam=adam))
    monkeypatch.setattr("catvrnn.evaluation.write_container", recording)
    corpus = make_synthetic_corpus(2, 20, 8, (5, 7), seed=3)
    train_eval_classifier(corpus, seed=1, epochs=1).save(tmp_path / "clf.bin")
    odd = [["t", [2]], ["s", []], ["e", [0, 3]]]
    recording(tmp_path / "t.bin", {"kind": "odd"}, odd, np.arange(6.0).reshape(3, 2).T)
    recording(tmp_path / "big.bin", {"kind": "odd"}, odd,
              np.arange(3, dtype=">f4").reshape(1, 3))

    assert [path.name for path, *_ in written] == ["model.ckpt", "clf.bin", "t.bin",
                                                   "big.bin"]
    for path, meta, layout, sections in written:
        ref = tmp_path / f"{path.name}.ref"
        ref.write_bytes(reference_container_bytes(meta, layout, sections))
        assert path.read_bytes() == ref.read_bytes(), path.name
        assert checkpoint_digest(path) == checkpoint_digest(ref)
    loaded = load_checkpoint(tmp_path / "model.ckpt").build_params()
    for name in params.store.names():
        np.testing.assert_array_equal(loaded.store[name], params.store[name])


def test_capture_without_a_plan_round_trips(tmp_path):
    # an in-memory snapshot without a plan, saved, loaded and saved again,
    # keeps its digest, parameters and moments bit for bit
    cfg, params, adam, rng = trained_setup(tmp_path)
    first, again = tmp_path / "first.ckpt", tmp_path / "again.ckpt"
    save_checkpoint(first, Checkpoint.capture(params, 3, "d", rng, adam))
    loaded = load_checkpoint(first)
    save_checkpoint(again, loaded)
    assert checkpoint_digest(first) == checkpoint_digest(again)
    assert loaded.plan is None
    assert loaded.build_params().store.flat.tobytes() == params.store.flat.tobytes()
    for name in adam.m:
        assert loaded.adam_m[name].tobytes() == adam.m[name].tobytes()
        assert loaded.adam_v[name].tobytes() == adam.v[name].tobytes()


def test_generation_identical_before_save_and_after_load(tmp_path):
    cfg, params, adam, rng = trained_setup(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, Checkpoint.capture(params, 3, "d", rng=rng, adam=adam))
    before = generate(0, 12, params, cfg, Rng(31))
    after = generate(0, 12, load_checkpoint(path).build_params(), cfg, Rng(31))
    assert before == after


def test_resume_equals_uninterrupted_run(tmp_path):
    cfg = tiny_cfg()
    corpus = make_synthetic_corpus(2, 12, 6, (2, 4), seed=8)
    vocab = build_vocabulary(corpus)
    cfg = ModelConfig(vocab_size=len(vocab), num_categories=2, embed_dim=8,
                      hidden_dim=6, latent_dim=4, max_len=5)
    batch = encode_batch(corpus.sentences, vocab, cfg.max_len)
    plan = TrainPlan(epochs=6, batch_size=4)

    # uninterrupted
    rng_a = Rng(10)
    params_a = CatVrnnParams(cfg, rng_a)
    dir_a = tmp_path / "a"
    dir_a.mkdir()
    run_training(batch.inputs, batch.targets, batch.categories, params_a, cfg,
                 plan, rng_a, vocab.digest(), checkpoint_dir=dir_a, save_every=0)

    # interrupted at epoch 3, then resumed
    rng_b = Rng(10)
    params_b = CatVrnnParams(cfg, rng_b)
    dir_b = tmp_path / "b"
    dir_b.mkdir()
    plan_half = TrainPlan(epochs=3, batch_size=4)
    run_training(batch.inputs, batch.targets, batch.categories, params_b, cfg,
                 plan_half, rng_b, vocab.digest(), checkpoint_dir=dir_b)
    mid = load_checkpoint(dir_b / "epoch_0003.ckpt")
    params_c = mid.build_params()
    adam_c = mid.build_adam(params_c.store)
    rng_c = Rng(0)
    rng_c.set_state(mid.rng_state)
    dir_c = tmp_path / "c"
    dir_c.mkdir()
    run_training(batch.inputs, batch.targets, batch.categories, params_c, cfg,
                 plan, rng_c, vocab.digest(), start_epoch=mid.epoch, adam=adam_c,
                 checkpoint_dir=dir_c)

    assert checkpoint_digest(dir_a / "epoch_0006.ckpt") == checkpoint_digest(
        dir_c / "epoch_0006.ckpt")
    gen_a = generate(1, 8, params_a, cfg, Rng(77))
    gen_c = generate(1, 8, params_c, cfg, Rng(77))
    assert gen_a == gen_c


def test_metrics_stream_appends_one_json_per_epoch(tmp_path):
    corpus = make_synthetic_corpus(2, 8, 5, (2, 3), seed=1)
    vocab = build_vocabulary(corpus)
    cfg = ModelConfig(vocab_size=len(vocab), num_categories=2, embed_dim=6,
                      hidden_dim=5, latent_dim=3, max_len=4)
    batch = encode_batch(corpus.sentences, vocab, cfg.max_len)
    rng = Rng(3)
    params = CatVrnnParams(cfg, rng)
    metrics = tmp_path / "metrics.jsonl"
    run_training(batch.inputs, batch.targets, batch.categories, params, cfg,
                 TrainPlan(epochs=4, batch_size=4), rng, vocab.digest(),
                 metrics_path=metrics)
    lines = metrics.read_text().splitlines()
    assert len(lines) == 4
    parsed = [json.loads(l) for l in lines]
    assert [p["epoch"] for p in parsed] == [1, 2, 3, 4]
    assert all("mean_gen_nll" in p for p in parsed)


def test_resumed_run_logs_each_epoch_once(tmp_path):
    corpus = make_synthetic_corpus(2, 8, 5, (2, 3), seed=1)
    vocab = build_vocabulary(corpus)
    cfg = ModelConfig(vocab_size=len(vocab), num_categories=2, embed_dim=6,
                      hidden_dim=5, latent_dim=3, max_len=4)
    batch = encode_batch(corpus.sentences, vocab, cfg.max_len)
    plan = TrainPlan(epochs=3, batch_size=4)
    metrics = tmp_path / "metrics.jsonl"
    rng = Rng(3)
    run_training(batch.inputs, batch.targets, batch.categories,
                 CatVrnnParams(cfg, rng), cfg, plan, rng, vocab.digest(),
                 checkpoint_dir=tmp_path, save_every=1, metrics_path=metrics)
    uninterrupted = metrics.read_text()
    with metrics.open("a") as f:
        f.write('{"epoch": 4, "mean_')  # a line cut short by a crash

    # resume from the first epoch's checkpoint into the same directory
    mid = load_checkpoint(tmp_path / "epoch_0001.ckpt")
    params = mid.build_params()
    rng = Rng(0)
    rng.set_state(mid.rng_state)
    run_training(batch.inputs, batch.targets, batch.categories, params, cfg, plan,
                 rng, vocab.digest(), start_epoch=mid.epoch,
                 adam=mid.build_adam(params.store), checkpoint_dir=tmp_path,
                 metrics_path=metrics)
    lines = metrics.read_text()
    assert [json.loads(l)["epoch"] for l in lines.splitlines()] == [1, 2, 3]
    assert lines == uninterrupted


def fail_writes(monkeypatch):
    """Make every file opened for writing fail after its first few bytes,
    as on a full disk."""
    real_open = io.open

    class Failing:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.f.write(data[:4])
            raise OSError(28, "No space left on device")

    def failing_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        return Failing(f) if "w" in mode else f

    monkeypatch.setattr(builtins, "open", failing_open)
    monkeypatch.setattr(io, "open", failing_open)


def test_failed_writes_leave_the_old_file_intact(tmp_path, monkeypatch):
    cfg, params, adam, rng = trained_setup(tmp_path)
    # file -> (a first write, then a second one made to fail)
    writes = {
        "model.ckpt": (
            lambda p: save_checkpoint(p, Checkpoint.capture(params, 3, "d", rng=rng,
                                                            adam=adam)),
            lambda p: save_checkpoint(p, Checkpoint.capture(params, 4, "d", rng, adam))),
        "corpus.tsv": (
            lambda p: save_corpus(p, make_synthetic_corpus(2, 4, 5, (2, 3), seed=1)),
            lambda p: save_corpus(p, make_synthetic_corpus(2, 5, 5, (2, 3), seed=2))),
        # the build-data manifest and train's run_config.json
        "manifest.json": (lambda p: write_json(p, {"seed": 1}),
                          lambda p: write_json(p, {"seed": 2})),
        "vocab.txt": (lambda p: Vocabulary(["<pad>", "<unk>", "a"]).save(p),
                      lambda p: Vocabulary(["<pad>", "<unk>", "b"]).save(p)),
        # the evaluate --out report
        "report.json": (lambda p: atomic_write_text(p, "{}\n"),
                        lambda p: atomic_write_text(p, '{"seed": 2}\n')),
    }
    for name, (first, _) in writes.items():
        first(tmp_path / name)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == sorted(writes)

    fail_writes(monkeypatch)
    for name, (_, second) in writes.items():
        with pytest.raises(OSError):
            second(tmp_path / name)
    monkeypatch.undo()

    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_float32_training_smoke():
    cfg = tiny_cfg(dtype="float32")
    rng = Rng(5)
    params = CatVrnnParams(cfg, rng)
    assert params.store.flat.dtype == np.float32
    inputs, targets, cats = tiny_corpus_arrays(cfg, [[2, 3, 4], [5, 6]], [0, 1])
    plan = TrainPlan(epochs=3, batch_size=2)
    state = AdamState.from_plan(params.store, plan)
    for epoch in range(1, 4):
        stats = train_epoch(inputs, targets, cats, params, state, cfg, rng,
                            epoch, plan)
        assert np.isfinite(stats.mean_gen_nll)
    assert params.store.flat.dtype == np.float32
