"""Training loops: config checks, optimization, checkpoints, pipelines."""

import dataclasses
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from dgae.autodiff import Tensor
from dgae.graphs import new_graph
from dgae import autodiff as ad, cli, codec, prior, quantize, training
from dgae.training import (
    AdamState,
    AutoEncoderModel,
    ConfigError,
    MetricsWriter,
    ModelConfig,
    TrainingDiverged,
    _ae_pass,
    _lr_at,
    adam_step,
    clip_gradients,
    config_from_dict,
    decode_sequences,
    encode_sequences,
    evaluate_autoencoder,
    evaluate_prior,
    featurize_all,
    generate_graphs,
    load_checkpoint,
    load_state,
    parameters,
    save_checkpoint,
    split_dataset,
    state_arrays,
    train_autoencoder,
    train_prior,
)

from oracles import graph_from_adjacency, graphs_equal, random_adjacency


def tiny_config(**overrides):
    base = dict(node_categories=1, edge_categories=2, n_max=8, seed=3,
                holdout_frac=0.25, feat_spectral=False, feat_random=False,
                gnn_layers=1, state_width=16, mlp_hidden=32, d_latent=8,
                partitions=2, codebook_size=4, blocks=1, d_model=16, heads=2,
                batch_size=8, epochs_ae=2, epochs_prior=2, kmeans_samples=256)
    base.update(overrides)
    return ModelConfig(**base)


def random_graphs(seed, count, n_lo=4, n_hi=8, p=0.4):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(n_lo, n_hi + 1))
        out.append(graph_from_adjacency(random_adjacency(rng, n, p)))
    return out


# ---------------------------------------------------------------------------
# configuration


def test_violations_reported_together():
    cfg = tiny_config()
    cfg.lr = -1.0
    cfg.holdout_frac = 1.5
    cfg.partitions = 3        # does not divide d_latent=8
    cfg.d_model = 10          # not divisible by heads=2? it is; use heads=3
    cfg.heads = 3
    v = cfg.violations()
    assert any("lr" in s for s in v)
    assert any("holdout_frac" in s for s in v)
    assert any("partitions=3" in s for s in v)
    assert any("heads=3" in s for s in v)
    assert len(v) >= 4
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    for s in v:
        assert s in str(exc.value)


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="bogus.*extra|extra.*bogus"):
        config_from_dict({"lr": 0.1, "bogus": 1, "extra": 2})


def test_config_fields_must_have_their_type():
    # an int is a float, but a bool is neither an int nor a float
    assert config_from_dict({"lr": 1, "holdout_frac": 0}).lr == 1
    for key, value in (("blocks", 3.0), ("n_max", True), ("lr", False),
                       ("feat_paths", 1), ("seed", "5")):
        with pytest.raises(ConfigError, match=f"{key} must be of type"):
            config_from_dict({key: value})


def test_config_dict_roundtrip():
    cfg = tiny_config(lr=3e-4, beta=0.5)
    assert config_from_dict(cfg.to_dict()) == cfg


# ---------------------------------------------------------------------------
# optimizer


def test_adam_first_step_magnitude_is_lr():
    w = Tensor(np.zeros(4))
    w.grad = np.full(4, 7.0)
    state = AdamState({"w": w})
    adam_step({"w": w}, state, lr=1e-3)
    # with a constant gradient the bias-corrected ratio is g/|g|, so the
    # first update has magnitude lr up to the epsilon in the denominator
    np.testing.assert_allclose(np.abs(w.data), 1e-3, rtol=1e-6)
    assert np.all(w.data < 0)
    assert w.grad is None or not np.any(w.grad)


def test_adam_zero_gradient_leaves_parameter():
    w = Tensor(np.ones(3) * 2.5)
    w.grad = np.zeros(3)
    state = AdamState({"w": w})
    adam_step({"w": w}, state, lr=0.1)
    np.testing.assert_array_equal(w.data, np.full(3, 2.5))


def test_adam_missing_gradient_raises():
    w = Tensor(np.ones(3))
    w.grad = None
    state = AdamState({"dead.w": w})
    with pytest.raises(TrainingDiverged, match="dead.w"):
        adam_step({"dead.w": w}, state, lr=0.1)


def test_clip_gradients_scales_to_max_norm():
    a = Tensor(np.zeros(3))
    b = Tensor(np.zeros(4))
    a.grad = np.array([3.0, 0.0, 0.0])
    b.grad = np.array([0.0, 4.0, 0.0, 0.0])
    norm = clip_gradients({"a": a, "b": b}, max_norm=2.5)
    np.testing.assert_allclose(norm, 5.0)
    total = np.sqrt((a.grad ** 2).sum() + (b.grad ** 2).sum())
    np.testing.assert_allclose(total, 2.5)
    # same direction, half the length
    np.testing.assert_allclose(a.grad, [1.5, 0.0, 0.0])
    # under the threshold nothing moves
    a.grad = np.array([0.1, 0.0, 0.0])
    b.grad = np.zeros(4)
    clip_gradients({"a": a, "b": b}, max_norm=2.5)
    np.testing.assert_array_equal(a.grad, [0.1, 0.0, 0.0])


def test_clip_gradients_scales_a_shared_gradient_once():
    # add() hands one upstream gradient array to both operands, and the
    # first gradient a tensor receives is kept without a copy
    p = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    q = Tensor(np.array([0.3, 0.0, 4.0]), requires_grad=True)
    w = np.array([3.0, -1.0, 2.0])
    ad.sum_(ad.mul(ad.add(p, q), Tensor(w))).backward()
    assert p.grad is q.grad
    norm = clip_gradients({"p": p, "q": q}, max_norm=0.5)
    assert norm == pytest.approx(np.sqrt(2 * (w * w).sum()), rel=1e-15)
    np.testing.assert_array_equal(p.grad, w * (0.5 / norm))
    np.testing.assert_array_equal(q.grad, w * (0.5 / norm))


def test_lr_decay_steps_at_interval():
    cfg = tiny_config(lr=1e-3, lr_decay=0.5, decay_interval=100)
    assert _lr_at(cfg, 0) == 1e-3
    assert _lr_at(cfg, 99) == 1e-3
    assert _lr_at(cfg, 100) == 5e-4
    assert _lr_at(cfg, 199) == 5e-4
    assert _lr_at(cfg, 250) == 2.5e-4


# ---------------------------------------------------------------------------
# data plumbing


def test_split_deterministic_and_disjoint():
    cfg = tiny_config(holdout_frac=0.2, seed=11)
    tr, va = split_dataset(50, cfg)
    assert len(va) == 10 and len(tr) == 40
    assert set(tr) | set(va) == set(range(50))
    assert not set(tr) & set(va)
    tr2, va2 = split_dataset(50, cfg)
    np.testing.assert_array_equal(tr, tr2)
    np.testing.assert_array_equal(va, va2)
    tr3, _ = split_dataset(50, tiny_config(holdout_frac=0.2, seed=12))
    assert not np.array_equal(tr, tr3)


def test_featurize_all_repeatable():
    cfg = tiny_config(feat_random=True, feat_d_rand=3)
    graphs = random_graphs(7, 5)
    a = featurize_all(graphs, cfg)
    b = featurize_all(graphs, cfg)
    for ga, gb in zip(a, b):
        np.testing.assert_array_equal(ga.node_feats, gb.node_feats)
        np.testing.assert_array_equal(ga.edge_feats, gb.edge_feats)


def test_metrics_writer_format(tmp_path):
    path = tmp_path / "m.csv"
    with MetricsWriter(str(path)) as w:
        w.add(0, 3, {"loss_recon": 0.5, "node_err": 0.25})
        w.add(1, 6, {"nll": 1.25, "perplexity": 0.03125})
    assert w.f.closed
    lines = path.read_text().splitlines()
    assert lines[0] == "step,loss_recon,loss_commit,nll,perplexity,node_err,edge_err"
    assert lines[1] == "3,0.5,,,,0.25,"
    assert lines[2] == "6,,,1.25,0.03125,,"


def test_metrics_writer_keeps_the_history_and_logs_epochs_with_metrics():
    logged = []
    with MetricsWriter(None, logged.append) as w:
        w.add(0, 3, {"loss_recon": 0.5, "node_err": 0.25})
        w.add(1, 6, {})
        w.add(2, 9, {"nll": 1.0 / 3.0})
    assert w.history == [{"loss_recon": 0.5, "node_err": 0.25, "epoch": 0, "step": 3},
                         {"epoch": 1, "step": 6}, {"nll": 1.0 / 3.0, "epoch": 2, "step": 9}]
    assert logged == ["epoch 0: loss_recon=0.50000 node_err=0.25000",
                      "epoch 2: nll=0.33333"]


def test_oversized_graph_rejected():
    cfg = tiny_config(n_max=5)
    g = graph_from_adjacency(random_adjacency(np.random.default_rng(0), 7, 0.5))
    with pytest.raises(ValueError, match="exceeds n_max"):
        train_autoencoder([g] * 4, cfg)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = tiny_config()
    rng = np.random.default_rng(99)  # not the loader's seed, so the load must overwrite
    model = AutoEncoderModel(cfg, rng)
    pparams = prior.PriorParams(cfg, rng)
    model.codebooks.ema_counts[...] = rng.integers(1, 5, model.codebooks.ema_counts.shape)
    arrays = state_arrays(model.state, pparams.state)
    path = str(tmp_path / "ck.bin")
    save_checkpoint(path, cfg, arrays, step=17)
    cfg2, tensors, meta = load_checkpoint(path)
    assert cfg2 == cfg
    assert meta == {"step": 17}
    assert set(tensors) == set(arrays)
    for name, arr in arrays.items():
        np.testing.assert_array_equal(tensors[name], arr)
        assert tensors[name].dtype == arr.dtype

    _, model2, pparams2 = cli._load_models(path, need_prior=True)
    assert model2.codebooks.initialized
    for name, arr in state_arrays(model2.state, pparams2.state).items():
        np.testing.assert_array_equal(arr, arrays[name])

    save_checkpoint(str(tmp_path / "ck2.bin"), cfg, arrays, step=17)
    assert (tmp_path / "ck.bin").read_bytes() == (tmp_path / "ck2.bin").read_bytes()


def test_checkpoint_rejects_corruption(tmp_path):
    cfg = tiny_config()
    path = str(tmp_path / "ck.bin")
    save_checkpoint(path, cfg, {"w": np.arange(4.0)}, step=1)
    raw = (tmp_path / "ck.bin").read_bytes()
    (tmp_path / "bad_magic.bin").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(str(tmp_path / "bad_magic.bin"))
    (tmp_path / "trailing.bin").write_bytes(raw + b"\x01")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(str(tmp_path / "trailing.bin"))


def test_load_state_detects_mismatches(tmp_path):
    cfg = tiny_config()
    model = AutoEncoderModel(cfg, np.random.default_rng(0))
    arrays = state_arrays(model.state)
    tensors = {k: v.copy() for k, v in arrays.items()}
    first = sorted(tensors)[0]
    dropped = dict(tensors)
    del dropped[first]
    with pytest.raises(ValueError, match="missing"):
        load_state(model.state, dropped, "ck")
    extra = dict(tensors)
    extra["nonsense"] = np.zeros(3)
    with pytest.raises(ValueError, match="extra"):
        load_state(model.state, extra, "ck")
    reshaped = dict(tensors)
    reshaped[first] = np.zeros(np.asarray(tensors[first]).size + 1)
    with pytest.raises(ValueError, match="shape"):
        load_state(model.state, reshaped, "ck")


# ---------------------------------------------------------------------------
# stage 1 behavior


def test_single_graph_memorization():
    rng = np.random.default_rng(0)
    g = graph_from_adjacency(random_adjacency(rng, 6, 0.5))
    cfg = tiny_config(seed=3, holdout_frac=0.2, batch_size=4, epochs_ae=120)
    model, info = train_autoencoder([g] * 5, cfg)
    last = info["history"][-1]
    assert last["node_err"] == 0.0
    assert last["edge_err"] == 0.0
    assert last["loss_recon"] < 0.1


def test_same_seed_runs_are_identical(tmp_path):
    graphs = random_graphs(5, 12)
    runs = []
    for tag in ("a", "b"):
        cfg = tiny_config(seed=21, epochs_ae=3)
        path = tmp_path / f"metrics_{tag}.csv"
        model, info = train_autoencoder(graphs, cfg, metrics_path=str(path))
        runs.append((model, info, path.read_bytes()))
    (m1, i1, b1), (m2, i2, b2) = runs
    assert i1["history"] == i2["history"]
    assert b1 == b2
    s1, s2 = state_arrays(m1.state), state_arrays(m2.state)
    for name in s1:
        np.testing.assert_array_equal(s1[name], s2[name], err_msg=name)


@pytest.mark.parametrize("stage", ["autoencoder", "prior"])
def test_training_divergence_detected(stage):
    g = graph_from_adjacency(random_adjacency(np.random.default_rng(0), 6, 0.5))
    cfg = tiny_config(seed=0, batch_size=4, epochs_ae=5, kmeans_samples=64)
    diverging = dataclasses.replace(cfg, lr=1e200, epochs_prior=3)
    with np.errstate(all="ignore"):
        if stage == "autoencoder":
            with pytest.raises(TrainingDiverged, match="non-finite"):
                train_autoencoder([g] * 5, diverging)
        else:
            model, _ = train_autoencoder([g] * 5, cfg)
            # one step per epoch: the first update, of size lr, overflows the next loss
            with pytest.raises(TrainingDiverged, match="^non-finite loss at step 1$"):
                train_prior(model, [g] * 5, diverging)


@pytest.mark.parametrize("t_init, quantized", [
    (0, "TTT"), (2, "FTT"), (3, "FTT"), (5, "FFT"), (6, "FFF"), (7, "FFF"), (100, "FFF")])
def test_codebooks_are_seeded_at_step_t_init(t_init, quantized):
    """15 training graphs in batches of 8 take 2 steps per epoch, 6 in
    all. The codebooks are seeded before the first step >= t_init, or
    after the last epoch when t_init is the step count, so epoch e
    reports quantized metrics iff t_init < 2 * (e + 1)."""
    graphs = random_graphs(7, 20)
    cfg = tiny_config(epochs_ae=3, batch_size=8, t_init=t_init)
    model, info = train_autoencoder(graphs, cfg)
    assert info["step"] == 6
    assert all(("perplexity" in h) == ("loss_commit" in h) for h in info["history"])
    assert "".join("FT"["perplexity" in h] for h in info["history"]) == quantized
    assert model.codebooks.initialized == (t_init <= 6)
    if t_init > 6:
        with pytest.raises(RuntimeError, match="codebooks are uninitialized"):
            train_prior(model, graphs, cfg)


def test_kmeans_init_beats_uniform_sampling():
    """Seeding with k-means++ should not lose to uniformly sampled
    codewords on clustered data, comparing initial quantization error.
    """
    wins, kmeans_errs, uniform_errs = 0, [], []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(4, 2)) * 8.0
        samples = np.concatenate(
            [c + rng.normal(size=(50, 2)) * 0.3 for c in centers])

        cbs = quantize.CodebookSet(1, 4, 2)
        quantize.init_codebooks(cbs, samples, np.random.default_rng(seed + 100))
        _, words = quantize.quantize(samples, cbs)
        kerr = float(((samples - words) ** 2).sum(axis=-1).mean())

        pick = np.random.default_rng(seed + 100).choice(len(samples), 4, replace=False)
        cbs.codebooks[0][:] = samples[pick]
        _, words = quantize.quantize(samples, cbs)
        uerr = float(((samples - words) ** 2).sum(axis=-1).mean())

        kmeans_errs.append(kerr)
        uniform_errs.append(uerr)
        wins += kerr <= uerr + 1e-12
    assert wins >= 8, (kmeans_errs, uniform_errs)
    assert np.mean(kmeans_errs) <= np.mean(uniform_errs)


def test_heldout_loss_trend_is_nonincreasing():
    graphs = random_graphs(9, 16)
    cfg = tiny_config(seed=7, epochs_ae=20)
    _, info = train_autoencoder(graphs, cfg)
    losses = [h["loss_recon"] for h in info["history"]]
    assert len(losses) == 20
    window = 5
    ma = [np.mean(losses[i:i + window]) for i in range(len(losses) - window + 1)]
    for prev, cur in zip(ma, ma[1:]):
        assert cur <= prev * 1.05, (prev, cur)


# ---------------------------------------------------------------------------
# stage 2 and generation


def test_prior_memorizes_single_sequence():
    cfg = tiny_config()
    rng = np.random.default_rng(2)
    pparams = prior.PriorParams(cfg, rng)
    dp = cfg.d_latent // cfg.partitions
    books = rng.normal(size=(cfg.partitions, cfg.codebook_size, dp))
    idx = np.array([[0, 2], [1, 1], [3, 0]])
    batch = prior.pack_sequences([idx], cfg.n_max, books)
    params = parameters(pparams.state)
    adam = AdamState(params, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    nll = None
    for step in range(1200):
        loss = prior.prior_nll(pparams, batch)
        nll = float(loss.data)
        if nll < 1e-3:
            break
        loss.backward()
        clip_gradients(params, cfg.clip_norm)
        adam_step(params, adam, 3e-3)
    assert nll < 1e-3, nll


def test_full_pipeline_and_reload(tmp_path):
    graphs = random_graphs(13, 24)
    cfg = tiny_config(seed=5, epochs_ae=2, epochs_prior=1)
    model, _ = train_autoencoder(graphs, cfg)

    cache = str(tmp_path / "seqs.bin")
    pparams, info = train_prior(model, graphs, cfg, cache_path=cache)

    # after one epoch the held-out fit must beat the uniform baseline
    assert info["history"][-1]["nll"] <= np.log(cfg.codebook_size + 1)

    m, C, cached = prior.read_sequences(cache)
    assert (m, C) == (cfg.codebook_size, cfg.partitions)
    seqs = encode_sequences(model, featurize_all(graphs, cfg), cfg)
    assert len(cached) == len(seqs)
    for a, s in zip(cached, seqs):
        np.testing.assert_array_equal(a, s)

    out, stats = generate_graphs(model, pparams, cfg, count=6, seed=11)
    assert len(out) == 6
    assert 0 <= stats["truncated"] <= 6
    for g in out:
        assert 1 <= g.n <= cfg.n_max
        np.testing.assert_array_equal(g.adjacency(), g.adjacency().T)
    assert generate_graphs(model, pparams, cfg, count=0, seed=11) == \
        ([], {"truncated": 0, "redrawn": 0})

    path = str(tmp_path / "ck.bin")
    save_checkpoint(path, cfg, state_arrays(model.state, pparams.state), step=9)
    cfg2, model2, pparams2 = cli._load_models(path, need_prior=True)
    out2, _ = generate_graphs(model2, pparams2, cfg2, count=6, seed=11)
    for a, b in zip(out, out2):
        np.testing.assert_array_equal(a.node_categories, b.node_categories)
        np.testing.assert_array_equal(a.edge_categories, b.edge_categories)


@pytest.mark.parametrize("kind", ["one-node", "edgeless"])
def test_training_on_batches_with_no_pairs(kind):
    """Batchnorm's zero-row training branch: batches of 1-node graphs
    give the decoder no pairs, and batches of edgeless 1- to 4-node
    graphs give the encoder none. Both stages train and generate with
    no warning and finite histories, every running statistic stays
    finite, and the edge batchnorms that never saw a pair keep their
    running means at 0."""
    sizes = [1] * 20 if kind == "one-node" else np.random.default_rng(31).integers(1, 5, size=20)
    graphs = [new_graph(int(n)) for n in sizes]
    cfg = ModelConfig(epochs_ae=2, epochs_prior=2, batch_size=8, kmeans_samples=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model, ae_info = train_autoencoder(graphs, cfg)
        pparams, prior_info = train_prior(model, graphs, cfg)
        out, _ = generate_graphs(model, pparams, cfg, count=8, seed=4)
    assert len(out) == 8
    for info in (ae_info, prior_info):
        assert info["history"]
        assert all(np.isfinite(v).all() for rec in info["history"] for v in rec.values())
    stats = {k: v for k, v in model.state.items() if k.endswith((".running_mean", ".running_var"))}
    assert stats and all(np.isfinite(v).all() for v in stats.values())
    unpaired = [model.encoder] + ([model.decoder] if kind == "one-node" else [])
    for layer in (layer for params in unpaired for layer in params.layers):
        assert not layer.bn_e.running_mean.any()


def test_evaluate_reports_quantized_metrics():
    graphs = random_graphs(17, 12)
    cfg = tiny_config(seed=2, epochs_ae=1)
    model, _ = train_autoencoder(graphs, cfg)
    aug = featurize_all(graphs, cfg)
    out = evaluate_autoencoder(model, aug, cfg)
    for key in ("loss_recon", "node_err", "edge_err", "loss_commit", "perplexity"):
        assert key in out, key
    M = cfg.codebook_size ** cfg.partitions
    assert 1.0 / M <= out["perplexity"] <= 1.0
    assert evaluate_autoencoder(model, [], cfg) == {}


def test_holdout_metrics_do_not_depend_on_batch_size():
    # every metric pools over the whole set: batch means of the
    # commitment loss once weighed a 1-graph batch like a full one
    graphs = random_graphs(23, 40, n_lo=1, n_hi=8)
    cfg = tiny_config(seed=4, epochs_ae=1)
    model, _ = train_autoencoder(graphs, cfg)
    aug = featurize_all(graphs, cfg)
    runs = [evaluate_autoencoder(model, aug, tiny_config(seed=4, batch_size=b))
            for b in (3, 7, len(aug))]
    assert set(runs[0]) == {"loss_recon", "loss_commit", "node_err", "edge_err",
                            "perplexity"}
    for other in runs[1:]:
        for key, val in runs[0].items():
            assert other[key] == pytest.approx(val, rel=1e-9, abs=1e-12), key


def _prior_and_sequences(cfg, count, seed):
    """A fresh prior, random codebooks and `count` sorted index sets of
    1..n_max nodes."""
    rng = np.random.default_rng(seed)
    pparams = prior.PriorParams(cfg, rng)
    books = rng.normal(size=(cfg.partitions, cfg.codebook_size,
                             cfg.d_latent // cfg.partitions))
    seqs = [prior.sort_set(rng.integers(0, cfg.codebook_size,
                                        size=(int(rng.integers(1, cfg.n_max + 1)),
                                              cfg.partitions)))
            for _ in range(count)]
    return pparams, books, seqs


def test_prior_holdout_nll_pools_over_slices():
    # slices of any size give the NLL of one batch of the whole set
    cfg = tiny_config()
    pparams, books, seqs = _prior_and_sequences(cfg, 21, 5)
    with ad.no_grad():
        whole = float(prior.prior_nll(pparams, prior.pack_sequences(seqs, cfg.n_max,
                                                                    books)).data)
    for b in (1, 4, 8, len(seqs)):
        out = evaluate_prior(pparams, seqs, books, tiny_config(batch_size=b))
        assert out["nll"] == pytest.approx(whole, rel=1e-12), b
    assert evaluate_prior(pparams, [], books, cfg) == {}


def test_prior_holdout_memory_does_not_grow_with_the_holdout():
    # one batch of all 400 sequences peaked at about 91 MB; slices of
    # 32 peak at about 7.5 MB at any holdout size
    cfg = ModelConfig()
    pparams, books, seqs = _prior_and_sequences(cfg, 400, 6)
    tracemalloc.start()
    try:
        out = evaluate_prior(pparams, seqs, books, cfg)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert np.isfinite(out["nll"])
    assert peak_mb < 30, peak_mb


# ---------------------------------------------------------------------------
# the tape

# the taped ops of the forward passes, by the name of the function that
# records them (layernorm and batchnorm record through _normalize)
MODEL_LAYER_OPS = {"add", "mul", "sum_", "affine", "pair_affine", "segment_sum",
                   "permute_rows", "causal_attention", "masked_fill", "straight_through",
                   "cross_entropy_with_logits", "_normalize"}


def tape(loss):
    """Every Tensor on the tape of `loss`, once each. Call it before
    loss.backward(), which spends the tape: it clears every visited
    node's parents and backward closure."""
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


def recorded_ops(loss):
    """The names of the ops whose backwards the tape of `loss` holds,
    read before loss.backward() spends the tape."""
    return {node._backward.__qualname__.split(".")[0] for node in tape(loss)
            if node._backward is not None}


def one_step_losses(cfg):
    """The losses of one AE step and one prior step on random models,
    before backward: (model, ae_loss, pparams, prior_loss)."""
    model, rng = _decoder_with_codebooks(cfg, 5)
    batch = codec.prepare_batch(featurize_all(random_graphs(6, 4), cfg))
    recon, commit, *_ = _ae_pass(model, batch, train=True)
    seqs = [prior.sort_set(rng.integers(0, cfg.codebook_size, size=(n, cfg.partitions)))
            for n in (3, 5)]
    batch = prior.pack_sequences(seqs, cfg.n_max, model.codebooks.codebooks)
    pparams = prior.PriorParams(cfg, rng)
    return model, recon + commit, pparams, prior.prior_nll(pparams, batch)


def test_the_tape_records_model_layers_only():
    """An AE step and a prior step tape no op that only moves data:
    no slice, concatenation, reshape or selection matmul."""
    _, ae_loss, _, prior_loss = one_step_losses(tiny_config())
    ae_ops, prior_ops = recorded_ops(ae_loss), recorded_ops(prior_loss)
    assert not (ae_ops | prior_ops) & {"slice_", "concat", "reshape", "matmul"}
    assert ae_ops | prior_ops <= MODEL_LAYER_OPS
    assert {"pair_affine", "segment_sum", "straight_through", "_normalize"} <= ae_ops
    assert {"affine", "causal_attention", "masked_fill"} <= prior_ops


def test_the_tape_keeps_no_pre_activation():
    """Every hidden activation of an MLP on the tape of an AE step or a
    prior step is a ReLU output, >= 0: affine and pair_affine fuse the
    ReLU, so no pre-activation waits on the tape for the backward. In
    tiny_config no other taped tensor has the hidden width mlp_hidden =
    2 * d_model. An AE step holds two per MLP, two MLPs per round, in
    the encoder and the decoder."""
    cfg = tiny_config()
    assert cfg.mlp_hidden == 2 * cfg.d_model
    _, ae_loss, _, prior_loss = one_step_losses(cfg)

    def hidden(loss):
        return [node.data for node in tape(loss)
                if node._parents and node.shape[-1:] == (cfg.mlp_hidden,)]

    ae_hidden, prior_hidden = hidden(ae_loss), hidden(prior_loss)
    assert len(ae_hidden) == 8 * cfg.gnn_layers and prior_hidden
    assert all((h >= 0).all() for h in ae_hidden + prior_hidden)


def test_training_stays_in_float64():
    """float32 is for inference only: every node on the tape of an AE
    step and of a prior step holds float64 data. Ops keep a float32
    ndarray as it is and cast every other plain operand to float64."""
    _, ae_loss, _, prior_loss = one_step_losses(tiny_config())
    for loss in (ae_loss, prior_loss):
        assert {node.data.dtype for node in tape(loss)} == {np.dtype(np.float64)}
    x32 = np.ones(3, dtype=np.float32)
    assert ad._as_tensor(x32).data is x32
    for plain in (np.arange(3), [1, 2, 3], 0.5, np.float32(0.5), np.ones(3, dtype=np.float16)):
        assert ad._as_tensor(plain).data.dtype == np.float64


def test_the_state_table_holds_exactly_the_parameters_on_the_tape():
    """The leaves of a step's tape that require a gradient are the
    Tensors of the model's state table, by identity: a Tensor built
    outside the table would be neither trained nor saved."""
    model, ae_loss, pparams, prior_loss = one_step_losses(tiny_config())
    for loss, state in ((ae_loss, model.state), (prior_loss, pparams.state)):
        leaves = {id(node) for node in tape(loss) if node.requires_grad and not node._parents}
        assert leaves == {id(t) for t in parameters(state).values()}


FROZEN = Path(__file__).resolve().parents[1] / "dgaebench" / "frozen.ckpt"


def test_the_frozen_checkpoint_fills_the_state_tables_exactly():
    """The benchmark's checkpoint names exactly the entries of freshly
    built models, and loading it copies every array. Its header still
    carries the keys older writers added, which the loader ignores: the
    codebooks read as seeded from their EMA counts."""
    _, tensors, _ = load_checkpoint(str(FROZEN))
    _, model, pparams = cli._load_models(str(FROZEN), need_prior=True)
    assert model.codebooks.initialized
    arrays = state_arrays(model.state, pparams.state)
    assert sorted(arrays) == sorted(tensors)
    for name, arr in arrays.items():
        np.testing.assert_array_equal(arr, tensors[name], err_msg=name)


# ---------------------------------------------------------------------------
# sampling in float32

def seeded_uniforms(count, seed, n):
    """The uniforms prior.generate draws: n per sample, sample i from
    the i-th stream spawned from seed."""
    return np.array([np.random.default_rng(s).random(n)
                     for s in np.random.SeedSequence(seed).spawn(count)])


def test_generate_draws_the_float64_samplers_sets():
    """On the benchmark's checkpoint at seed 14, sample 232 draws
    another set in float32 than in float64: one of its draws has u
    1.2e-7 from a cdf step. generate re-draws such near-ties in float64
    and returns the float64 sampler's sets, sample for sample."""
    _, model, pparams = cli._load_models(str(FROZEN), need_prior=True)
    cbs = model.codebooks.codebooks
    got = prior.generate(pparams, cbs, 1024, 14)
    uniforms = seeded_uniforms(1024, 14, pparams.n_max * pparams.C)
    indices, lengths, _ = prior.sample(pparams, cbs, uniforms, np.float64)
    for i, rec in enumerate(got):
        np.testing.assert_array_equal(rec["indices"], indices[i, :lengths[i]], err_msg=str(i))
    assert got[232]["redrawn"]
    assert 0 < sum(rec["redrawn"] for rec in got) < 1024 * 0.05


def test_the_float32_sampler_pass_builds_float32_nodes_only(monkeypatch):
    """Every Tensor the float32 pass of the sampler builds holds
    float32 data: its constants are cast, and no op promotes."""
    _, model, pparams = cli._load_models(str(FROZEN), need_prior=True)
    uniforms = seeded_uniforms(64, 5, pparams.n_max * pparams.C)
    init, dtypes = Tensor.__init__, set()

    def recording_init(self, data, requires_grad=False):
        init(self, data, requires_grad)
        dtypes.add(self.data.dtype)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    _, lengths, _ = prior.sample(pparams, model.codebooks.codebooks, uniforms, np.float32)
    assert dtypes == {np.dtype(np.float32)}
    assert lengths.max() > 1


# ---------------------------------------------------------------------------
# decoding sampled sequences

def _decoder_with_codebooks(cfg, seed):
    """Auto-encoder with random weights and random codewords: decoding
    cost and output order depend on shapes, not on trained weights."""
    rng = np.random.default_rng(seed)
    model = AutoEncoderModel(cfg, rng)
    d_part = cfg.d_latent // cfg.partitions
    model.codebooks.codebooks[...] = rng.standard_normal((cfg.partitions, cfg.codebook_size,
                                                          d_part))
    model.codebooks.ema_counts[...] = 1.0  # seeded
    return model, rng


def test_decode_sequences_keeps_input_order_across_size_buckets(monkeypatch):
    cfg = tiny_config()
    model, rng = _decoder_with_codebooks(cfg, 21)
    sizes = rng.permutation([1, 1, 2, 3, 3, 3, 5, 5, 6, 8, 8, 8, 8, 4, 7])
    samples = [rng.integers(0, cfg.codebook_size, size=(n, cfg.partitions)) for n in sizes]
    monkeypatch.setattr(training, "DECODE_CHUNK", 1)
    solo = decode_sequences(model, samples)
    assert [g.n for g in solo] == list(sizes)
    for chunk_size in (3, 256):
        monkeypatch.setattr(training, "DECODE_CHUNK", chunk_size)
        out = decode_sequences(model, samples)
        assert all(graphs_equal(a, b) for a, b in zip(out, solo))
    # the same graphs as one decode of the whole batch of mixed sizes
    idx = np.concatenate(samples)
    z = np.concatenate([model.codebooks.codebooks[c][idx[:, c]]
                        for c in range(cfg.partitions)], axis=1)
    mask = np.arange(cfg.n_max) < sizes[:, None]
    nl, el = codec.decode(z, mask, model.decoder, train=False)
    nodes = np.split(nl.data, np.cumsum(sizes)[:-1])
    pairs = np.split(el.data, np.cumsum(sizes * (sizes - 1))[:-1])
    for node_rows, pair_rows, g in zip(nodes, pairs, solo):
        assert graphs_equal(codec.sample_graph(node_rows, pair_rows), g)
    assert decode_sequences(model, []) == []


def test_decode_sequences_memory_is_bounded():
    cfg = ModelConfig()
    model, rng = _decoder_with_codebooks(cfg, 22)
    samples = [rng.integers(0, cfg.codebook_size, size=(cfg.n_max, cfg.partitions))
               for _ in range(256)]
    tracemalloc.start()
    try:
        out = decode_sequences(model, samples)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert len(out) == 256
    # one 256 x 20-node chunk peaked at about 2 GB while the decode
    # recorded its unused autodiff graph, and at about 197 MB while it
    # decoded in float64; in float32 it peaks at about 101 MB
    assert peak_mb < 150, peak_mb


def test_decode_sequences_decodes_in_float32_to_the_float64_graphs(monkeypatch):
    """The decode of sampled sets runs in float32 and gives exactly the
    graphs of a float64 decode of the same sets, size bucket by size
    bucket, on the benchmark's checkpoint."""
    _, model, pparams = cli._load_models(str(FROZEN), need_prior=True)
    samples = [s["indices"] for s in prior.generate(pparams, model.codebooks.codebooks, 256, 7)]
    decode, dtypes = codec.decode, set()

    def recording_decode(*args, **kwargs):
        logits = decode(*args, **kwargs)
        dtypes.update(t.data.dtype for t in logits)  # node and edge logits
        return logits

    monkeypatch.setattr(codec, "decode", recording_decode)
    got = decode_sequences(model, samples)
    assert dtypes == {np.dtype(np.float32)}
    sizes = np.array([len(s) for s in samples])
    assert len(np.unique(sizes)) > 1
    for n in np.unique(sizes):
        part = np.flatnonzero(sizes == n)
        idx = np.concatenate([samples[i] for i in part])
        z = quantize.lookup(model.codebooks.codebooks, idx)
        with ad.no_grad():
            nl, el = decode(z, np.ones((len(part), n), dtype=bool), model.decoder, train=False)
        assert nl.data.dtype == el.data.dtype == np.float64
        for i, node_rows, pair_rows in zip(part, np.split(nl.data, len(part)),
                                           np.split(el.data, len(part))):
            assert graphs_equal(codec.sample_graph(node_rows, pair_rows), got[i])
