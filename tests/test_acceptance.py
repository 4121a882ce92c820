"""Acceptance gate.

Each test here checks one binding behavioral guarantee end to end and
prints exactly one pass/fail line (written past pytest's capture) with
the measured numbers, so a full run reads as a scorecard. Tolerances
and time budgets are pinned in the assertions.

Ten criteria run, under their original numbers: 1 and 2 check the
path features and cycle counts against brute-force enumeration, 3
permutation equivariance of encode, quantize and decode, 4
finite-difference gradients, 5 the straight-through estimator, 6
causality and masking of the prior, 7 the MMD machinery, 8 that the
benchmark's trained checkpoint samples graphs far closer to the data
than its untrained prior does, 10 per-step sampling time and 11
byte-level determinism of every CLI artifact. Number 9 is unused: no
test here trains the pipeline and checks that it learns the graph
distribution.
"""

import sys
import time
from pathlib import Path

import numpy as np

import oracles
from oracles import grad_check
from test_autodiff import run_primitive_grad_suite

from dgae import cli, codec, evaluation, features, prior, quantize, training
from dgae.autodiff import Tensor, straight_through
from dgae.features import augment
from dgae.graphs import DatasetSpec, build_dataset, permute
from dgae.prior import pack_sequences, prior_logits, prior_nll
from dgae.training import ModelConfig

FROZEN = Path(__file__).resolve().parents[1] / "dgaebench" / "frozen.ckpt"


def report(num, name, ok, detail):
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} | {detail}",
          file=sys.__stderr__, flush=True)


def random_graph(rng, lo=2, hi=8, p=None):
    n = int(rng.integers(lo, hi))
    p = float(rng.uniform(0.2, 0.8)) if p is None else p
    return oracles.graph_from_adjacency(oracles.random_adjacency(rng, n, p))


# ---------------------------------------------------------------------------
# 1. p-path features against brute-force enumeration

def test_criterion_01_path_feature_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    bad = 0
    for _ in range(500):
        g = random_graph(rng, 2, 8)
        adj = g.adjacency()
        node_pf, edge_pf, virtual = features.path_features(g, p=3)
        for q in (1, 2, 3):
            if not np.array_equal(edge_pf[:, :, q - 1],
                                  oracles.distinct_edge_walk_counts(adj, q)):
                bad += 1
        if not np.array_equal(node_pf, edge_pf.sum(axis=1)):
            bad += 1
        off = ~np.eye(g.n, dtype=bool)
        if not np.array_equal(virtual,
                              (edge_pf > 0).any(axis=2) & off & (adj == 0)):
            bad += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt < 60
    report(1, "p-path oracle", ok,
           f"500 graphs n<=7, {bad} mismatches, {dt:.1f}s (budget 60s)")
    assert ok


# ---------------------------------------------------------------------------
# 2. trace-formula cycle counts against exhaustive enumeration

def test_criterion_02_cycle_count_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    bad = 0
    for _ in range(200):
        g = random_graph(rng, 3, 9)
        if not np.array_equal(features.cycle_counts(g),
                              oracles.simple_cycle_counts(g.adjacency())):
            bad += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt < 120
    report(2, "cycle oracle", ok,
           f"200 graphs n<=8, {bad} mismatches, {dt:.1f}s (budget 120s)")
    assert ok


# ---------------------------------------------------------------------------
# 3. permutation equivariance of encode / quantize / decode

def test_criterion_03_equivariance():
    t0 = time.perf_counter()
    cfg = ModelConfig(seed=0, feat_spectral=False, feat_random=False,
                      gnn_layers=2, state_width=16, mlp_hidden=32,
                      d_latent=8, partitions=2, codebook_size=5)
    rng = np.random.default_rng(303)
    model = training.AutoEncoderModel(cfg, rng)
    for c in range(cfg.partitions):
        model.codebooks.codebooks[c][...] = rng.standard_normal(
            model.codebooks.codebooks[c].shape)
    model.codebooks.ema_counts[...] = 1.0  # seeded

    worst = 0.0
    pairs = 0
    for _ in range(100):
        g = random_graph(rng, 3, 13)
        pi = rng.permutation(g.n)
        a, b = augment(g, cfg), augment(permute(g, pi), cfg)

        za = oracles.encode_graph(a, model.encoder, train=False)
        zb = oracles.encode_graph(b, model.encoder, train=False)
        worst = max(worst, float(np.abs(zb - za[pi]).max()))

        ia, wa = quantize.quantize(za, model.codebooks)
        ib, wb = quantize.quantize(zb, model.codebooks)
        assert np.array_equal(ib, ia[pi])

        mask = np.ones((1, g.n), dtype=bool)
        na, ea = codec.decode(wa, mask, model.decoder, train=False)
        nb, eb = codec.decode(wb, mask, model.decoder, train=False)
        worst = max(worst, float(np.abs(nb.data - na.data[pi]).max()))
        worst = max(worst, float(np.abs(oracles.pair_matrix(eb.data, g.n)
                                        - oracles.pair_matrix(ea.data, g.n)[np.ix_(pi, pi)]
                                        ).max()))
        pairs += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and dt < 60
    report(3, "equivariance", ok,
           f"{pairs} (graph, permutation) pairs, max deviation {worst:.2e} "
           f"(tol 1e-6), {dt:.1f}s (budget 60s)")
    assert ok


# ---------------------------------------------------------------------------
# 4. finite-difference gradient checks: primitives and both stage losses

def _stage1_fd_setup():
    """Three differentiable views of the stage-1 loss.

    With quantization active the true loss is piecewise constant in the
    encoder parameters (the decoder only ever sees the selected
    codewords), so central differences measure zero there while the
    straight-through backward intentionally reports the surrogate
    gradient; that path's contract is the bit-exactness criterion, not
    finite differences. What is checkable: the loss in the warmup
    (unquantized) configuration over every parameter, the quantized
    loss over the decoder parameters, and the commitment term over the
    encoder parameters at an assignment-stable point.
    """
    cfg = ModelConfig(seed=0, feat_spectral=False, feat_random=False,
                      n_max=8, gnn_layers=1, state_width=6, mlp_hidden=8,
                      d_latent=4, partitions=2, codebook_size=3,
                      kmeans_samples=32)
    rng = np.random.default_rng(404)
    graphs = [random_graph(rng, 4, 7) for _ in range(2)]
    aug = training.featurize_all(graphs, cfg)
    batch = codec.prepare_batch(aug)
    model = training.AutoEncoderModel(cfg, rng)
    samples = training._collect_embeddings(model, aug, cfg)
    quantize.init_codebooks(model.codebooks, samples, rng)
    # K-means with few distinct embeddings lands on a perfect fit, making
    # the commitment term identically zero (a vacuous check: every gradient
    # vanishes at the minimum). Nudge the codewords off the optimum; the
    # offset is small enough that assignments stay put during FD probes.
    for cb in model.codebooks.codebooks:
        cb += 0.05 * rng.standard_normal(cb.shape)

    def quantized_loss(_):
        recon, commit = training._ae_pass(model, batch, train=True)[:2]
        return recon + cfg.gamma * cfg.beta * commit

    def warmup_loss(_):
        z = codec.encode(batch, model.encoder, train=True)
        node_logits, edge_logits = codec.decode(z, batch.node_mask,
                                                model.decoder, train=True)
        return codec.recon_loss(node_logits, edge_logits, batch)

    def commit_loss(_):
        z = codec.encode(batch, model.encoder, train=True)
        _, words = quantize.quantize(z.data, model.codebooks)
        return quantize.commitment_loss(z, words, cfg.partitions)

    params = training.parameters(model.state)
    enc_params = [t for name, t in params.items() if name.startswith("enc.")]
    dec_params = [t for name, t in params.items() if name.startswith("dec.")]
    return quantized_loss, warmup_loss, commit_loss, enc_params, dec_params


def _stage2_fd_setup():
    rng = np.random.default_rng(405)
    cfg = ModelConfig(d_latent=4, partitions=2, codebook_size=3, d_model=8, heads=2, blocks=1,
                      n_max=5)
    params = prior.PriorParams(cfg, rng)
    cbs = rng.standard_normal((2, 3, 2))
    seqs = [np.sort(rng.integers(0, 3, size=(T, 2)), axis=0) for T in (2, 4, 3)]
    batch = pack_sequences(seqs, params.n_max, cbs)

    def loss(_):
        return prior_nll(params, batch)

    tensors = list(training.parameters(params.state).values())
    return loss, tensors


def test_criterion_04_gradient_suite():
    t0 = time.perf_counter()
    prim = run_primitive_grad_suite()
    prim_worst = max(prim.values())

    q_loss, w_loss, c_loss, enc_params, dec_params = _stage1_fd_setup()
    err_warm = grad_check(w_loss, enc_params + dec_params)
    err_dec = grad_check(q_loss, dec_params)
    err_commit = grad_check(c_loss, enc_params)
    err1 = max(err_warm, err_dec, err_commit)

    loss2, params2 = _stage2_fd_setup()
    err2 = grad_check(loss2, params2)

    dt = time.perf_counter() - t0
    ok = prim_worst <= 1e-4 and err1 <= 1e-4 and err2 <= 1e-4 and dt < 300
    n1 = sum(p.data.size for p in enc_params + dec_params)
    report(4, "gradient suite", ok,
           f"primitives {prim_worst:.2e} ({len(prim)} ops), stage-1 "
           f"warmup/decoder/commit {err_warm:.2e}/{err_dec:.2e}/"
           f"{err_commit:.2e} ({n1} coords), stage-2 nll {err2:.2e} "
           f"({sum(p.data.size for p in params2)} coords), tol 1e-4, "
           f"{dt:.1f}s (budget 300s)")
    assert ok


# ---------------------------------------------------------------------------
# 5. straight-through contract

def test_criterion_05_straight_through():
    cfg = ModelConfig(seed=0, feat_spectral=False, feat_random=False,
                      n_max=8, gnn_layers=1, state_width=6, mlp_hidden=8,
                      d_latent=4, partitions=2, codebook_size=3,
                      kmeans_samples=32)
    rng = np.random.default_rng(505)
    graphs = [random_graph(rng, 4, 7) for _ in range(2)]
    aug = training.featurize_all(graphs, cfg)
    batch = codec.prepare_batch(aug)
    model = training.AutoEncoderModel(cfg, rng)
    samples = training._collect_embeddings(model, aug, cfg)
    quantize.init_codebooks(model.codebooks, samples, rng)

    z = codec.encode(batch, model.encoder, train=True)
    idx, words = quantize.quantize(z.data, model.codebooks)
    # wrap the codeword values in a leaf tensor so any gradient leaking
    # into the codebooks would be observable
    wt = Tensor(words, requires_grad=True)
    st = straight_through(z, wt)
    node_logits, edge_logits = codec.decode(st, batch.node_mask,
                                            model.decoder, train=True)
    recon = codec.recon_loss(node_logits, edge_logits, batch)
    recon.backward()

    same = z.grad is not None and st.grad is not None \
        and np.array_equal(z.grad, st.grad)
    leak = wt.grad is not None and np.any(wt.grad != 0)
    ok = same and not leak
    report(5, "straight-through", ok,
           f"encoder grad == quantizer grad bit-exact: {same}; codebook "
           f"gradient from reconstruction: {'zero' if not leak else 'NONZERO'}")
    assert ok


# ---------------------------------------------------------------------------
# 6. causality and masking of the sequence model

def _rand_sequence(rng, params, T):
    idx = np.sort(rng.integers(0, params.m, size=(T, params.C)), axis=0)
    return idx


def test_criterion_06_causality_and_masking():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    cfg = ModelConfig(d_latent=4, partitions=2, codebook_size=4, d_model=8, heads=2, blocks=2,
                      n_max=8)
    params = prior.PriorParams(cfg, rng)
    cbs = rng.standard_normal((params.C, params.m, params.d_part))

    def batch_of(idx):
        return pack_sequences([idx], params.n_max, cbs)

    def logits_of(idx):  # (1, T+1, C, m+1) from the C logit columns
        return np.stack([col.data for col in prior_logits(params, batch_of(idx))], axis=2)

    T = 6
    base_idx = _rand_sequence(rng, params, T)
    base = logits_of(base_idx)
    raster = [(t, c) for t in range(T) for c in range(params.C)]
    violations = 0
    for p_i, (t, c) in enumerate(raster):
        idx = base_idx.copy()
        idx[t, c] = (idx[t, c] + 1) % params.m
        got = logits_of(idx)
        for (t2, c2) in raster[:p_i + 1]:
            if not np.array_equal(got[0, t2, c2], base[0, t2, c2]):
                violations += 1

    # order masking: zero probability mass, swept over random sequences
    mask_bad = 0
    for _ in range(25):
        idx = _rand_sequence(rng, params, int(rng.integers(2, 7)))
        probs = oracles.softmax(Tensor(logits_of(idx)), axis=-1).data[0]
        if np.any(probs[:, 1:, params.m] != 0.0):
            mask_bad += 1
        for t in range(1, idx.shape[0] + 1):
            prev = idx[t - 1, 0]
            if t < probs.shape[0] and np.any(probs[t, 0, :prev] != 0.0):
                mask_bad += 1
    dt = time.perf_counter() - t0
    ok = violations == 0 and mask_bad == 0
    report(6, "causality/masking", ok,
           f"raster sweep {len(raster)} perturbations, {violations} past-logit "
           f"changes; masked classes with nonzero probability: {mask_bad}; "
           f"{dt:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 7. MMD machinery against the double-sum oracle, plus EMD's spectrum

_STAT_WIDTHS = (("degree_hist", 1.0), ("clustering_hist", 0.01),
                ("orbit_hist", 1.0))


def test_criterion_07_mmd_correctness():
    rng = np.random.default_rng(707)
    graphs = build_dataset(DatasetSpec("community-small", 40, 3))
    stats = oracles.dense_stats(evaluation.graph_stats(graphs))

    # oracle match on all three statistics at their report conventions
    oracle_worst = 0.0
    for pick, width in _STAT_WIDTHS:
        ha = [getattr(s, pick) for s in stats[:20]]
        hb = [getattr(s, pick) for s in stats[20:]]
        got = evaluation.mmd(ha, hb, sigma=1.0, bin_width=width)
        want = oracles.mmd_double_sum(ha, hb, sigma=1.0, bin_width=width)
        oracle_worst = max(oracle_worst, abs(got - want))

    # identical sets
    ha = [s.degree_hist for s in stats[:20]]
    self_val = evaluation.mmd(ha, ha, sigma=1.0, bin_width=1.0)

    # EMD on realistic spread histograms is conditionally negative
    # definite: -J D J is PSD for the centring J = I - 11^T/n. By
    # Schoenberg's theorem that is exactly the condition under which
    # exp(-t * emd) is PSD for every t > 0, and 1-D EMD has it because it
    # is an L1 distance between CDFs.
    n = 20
    J = np.eye(n) - np.full((n, n), 1.0 / n)
    cnd = {}
    for pick, width in _STAT_WIDTHS:
        hs = [getattr(s, pick) for s in stats[:n]]
        D = oracles.emd_pairs(hs, width)
        cnd[pick] = float(np.linalg.eigvalsh(-J @ D @ J).min())
    cnd_worst = min(cnd.values())

    # diagnostic only: the Gaussian-of-EMD kernel is not PSD on spread
    # histograms, because L1 is not a Hilbertian metric, so exp(-emd^2)
    # may have negative eigenvalues however sound the implementation
    K = np.exp(-oracles.emd_pairs(ha) ** 2 / 2.0)
    gauss_min_eig = float(np.linalg.eigvalsh(K).min())

    # control: on point-mass histograms the kernel reduces to a scalar
    # Gaussian kernel, which is provably positive semidefinite
    deltas = []
    for v in rng.integers(0, 12, size=20):
        h = np.zeros(12)
        h[v] = 1.0
        deltas.append(h)
    Kd = np.exp(-oracles.emd_pairs(deltas) ** 2 / 2.0)
    min_eig_delta = float(np.linalg.eigvalsh(Kd).min())

    ok = (oracle_worst <= 1e-10 and self_val <= 1e-12
          and cnd_worst >= -1e-10 and min_eig_delta >= -1e-10)
    report(7, "MMD correctness", ok,
           f"oracle max diff {oracle_worst:.2e} (tol 1e-10), MMD(X,X) "
           f"{self_val:.2e} (tol 1e-12), EMD min eig(-JDJ) degree "
           f"{cnd['degree_hist']:.1e} clustering {cnd['clustering_hist']:.1e} "
           f"orbit {cnd['orbit_hist']:.1e} (tol -1e-10), point-mass Gaussian "
           f"kernel min eigenvalue {min_eig_delta:.2e} (tol -1e-10); "
           f"Gaussian-EMD min eigenvalue {gauss_min_eig:.3f} (not PSD by "
           f"construction, not asserted)")
    assert oracle_worst <= 1e-10
    assert self_val <= 1e-12
    assert cnd_worst >= -1e-10, (
        "EMD is not conditionally negative definite on these histograms "
        f"(min eig(-JDJ) per statistic: {cnd}); 1-D EMD is an L1 distance "
        "between CDFs and always is, so the all-pairs distance is wrong")
    assert min_eig_delta >= -1e-10, (
        "the Gaussian kernel on point-mass histograms is a scalar Gaussian "
        "kernel and must be positive semidefinite")


# ---------------------------------------------------------------------------
# 8. a trained model's samples against its untrained prior's

# Over sampling seeds 0-5 and reference seeds 99 and 7, frozen.ckpt's
# MMDs were at most 0.24 (degree), 0.13 (clustering) and 0.062 (orbit)
# of the untrained prior's; a sampler whose attention weighs the cached
# nodes uniformly reads 0.35, 0.17 and 0.089 at this test's seeds.
_CRITERION_8_FRACTIONS = {"mmd_degree": 0.3, "mmd_clustering": 0.16, "mmd_orbit": 0.08}


def test_criterion_08_trained_samples_beat_an_untrained_prior():
    """250 graphs sampled and decoded from the benchmark's trained
    checkpoint score, on each MMD statistic against 250 community-small
    graphs, below a stated fraction of what the same auto-encoder with
    an untrained prior scores. It checks inference (sampler, decoder
    and MMD) on a trained model, not training."""
    t0 = time.perf_counter()
    cfg, model, trained = cli._load_models(FROZEN, need_prior=True)
    untrained = prior.PriorParams(cfg, np.random.default_rng(0))
    ref = build_dataset(DatasetSpec("community-small", 250, 99))
    scores = [evaluation.mmd_report(ref, training.generate_graphs(model, pp, cfg, 250, 5)[0],
                                    cfg.mmd_sigma, cfg.clustering_bins)
              for pp in (trained, untrained)]
    ratios = {k: scores[0][k] / scores[1][k] for k in _CRITERION_8_FRACTIONS}
    dt = time.perf_counter() - t0
    ok = all(ratios[k] < f for k, f in _CRITERION_8_FRACTIONS.items())
    report(8, "trained samples", ok,
           ", ".join(f"{k[4:]} {scores[0][k]:.4f} / untrained {scores[1][k]:.4f} = "
                     f"{ratios[k]:.3f} (< {f})" for k, f in _CRITERION_8_FRACTIONS.items())
           + f", {dt:.1f}s")
    assert ok, ratios


# ---------------------------------------------------------------------------
# 10. per-step sampling time independent of generated size

def _fresh_sampler(cfg, rng):
    """Prior with random weights plus random codebooks for conditioning.

    Timing depends on tensor shapes, not on what the weights have
    learned, so an untrained model measures the same arithmetic. The
    end-of-set logit is pushed to -inf territory so every sequence runs
    to n_max and each sweep covers the full range of generated sizes.
    """
    pparams = prior.PriorParams(cfg, rng)
    for head in pparams.out:
        head.b.data[cfg.codebook_size] -= 60.0
    d_part = cfg.d_latent // cfg.partitions
    return pparams, rng.standard_normal((cfg.partitions, cfg.codebook_size, d_part))


def test_criterion_10_generation_speed():
    t0 = time.perf_counter()
    # Single-sample streams: per-graph step cost is the property at stake.
    # Batched sampling shares one KV cache across graphs, and reading it
    # back each step is memory traffic proportional to batch size, which
    # would contaminate the per-graph measurement.
    # This host's speed can switch by up to 2x from one second to the
    # next. Each repeat samples the sizes up and then down again, so a
    # speed change reaches every size alike, and fits its own line to
    # the median step per size, which ignores the steps a burst of load
    # slows. The median drift across the repeats ignores a repeat that
    # a speed change still tilted.
    sizes = (16, 32, 64)
    repeats = 7
    samplers = {n_max: _fresh_sampler(ModelConfig(n_max=n_max),
                                      np.random.default_rng(1000 + n_max))
                for n_max in sizes}
    xs = np.array(sizes, dtype=float)
    drifts, slopes = [], []
    for r in range(repeats):
        dts = {n_max: [] for n_max in sizes}
        for n_max in sizes + sizes[::-1]:
            pparams, cbs = samplers[n_max]
            st = []
            samples = prior.generate(pparams, cbs, 1, seed=7000 + r, step_times=st)
            assert len(st) == n_max and len(samples) == 1
            dts[n_max] += [dt for _, dt, _ in st]
        ys = np.array([np.median(dts[n_max]) for n_max in sizes])
        slope = float(((xs - xs.mean()) * (ys - ys.mean())).sum()
                      / ((xs - xs.mean()) ** 2).sum())
        slopes.append(slope)
        # the fitted line's move across the whole 16..64 sweep, as a
        # share of the mean step
        drifts.append(slope * (xs.max() - xs.min()) / ys.mean())
    slope, drift = float(np.median(slopes)), float(np.median(drifts))
    # equivalence band: the median drift may be at most 15% (an O(n)
    # sampler moves ~300%)
    ok_flat = abs(drift) <= 0.15

    # throughput: 1000 graphs at Community-Small scale, full 20-node
    # sequences (the worst case for both sampling and decoding)
    cfg = ModelConfig()
    rng = np.random.default_rng(77)
    model = training.AutoEncoderModel(cfg, rng)
    d_part = cfg.d_latent // cfg.partitions
    model.codebooks.codebooks[...] = rng.standard_normal((cfg.partitions, cfg.codebook_size,
                                                          d_part))
    model.codebooks.ema_counts[...] = 1.0  # seeded
    pparams, _ = _fresh_sampler(cfg, rng)
    t_sample = time.perf_counter()
    samples = prior.generate(pparams, model.codebooks.codebooks, 1000, seed=4)
    t_decode = time.perf_counter()
    graphs = training.decode_sequences(model, [s["indices"] for s in samples])
    t_end = time.perf_counter()
    total = t_end - t_sample
    mean_nodes = float(np.mean([g.n for g in graphs]))
    ok_fast = total < 60.0 and len(graphs) == 1000
    ok = ok_flat and ok_fast and mean_nodes == cfg.n_max
    detail = (f"step us/node {1e6 * slope:.3f} (drift {100 * drift:+.1f}% over "
              f"n_max 16..64, band 15%), 1000 graphs in "
              f"{total:.2f}s (sample {t_decode - t_sample:.2f}s "
              f"+ decode {t_end - t_decode:.2f}s, budget 60s), "
              f"{time.perf_counter() - t0:.1f}s")
    report(10, "generation speed", ok, detail)
    assert ok_flat and ok_fast, detail
    assert mean_nodes == cfg.n_max


# ---------------------------------------------------------------------------
# 11. byte-level determinism of every artifact

def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()
    conf = tmp_path / "c.conf"
    conf.write_text("n_max = 20\nseed = 7\nfeat_spectral = false\n"
                    "feat_random = false\ngnn_layers = 1\nstate_width = 16\n"
                    "mlp_hidden = 32\nd_latent = 8\npartitions = 2\n"
                    "codebook_size = 6\nblocks = 1\nd_model = 16\nheads = 2\n"
                    "batch_size = 16\nepochs_ae = 4\nepochs_prior = 4\n"
                    "kmeans_samples = 256\n")
    artifacts = ("data.graphs", "ae.ckpt", "ae.csv", "full.ckpt", "prior.csv",
                 "cache.seqs", "samples.graphs", "mmd.csv")

    def run_all(root):
        root.mkdir()
        p = {name: str(root / name) for name in artifacts}
        assert cli.main(["dataset", "gen", "--spec", "community-small",
                         "--count", "30", "--seed", "7",
                         "--out", p["data.graphs"]]) == 0
        assert cli.main(["train-ae", "--data", p["data.graphs"], "--out",
                         p["ae.ckpt"], "--metrics", p["ae.csv"],
                         "--config", str(conf)]) == 0
        assert cli.main(["train-prior", "--data", p["data.graphs"], "--ckpt",
                         p["ae.ckpt"], "--out", p["full.ckpt"], "--metrics",
                         p["prior.csv"], "--cache", p["cache.seqs"],
                         "--config", str(conf)]) == 0
        assert cli.main(["generate", "--ckpt", p["full.ckpt"], "--count", "12",
                         "--seed", "3", "--out", p["samples.graphs"]]) == 0
        assert cli.main(["eval", "--ref", p["data.graphs"], "--gen",
                         p["samples.graphs"], "--out", p["mmd.csv"]]) == 0
        return p

    pa = run_all(tmp_path / "run1")
    pb = run_all(tmp_path / "run2")
    diffs = [name for name in artifacts
             if open(pa[name], "rb").read() != open(pb[name], "rb").read()]
    dt = time.perf_counter() - t0
    ok = not diffs
    report(11, "determinism", ok,
           f"{len(artifacts)} artifacts byte-compared across two runs, "
           f"differing: {diffs if diffs else 'none'}; {dt:.1f}s")
    assert ok
