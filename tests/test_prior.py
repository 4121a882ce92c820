"""Autoregressive set prior: ordering, masking, causality, sampling."""

import re

import numpy as np
import pytest

import dgae.autodiff as ad
from dgae import prior, quantize
from dgae.autodiff import Tensor
from dgae.prior import (
    PriorParams,
    build_inputs,
    IGNORE,
    generate,
    pack_sequences,
    prior_logits,
    prior_nll,
    read_sequences,
    sort_set,
    write_sequences,
)
from dgae.training import ModelConfig, parameters
from oracles import softmax


def tiny_params(seed=0, d_latent=8, C=2, m=4, d_model=16, heads=2,
                num_blocks=2, n_max=8):
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(d_latent=d_latent, partitions=C, codebook_size=m, d_model=d_model,
                      heads=heads, blocks=num_blocks, n_max=n_max)
    return PriorParams(cfg, rng)


def random_sequence(rng, T, C, m):
    return sort_set(rng.integers(0, m, size=(T, C)))


def rand_codebooks(rng, C, m, d_part):
    return rng.normal(size=(C, m, d_part))


def stacked(cols):
    """C Tensor columns (B, T+1, w) as one array (B, T+1, C, w)."""
    return np.stack([col.data for col in cols], axis=2)


def probabilities(params, batch):
    """Teacher-forced class probabilities (B, T+1, C, m+1)."""
    return stacked(softmax(col, axis=-1) for col in prior_logits(params, batch))


def batch_from(params, seqs):
    """Batch of seqs with a fixed set of random codebooks for params."""
    books = rand_codebooks(np.random.default_rng(99), params.C, params.m, params.d_part)
    return pack_sequences(seqs, params.n_max, books)


# ---------------------------------------------------------------------------
# canonical ordering


def test_sort_set_example():
    idx = np.array([[3, 1], [1, 2], [1, 1]])
    s = sort_set(idx)
    assert s.dtype == np.int64
    assert s.tolist() == [[1, 1], [1, 2], [3, 1]]
    assert idx.tolist() == [[3, 1], [1, 2], [1, 1]]  # the input is not sorted in place


def test_sort_set_input_order_irrelevant():
    rng = np.random.default_rng(3)
    idx = rng.integers(0, 5, size=(9, 3))
    base = sort_set(idx)
    for _ in range(10):
        perm = rng.permutation(9)
        np.testing.assert_array_equal(sort_set(idx[perm]), base)


def test_sort_set_partition_zero_most_significant():
    idx = np.array([[2, 0], [1, 9], [2, 1]])
    s = sort_set(idx)
    assert s[:, 0].tolist() == [1, 2, 2]
    assert s.tolist() == [[1, 9], [2, 0], [2, 1]]


def test_pack_sequences_rejects_bad_lengths():
    rng = np.random.default_rng(0)
    books = rand_codebooks(rng, 2, 4, 2)
    good = random_sequence(rng, 3, 2, 4)
    empty = np.zeros((0, 2), dtype=np.int64)
    with pytest.raises(ValueError):
        pack_sequences([good, empty], 8, books)
    with pytest.raises(ValueError):
        pack_sequences([good], 2, books)


def test_pack_sequences_lays_out_targets_and_live_rows():
    """Slot t < len targets node t's indices and holds its codeword row,
    slot len targets end-of-set on partition 0, and every other target
    is IGNORE."""
    rng = np.random.default_rng(1)
    books = rand_codebooks(rng, 3, 5, 2)
    seqs = [random_sequence(rng, T, 3, 5) for T in (2, 4, 1)]
    batch = pack_sequences(seqs, 8, books)
    assert batch.codewords.shape == (3, 5, 6)
    assert batch.targets.shape == (3, 5, 3) and batch.targets.dtype == np.int64
    for b, s in enumerate(seqs):
        T = len(s)
        np.testing.assert_array_equal(batch.targets[b, :T], s)
        np.testing.assert_array_equal(batch.codewords[b, :T], quantize.lookup(books, s))
        assert batch.targets[b, T, 0] == 5
        assert (batch.targets[b, T, 1:] == IGNORE).all()
        assert (batch.targets[b, T + 1:] == IGNORE).all()
        assert np.isfinite(batch.codewords[b, T:]).all()


# ---------------------------------------------------------------------------
# input construction


def test_build_inputs_virtual_start_row():
    params = tiny_params(seed=1)
    rng = np.random.default_rng(2)
    seqs = [random_sequence(rng, 4, params.C, params.m)]
    x = build_inputs(params, batch_from(params, seqs))
    assert [col.shape for col in x] == [(1, 5, params.d_model)] * params.C
    # row 0 has no previous node: projection of zeros is the bias, plus
    # the position encoding for slot 0
    want0 = params.in_proj[0].b.data + params.pos_table[0]
    np.testing.assert_allclose(x[0].data[0, 0], want0, atol=1e-12)


def test_build_inputs_projection_widths():
    params = tiny_params(seed=1)
    for c in range(params.C):
        assert params.in_proj[c].w.shape == (
            params.d_latent + c * params.d_part, params.d_model)


def test_build_inputs_partition_context():
    """Partition c at row t sees node t-1 fully and node t only below c."""
    params = tiny_params(seed=4)
    rng = np.random.default_rng(5)
    s = random_sequence(rng, 3, params.C, params.m)
    base = stacked(build_inputs(params, batch_from(params, [s])))
    bumped = batch_from(params, [s])
    bumped.codewords[0, 1, params.d_part:2 * params.d_part] += 1.0  # node 1, partition 1
    got = stacked(build_inputs(params, bumped))
    # row 1 partition 0 and partition 1 depend only on node 0 and on
    # node 1's partitions below each slot, so both are unchanged
    np.testing.assert_array_equal(got[0, 1], base[0, 1])
    assert not np.allclose(got[0, 2], base[0, 2])


# ---------------------------------------------------------------------------
# set attention


def block_attention(q, k, v, heads):
    """The attention inside prior._block_forward under teacher forcing
    for the queries q (B, T, d) of partition 0 over the keys and values
    k, v (B, T, d): the output of the block's own causal_attention call,
    with its own mask, when the block's query map is the identity."""
    d = q.shape[-1]
    blk = prior.PriorBlock({}, "blk", np.random.default_rng(0), d, heads, 1)
    blk.wq[0].w.data[...] = np.eye(d)
    blk.wq[0].b.data[...] = 0.0
    seen = []
    attention = ad.causal_attention

    def recording(*args):
        seen.append(attention(*args))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "causal_attention", recording)
        prior._block_forward(blk, Tensor(q), 0,
                             prior._teacher_forced_attention(blk, Tensor(k), Tensor(v)))
    assert len(seen) == 1
    return seen[0].data


def test_attention_single_predecessor_returns_value():
    rng = np.random.default_rng(0)
    B, H, T, d = 2, 3, 2, 12
    q, k, v = (rng.normal(size=(B, T, d)) for _ in range(3))
    out = block_attention(q, k, v, H)
    assert out.shape == (B, T, d)
    np.testing.assert_array_equal(out[:, 0], np.zeros((B, d)))
    np.testing.assert_allclose(out[:, 1], v[:, 0], atol=1e-12)


def test_attention_uniform_scores_give_mean():
    rng = np.random.default_rng(1)
    B, H, T, d = 2, 3, 5, 12
    k, v = (rng.normal(size=(B, T, d)) for _ in range(2))
    out = block_attention(np.zeros((B, T, d)), k, v, H)
    for t in range(1, T):
        np.testing.assert_allclose(out[:, t], v[:, :t].mean(axis=1), atol=1e-12)


def test_attention_ignores_future_and_present_keys():
    rng = np.random.default_rng(2)
    B, H, T, d = 2, 3, 6, 12
    q, k0, v0 = (rng.normal(size=(B, T, d)) for _ in range(3))
    base = block_attention(q, k0, v0, H)
    for t in range(T):
        k1, v1 = k0.copy(), v0.copy()
        k1[:, t:] += rng.normal(size=(B, T - t, d))
        v1[:, t:] += rng.normal(size=(B, T - t, d))
        got = block_attention(q, k1, v1, H)
        np.testing.assert_array_equal(got[:, :t + 1], base[:, :t + 1])


def test_attention_over_key_prefix_matches_full_sequence():
    """The positions 0..t alone give rows 0..t of the full result, and
    position 0 alone gives zeros."""
    rng = np.random.default_rng(4)
    B, H, T, d = 3, 2, 5, 8
    q, k, v = (rng.normal(size=(B, T, d)) for _ in range(3))
    full = block_attention(q, k, v, H)
    for t in range(T):
        got = block_attention(q[:, :t + 1], k[:, :t + 1], v[:, :t + 1], H)
        np.testing.assert_allclose(got, full[:, :t + 1], rtol=0, atol=1e-12)
    np.testing.assert_array_equal(block_attention(q[:, :1], k[:, :1], v[:, :1], H),
                                  np.zeros((B, 1, d)))


@pytest.mark.parametrize("heads", [1, 2, 8])
def test_cached_attention_is_the_teacher_forced_row(heads):
    """The sampler's step: the queries of position t over the keys and
    values of positions 0..t-1 in a head-interleaved cache give row t
    of the teacher-forced result, in float64 to 1e-12, and exact zeros
    at t = 0 (d_k = d at one head, d_k = 1 at d heads)."""
    rng = np.random.default_rng(5)
    B, T, d = 3, 6, 8
    q, k, v = (rng.normal(size=(B, T, d)) for _ in range(3))
    full = block_attention(q, k, v, heads)
    # (2, d_k, T, B, heads): position s's keys and values as the sampler writes them
    cache = np.stack([np.stack([prior._split_heads(a[:, s], heads) for s in range(T)], axis=1)
                      for a in (k, v)])
    assert cache.shape == (2, d // heads, T, B, heads)
    for t in range(T):
        got = prior._cached_attention(Tensor(q[:, t:t + 1]), cache[:, :, :t], heads).data
        assert got.shape == (B, 1, d)
        np.testing.assert_allclose(got, full[:, t:t + 1], rtol=0, atol=1e-12)
        if t == 0:
            np.testing.assert_array_equal(got, np.zeros((B, 1, d)))


def test_padding_slots_never_reach_the_loss():
    """Row t attends only to nodes s < t, so the keys of padded slots
    reach only padded rows, whose targets are IGNORE: garbage in the
    codeword rows of every slot from a set's length on leaves the loss
    and every gradient bit-identical."""
    params = tiny_params(seed=3)
    rng = np.random.default_rng(5)
    seqs = [random_sequence(rng, T, params.C, params.m) for T in (2, 5, 3)]

    def loss_and_grads(batch):
        for p in parameters(params.state).values():
            p.grad = None
        loss = prior_nll(params, batch)
        loss.backward()
        return loss.data, [p.grad for p in parameters(params.state).values()]

    clean = batch_from(params, seqs)
    dirty = batch_from(params, seqs)
    lengths = np.array([len(s) for s in seqs])
    pad = np.arange(dirty.codewords.shape[1]) >= lengths[:, None]
    dirty.codewords[pad] = 50.0 * rng.normal(size=(pad.sum(), params.d_latent))
    # the garbage does reach the logits of the padded rows
    assert not np.array_equal(stacked(prior_logits(params, dirty)),
                              stacked(prior_logits(params, clean)))
    (want, want_grads), (got, got_grads) = loss_and_grads(clean), loss_and_grads(dirty)
    assert got == want
    for a, b in zip(got_grads, want_grads):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# logit masks and losses


def test_end_of_set_only_on_partition_zero():
    params = tiny_params(seed=6)
    rng = np.random.default_rng(7)
    seqs = [random_sequence(rng, 3, params.C, params.m)]
    batch = batch_from(params, seqs)
    probs = probabilities(params, batch)
    assert np.all(probs[:, :, 1:, params.m] == 0.0)
    # partition 0 keeps a usable end-of-set class
    assert probs[0, 3, 0, params.m] > 0.0


def test_order_violating_classes_have_zero_probability():
    params = tiny_params(seed=8)
    m = params.m
    idx = np.array([[1, 0], [3, 2], [3, 1]])
    batch = batch_from(params, [idx])
    logits = prior_logits(params, batch)
    probs = probabilities(params, batch)[0]
    # row t on partition 0 forbids classes below the previous index
    assert np.all(probs[1, 0, :1] == 0.0)   # prev index 1
    assert np.all(probs[2, 0, :3] == 0.0)   # prev index 3
    assert np.all(probs[3, 0, :3] == 0.0)
    # row 0 is unconstrained except that nothing is below class 0
    assert np.all(probs[0, 0] > 0.0)
    # masked logits contribute nothing to the loss gradient
    loss = ad.sum_(ad.cross_entropy_with_logits(logits[0], batch.targets[..., 0]))
    loss.backward()
    g = logits[0].grad[0]  # partition 0
    assert np.all(g[1, :1] == 0.0)
    assert np.all(g[2, :3] == 0.0)


def test_targets_place_end_of_set():
    params = tiny_params(seed=10)
    rng = np.random.default_rng(11)
    seqs = [random_sequence(rng, 2, params.C, params.m),
            random_sequence(rng, 4, params.C, params.m)]
    targets = batch_from(params, seqs).targets
    assert targets.shape == (2, 5, params.C)
    assert targets[0, 2, 0] == params.m
    assert targets[1, 4, 0] == params.m
    # nothing after a sequence's end-of-set slot is scored
    assert (targets[0, 2, 1:] == IGNORE).all()
    assert (targets[0, 3:] == IGNORE).all()
    assert (targets[1, :4] >= 0).all()


def test_cross_entropy_confident_and_uniform():
    K = 5
    targets = np.array([[2]])
    peaked = np.full((1, 1, K), -40.0)
    peaked[0, 0, 2] = 40.0
    assert ad.cross_entropy_with_logits(Tensor(peaked), targets).data[0, 0] < 1e-6
    flat = ad.cross_entropy_with_logits(Tensor(np.zeros((1, 1, K))), targets)
    np.testing.assert_allclose(flat.data[0, 0], np.log(K), atol=1e-12)


def test_nll_ignores_batch_ordering():
    params = tiny_params(seed=12)
    rng = np.random.default_rng(13)
    seqs = [random_sequence(rng, t, params.C, params.m)
            for t in (2, 5, 3)]
    a = prior_nll(params, batch_from(params, seqs)).data
    b = prior_nll(params, batch_from(params, seqs[::-1])).data
    np.testing.assert_allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# causality


def test_causality_future_nodes_never_leak():
    params = tiny_params(seed=14, num_blocks=1, d_model=8, heads=2)
    rng = np.random.default_rng(15)
    T = 5
    base_seq = random_sequence(rng, T, params.C, params.m)
    base = stacked(prior_logits(params, batch_from(params, [base_seq])))
    for t in range(T):
        idx = base_seq.copy()
        idx[t] = (idx[t] + 1) % params.m
        batch = batch_from(params, [idx])
        batch.codewords[0, t] += rng.normal(size=batch.codewords[0, t].shape)
        got = stacked(prior_logits(params, batch))
        # rows before t see nothing of node t
        np.testing.assert_array_equal(got[0, :t], base[0, :t])
        # row t partition 0 conditions on nodes < t only
        np.testing.assert_array_equal(got[0, t, 0], base[0, t, 0])


def test_causality_padding_never_leaks():
    params = tiny_params(seed=16)
    rng = np.random.default_rng(17)
    short = random_sequence(rng, 2, params.C, params.m)
    long = random_sequence(rng, 6, params.C, params.m)
    solo = stacked(prior_logits(params, batch_from(params, [short])))
    pair = stacked(prior_logits(params, batch_from(params, [short, long])))
    np.testing.assert_allclose(pair[0, :3], solo[0, :3], atol=1e-9)


# ---------------------------------------------------------------------------
# ancestral sampling


def test_generate_respects_bounds_and_order():
    params = tiny_params(seed=18)
    rng = np.random.default_rng(19)
    books = rand_codebooks(rng, params.C, params.m, params.d_part)
    out = generate(params, books, count=40, seed=5)
    assert len(out) == 40
    for rec in out:
        idx = rec["indices"]
        assert 1 <= idx.shape[0] <= params.n_max
        assert idx.shape[1] == params.C
        assert idx.min() >= 0 and idx.max() < params.m
        assert np.all(np.diff(idx[:, 0]) >= 0)
        if rec["truncated"]:
            assert idx.shape[0] == params.n_max


def test_generate_first_draw_cannot_end_the_set():
    params = tiny_params(seed=20)
    # rig the head so end-of-set dominates everywhere
    params.out[0].b.data[:] = 0.0
    params.out[0].b.data[params.m] = 60.0
    params.out[0].w.data[:] = 0.0
    rng = np.random.default_rng(21)
    books = rand_codebooks(rng, params.C, params.m, params.d_part)
    out = generate(params, books, count=30, seed=9)
    for rec in out:
        assert rec["indices"].shape[0] == 1
        assert not rec["truncated"]


def test_generate_sample_i_independent_of_batch_size():
    params = tiny_params(seed=22)
    rng = np.random.default_rng(23)
    books = rand_codebooks(rng, params.C, params.m, params.d_part)
    small = generate(params, books, count=3, seed=77)
    big = generate(params, books, count=8, seed=77)
    for a, b in zip(small, big[:3]):
        np.testing.assert_array_equal(a["indices"], b["indices"])
        assert a["truncated"] == b["truncated"]


def sampled_logits(monkeypatch, params, books, dtype, seeds):
    """(indices (T, C), truncated, the logits of each of its steps) of
    one sample per seed, drawn by prior.sample in dtype from seeded
    uniforms. The logits are read where the sampler calls
    prior._logits, one sample a call, so row 0 is that sample's (node,
    partition) step. They carry the structural masks but not the
    first-draw end-of-set renormalization, which the sampler applies
    afterwards in place."""
    logits_fn = prior._logits
    seen = []

    def recording(*args):
        logits = logits_fn(*args)
        seen.append(logits.data[0, 0].copy())
        return logits

    out = []
    with monkeypatch.context() as mp:
        mp.setattr(prior, "_logits", recording)
        for seed in seeds:
            start = len(seen)
            u = np.random.default_rng(seed).random((1, params.n_max * params.C))
            indices, lengths, _ = prior.sample(params, books, u, dtype)
            T = int(lengths[0])
            out.append((indices[0, :T], T == params.n_max, seen[start:]))
    return out


def assert_sampler_matches_teacher_forcing(params, books, samples, **tol):
    for idx, truncated, steps in samples:
        T = idx.shape[0]
        batch = pack_sequences([idx], params.n_max, books)
        tf = stacked(prior_logits(params, batch))[0]
        assert len(steps) == T * params.C + (0 if truncated else 1)
        for t in range(T):
            for c in range(params.C):
                np.testing.assert_allclose(steps[t * params.C + c], tf[t, c], **tol)
        if not truncated:
            np.testing.assert_allclose(steps[-1], tf[T, 0], **tol)


def test_generate_matches_teacher_forcing(monkeypatch):
    """The float64 pass, whose draws generate keeps, computes the
    teacher-forced logits of the sequence it draws."""
    params = tiny_params(seed=24, num_blocks=2)
    books = rand_codebooks(np.random.default_rng(25), params.C, params.m, params.d_part)
    samples = sampled_logits(monkeypatch, params, books, np.float64, range(13, 19))
    assert_sampler_matches_teacher_forcing(params, books, samples, atol=1e-9)


def test_float32_sampler_logits_are_close_to_teacher_forcing(monkeypatch):
    """The float32 pass computes the teacher-forced float64 logits of
    the sequence it draws to within float32 rounding: at most 3.7e-7
    off here, on logits up to 1.3 in size, against a 1e-5 bound. Masked
    entries hold MASK_VALUE rounded to float32, 1.5e22 off, within
    rtol."""
    params = tiny_params(seed=24, num_blocks=2)
    books = rand_codebooks(np.random.default_rng(25), params.C, params.m, params.d_part)
    samples = sampled_logits(monkeypatch, params, books, np.float32, range(13, 19))
    assert {steps[0].dtype for _, _, steps in samples} == {np.dtype(np.float32)}
    assert_sampler_matches_teacher_forcing(params, books, samples, rtol=1e-6, atol=1e-5)


def test_generate_frequencies_match_model_distribution():
    params = tiny_params(seed=26, d_latent=4, C=1, m=3, d_model=8, heads=2,
                         num_blocks=1, n_max=2)
    rng = np.random.default_rng(27)
    books = rand_codebooks(rng, params.C, params.m, params.d_part)
    m = params.m

    def row_probs(idx_prefix, row):
        batch = pack_sequences([idx_prefix], params.n_max, books)
        logits = prior_logits(params, batch)[0].data[0, row]
        e = np.exp(logits - logits.max())
        return e / e.sum()

    # exact distribution over complete outcomes: either [k0] via an
    # end-of-set draw, or a truncated pair [k0, k1] with k1 >= k0
    p0 = row_probs(np.array([[0]]), 0).copy()
    p0[m] = 0.0
    p0 /= p0.sum()  # first draw renormalizes end-of-set away
    exact = {}
    for k0 in range(m):
        p1 = row_probs(np.array([[k0]]), 1)
        exact[(k0,)] = p0[k0] * p1[m]
        for k1 in range(k0, m):
            exact[(k0, k1)] = p0[k0] * p1[k1]
    np.testing.assert_allclose(sum(exact.values()), 1.0, atol=1e-12)

    N = 3000
    out = generate(params, books, count=N, seed=31)
    freq = {}
    for rec in out:
        key = tuple(rec["indices"][:, 0].tolist())
        freq[key] = freq.get(key, 0) + 1
    assert set(freq) <= set(exact)
    for key, p in exact.items():
        got = freq.get(key, 0) / N
        tol = 4.0 * np.sqrt(p * (1 - p) / N) + 1e-3
        assert abs(got - p) < tol, (key, got, p)


def test_generate_step_times_track_active_counts():
    params = tiny_params(seed=28)
    rng = np.random.default_rng(29)
    books = rand_codebooks(rng, params.C, params.m, params.d_part)
    times = []
    generate(params, books, count=12, seed=3, step_times=times)
    assert times, "no steps recorded"
    ts = [t for t, _, _ in times]
    assert ts == list(range(len(ts)))
    actives = [a for _, _, a in times]
    # counts are taken after end-of-set deactivation, so only the last
    # step may reach zero
    assert actives[0] > 0
    assert all(a > 0 for a in actives[:-1])
    assert all(b <= a for a, b in zip(actives, actives[1:]))
    assert all(sec >= 0.0 for _, sec, _ in times)
    # no samples: no steps
    times = []
    assert generate(params, books, count=0, seed=3, step_times=times) == []
    assert times == []


# ---------------------------------------------------------------------------
# sequence cache file


def test_sequence_file_roundtrip(tmp_path):
    rng = np.random.default_rng(30)
    seqs = [rng.integers(0, 7, size=(t, 3)) for t in (1, 4, 2, 6)]
    path = tmp_path / "seqs.bin"
    write_sequences(path, 7, 3, seqs)
    m, C, back = read_sequences(path)
    assert (m, C) == (7, 3)
    assert len(back) == len(seqs)
    for a, b in zip(seqs, back):
        np.testing.assert_array_equal(a, b)


def test_sequence_file_rejects_corruption(tmp_path):
    rng = np.random.default_rng(31)
    path = tmp_path / "seqs.bin"
    write_sequences(path, 5, 2, [rng.integers(0, 5, size=(3, 2))])
    raw = path.read_bytes()
    (tmp_path / "trail.bin").write_bytes(raw + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        read_sequences(tmp_path / "trail.bin")
    (tmp_path / "magic.bin").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="not a sequence cache"):
        read_sequences(tmp_path / "magic.bin")
    for cut in (6, 16, 20, 24, len(raw) - 1):
        short = tmp_path / f"cut{cut}.bin"
        short.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match=re.escape(f"{short}: truncated at ")):
            read_sequences(short)
    with pytest.raises(ValueError, match="out of codebook range"):
        write_sequences(tmp_path / "bad.bin", 5, 2, [np.full((2, 2), 5)])
    with pytest.raises(ValueError, match="incompatible"):
        write_sequences(tmp_path / "bad2.bin", 5, 2, [np.zeros((2, 3), dtype=int)])
    with pytest.raises(ValueError, match="must be positive"):
        write_sequences(tmp_path / "bad3.bin", 0, 2, [np.zeros((0, 2), dtype=int)])


def test_sequence_file_bit_flips_load_valid_caches_or_raise(tmp_path):
    """Every single-bit flip of a small cache either raises a ValueError
    naming the file or loads sequences that write_sequences accepts."""
    rng = np.random.default_rng(32)
    path = tmp_path / "seqs.bin"
    write_sequences(path, 5, 2, [rng.integers(0, 5, size=(t, 2)) for t in (3, 1, 4, 2)])
    raw = path.read_bytes()
    flipped = tmp_path / "flipped.bin"
    loaded = 0
    for bit in range(8 * len(raw)):
        data = bytearray(raw)
        data[bit // 8] ^= 1 << (bit % 8)
        flipped.write_bytes(bytes(data))
        try:
            m, C, seqs = read_sequences(flipped)
        except ValueError as err:
            assert str(err).startswith(f"{flipped}: "), err
            continue
        write_sequences(tmp_path / "again.bin", m, C, seqs)
        loaded += 1
    # flips of an index that stays in range load cleanly
    assert 0 < loaded < 8 * len(raw)
