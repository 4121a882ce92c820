"""Autoregressive set prior: ordering, masking, causality, sampling."""

import re

import numpy as np
import pytest

import dgae.autodiff as ad
from dgae import prior
from dgae.autodiff import Tensor
from dgae.prior import (
    IndexSequence,
    PriorParams,
    SequenceBatch,
    attention_2d,
    build_inputs,
    generate,
    nll_from_logits,
    pack_sequences,
    prior_logits,
    prior_nll,
    read_sequences,
    sequence_targets,
    sort_set,
    write_sequences,
)


def tiny_params(seed=0, d_latent=8, C=2, m=4, d_model=16, heads=2,
                num_blocks=2, n_max=8):
    rng = np.random.default_rng(seed)
    return PriorParams(rng, d_latent, C, m, d_model, heads, num_blocks, n_max)


def random_sequence(rng, T, C, d_part, m):
    idx = rng.integers(0, m, size=(T, C))
    cw = rng.normal(size=(T, C, d_part))
    return sort_set(idx, cw)


def batch_from(params, seqs):
    return pack_sequences(seqs, params.n_max)


def rand_codebooks(rng, C, m, d_part):
    return [rng.normal(size=(m, d_part)) for _ in range(C)]


# ---------------------------------------------------------------------------
# canonical ordering


def test_sort_set_example():
    idx = np.array([[3, 1], [1, 2], [1, 1]])
    cw = np.arange(3 * 2 * 2, dtype=np.float64).reshape(3, 2, 2)
    s = sort_set(idx, cw)
    assert s.indices.tolist() == [[1, 1], [1, 2], [3, 1]]
    # codewords travel with their rows
    np.testing.assert_array_equal(s.codewords[2], cw[0])
    np.testing.assert_array_equal(s.codewords[0], cw[2])


def test_sort_set_input_order_irrelevant():
    rng = np.random.default_rng(3)
    idx = rng.integers(0, 5, size=(9, 3))
    cw = rng.normal(size=(9, 3, 2))
    base = sort_set(idx, cw)
    for _ in range(10):
        perm = rng.permutation(9)
        s = sort_set(idx[perm], cw[perm])
        np.testing.assert_array_equal(s.indices, base.indices)
        # rows with equal index tuples are interchangeable, so compare
        # the codeword multiset per tuple
        np.testing.assert_allclose(
            np.sort(s.codewords.reshape(9, -1), axis=0),
            np.sort(base.codewords.reshape(9, -1), axis=0))


def test_sort_set_partition_zero_most_significant():
    idx = np.array([[2, 0], [1, 9], [2, 1]])
    cw = np.zeros((3, 2, 1))
    s = sort_set(idx, cw)
    assert s.indices[:, 0].tolist() == [1, 2, 2]
    assert s.indices.tolist() == [[1, 9], [2, 0], [2, 1]]


def test_pack_sequences_rejects_bad_lengths():
    rng = np.random.default_rng(0)
    good = random_sequence(rng, 3, 2, 2, 4)
    empty = IndexSequence(np.zeros((0, 2), dtype=np.int64), np.zeros((0, 2, 2)))
    with pytest.raises(ValueError):
        pack_sequences([good, empty], n_max=8)
    with pytest.raises(ValueError):
        pack_sequences([good], n_max=2)


# ---------------------------------------------------------------------------
# input construction


def test_build_inputs_virtual_start_row():
    params = tiny_params(seed=1)
    rng = np.random.default_rng(2)
    seqs = [random_sequence(rng, 4, params.C, params.d_part, params.m)]
    x = build_inputs(params, batch_from(params, seqs))
    assert x.shape == (1, 5, params.C, params.d_model)
    # row 0 has no previous node: projection of zeros is the bias, plus
    # the position encoding for slot 0
    want0 = params.in_proj[0].b.data + params.pos_table[0]
    np.testing.assert_allclose(x.data[0, 0, 0], want0, atol=1e-12)


def test_build_inputs_projection_widths():
    params = tiny_params(seed=1)
    for c in range(params.C):
        assert params.in_proj[c].w.shape == (
            params.d_latent + c * params.d_part, params.d_model)


def test_build_inputs_partition_context():
    """Partition c at row t sees node t-1 fully and node t only below c."""
    params = tiny_params(seed=4)
    rng = np.random.default_rng(5)
    s = random_sequence(rng, 3, params.C, params.d_part, params.m)
    base = build_inputs(params, batch_from(params, [s])).data
    bumped = IndexSequence(s.indices.copy(), s.codewords.copy())
    bumped.codewords[1, 1] += 1.0  # node 1, partition 1
    got = build_inputs(params, batch_from(params, [bumped])).data
    # row 1 partition 0 and partition 1 depend only on node 0 and on
    # node 1's partitions below each slot, so both are unchanged
    np.testing.assert_array_equal(got[0, 1], base[0, 1])
    assert not np.allclose(got[0, 2], base[0, 2])


# ---------------------------------------------------------------------------
# set attention


def test_attention_single_predecessor_returns_value():
    rng = np.random.default_rng(0)
    B, H, T, C, dk = 2, 3, 2, 3, 4
    q = Tensor(rng.normal(size=(B, H, T, C, dk)))
    k = Tensor(rng.normal(size=(B, H, T, dk)))
    v = Tensor(rng.normal(size=(B, H, T, dk)))
    out = attention_2d(q, k, v)
    assert out.shape == (B, H, T, C, dk)
    np.testing.assert_array_equal(out.data[:, :, 0], np.zeros((B, H, C, dk)))
    for c in range(C):
        np.testing.assert_allclose(out.data[:, :, 1, c], v.data[:, :, 0], atol=1e-12)


def test_attention_uniform_scores_give_mean():
    rng = np.random.default_rng(1)
    B, H, T, C, dk = 2, 3, 5, 2, 4
    q = Tensor(np.zeros((B, H, T, C, dk)))
    k = Tensor(rng.normal(size=(B, H, T, dk)))
    v = Tensor(rng.normal(size=(B, H, T, dk)))
    out = attention_2d(q, k, v).data
    for t in range(1, T):
        want = v.data[:, :, :t].mean(axis=2)
        for c in range(C):
            np.testing.assert_allclose(out[:, :, t, c], want, atol=1e-12)


def test_attention_ignores_future_and_present_keys():
    rng = np.random.default_rng(2)
    B, H, T, C, dk = 2, 3, 6, 2, 4
    q = Tensor(rng.normal(size=(B, H, T, C, dk)))
    k0 = rng.normal(size=(B, H, T, dk))
    v0 = rng.normal(size=(B, H, T, dk))
    base = attention_2d(q, Tensor(k0), Tensor(v0)).data
    for t in range(T):
        k1, v1 = k0.copy(), v0.copy()
        k1[:, :, t:] += rng.normal(size=(B, H, T - t, dk))
        v1[:, :, t:] += rng.normal(size=(B, H, T - t, dk))
        got = attention_2d(q, Tensor(k1), Tensor(v1)).data
        np.testing.assert_array_equal(got[:, :, :t + 1], base[:, :, :t + 1])


def test_attention_over_key_prefix_matches_full_sequence():
    """The sampler's step: the queries of position t alone, over the
    keys and values of positions 0..t, give row t of the full result."""
    rng = np.random.default_rng(4)
    B, H, T, C, dk = 3, 2, 5, 3, 4
    q = rng.normal(size=(B, H, T, C, dk))
    k = rng.normal(size=(B, H, T, dk))
    v = rng.normal(size=(B, H, T, dk))
    full = attention_2d(Tensor(q), Tensor(k), Tensor(v)).data
    for t in range(T):
        got = attention_2d(Tensor(q[:, :, t:t + 1]), Tensor(k[:, :, :t + 1]),
                           Tensor(v[:, :, :t + 1])).data
        assert got.shape == (B, H, 1, C, dk)
        np.testing.assert_allclose(got, full[:, :, t:t + 1], rtol=0, atol=1e-12)
    first = attention_2d(Tensor(q[:, :, :1]), Tensor(k[:, :, :1]), Tensor(v[:, :, :1])).data
    np.testing.assert_array_equal(first, np.zeros((B, H, 1, C, dk)))


def test_attention_padding_keys_excluded():
    rng = np.random.default_rng(3)
    B, H, T, C, dk = 2, 2, 4, 2, 3
    q = Tensor(rng.normal(size=(B, H, T, C, dk)))
    k = rng.normal(size=(B, H, T, dk))
    v = rng.normal(size=(B, H, T, dk))
    kv_valid = np.array([[True, True, False, False]] * B)
    base = attention_2d(q, Tensor(k), Tensor(v), kv_valid).data
    k2, v2 = k.copy(), v.copy()
    k2[:, :, 2:] = 99.0
    v2[:, :, 2:] = -99.0
    got = attention_2d(q, Tensor(k2), Tensor(v2), kv_valid).data
    np.testing.assert_array_equal(got, base)


# ---------------------------------------------------------------------------
# logit masks and losses


def test_end_of_set_only_on_partition_zero():
    params = tiny_params(seed=6)
    rng = np.random.default_rng(7)
    seqs = [random_sequence(rng, 3, params.C, params.d_part, params.m)]
    batch = batch_from(params, seqs)
    probs = ad.softmax(prior_logits(params, batch), axis=-1).data
    assert np.all(probs[:, :, 1:, params.m] == 0.0)
    # partition 0 keeps a usable end-of-set class
    assert probs[0, 3, 0, params.m] > 0.0


def test_order_violating_classes_have_zero_probability():
    params = tiny_params(seed=8)
    m, C, dp = params.m, params.C, params.d_part
    idx = np.array([[1, 0], [3, 2], [3, 1]])
    cw = np.random.default_rng(9).normal(size=(3, C, dp))
    batch = batch_from(params, [IndexSequence(idx, cw)])
    logits = prior_logits(params, batch)
    probs = ad.softmax(logits, axis=-1).data[0]
    # row t on partition 0 forbids classes below the previous index
    assert np.all(probs[1, 0, :1] == 0.0)   # prev index 1
    assert np.all(probs[2, 0, :3] == 0.0)   # prev index 3
    assert np.all(probs[3, 0, :3] == 0.0)
    # row 0 is unconstrained except that nothing is below class 0
    assert np.all(probs[0, 0] > 0.0)
    # masked logits contribute nothing to the loss gradient
    targets, loss_mask = sequence_targets(params, batch)
    loss = nll_from_logits(logits, targets, loss_mask)
    loss.backward()
    g = logits.grad[0]
    assert np.all(g[1, 0, :1] == 0.0)
    assert np.all(g[2, 0, :3] == 0.0)


def test_sequence_targets_places_end_of_set():
    params = tiny_params(seed=10)
    rng = np.random.default_rng(11)
    seqs = [random_sequence(rng, 2, params.C, params.d_part, params.m),
            random_sequence(rng, 4, params.C, params.d_part, params.m)]
    batch = batch_from(params, seqs)
    targets, loss_mask = sequence_targets(params, batch)
    assert targets.shape == (2, 5, params.C)
    assert targets[0, 2, 0] == params.m and loss_mask[0, 2, 0]
    assert targets[1, 4, 0] == params.m and loss_mask[1, 4, 0]
    # nothing after a sequence's end-of-set slot is scored
    assert not loss_mask[0, 2, 1:].any()
    assert not loss_mask[0, 3:].any()
    assert loss_mask[1, :4].all()


def test_nll_from_logits_confident_and_uniform():
    K = 5
    targets = np.array([[[2]]])
    loss_mask = np.ones((1, 1, 1), dtype=bool)
    peaked = np.full((1, 1, 1, K), -40.0)
    peaked[0, 0, 0, 2] = 40.0
    assert nll_from_logits(Tensor(peaked), targets, loss_mask).data < 1e-6
    flat = nll_from_logits(Tensor(np.zeros((1, 1, 1, K))), targets, loss_mask)
    np.testing.assert_allclose(flat.data, np.log(K), atol=1e-12)


def test_nll_ignores_batch_ordering():
    params = tiny_params(seed=12)
    rng = np.random.default_rng(13)
    seqs = [random_sequence(rng, t, params.C, params.d_part, params.m)
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
    base_seq = random_sequence(rng, T, params.C, params.d_part, params.m)
    base = prior_logits(params, batch_from(params, [base_seq])).data
    for t in range(T):
        idx = base_seq.indices.copy()
        cw = base_seq.codewords.copy()
        idx[t] = (idx[t] + 1) % params.m
        cw[t] += rng.normal(size=cw[t].shape)
        got = prior_logits(
            params, batch_from(params, [IndexSequence(idx, cw)])).data
        # rows before t see nothing of node t
        np.testing.assert_array_equal(got[0, :t], base[0, :t])
        # row t partition 0 conditions on nodes < t only
        np.testing.assert_array_equal(got[0, t, 0], base[0, t, 0])


def test_causality_padding_never_leaks():
    params = tiny_params(seed=16)
    rng = np.random.default_rng(17)
    short = random_sequence(rng, 2, params.C, params.d_part, params.m)
    long = random_sequence(rng, 6, params.C, params.d_part, params.m)
    solo = prior_logits(params, pack_sequences([short], params.n_max)).data
    pair = prior_logits(params, pack_sequences([short, long], params.n_max)).data
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


def test_generate_matches_teacher_forcing(monkeypatch):
    params = tiny_params(seed=24, num_blocks=2)
    rng = np.random.default_rng(25)
    books = rand_codebooks(rng, params.C, params.m, params.d_part)
    # the sampler's logits, read where it calls prior._logits: one sample
    # a call, so row 0 is that sample's (node, partition) step. They carry
    # the structural masks but not the first-draw end-of-set
    # renormalization, which the sampler applies afterwards in place
    logits_fn = prior._logits
    seen = []

    def recording(*args):
        logits = logits_fn(*args)
        seen.append(logits.data[0, 0, 0].copy())
        return logits

    out = []
    with monkeypatch.context() as mp:
        mp.setattr(prior, "_logits", recording)
        for seed in range(13, 19):
            start = len(seen)
            rec = generate(params, books, count=1, seed=seed)[0]
            out.append((rec, seen[start:]))
    for rec, steps in out:
        idx = rec["indices"]
        T = idx.shape[0]
        cw = np.stack([books[c][idx[:, c]] for c in range(params.C)], axis=1)
        batch = pack_sequences([IndexSequence(idx, cw)], params.n_max)
        tf = prior_logits(params, batch).data[0]
        want = T * params.C + (0 if rec["truncated"] else 1)
        assert len(steps) == want
        for t in range(T):
            for c in range(params.C):
                np.testing.assert_allclose(
                    steps[t * params.C + c], tf[t, c], atol=1e-9)
        if not rec["truncated"]:
            np.testing.assert_allclose(steps[-1], tf[T, 0], atol=1e-9)


def test_generate_frequencies_match_model_distribution():
    params = tiny_params(seed=26, d_latent=4, C=1, m=3, d_model=8, heads=2,
                         num_blocks=1, n_max=2)
    rng = np.random.default_rng(27)
    books = rand_codebooks(rng, params.C, params.m, params.d_part)
    m = params.m

    def row_probs(idx_prefix, row):
        cw = np.stack([books[c][idx_prefix[:, c]] for c in range(params.C)],
                      axis=1)
        batch = pack_sequences([IndexSequence(idx_prefix, cw)], params.n_max)
        logits = prior_logits(params, batch).data[0, row, 0]
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
