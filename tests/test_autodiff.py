import inspect
import sys
import weakref

import numpy as np
import pytest

from dgae import autodiff as ad
from dgae.autodiff import (BatchNormState, MASK_VALUE, PairIndex, ShapeError, Tensor,
                           batchnorm, cross_entropy_with_logits, layernorm,
                           straight_through)
from oracles import attention_chain, concat, grad_check, matmul, reshape, softmax

TOL = 1e-4


def t(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def primitive_grad_cases(rng):
    """(name, f, inputs) triples covering every differentiable primitive.

    Each f maps its Tensor list to a scalar; pre-activations of the
    fused ReLU are kept away from its kink so central differences are
    valid.
    """
    a34 = rng.normal(size=(3, 4))
    b34 = rng.normal(size=(3, 4))
    b4 = rng.normal(size=(4,))
    m45 = rng.normal(size=(4, 5))
    # one mask per batch row, broadcast over the heads
    per_batch = rng.random((2, 1, 2, 3)) < 0.6
    a64 = rng.normal(size=(6, 4))
    w125 = rng.normal(size=(12, 5))
    b5 = rng.normal(size=(5,))
    # pairs over two padded graphs of three node rows each: not
    # symmetric, and node row 5 (padding) is in no pair, so both of
    # its segments are empty
    pairs = PairIndex([0, 0, 1, 2, 3, 4], [1, 2, 2, 0, 4, 3], 6)
    no_pairs = PairIndex([], [], 3)
    # for the fused ReLU: inputs and weights scaled by 0.1 move a
    # pre-activation less than 1.1 from its bias of +-2, so every one
    # stays clear of 0, and columns 1 and 3 are cut off
    kinkless = np.array([2.0, -2.0, 2.0, -2.0, 2.0])

    def wsum(x):
        # weighted sum making every output coordinate matter unevenly
        w = np.linspace(0.5, 1.5, x.data.size).reshape(x.shape)
        return ad.sum_(ad.mul(x, Tensor(w)))

    cases = [
        ("add", lambda xs: wsum(ad.add(xs[0], xs[1])), [t(a34), t(b34)]),
        ("add_broadcast", lambda xs: wsum(ad.add(xs[0], xs[1])), [t(a34), t(b4)]),
        ("mul", lambda xs: wsum(ad.mul(xs[0], xs[1])), [t(a34), t(b34)]),
        ("mul_broadcast", lambda xs: wsum(ad.mul(xs[0], xs[1])), [t(a34), t(b4)]),
        # matmul, concat and reshape live in the oracles, which build
        # the dense references from them
        ("matmul", lambda xs: wsum(matmul(xs[0], xs[1])), [t(a34), t(m45)]),
        ("affine", lambda xs: wsum(ad.affine(xs[0], xs[1], xs[2])),
         [t(a34), t(m45), t(rng.normal(size=(5,)))]),
        ("affine_3d", lambda xs: wsum(ad.affine(xs[0], xs[1], xs[2])),
         [t(rng.normal(size=(2, 3, 4))), t(m45), t(rng.normal(size=(5,)))]),
        ("matmul_batched", lambda xs: wsum(matmul(xs[0], xs[1])),
         [t(rng.normal(size=(2, 3, 4))), t(rng.normal(size=(2, 4, 2)))]),
        ("concat", lambda xs: wsum(concat([xs[0], xs[1]], axis=1)),
         [t(a34), t(b34)]),
        ("reshape", lambda xs: wsum(reshape(xs[0], (4, 3))), [t(a34)]),
        # two heads of width 3; query row 0 has no allowed key, and there
        # are more keys than queries
        ("causal_attention", lambda xs: wsum(ad.causal_attention(
            xs[0], xs[1], xs[2], np.arange(4) < np.array([[0], [2], [3]]), 2)),
         [t(rng.normal(size=(2, 3, 6))), t(rng.normal(size=(2, 4, 6))),
          t(rng.normal(size=(2, 4, 6)))]),
        ("causal_attention_one_head", lambda xs: wsum(ad.causal_attention(
            xs[0], xs[1], xs[2], np.arange(3) < np.array([[1], [3]]), 1)),
         [t(rng.normal(size=(2, 2, 3))), t(rng.normal(size=(2, 3, 3))),
          t(rng.normal(size=(2, 3, 3)))]),
        ("causal_attention_per_batch_mask", lambda xs: wsum(ad.causal_attention(
            xs[0], xs[1], xs[2], per_batch, 3)),
         [t(rng.normal(size=(2, 2, 6))), t(rng.normal(size=(2, 3, 6))),
          t(rng.normal(size=(2, 3, 6)))]),
        # node width 4 into 5 outputs: every block of w is non-square
        ("pair_affine", lambda xs: wsum(ad.pair_affine(xs[0], xs[1], xs[2], pairs, xs[3])),
         [t(a64), t(w125), t(b5), t(rng.normal(size=(6, 4)))]),
        ("pair_affine_no_edge", lambda xs: wsum(ad.pair_affine(xs[0], xs[1], xs[2], pairs)),
         [t(a64), t(w125), t(b5)]),
        ("pair_affine_no_pairs",
         lambda xs: wsum(ad.pair_affine(xs[0], xs[1], xs[2], no_pairs, xs[3])),
         [t(a34), t(w125), t(b5), t(np.zeros((0, 4)))]),
        ("segment_sum", lambda xs: wsum(ad.segment_sum(xs[0], pairs)),
         [t(rng.normal(size=(6, 4)))]),
        ("segment_sum_weighted",
         lambda xs: wsum(ad.segment_sum(xs[0], pairs, np.array([2, 1, 3, 0, 1, 2]))),
         [t(rng.normal(size=(6, 4)))]),
        ("segment_sum_no_pairs", lambda xs: wsum(ad.segment_sum(xs[0], no_pairs)),
         [t(np.zeros((0, 4)))]),
        ("permute_rows", lambda xs: wsum(ad.permute_rows(xs[0], pairs.t)),
         [t(rng.normal(size=(6, 4)))]),
        ("sum_all", lambda xs: ad.sum_(xs[0]), [t(a34)]),
        ("affine_relu", lambda xs: wsum(ad.affine(xs[0], xs[1], xs[2], relu=True)),
         [t(0.1 * a34), t(0.1 * m45), t(kinkless)]),
        ("pair_affine_relu",
         lambda xs: wsum(ad.pair_affine(xs[0], xs[1], xs[2], pairs, xs[3], relu=True)),
         [t(0.1 * a64), t(0.1 * w125), t(kinkless), t(0.1 * rng.normal(size=(6, 4)))]),
        # the taped softmax lives in the oracles, which the attention
        # reference builds on
        ("softmax", lambda xs: wsum(softmax(xs[0], axis=-1)), [t(a34)]),
        # small fill value: a -1e30 constant in the loss would swamp the
        # finite differences of every other coordinate
        ("masked_fill", lambda xs: wsum(ad.masked_fill(
            xs[0], np.array([[True, False, False, True]] * 3), -3.0)),
         [t(a34)]),
        ("cross_entropy", lambda xs: wsum(cross_entropy_with_logits(
            xs[0], np.array([1, 0, 3]))), [t(a34)]),
        ("cross_entropy_ignored_row", lambda xs: wsum(cross_entropy_with_logits(
            xs[0], np.array([1, -1, 3]))), [t(a34)]),
        ("layernorm", lambda xs: wsum(layernorm(xs[0], xs[1], xs[2])),
         [t(a34), t(np.ones(4) + 0.1 * b4), t(0.1 * b4)]),
        # the estimator is the true gradient where z_q - z_h does not
        # depend on z_h; a gradient sent to z_q as well would double it
        ("straight_through", lambda xs: wsum(straight_through(
            xs[0], ad.add(xs[0], Tensor(b34)))), [t(a34)]),
    ]
    return cases


def batchnorm_grad_cases(rng):
    """Batchnorm checked separately: the state must be rebuilt per call
    so finite differences see a pure function.
    """
    x = rng.normal(size=(6, 3)) * 2 + 1
    gamma = 1.0 + 0.1 * rng.normal(size=(3,))
    beta = 0.1 * rng.normal(size=(3,))

    def trained(xs):
        st = BatchNormState({}, "bn", 3)
        st.gamma = xs[1]
        st.beta = xs[2]
        out = batchnorm(xs[0], st, train=True)
        w = np.linspace(0.5, 1.5, out.data.size).reshape(out.shape)
        return ad.sum_(ad.mul(out, Tensor(w)))

    def evaluated(xs):
        st = BatchNormState({}, "bn", 3)
        st.gamma, st.beta = xs[1], xs[2]
        st.running_mean = np.array([0.5, -1.0, 2.0])
        st.running_var = np.array([0.25, 3.0, 1.5])
        out = batchnorm(xs[0], st, train=False)
        w = np.linspace(0.5, 1.5, out.data.size).reshape(out.shape)
        return ad.sum_(ad.mul(out, Tensor(w)))

    return [("batchnorm", trained, [t(x), t(gamma), t(beta)]),
            ("batchnorm_eval", evaluated, [t(x), t(gamma), t(beta)])]


def run_primitive_grad_suite():
    rng = np.random.default_rng(42)
    worst = {}
    for name, f, inputs in primitive_grad_cases(rng) + batchnorm_grad_cases(rng):
        worst[name] = grad_check(f, inputs)
    return worst


def test_primitive_gradients():
    for name, err in run_primitive_grad_suite().items():
        assert err <= TOL, f"{name}: max relative error {err:.2e}"


def test_every_primitive_has_a_gradient_case(monkeypatch):
    """Each public autodiff function that records a node is run by a
    case of the gradient suite, so no primitive lands without a check."""
    primitives = {name for name, fn in inspect.getmembers(ad, inspect.isfunction)
                  if fn.__module__ == ad.__name__ and not name.startswith("_")
                  and "_node(" in inspect.getsource(fn)}
    recorded = set()
    node = ad._node

    def recording(data, parents, backward):
        recorded.add(sys._getframe(1).f_code.co_name)
        return node(data, parents, backward)

    monkeypatch.setattr(ad, "_node", recording)
    rng = np.random.default_rng(0)
    for _, f, inputs in primitive_grad_cases(rng) + batchnorm_grad_cases(rng):
        f(inputs)
    assert "affine" in primitives and "pair_affine" in primitives
    assert primitives - recorded == set()


def test_relu_pointwise():
    """affine(relu=True) is max(x @ w + b, 0): no gradient passes where
    the pre-activation is negative, and NaN propagates, not mapped to 0."""
    x, w, b = t([[-2.0], [3.0]]), t([[1.0]]), t([0.0])
    y = ad.affine(x, w, b, relu=True)
    ad.sum_(y).backward()
    assert np.array_equal(y.data, [[0.0], [3.0]])
    assert np.array_equal(x.grad, [[0.0], [1.0]])
    assert np.array_equal(w.grad, [[3.0]]) and np.array_equal(b.grad, [1.0])
    assert np.isnan(ad.affine(t([[np.nan]]), w, b, relu=True).data[0, 0])


def test_softmax_single_unmasked_logit():
    row = Tensor(np.array([[2.7, MASK_VALUE, MASK_VALUE]]))
    p = softmax(row, axis=-1)
    assert p.data[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert p.data[0, 1] == 0.0 and p.data[0, 2] == 0.0


def test_softmax_all_masked_row_is_finite():
    row = Tensor(np.full((1, 4), MASK_VALUE))
    p = softmax(row, axis=-1)
    assert np.all(np.isfinite(p.data))
    assert np.allclose(p.data, 0.25)


@pytest.mark.parametrize("mask_shape", [(3, 5), (2, 1, 3, 5), (2, 4, 3, 5)])
def test_causal_attention_matches_the_taped_chain(mask_shape):
    """Forward and all three gradients against oracles.attention_chain,
    with more keys than queries and a query row with no allowed key."""
    rng = np.random.default_rng(11)
    B, R, S, H, d = 2, 3, 5, 4, 3
    q, k, v = (rng.normal(size=(B, n, H * d)) for n in (R, S, S))
    allowed = rng.random(mask_shape) < 0.5
    allowed[..., 0, :] = False
    g = rng.normal(size=(B, R, H * d))

    ts = [t(a) for a in (q, k, v)]
    out = ad.causal_attention(*ts, allowed, H)
    ad.sum_(ad.mul(out, Tensor(g))).backward()

    def heads(a):  # (B, n, H*d) -> (B, H, n, d)
        return np.swapaxes(a.reshape(B, -1, H, d), 1, 2)

    def merged(a):  # (B, H, n, d) -> (B, n, H*d)
        return np.swapaxes(a, 1, 2).reshape(B, -1, H * d)

    head_major = [t(heads(q)), t(np.swapaxes(heads(k), 2, 3)), t(heads(v))]
    want = attention_chain(*head_major, allowed)
    ad.sum_(ad.mul(want, Tensor(heads(g)))).backward()

    np.testing.assert_array_equal(out.data[:, 0], 0.0)
    np.testing.assert_allclose(out.data, merged(want.data), rtol=0, atol=1e-12)
    for got, ref in zip((ts[0].grad, ts[1].grad, ts[2].grad),
                        (merged(head_major[0].grad),
                         merged(np.swapaxes(head_major[1].grad, 2, 3)),
                         merged(head_major[2].grad))):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


def test_causal_attention_over_no_keys_is_zeros():
    """The sampler's first node attends over an empty key set: the
    output is zeros, q gets a zero gradient, and k, v empty ones."""
    rng = np.random.default_rng(12)
    q, k, v = t(rng.normal(size=(2, 1, 6))), t(np.zeros((2, 0, 6))), t(np.zeros((2, 0, 6)))
    out = ad.causal_attention(q, k, v, np.ones((1, 0), dtype=bool), 2)
    ad.sum_(ad.mul(out, Tensor(rng.normal(size=(2, 1, 6))))).backward()
    np.testing.assert_array_equal(out.data, np.zeros((2, 1, 6)))
    np.testing.assert_array_equal(q.grad, np.zeros((2, 1, 6)))
    assert k.grad.shape == v.grad.shape == (2, 0, 6)


def test_sum_of_squares_gradient():
    x = t([1.0, 2.0, 3.0])
    y = ad.sum_(ad.mul(x, x))
    y.backward()
    assert np.allclose(x.grad, [2.0, 4.0, 6.0])


def test_straight_through_forward_and_grads():
    z_h = t([1.0, 1.0])
    z_q = t([0.0, 2.0])
    out = straight_through(z_h, z_q)
    assert np.array_equal(out.data, [0.0, 2.0])
    loss = ad.sum_(out)
    loss.backward()
    assert np.array_equal(z_h.grad, [1.0, 1.0])
    assert z_q.grad is None or np.array_equal(z_q.grad, [0.0, 0.0])


def test_straight_through_gradient_is_bit_exact():
    rng = np.random.default_rng(0)
    z_h = t(rng.normal(size=(5, 4)))
    z_q = Tensor(rng.normal(size=(5, 4)))
    out = straight_through(z_h, z_q)
    w = rng.normal(size=(5, 4))
    ad.sum_(ad.mul(out, Tensor(w))).backward()
    # the exact array the quantizer output would have received
    assert np.array_equal(z_h.grad, w)


def test_cross_entropy_perfect_prediction():
    logits = Tensor(np.array([[100.0, 0.0, 0.0], [0.0, 100.0, 0.0]]))
    ce = cross_entropy_with_logits(logits, np.array([0, 1]))
    assert float(ce.data.max()) < 1e-6


def test_cross_entropy_uniform_is_log_k():
    logits = Tensor(np.zeros((3, 2)))
    ce = cross_entropy_with_logits(logits, np.array([0, 1, 0]))
    assert np.allclose(ce.data, np.log(2.0))


def test_cross_entropy_negative_target_scores_zero_with_no_gradient():
    """A row whose target is negative (prior.IGNORE) scores exactly 0 and
    gets exactly zero gradient; the other rows score and get what they
    would without it."""
    logits = Tensor(np.random.default_rng(3).normal(size=(3, 4)), requires_grad=True)
    ce = cross_entropy_with_logits(logits, np.array([2, -1, 0]))
    ad.sum_(ce).backward()
    assert ce.data[1] == 0.0
    assert np.array_equal(logits.grad[1], np.zeros(4))
    kept = Tensor(logits.data[[0, 2]], requires_grad=True)
    ce_kept = cross_entropy_with_logits(kept, np.array([2, 0]))
    ad.sum_(ce_kept).backward()
    assert np.array_equal(ce.data[[0, 2]], ce_kept.data)
    assert np.array_equal(logits.grad[[0, 2]], kept.grad)


def test_cross_entropy_shape_mismatch():
    with pytest.raises(ShapeError):
        cross_entropy_with_logits(Tensor(np.zeros((2, 3))), np.array([0]))


def test_batchnorm_eval_is_fixed_affine():
    """In eval mode each row maps through the same affine function,
    independent of what else is in the batch.
    """
    st = BatchNormState({}, "bn", 3)
    rng = np.random.default_rng(1)
    # train once so the running stats are non-trivial
    batchnorm(Tensor(rng.normal(size=(20, 3)) * 3 + 2), st, train=True)
    row = rng.normal(size=(1, 3))
    alone = batchnorm(Tensor(row), st, train=False).data
    crowd = batchnorm(Tensor(np.vstack([row, rng.normal(size=(7, 3)) * 10])),
                      st, train=False).data
    assert np.array_equal(alone[0], crowd[0])


def test_backward_accumulates_through_reuse():
    x = t([2.0])
    y = ad.add(ad.mul(x, x), ad.mul(x, Tensor(np.array([3.0]))))
    ad.sum_(y).backward()
    assert np.allclose(x.grad, [2 * 2.0 + 3.0])


def test_backward_releases_each_interior_node_once_its_gradient_has_passed():
    """An activation only the tape holds is freed by backward(), data
    and all. Visited nodes keep no closure and no parents, and leaves and
    interior tensors the caller still holds keep their gradients."""
    rng = np.random.default_rng(4)
    x, w, b = Tensor(rng.normal(size=(5, 3))), t(rng.normal(size=(3, 4))), t(np.zeros(4))

    def forward():
        hidden = ad.affine(x, w, b, relu=True)
        return ad.mul(hidden, hidden), weakref.ref(hidden.data)

    out, hidden_data = forward()
    loss = ad.sum_(out)
    assert hidden_data() is not None
    loss.backward()
    assert hidden_data() is None
    assert w.grad.shape == (3, 4) and b.grad.shape == (4,) and x.grad is None
    np.testing.assert_array_equal(out.grad, np.ones((5, 4)))
    for node in (loss, out):
        assert node._parents == () and node._backward is None


def test_a_root_is_walked_once_and_needs_a_graph():
    """A second backward() on the same root raises instead of adding
    every gradient again, and so does a scalar that recorded no graph.
    A scalar leaf root can be walked again."""
    w = t([1.0, 2.0])
    loss = ad.sum_(ad.mul(w, w))
    loss.backward()
    with pytest.raises(RuntimeError):
        loss.backward()
    np.testing.assert_array_equal(w.grad, [2.0, 4.0])
    with ad.no_grad():
        untaped = ad.sum_(ad.mul(w, w))
    for root in (untaped, Tensor(2.0)):
        with pytest.raises(RuntimeError):
            root.backward()
    leaf = Tensor(2.0, requires_grad=True)
    leaf.backward()
    leaf.backward()
    assert leaf.requires_grad and leaf.grad == 1.0


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_pair_affine_shape_errors():
    pairs = PairIndex([0, 1], [1, 0], 2)
    x, w, b, e = (Tensor(np.zeros(s)) for s in ((2, 4), (12, 5), (5,), (2, 4)))
    ad.pair_affine(x, w, b, pairs, e)
    with pytest.raises(ShapeError):
        ad.pair_affine(x, Tensor(np.zeros((8, 5))), b, pairs)  # w without its W_e block
    with pytest.raises(ShapeError):
        ad.pair_affine(x, w, Tensor(np.zeros(4)), pairs, e)
    with pytest.raises(ShapeError):
        ad.pair_affine(x, w, b, pairs, Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeError):
        ad.pair_affine(x, w, b, PairIndex([0], [1], 2), e)
    with pytest.raises(ShapeError):
        ad.pair_affine(x, w, b, PairIndex([0, 1], [1, 0], 3), e)


def test_pair_affine_without_pair_rows_gives_w_e_an_exact_zero_gradient():
    rng = np.random.default_rng(3)
    pairs = PairIndex([0, 0, 1, 2], [1, 2, 0, 1], 3)
    x, w, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=(12, 5))), t(rng.normal(size=5))
    out = ad.pair_affine(x, w, b, pairs)
    want = np.concatenate([x.data[pairs.i], x.data[pairs.j], np.zeros((4, 4))], 1) @ w.data
    np.testing.assert_allclose(out.data, want + b.data, rtol=0, atol=1e-12)
    ad.sum_(out).backward()
    assert w.grad.shape == (12, 5) and not w.grad[8:].any()
    assert w.grad[:8].all()


def test_segment_sum_by_j_matches_a_per_node_sum():
    # pairs sorted by i, not by j; node 2 is no pair's j, node 4 in no pair
    i, j = np.array([0, 0, 1, 1, 1, 3, 3]), np.array([3, 1, 3, 0, 1, 1, 0])
    x = np.random.default_rng(5).normal(size=(7, 3))
    want = np.stack([x[j == v].sum(axis=0) for v in range(5)])
    np.testing.assert_array_equal(PairIndex(i, j, 5).segment_sum(x, by_j=True), want)


def test_no_grad_records_no_tape_and_restores_the_mode():
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    x = Tensor(np.arange(6.0).reshape(2, 3))

    b = Tensor(np.zeros(2))

    def recorded():
        y = ad.affine(x, w, b, relu=True)
        return y.requires_grad and y._parents != () and y._backward is not None

    def untaped(y):
        return not y.requires_grad and y._parents == () and y._backward is None

    with ad.no_grad():
        assert untaped(ad.affine(x, w, b, relu=True))
        with ad.no_grad():
            assert untaped(ad.layernorm(x, Tensor(np.ones(3), requires_grad=True),
                                        Tensor(np.zeros(3), requires_grad=True)))
        assert untaped(ad.affine(x, w, b))  # the inner exit keeps the outer mode
    assert recorded()
    with pytest.raises(KeyError):
        with ad.no_grad():
            raise KeyError("boom")
    assert recorded()


def test_parameterised_ops_compute_in_their_activations_dtype():
    """Given a float32 activation, affine and pair_affine (with and
    without the fused ReLU), layernorm, eval-mode batchnorm and mul cast
    their float64 weights, statistics and other operands to it, and add,
    softmax, masked_fill and causal_attention keep float32 operands
    float32; each returns float32 close to the float64 answer, and the
    float64 parameters are left as they are."""
    rng = np.random.default_rng(4)
    w, b, gamma = (Tensor(rng.normal(size=shape)) for shape in ((12, 5), (5,), (4,)))
    pairs = PairIndex([0, 0, 1, 2, 3], [1, 2, 2, 0, 1], 4)
    st = BatchNormState({}, "bn", 4)
    batchnorm(Tensor(rng.normal(size=(20, 4)) * 3 + 2), st, train=True)
    ops = [lambda x: ad.affine(x, Tensor(w.data[:4]), b),
           lambda x: ad.affine(x, Tensor(w.data[:4]), b, relu=True),
           lambda x: ad.pair_affine(x, w, b, pairs),
           lambda x: ad.pair_affine(x, w, b, pairs, relu=True),
           lambda x: layernorm(x, gamma, Tensor(w.data[0, :4])),
           lambda x: batchnorm(x, st, train=False),
           lambda x: ad.mul(x, 0.5), lambda x: ad.mul(x, gamma),
           lambda x: ad.add(x, x), lambda x: softmax(x),
           lambda x: ad.masked_fill(x, np.eye(4, dtype=bool), ad.MASK_VALUE),
           lambda x: ad.causal_attention(x[None], x[None], x[None],
                                         np.tri(4, k=-1, dtype=bool), 2)]
    x = rng.normal(size=(4, 4))
    with ad.no_grad():
        for op in ops:
            want, got = op(x).data, op(x.astype(np.float32)).data
            assert want.dtype == np.float64 and got.dtype == np.float32
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)
    assert w.data.dtype == st.running_mean.dtype == np.float64
