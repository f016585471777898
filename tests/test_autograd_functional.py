"""Functional ops: convolution, pooling, padding, softmax, embedding."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    avg_pool2d,
    conv2d,
    embedding_lookup,
    gradient_check,
    log_softmax,
    max_pool2d,
    pad2d,
    softmax,
)
from repro.autograd.tensor import as_tensor


def make(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)


# ----------------------------------------------------------------------
# Byte oracle: convolution as ``tensordot`` over (N, C, KH, KW, OH, OW)
# columns, with gradients scattered into a zero padded buffer.  The
# GEMM-layout ``conv2d`` must reproduce its bytes exactly.
# ----------------------------------------------------------------------
def oracle_im2col(x, kernel, stride):
    n, c, h, w = x.shape
    (kh, kw), (sh, sw) = kernel, stride
    oh, ow = (h - kh) // sh + 1, (w - kw) // sw + 1
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = x[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw]
    return cols


def oracle_col2im(cols, padded_shape, kernel, stride):
    (kh, kw), (sh, sw) = kernel, stride
    oh, ow = cols.shape[-2:]
    out = np.zeros(padded_shape, dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += cols[:, :, i, j]
    return out


def _as_pair(value):
    return (value, value) if isinstance(value, int) else tuple(value)


def oracle_conv2d(x, weight, bias=None, stride=1, padding=0):
    """Autograd conv2d in the tensordot formulation (drop-in for ``conv2d``)."""
    x, weight = as_tensor(x), as_tensor(weight)
    stride, (ph, pw) = _as_pair(stride), _as_pair(padding)
    kh, kw = weight.shape[2], weight.shape[3]
    x_pad = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x.data
    cols = oracle_im2col(x_pad, (kh, kw), stride)
    value = np.tensordot(cols, weight.data, axes=([1, 2, 3], [1, 2, 3]))
    value = value.transpose(0, 3, 1, 2)
    if bias is not None:
        value = value + bias.data.reshape(1, -1, 1, 1)
    out = x._make_child(value, (x, weight) if bias is None else (x, weight, bias))
    if out.requires_grad:
        in_h, in_w = x.shape[2], x.shape[3]

        def backward(grad):
            if weight.requires_grad:
                weight._accumulate(np.tensordot(grad, cols, axes=([0, 2, 3], [0, 4, 5])))
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad.sum(axis=(0, 2, 3)))
            if x.requires_grad:
                grad_cols = np.tensordot(grad, weight.data, axes=([1], [0]))
                grad_cols = grad_cols.transpose(0, 3, 4, 5, 1, 2)
                grad_pad = oracle_col2im(grad_cols, x_pad.shape, (kh, kw), stride)
                x._accumulate(grad_pad[:, :, ph : ph + in_h, pw : pw + in_w])

        out._backward = backward
    return out


def nhwc_strided(a):
    """The same NCHW values stored channels-last, as conv outputs are."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def with_signed_zeros(a):
    """Copy of ``a`` with a band of negative zeros, keeping its layout."""
    a = a.copy(order="K")
    a[:, :, ::3] = -0.0
    return a


class TestConv2d:
    def test_output_shape(self):
        out = conv2d(make((2, 3, 8, 8)), make((5, 3, 3, 3), 1), stride=2, padding=1)
        assert out.shape == (2, 5, 4, 4)

    def test_matches_naive_convolution(self):
        x = np.random.default_rng(0).normal(size=(1, 1, 4, 4))
        w = np.random.default_rng(1).normal(size=(1, 1, 2, 2))
        out = conv2d(Tensor(x), Tensor(w)).data
        for i in range(3):
            for j in range(3):
                expected = (x[0, 0, i : i + 2, j : j + 2] * w[0, 0]).sum()
                assert np.isclose(out[0, 0, i, j], expected)

    def test_bias_added_per_channel(self):
        x = Tensor(np.zeros((1, 1, 3, 3)))
        w = Tensor(np.zeros((2, 1, 1, 1)))
        bias = Tensor(np.array([1.0, -1.0]))
        out = conv2d(x, w, bias)
        assert np.allclose(out.data[0, 0], 1.0)
        assert np.allclose(out.data[0, 1], -1.0)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), ((1, 2), (2, 1))])
    def test_gradients(self, stride, padding):
        x, w, b = make((2, 2, 5, 6)), make((3, 2, 3, 3), 1), make((3,), 2)
        gradient_check(
            lambda x, w, b: conv2d(x, w, b, stride=stride, padding=padding), [x, w, b]
        )


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = max_pool2d(x, 2)
        assert np.allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_grad_goes_to_argmax(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        max_pool2d(x, 2).sum().backward()
        assert x.grad.sum() == 4
        assert x.grad[0, 0, 1, 1] == 1.0

    def test_avg_pool_values(self):
        x = Tensor(np.ones((1, 1, 4, 4)))
        assert np.allclose(avg_pool2d(x, 2).data, 1.0)

    def test_avg_pool_grad(self):
        gradient_check(lambda x: avg_pool2d(x, 2, 1), [make((2, 3, 5, 5))])

    def test_max_pool_stride(self):
        out = max_pool2d(make((1, 1, 6, 6)), 2, stride=3)
        assert out.shape == (1, 1, 2, 2)


class TestConvByteOracle:
    """GEMM-layout ``conv2d`` vs the tensordot oracle: identical bytes for
    the output, every gradient, and the output's memory layout (which
    decides the BLAS operand order of the next layer)."""

    @staticmethod
    def _run(conv, x, w, b, g, x_grad):
        xt = Tensor(x, requires_grad=x_grad)
        wt, bt = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
        out = conv(xt, wt, bt)
        out.backward(g)
        return out.data, xt.grad, wt.grad, bt.grad

    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2, (2, 1)])
    @pytest.mark.parametrize("padding", [0, 1, 2, (2, 1)])
    @pytest.mark.parametrize("layout", ["nchw", "nhwc"])
    def test_matches_tensordot_oracle_bytes(self, n, k, stride, padding, layout):
        rng = np.random.default_rng(n * 100 + k)
        c, f, h, w = 8, 6, 9, 7
        x = rng.normal(size=(n, c, h, w))
        weight = rng.normal(size=(f, c, k, k))
        bias = rng.normal(size=f)
        if layout == "nhwc":
            x = nhwc_strided(x)
        x = with_signed_zeros(x)

        def conv(fn):
            return lambda x, w, b: fn(x, w, b, stride=stride, padding=padding)

        probe = oracle_conv2d(Tensor(x), Tensor(weight), Tensor(bias),
                              stride=stride, padding=padding)
        g = rng.normal(size=probe.shape)
        g = with_signed_zeros(nhwc_strided(g) if layout == "nhwc" else g)
        for x_grad in (True, False):
            expected = self._run(conv(oracle_conv2d), x, weight, bias, g, x_grad)
            got = self._run(conv(conv2d), x, weight, bias, g, x_grad)
            assert got[0].strides == expected[0].strides
            for left, right in zip(got, expected):
                if right is None:
                    assert left is None
                else:
                    assert left.shape == right.shape
                    assert left.tobytes() == right.tobytes()

    @pytest.mark.parametrize("pool", ["max", "avg"])
    @pytest.mark.parametrize("kernel,stride", [(2, None), (3, 1), (3, 2), (2, 3)])
    @pytest.mark.parametrize("layout", ["nchw", "nhwc"])
    def test_pool_gradients_match_padded_scatter(self, pool, kernel, stride, layout):
        from repro.autograd.functional import _im2col

        rng = np.random.default_rng(kernel)
        x = rng.normal(size=(2, 3, 7, 8))
        x = nhwc_strided(x) if layout == "nhwc" else x
        fn = max_pool2d if pool == "max" else avg_pool2d
        xt = Tensor(x, requires_grad=True)
        out = fn(xt, kernel, stride)
        g = with_signed_zeros(rng.normal(size=out.shape))
        out.backward(g)

        k, s = (kernel, kernel), _as_pair(stride or kernel)
        cols = _im2col(x, k, s)
        n, c, kh, kw, oh, ow = cols.shape
        if pool == "max":
            flat = cols.reshape(n, c, kh * kw, oh, ow)
            grad_flat = np.zeros_like(flat)
            np.put_along_axis(grad_flat, flat.argmax(axis=2)[:, :, None],
                              g[:, :, None], axis=2)
            grad_cols = grad_flat.reshape(cols.shape)
        else:
            grad_cols = np.broadcast_to(
                g[:, :, None, None] * (1.0 / (kh * kw)), cols.shape).copy()
        expected = oracle_col2im(grad_cols, x.shape, k, s)
        assert xt.grad.tobytes() == expected.tobytes()


class TestConvTrainingExactness:
    def test_three_steps_match_oracle_conv_bytes(self, monkeypatch):
        """Losses and every trained parameter are byte-identical whether
        the model's convolutions run the GEMM layout or the oracle."""
        import repro.nn.layers
        from repro.core import YolloConfig, YolloModel, YolloTrainer
        from repro.data import REFCOCO, build_dataset
        from repro.utils import seed_everything

        def train():
            seed_everything(5)
            dataset = build_dataset(REFCOCO.scaled(0.04))
            cfg = YolloConfig(
                backbone="tiny", d_model=12, d_rel=16, ffn_hidden=16,
                head_hidden=16, num_rel2att=2,
                max_query_length=max(6, dataset.max_query_length), batch_size=4,
            )
            model = YolloModel(cfg, vocab_size=len(dataset.vocab))
            trainer = YolloTrainer(model, dataset, cfg)
            trainer.begin_run(iterations=3)
            losses = []
            for _ in range(3):
                loss = trainer.forward_backward()
                trainer.apply_step(loss)
                losses.append(loss)
            return losses, {k: v.copy() for k, v in model.state_dict().items()}

        losses, params = train()
        monkeypatch.setattr(repro.nn.layers, "conv2d", oracle_conv2d)
        oracle_losses, oracle_params = train()
        assert losses == oracle_losses
        assert params.keys() == oracle_params.keys()
        for name, value in params.items():
            assert value.tobytes() == oracle_params[name].tobytes(), name


class TestIm2colCache:
    def test_repeated_shapes_hit_the_index_cache(self):
        from repro.autograd.functional import (
            clear_im2col_cache,
            im2col_cache_stats,
        )

        clear_im2col_cache()
        x = make((2, 3, 8, 8))
        w = make((4, 3, 3, 3), 1)
        first = conv2d(x, w, stride=1, padding=1)
        after_first = im2col_cache_stats()
        assert after_first["misses"] >= 1
        assert after_first["hits"] == 0
        second = conv2d(x, w, stride=1, padding=1)
        after_second = im2col_cache_stats()
        # Same (shape, kernel, stride): no new entries, pure hits.
        assert after_second["entries"] == after_first["entries"]
        assert after_second["misses"] == after_first["misses"]
        assert after_second["hits"] >= 1
        assert first.data.tobytes() == second.data.tobytes()

    def test_distinct_geometry_is_a_distinct_entry(self):
        from repro.autograd.functional import (
            clear_im2col_cache,
            im2col_cache_stats,
        )

        clear_im2col_cache()
        conv2d(make((1, 2, 6, 6)), make((3, 2, 3, 3), 1), stride=1, padding=1)
        entries = im2col_cache_stats()["entries"]
        conv2d(make((1, 2, 6, 6)), make((3, 2, 3, 3), 1), stride=2, padding=1)
        assert im2col_cache_stats()["entries"] == entries + 1

    def test_clear_resets_counters(self):
        from repro.autograd.functional import (
            clear_im2col_cache,
            im2col_cache_stats,
        )

        conv2d(make((1, 1, 5, 5)), make((1, 1, 3, 3), 1))
        clear_im2col_cache()
        stats = im2col_cache_stats()
        assert stats == {"hits": 0, "misses": 0, "entries": 0}


class TestPad2d:
    def test_values(self):
        out = pad2d(Tensor(np.ones((1, 1, 2, 2))), 1)
        assert out.shape == (1, 1, 4, 4)
        assert out.data.sum() == 4

    def test_grad(self):
        gradient_check(lambda x: pad2d(x, (1, 2)), [make((2, 2, 3, 3))])


class TestSoftmax:
    def test_rows_sum_to_one(self):
        out = softmax(make((4, 7)), axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_stability_with_large_logits(self):
        out = softmax(Tensor([[1000.0, 1000.0]]))
        assert np.allclose(out.data, 0.5)

    def test_log_softmax_matches_log_of_softmax(self):
        x = make((3, 5))
        assert np.allclose(log_softmax(x).data, np.log(softmax(x).data))

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_gradients(self, axis):
        gradient_check(lambda x: softmax(x, axis=axis), [make((3, 4))])
        gradient_check(lambda x: log_softmax(x, axis=axis), [make((3, 4), 1)])


class TestEmbedding:
    def test_lookup_values(self):
        weight = Tensor(np.arange(12.0).reshape(4, 3))
        out = embedding_lookup(weight, np.array([2, 0]))
        assert np.allclose(out.data[0], [6, 7, 8])

    def test_duplicate_indices_accumulate_grads(self):
        weight = Tensor(np.zeros((4, 2)), requires_grad=True)
        embedding_lookup(weight, np.array([1, 1, 2])).sum().backward()
        assert np.allclose(weight.grad[1], [2.0, 2.0])
        assert np.allclose(weight.grad[2], [1.0, 1.0])

    def test_grad_check_2d_indices(self):
        weight = make((6, 4))
        idx = np.array([[0, 5], [3, 3]])
        gradient_check(lambda w: embedding_lookup(w, idx), [weight])
