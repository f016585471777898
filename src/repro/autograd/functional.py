"""Structured differentiable operations: convolution, pooling, softmax.

Convolution is one GEMM per direction over im2col columns laid out as
the ``(N*OH*OW, C*KH*KW)`` matrix ``np.dot`` consumes:

* forward: ``columns @ W``, with ``W`` the ``(C*KH*KW, F)`` weight view;
* ``grad_w``: ``grad^T @ columns``, reusing the forward's columns;
* ``grad_x``: ``grad @ W^T`` gives per-window gradients, which
  :func:`_col2im` scatter-adds into the unpadded input gradient through
  windows clipped to the input (pooling shares it).

A batch of one gathers ``(C, KH, KW, OH, OW)`` columns with
:func:`_im2col` and hands ``np.dot`` their transpose; larger batches
gather straight into the matrix with one memoised ``np.take`` index; a
1x1, stride-1, unpadded conv reads its input as the columns.

Memory-order rule: every ``np.dot`` receives operands with the values
*and the memory order* (C or Fortran) that ``np.tensordot`` over
``(N, C, KH, KW, OH, OW)`` columns would pass to BLAS: a Fortran-order
view at batch one, a C-order matrix above it.  OpenBLAS picks a
different kernel per order, and the last bit of a result can differ.
Keeping the order keeps eager conv byte-identical to the graph
executor's ``tensordot`` conv kernel and to recorded reference losses.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.autograd.tensor import Tensor, as_tensor

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    return (int(value[0]), int(value[1]))


#: Memoised gather indices, keyed on geometry: (height, width, kernel,
#: stride) for the window index of :func:`_im2col`, which broadcasts
#: over the leading (N, C) axes, and (channels, height, width, kernel,
#: stride) for the GEMM-layout index of :func:`_gemm_columns`, which
#: folds the channel into each column.  Neither depends on the batch.
_IM2COL_INDEX_CACHE: Dict[Tuple[int, ...], np.ndarray] = {}
_IM2COL_CACHE_STATS = {"hits": 0, "misses": 0}

#: Column tensors up to this many elements use the memoised single-gather
#: path, where the per-call cost is dominated by Python/slice dispatch
#: rather than memory bandwidth.  Larger gathers fall back to the strided
#: slice loop, which moves big planes with contiguous copies and wins on
#: stem-sized feature maps.
_IM2COL_GATHER_MAX_ELEMENTS = 50_000


def _memoised_index(key: Tuple[int, ...], build: Callable[[], np.ndarray]) -> np.ndarray:
    index = _IM2COL_INDEX_CACHE.get(key)
    if index is None:
        _IM2COL_CACHE_STATS["misses"] += 1
        index = _IM2COL_INDEX_CACHE[key] = build()
    else:
        _IM2COL_CACHE_STATS["hits"] += 1
    return index


def _output_size(size: int, kernel: int, stride: int, padding: int = 0) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def _im2col_indices(
    h: int, w: int, kernel: Tuple[int, int], stride: Tuple[int, int]
) -> np.ndarray:
    """Flat H*W gather indices of shape ``(KH, KW, OH, OW)``, memoised."""
    kh, kw = kernel
    sh, sw = stride

    def build() -> np.ndarray:
        oh, ow = _output_size(h, kh, sh), _output_size(w, kw, sw)
        rows = np.arange(kh)[:, None, None, None] + sh * np.arange(oh)[None, None, :, None]
        cols = np.arange(kw)[None, :, None, None] + sw * np.arange(ow)[None, None, None, :]
        return rows * w + cols

    return _memoised_index((h, w, kh, kw, sh, sw), build)


def _gemm_indices(
    c: int, h: int, w: int, kernel: Tuple[int, int], stride: Tuple[int, int]
) -> np.ndarray:
    """Flat C*H*W gather indices of shape ``(OH*OW, C*KH*KW)``, memoised."""
    kh, kw = kernel
    sh, sw = stride

    def build() -> np.ndarray:
        oh, ow = _output_size(h, kh, sh), _output_size(w, kw, sw)
        # Axes (OH, OW, C, KH, KW): one row per output pixel.
        rows = sh * np.arange(oh)[:, None, None, None, None] + np.arange(kh)[:, None]
        cols = sw * np.arange(ow)[:, None, None, None] + np.arange(kw)
        planes = h * w * np.arange(c)[:, None, None]
        return (planes + rows * w + cols).reshape(oh * ow, c * kh * kw)

    return _memoised_index((c, h, w, kh, kw, sh, sw), build)


def im2col_cache_stats() -> Dict[str, int]:
    """Hit/miss counters and entry count of the im2col index cache."""
    return dict(_IM2COL_CACHE_STATS, entries=len(_IM2COL_INDEX_CACHE))


def clear_im2col_cache() -> None:
    """Drop memoised im2col indices and reset the hit/miss counters."""
    _IM2COL_INDEX_CACHE.clear()
    _IM2COL_CACHE_STATS["hits"] = 0
    _IM2COL_CACHE_STATS["misses"] = 0


def _im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    out: np.ndarray = None,
) -> np.ndarray:
    """Gather kernel windows of an already-padded NCHW array.

    Small column tensors take a single fancy gather driven by memoised
    indices; large ones take the strided slice loop (see
    ``_IM2COL_GATHER_MAX_ELEMENTS``).  Both produce bitwise-identical
    columns — the choice is purely a speed heuristic.  ``out``, when
    given, must be a contiguous ``(N, C, KH, KW, OH, OW)`` buffer and is
    filled in place (used by the graph executor's arena).
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    oh, ow = _output_size(h, kh, sh), _output_size(w, kw, sw)
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype) if out is None else out
    if cols.size <= _IM2COL_GATHER_MAX_ELEMENTS and x.flags.c_contiguous:
        index = _im2col_indices(h, w, kernel, stride)
        np.take(x.reshape(n, c, h * w), index, axis=2, out=cols)
    else:
        for i in range(kh):
            for j in range(kw):
                cols[:, :, i, j] = x[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw]
    return cols


def _gemm_columns(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Columns of NCHW ``x`` as the ``(N*OH*OW, C*KH*KW)`` GEMM operand.

    Values and memory order are those ``np.tensordot`` derives from
    ``(N, C, KH, KW, OH, OW)`` columns (see the module docstring): a
    Fortran-order view when ``N == 1``, a C-order matrix otherwise.
    """
    n, c, h, w = x.shape
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    if (kh, kw, sh, sw, ph, pw) == (1, 1, 1, 1, 0, 0):
        if n == 1:
            return np.ascontiguousarray(x.reshape(c, h * w)).T
        return np.ascontiguousarray(x.transpose(0, 2, 3, 1).reshape(n * h * w, c))
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    hp, wp = h + 2 * ph, w + 2 * pw
    pixels = _output_size(hp, kh, sh) * _output_size(wp, kw, sw)
    if n == 1:
        return _im2col(x, kernel, stride).reshape(c * kh * kw, pixels).T
    index = _gemm_indices(c, hp, wp, kernel, stride)
    cols = np.take(x.reshape(n, c * hp * wp), index, axis=1)
    return cols.reshape(n * pixels, c * kh * kw)


def _clipped_window(
    offset: int, stride: int, count: int, size: int
) -> Optional[Tuple[slice, slice]]:
    """Output and input slices of the taps ``offset + stride * o`` in ``[0, size)``."""
    first = max(0, -(offset // stride))
    stop = min(count, (size - 1 - offset) // stride + 1)
    if stop <= first:
        return None
    start = offset + stride * first
    return slice(first, stop), slice(start, start + stride * (stop - first - 1) + 1, stride)


def _col2im(
    cols: np.ndarray,
    shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int] = (0, 0),
) -> np.ndarray:
    """Scatter-add ``(N, C, KH, KW, OH, OW)`` windows into a zero NCHW array.

    ``shape`` is the unpadded input's; taps that fall in the padding are
    skipped, so no padded buffer is built.  Every element receives its
    taps in kernel-offset order, added onto +0.0, exactly as a scatter
    into a zero padded buffer would give them.
    """
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh, ow = cols.shape[-2:]
    out = np.zeros(shape, dtype=cols.dtype)
    for i in range(kh):
        rows = _clipped_window(i - ph, sh, oh, shape[2])
        if rows is None:
            continue
        for j in range(kw):
            columns = _clipped_window(j - pw, sw, ow, shape[3])
            if columns is None:
                continue
            out[:, :, rows[1], columns[1]] += cols[:, :, i, j, rows[0], columns[0]]
    return out


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2-D cross-correlation of NCHW input with an FCKK weight tensor."""
    x = as_tensor(x)
    weight = as_tensor(weight)
    stride = _pair(stride)
    padding = _pair(padding)
    n, c, h, w = x.shape
    f, _, kh, kw = weight.shape
    oh = _output_size(h, kh, stride[0], padding[0])
    ow = _output_size(w, kw, stride[1], padding[1])

    cols = _gemm_columns(x.data, (kh, kw), stride, padding)
    value = np.dot(cols, weight.data.transpose(1, 2, 3, 0).reshape(c * kh * kw, f))
    value = value.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)
    if bias is not None:
        value = value + bias.data.reshape(1, -1, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = x._make_child(value, parents)
    if out.requires_grad:

        def backward(grad: np.ndarray) -> None:
            if weight.requires_grad:
                grad_w = np.dot(grad.transpose(1, 0, 2, 3).reshape(f, n * oh * ow), cols)
                weight._accumulate(grad_w.reshape(weight.shape))
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad.sum(axis=(0, 2, 3)))
            if x.requires_grad:
                grad_cols = np.dot(grad.transpose(0, 2, 3, 1).reshape(n * oh * ow, f),
                                   weight.data.reshape(f, c * kh * kw))
                grad_cols = grad_cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
                x._accumulate(_col2im(grad_cols, x.shape, (kh, kw), stride, padding))

        out._backward = backward
    return out


def max_pool2d(x: Tensor, kernel: IntPair, stride: IntPair = None) -> Tensor:
    """Max pooling over NCHW input."""
    x = as_tensor(x)
    kernel = _pair(kernel)
    stride = kernel if stride is None else _pair(stride)
    cols = _im2col(x.data, kernel, stride)
    n, c, kh, kw, oh, ow = cols.shape
    flat = cols.reshape(n, c, kh * kw, oh, ow)
    argmax = flat.argmax(axis=2)
    value = np.take_along_axis(flat, argmax[:, :, None], axis=2).squeeze(2)

    out = x._make_child(value, (x,))
    if out.requires_grad:
        in_shape = x.shape

        def backward(grad: np.ndarray) -> None:
            grad_flat = np.zeros_like(flat)
            np.put_along_axis(grad_flat, argmax[:, :, None], grad[:, :, None], axis=2)
            grad_cols = grad_flat.reshape(n, c, kh, kw, oh, ow)
            x._accumulate(_col2im(grad_cols, in_shape, kernel, stride))

        out._backward = backward
    return out


def avg_pool2d(x: Tensor, kernel: IntPair, stride: IntPair = None) -> Tensor:
    """Average pooling over NCHW input."""
    x = as_tensor(x)
    kernel = _pair(kernel)
    stride = kernel if stride is None else _pair(stride)
    cols = _im2col(x.data, kernel, stride)
    value = cols.mean(axis=(2, 3))

    out = x._make_child(value, (x,))
    if out.requires_grad:
        in_shape = x.shape
        kh, kw = kernel
        scale = 1.0 / (kh * kw)

        def backward(grad: np.ndarray) -> None:
            n, c, oh, ow = grad.shape
            grad_cols = np.broadcast_to(
                grad[:, :, None, None] * scale, (n, c, kh, kw, oh, ow)
            )
            x._accumulate(_col2im(grad_cols, in_shape, kernel, stride))

        out._backward = backward
    return out


def pad2d(x: Tensor, padding: IntPair) -> Tensor:
    """Zero-pad the spatial dimensions of an NCHW tensor."""
    x = as_tensor(x)
    ph, pw = _pair(padding)
    value = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = x._make_child(value, (x,))
    if out.requires_grad:
        h, w = x.shape[2], x.shape[3]

        def backward(grad: np.ndarray) -> None:
            x._accumulate(grad[:, :, ph : ph + h, pw : pw + w])

        out._backward = backward
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    value = exp / exp.sum(axis=axis, keepdims=True)

    out = x._make_child(value, (x,))
    if out.requires_grad:

        def backward(grad: np.ndarray) -> None:
            inner = (grad * value).sum(axis=axis, keepdims=True)
            x._accumulate(value * (grad - inner))

        out._backward = backward
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    value = shifted - log_sum

    out = x._make_child(value, (x,))
    if out.requires_grad:
        probs = np.exp(value)

        def backward(grad: np.ndarray) -> None:
            x._accumulate(grad - probs * grad.sum(axis=axis, keepdims=True))

        out._backward = backward
    return out


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of an embedding matrix; gradients scatter-add back."""
    weight = as_tensor(weight)
    indices = np.asarray(indices, dtype=np.int64)
    value = weight.data[indices]

    out = weight._make_child(value, (weight,))
    if out.requires_grad:

        def backward(grad: np.ndarray) -> None:
            grad_w = np.zeros_like(weight.data)
            np.add.at(grad_w, indices, grad)
            weight._accumulate(grad_w)

        out._backward = backward
    return out
