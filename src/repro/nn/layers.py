"""Core layers: linear, convolution, embedding, dropout, containers."""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.autograd import Tensor, conv2d, embedding_lookup
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.utils.seeding import get_rng


class Linear(Module):
    """Affine map ``y = x @ W.T + b`` over the last input dimension."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng=rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x.matmul(self.weight.T)
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv2d(Module):
    """2-D convolution over NCHW inputs (cross-correlation, zero padding)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: np.random.Generator = None):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(shape, rng=rng))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class DilatedConv2d(Module):
    """2-D convolution with a dilation rate, via kernel expansion.

    The autograd ``conv2d`` primitive (and the compiled executor's conv
    kernel that mirrors it) has no dilation parameter, so dilation
    is lowered algebraically instead: the dense ``k x k`` weight is
    scattered into a zero-stuffed ``(d(k-1)+1)`` square kernel with a
    constant 0/1 placement matrix, and the standard convolution runs on
    that.  The scatter is a ``matmul`` against a constant, so gradients
    flow to the dense weight and the graph tracer captures the whole
    layer with the ordinary conv machinery.

    ``dilation=1`` skips the expansion and is bit-exact with
    :class:`Conv2d` given the same weights.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 dilation: int = 1, stride: int = 1,
                 padding: Optional[int] = None, bias: bool = True,
                 rng: np.random.Generator = None):
        super().__init__()
        if dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {dilation}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.dilation = dilation
        self.stride = stride
        #: Effective (zero-stuffed) kernel span.
        self.span = dilation * (kernel_size - 1) + 1
        # Default padding keeps the spatial size at stride 1 ("same").
        self.padding = padding if padding is not None else self.span // 2
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(shape, rng=rng))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        if dilation > 1:
            # (k*k, span*span) 0/1 scatter: tap (i, j) of the dense
            # kernel lands at (i*d, j*d) of the expanded kernel.
            placement = np.zeros((kernel_size * kernel_size,
                                  self.span * self.span))
            for i in range(kernel_size):
                for j in range(kernel_size):
                    placement[i * kernel_size + j,
                              (i * dilation) * self.span + j * dilation] = 1.0
            self._placement = placement
        else:
            self._placement = None

    def expanded_weight(self) -> Tensor:
        """The zero-stuffed kernel the convolution actually runs with."""
        if self._placement is None:
            return self.weight
        flat = self.weight.reshape(
            self.out_channels * self.in_channels,
            self.kernel_size * self.kernel_size)
        spread = flat.matmul(Tensor(self._placement))
        return spread.reshape(self.out_channels, self.in_channels,
                              self.span, self.span)

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.expanded_weight(), self.bias,
                      stride=self.stride, padding=self.padding)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    ``padding_idx`` (if given) is initialised to zero; its row still
    receives gradients, matching the paper's fine-tuned PAD handling.
    """

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 padding_idx: Optional[int] = None, rng: np.random.Generator = None):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        weight = init.normal((num_embeddings, embedding_dim), std=0.1, rng=rng)
        if padding_idx is not None:
            weight[padding_idx] = 0.0
        self.weight = Parameter(weight)

    def forward(self, indices: np.ndarray) -> Tensor:
        return embedding_lookup(self.weight, indices)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (get_rng().random(x.shape) < keep) / keep
        return x * Tensor(mask)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.01):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Flatten(Module):
    """Collapse all dimensions after the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class Sequential(Module):
    """Chain modules; ``forward`` pipes the input through each in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._order = []
        for index, module in enumerate(modules):
            name = f"layer{index}"
            setattr(self, name, module)
            self._order.append(name)

    def __iter__(self) -> Iterable[Module]:
        return iter(getattr(self, name) for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return getattr(self, self._order[index])

    def forward(self, x):
        for name in self._order:
            x = getattr(self, name)(x)
        return x


class FeedForward(Module):
    """Two-layer feed-forward network as used inside Rel2Att (Eq. 1-2).

    ``FFN(x) = W2 relu(W1 x + b1) + b2`` applied position-wise.
    """

    def __init__(self, in_features: int, hidden_features: int, out_features: int,
                 rng: np.random.Generator = None):
        super().__init__()
        self.fc1 = Linear(in_features, hidden_features, rng=rng)
        self.fc2 = Linear(hidden_features, out_features, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x).relu())
