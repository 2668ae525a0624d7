"""A small reverse-mode autograd engine on top of numpy.

The paper's training algorithms (ADMM + STE quantization-aware training) were
implemented in PyTorch; this subpackage provides the equivalent substrate:
:class:`~repro.tensor.tensor.Tensor` carries a value and a gradient, records
the operations applied to it, and :meth:`~repro.tensor.tensor.Tensor.backward`
runs reverse-mode differentiation over the recorded graph.
"""

from repro.tensor.activations import stable_sigmoid, stable_tanh
from repro.tensor.tensor import (Tensor, no_grad, is_grad_enabled,
                                 row_stable_matmul)
from repro.tensor.ops import (
    concatenate,
    stack,
    where,
    maximum,
    minimum,
    pad2d,
)
from repro.tensor.conv import conv2d, max_pool2d, avg_pool2d, global_avg_pool2d

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "row_stable_matmul",
    "stable_sigmoid",
    "stable_tanh",
    "concatenate",
    "stack",
    "where",
    "maximum",
    "minimum",
    "pad2d",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
]
