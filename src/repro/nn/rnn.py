"""Recurrent layers: LSTM and GRU cells and multi-layer wrappers.

Gate weights are stored stacked row-wise (``weight_ih``: ``(gates*H, I)``),
so — exactly like ``Linear``/``Conv2d`` — each row corresponds to one output
unit of a GEMM and can be assigned its own quantization scheme by MSQ.

Both cells expose the same ``weight_quant`` / ``act_quant`` hooks as the
feed-forward layers.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, stack

QuantHook = Optional[Callable[[Tensor], Tensor]]


class _RNNCellBase(Module):
    def __init__(self, input_size: int, hidden_size: int, num_gates: int,
                 rng: Optional[np.random.Generator]):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        bound = 1.0 / math.sqrt(hidden_size)
        self.weight_ih = Parameter(
            init.uniform((num_gates * hidden_size, input_size), bound, rng))
        self.weight_hh = Parameter(
            init.uniform((num_gates * hidden_size, hidden_size), bound, rng))
        self.bias_ih = Parameter(init.zeros((num_gates * hidden_size,)))
        self.bias_hh = Parameter(init.zeros((num_gates * hidden_size,)))
        self.weight_quant: QuantHook = None
        self.act_quant: QuantHook = None

    def _gates(self, x: Tensor, h: Tensor) -> Tensor:
        if self.act_quant is not None:
            x = self.act_quant(x)
            h = self.act_quant(h)
        w_ih, w_hh = self.weight_ih, self.weight_hh
        if self.weight_quant is not None:
            w_ih = self.weight_quant(w_ih)
            w_hh = self.weight_quant(w_hh)
        return (x @ w_ih.transpose() + self.bias_ih
                + h @ w_hh.transpose() + self.bias_hh)


class LSTMCell(_RNNCellBase):
    """Single LSTM step; gate order is (input, forget, cell, output)."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__(input_size, hidden_size, num_gates=4, rng=rng)

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        h, c = state
        gates = self._gates(x, h)
        h_size = self.hidden_size
        # i and f are adjacent gate rows: one sigmoid covers both.
        i_f = gates[:, 0 * h_size:2 * h_size].sigmoid()
        i, f = i_f[:, :h_size], i_f[:, h_size:]
        g = gates[:, 2 * h_size:3 * h_size].tanh()
        o = gates[:, 3 * h_size:4 * h_size].sigmoid()
        c_next = f * c + i * g
        h_next = o * c_next.tanh()
        return h_next, c_next


class GRUCell(_RNNCellBase):
    """Single GRU step; gate order is (reset, update, new)."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__(input_size, hidden_size, num_gates=3, rng=rng)

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        if self.act_quant is not None:
            x = self.act_quant(x)
            h_in = self.act_quant(h)
        else:
            h_in = h
        w_ih, w_hh = self.weight_ih, self.weight_hh
        if self.weight_quant is not None:
            w_ih = self.weight_quant(w_ih)
            w_hh = self.weight_quant(w_hh)
        gi = x @ w_ih.transpose() + self.bias_ih
        gh = h_in @ w_hh.transpose() + self.bias_hh
        h_size = self.hidden_size
        r_z = (gi[:, :2 * h_size] + gh[:, :2 * h_size]).sigmoid()
        r, z = r_z[:, :h_size], r_z[:, h_size:]
        n = (gi[:, 2 * h_size:] + r * gh[:, 2 * h_size:]).tanh()
        return (Tensor(np.float32(1.0)) - z) * n + z * h


class LSTM(Module):
    """Multi-layer LSTM over (N, T, F) batch-first sequences."""

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        for layer in range(num_layers):
            in_size = input_size if layer == 0 else hidden_size
            setattr(self, f"cell{layer}", LSTMCell(in_size, hidden_size, rng=rng))

    def _cell(self, layer: int) -> LSTMCell:
        return getattr(self, f"cell{layer}")

    def forward(self, x: Tensor,
                state: Optional[List[Tuple[Tensor, Tensor]]] = None
                ) -> Tuple[Tensor, List[Tuple[Tensor, Tensor]]]:
        batch, steps, _ = x.shape
        if state is None:
            zeros = np.zeros((batch, self.hidden_size), dtype=np.float32)
            state = [(Tensor(zeros.copy()), Tensor(zeros.copy()))
                     for _ in range(self.num_layers)]
        outputs: List[Tensor] = []
        for t in range(steps):
            inp = x[:, t]
            for layer in range(self.num_layers):
                h, c = self._cell(layer)(inp, state[layer])
                state[layer] = (h, c)
                inp = h
            outputs.append(inp)
        return stack(outputs, axis=1), state


class GRU(Module):
    """Multi-layer GRU over (N, T, F) batch-first sequences."""

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        for layer in range(num_layers):
            in_size = input_size if layer == 0 else hidden_size
            setattr(self, f"cell{layer}", GRUCell(in_size, hidden_size, rng=rng))

    def _cell(self, layer: int) -> GRUCell:
        return getattr(self, f"cell{layer}")

    def forward(self, x: Tensor, state: Optional[List[Tensor]] = None
                ) -> Tuple[Tensor, List[Tensor]]:
        batch, steps, _ = x.shape
        if state is None:
            state = [Tensor(np.zeros((batch, self.hidden_size), dtype=np.float32))
                     for _ in range(self.num_layers)]
        outputs: List[Tensor] = []
        for t in range(steps):
            inp = x[:, t]
            for layer in range(self.num_layers):
                h = self._cell(layer)(inp, state[layer])
                state[layer] = h
                inp = h
            outputs.append(inp)
        return stack(outputs, axis=1), state
