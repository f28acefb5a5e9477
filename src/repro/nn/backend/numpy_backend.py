"""The default numpy compute backend.

Every method is a one-line delegation to the exact numpy expression the
pre-backend code used, which is what makes the refactored nn/quant/fault hot
paths **bitwise identical** to their pre-refactor implementations
(``tests/test_nn_backend.py`` pins the parity layer by layer and for full
training runs).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.nn.backend import ArrayBackend

_DTYPES = {
    "float64": np.float64,
    "float32": np.float32,
    "int64": np.int64,
    "int32": np.int32,
    "int8": np.int8,
    "uint64": np.uint64,
    "bool": np.bool_,
}


class NumpyBackend(ArrayBackend):
    """Numpy implementation of the :class:`~repro.nn.backend.ArrayBackend` protocol."""

    name = "numpy"

    # ------------------------------------------------------------------ conversion
    def asarray(self, values, dtype: str = "float64"):
        return np.asarray(values, dtype=_DTYPES[dtype])

    def array(self, values, dtype: str = "float64"):
        return np.array(values, dtype=_DTYPES[dtype])

    def from_numpy(self, values):
        return np.asarray(values)

    def to_numpy(self, values, copy: bool = False):
        return values.copy() if copy else np.asarray(values)

    def copy(self, values):
        return values.copy()

    def zeros(self, shape: Sequence[int], dtype: str = "float64"):
        return np.zeros(tuple(shape), dtype=_DTYPES[dtype])

    def zeros_like(self, values):
        return np.zeros_like(values)

    def empty_like(self, values):
        return np.empty_like(values)

    def fill_(self, values, value: float) -> None:
        values.fill(value)

    def copyto_(self, destination, source) -> None:
        np.copyto(destination, source)

    def numel(self, values) -> int:
        return int(values.size)

    def astype(self, values, dtype: str):
        return values.astype(_DTYPES[dtype])

    # ------------------------------------------------------------------ shape
    def reshape(self, values, shape: Sequence[int]):
        return values.reshape(shape)

    def transpose(self, values, axes: Optional[Sequence[int]] = None):
        return values.T if axes is None else values.transpose(axes)

    def ascontiguous(self, values):
        return np.ascontiguousarray(values)

    # ------------------------------------------------------------------ elementwise
    def add(self, a, b, out=None):
        return np.add(a, b, out=out)

    def subtract(self, a, b, out=None):
        return np.subtract(a, b, out=out)

    def multiply(self, a, b, out=None):
        return np.multiply(a, b, out=out)

    def divide(self, a, b, out=None):
        return np.divide(a, b, out=out)

    def sqrt(self, values, out=None):
        return np.sqrt(values, out=out)

    def clip(self, values, low: float, high: float, out=None):
        return np.clip(values, low, high, out=out)

    def abs(self, values):
        return np.abs(values)

    def sign(self, values):
        return np.sign(values)

    def round(self, values):
        return np.round(values)

    def where(self, condition, a, b):
        return np.where(condition, a, b)

    # ------------------------------------------------------------------ linear algebra
    def matmul(self, a, b, out=None):
        return np.matmul(a, b, out=out)

    def einsum(self, subscripts: str, *operands):
        return np.einsum(subscripts, *operands)

    # ------------------------------------------------------------------ reductions
    def sum(self, values, axis=None):
        return values.sum(axis=axis)

    def max(self, values, axis=None):
        return values.max(axis=axis)

    def mean(self, values):
        return np.mean(values)

    def argmax(self, values, axis=None):
        return values.argmax(axis=axis)

    def quantile(self, values, q: float) -> float:
        return float(np.quantile(values, q))

    def all_finite(self, values) -> bool:
        return bool(np.all(np.isfinite(values)))

    def count_nonzero(self, values) -> int:
        return int(np.count_nonzero(values))

    def any(self, values) -> bool:
        return bool(np.any(values))

    # ------------------------------------------------------------------ indexing
    def put_along_axis(self, values, indices, updates, axis: int) -> None:
        np.put_along_axis(values, indices, updates, axis=axis)

    # ------------------------------------------------------------------ convolution
    def im2col(self, images, kernel: Tuple[int, int], stride: int, padding: int):
        batch, channels, height, width = images.shape
        kernel_h, kernel_w = kernel
        out_h = (height + 2 * padding - kernel_h) // stride + 1
        out_w = (width + 2 * padding - kernel_w) // stride + 1
        if out_h <= 0 or out_w <= 0:
            raise ShapeError(
                f"convolution output would be empty for input {images.shape[2:]}, "
                f"kernel {kernel}, stride {stride}, padding {padding}"
            )
        if padding > 0:
            images = np.pad(
                images, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
            )
        strides = images.strides
        windows = np.lib.stride_tricks.as_strided(
            images,
            shape=(batch, channels, out_h, out_w, kernel_h, kernel_w),
            strides=(
                strides[0],
                strides[1],
                strides[2] * stride,
                strides[3] * stride,
                strides[2],
                strides[3],
            ),
            writeable=False,
        )
        cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
            batch, out_h * out_w, channels * kernel_h * kernel_w
        )
        return np.ascontiguousarray(cols), (out_h, out_w)

    def col2im(
        self,
        cols,
        input_shape: Tuple[int, int, int, int],
        kernel: Tuple[int, int],
        stride: int,
        padding: int,
        out_hw: Tuple[int, int],
    ):
        batch, channels, height, width = input_shape
        kernel_h, kernel_w = kernel
        out_h, out_w = out_hw
        padded = np.zeros(
            (batch, channels, height + 2 * padding, width + 2 * padding), dtype=np.float64
        )
        cols = cols.reshape(batch, out_h, out_w, channels, kernel_h, kernel_w)
        for row in range(kernel_h):
            row_end = row + stride * out_h
            for col in range(kernel_w):
                col_end = col + stride * out_w
                padded[:, :, row:row_end:stride, col:col_end:stride] += cols[
                    :, :, :, :, row, col
                ].transpose(0, 3, 1, 2)
        if padding > 0:
            return padded[:, :, padding:-padding, padding:-padding]
        return padded

    # ------------------------------------------------------------------ integer / bit ops
    def mod(self, values, modulus: int):
        return np.mod(values, modulus)

    def bitwise_xor(self, a, b):
        return np.bitwise_xor(a, b)

    def bitwise_and(self, a, b):
        return np.bitwise_and(a, b)

    def bitwise_or(self, a, b):
        return np.bitwise_or(a, b)

    def invert(self, values):
        return np.invert(values)

    def left_shift(self, a, b):
        return np.left_shift(a, b)

    def floor_divide(self, a, b):
        return np.floor_divide(a, b)

    def popcount(self, values) -> int:
        values = np.asarray(values)
        if values.size == 0:
            return 0
        if hasattr(np, "bitwise_count"):  # numpy >= 2.0: one vectorised pass
            return int(np.bitwise_count(values.astype(np.uint64)).sum())
        unsigned = values.astype(np.uint64, copy=True)
        total = 0
        one = np.uint64(1)
        while unsigned.any():
            total += int(np.count_nonzero(unsigned & one))
            unsigned >>= one
        return total
