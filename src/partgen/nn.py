"""Dense network with hand-written reverse-mode gradients.

Parameters are stored float32. The compute dtype is a parameter: training
uses float32 matmuls for speed, while gradient checking upcasts everything
to float64 so central differences are limited by truncation error rather
than rounding. Scalar reductions (losses, finite differences) always
accumulate in float64. Adam updates in float32, in place, like the
parameters and its moments, whatever the type of the learning rate. The
update runs as one compiled call per step over every tensor (_kernels.c,
built with the system's cc at a process's first use of the library),
through a table of the parameters' and moments' addresses that AdamState
keeps while those arrays stay the same. It falls back to numpy, with the
same bits, where that cannot be built or a tensor cannot go through it.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import operator
import os
import struct
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NonFiniteGradient, ParseError, exact_reader

CHECKPOINT_MAGIC = b"CHIM"
CHECKPOINT_VERSION = 1
_ACTIVATION_TAG = b"silu"


@dataclasses.dataclass
class DenseNet:
    """SiLU hidden layers, identity output. weights[i] has shape (out, in)."""

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @staticmethod
    def init(layer_dims: list[int], seed: int) -> "DenseNet":
        """Kaiming-uniform fan-in init, biases zero, seeded."""
        if len(layer_dims) < 2:
            raise ValueError("need at least input and output dims")
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
            bound = np.sqrt(6.0 / fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)).astype(np.float32))
            biases.append(np.zeros(fan_out, dtype=np.float32))
        return DenseNet(layer_dims=list(layer_dims), weights=weights, biases=biases)

    @property
    def n_layers(self) -> int:
        return len(self.weights)


@dataclasses.dataclass
class Tape:
    """Activations cached by forward, consumed by backward."""

    activations: list[np.ndarray]  # inputs to each layer, then the output
    pre_activations: list[np.ndarray]
    sigmoids: list[np.ndarray]  # sigmoid(z) of each hidden layer, reused by backward
    dtype: np.dtype


@dataclasses.dataclass
class Gradients:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: 1/(1+e^-z) for z >= 0, e^z/(1+e^z) below.

    Both branches are num/(1+e) with e = exp(-|z|) and num 1 or e, so this
    branch-free form gives the two-branch form's bits. min(z, -z) rather
    than -abs(z) keeps the sign of a NaN input.
    """
    e = np.negative(z)
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    s = np.maximum(e, z >= 0)
    e += 1.0
    s /= e
    return s


def forward(net: DenseNet, x: np.ndarray, dtype: type = np.float32) -> tuple[np.ndarray, Tape]:
    """Run the network on a (batch, in) array; returns the output and the
    tape for backward."""
    x = np.asarray(x, dtype=dtype)
    if x.ndim != 2 or x.shape[1] != net.layer_dims[0]:
        raise DimensionMismatch(f"input shape {x.shape} does not match first layer dim {net.layer_dims[0]}")
    activations = [x]
    pre_activations = []
    sigmoids = []
    h = x
    for i in range(net.n_layers):
        z = h @ net.weights[i].T.astype(dtype, copy=False)
        z += net.biases[i].astype(dtype, copy=False)
        pre_activations.append(z)
        h = z
        if i < net.n_layers - 1:
            sigmoids.append(_sigmoid(z))
            h = z * sigmoids[-1]
        activations.append(h)
    return h, Tape(activations, pre_activations, sigmoids, np.dtype(dtype))


def backward(net: DenseNet, tape: Tape, dloss_dy: np.ndarray) -> Gradients:
    """Exact parameter gradients of the scalar loss whose output-gradient is
    given, in the tape's compute dtype."""
    dtype = tape.dtype
    delta = np.asarray(dloss_dy, dtype=dtype)
    if delta.shape != tape.activations[-1].shape:
        raise DimensionMismatch(f"output gradient shape {delta.shape} does not match forward output {tape.activations[-1].shape}")
    grad_w: list[np.ndarray] = [np.empty(0)] * net.n_layers
    grad_b: list[np.ndarray] = [np.empty(0)] * net.n_layers
    for i in range(net.n_layers - 1, -1, -1):
        grad_w[i] = delta.T @ tape.activations[i]
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            dx = delta @ net.weights[i].astype(dtype, copy=False)
            z = tape.pre_activations[i - 1]
            s = tape.sigmoids[i - 1]
            # d/dz of z*sigmoid(z): s * (1 + z * (1 - s)), built in one buffer
            ds = np.subtract(1.0, s)
            ds *= z
            ds += 1.0
            ds *= s
            dx *= ds
            delta = dx
    return Gradients(weights=grad_w, biases=grad_b)


@dataclasses.dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m_weights: list[np.ndarray] = dataclasses.field(default_factory=list)
    v_weights: list[np.ndarray] = dataclasses.field(default_factory=list)
    m_biases: list[np.ndarray] = dataclasses.field(default_factory=list)
    v_biases: list[np.ndarray] = dataclasses.field(default_factory=list)
    _table: _AdamTable | None = dataclasses.field(default=None, init=False, repr=False, compare=False)

    @staticmethod
    def init(net: DenseNet, lr: float = 1e-3) -> "AdamState":
        return AdamState(
            lr=lr,
            m_weights=[np.zeros_like(w) for w in net.weights],
            v_weights=[np.zeros_like(w) for w in net.weights],
            m_biases=[np.zeros_like(b) for b in net.biases],
            v_biases=[np.zeros_like(b) for b in net.biases],
        )


_KERNELS_SOURCE = Path(__file__).with_name("_kernels.c")
# -ffp-contract=off keeps each multiply and add rounded on its own, as in
# numpy, and -O3 is needed to vectorize sqrt and the division. Never
# -ffast-math or -Ofast (they reorder arithmetic and set flush-to-zero for
# the whole process) nor -march=native (the build would vary by host CPU);
# _kernels.c picks its instruction set at load time instead.
_KERNELS_CFLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")
_KERNELS_BUILD_TIMEOUT_S = 60
# the first float of a writable array, whose address the kernel takes
_floats = ctypes.c_float.from_buffer


@functools.cache
def _kernels() -> ctypes.CDLL | None:
    """_kernels.c compiled by cc and loaded, once per process at the first
    call (adam_step's or world._pair_sweep's); None when there is no cc, the
    compile fails or the library does not load, and its callers then run
    numpy's operations."""
    import subprocess  # here, not at import, so the CLI starts without it

    with tempfile.TemporaryDirectory() as tmp:
        lib_path = os.path.join(tmp, "_kernels.so")
        command = ["cc", *_KERNELS_CFLAGS, "-o", lib_path, str(_KERNELS_SOURCE), "-lm"]
        try:
            if subprocess.run(command, capture_output=True, timeout=_KERNELS_BUILD_TIMEOUT_S).returncode != 0:
                return None
            lib = ctypes.CDLL(lib_path)  # mapped, so the directory can go
        except (OSError, subprocess.SubprocessError):
            return None
    lib.adam_step_all.argtypes = [ctypes.c_size_t, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p]
    lib.adam_step_all.restype = ctypes.c_int
    lib.pair_cells.argtypes = [ctypes.c_size_t, ctypes.c_void_p, ctypes.c_size_t] + [ctypes.c_void_p] * 6 + [ctypes.c_size_t, ctypes.c_void_p]
    lib.pair_cells.restype = None
    return lib


class _AdamTable:
    """The kernel's pointer table for one set of parameter and moment
    arrays: p, g, m, v per tensor, of which only the gradients' slots change
    from step to step. It holds those arrays, so their memory lives as long
    as the table, and adam_step builds a new one when any is replaced."""

    def __init__(self, params: list[np.ndarray], ms: list[np.ndarray], vs: list[np.ndarray]):
        self.arrays = params + ms + vs
        self.shapes = [p.shape for p in params]
        # None when a tensor cannot go through the kernel
        self.ptrs = None
        if len(ms) == len(vs) == len(params) and all(p.shape == m.shape == v.shape for p, m, v in zip(params, ms, vs)) and all(
            x.size and x.dtype == np.float32 and x.flags.carray for x in self.arrays
        ):
            self.ptrs = (ctypes.c_void_p * (4 * len(params)))()
            for slot, tensors in ((0, params), (2, ms), (3, vs)):
                self.ptrs[slot::4] = [ctypes.addressof(_floats(x)) for x in tensors]
            self.sizes = (ctypes.c_size_t * len(params))(*(p.size for p in params))
            self.consts = (ctypes.c_float * 7)()

    def __reduce__(self):
        # a copy of an AdamState starts without a table, since this one
        # points into the original's arrays
        return type(None), ()


def adam_step(net: DenseNet, grads: Gradients, state: AdamState, lr: float | None = None) -> None:
    """One bias-corrected Adam update in place, in float32 like the
    parameters: p -= a m / (sqrt(v b) + eps) with a = lr / c1 and b = 1 / c2
    rounded to float32 once. Gradients are rounded to float32 first, and a
    non-finite one is rejected before any tensor changes.

    The compiled kernel and the numpy update do the same float32 operations
    in the same order, so they give the same bits. The kernel takes the
    whole step in one call; if any tensor cannot go through it (not a
    writable, aligned, C-contiguous float32 array the shape of its
    gradient, or empty), the whole step takes the numpy update.
    """
    f32 = np.float32
    # from_buffer needs a writable buffer: a C-order copy, rounded as by
    # astype, of any gradient that is not a writable C-contiguous float32 array
    gs = [g if g.dtype == f32 and g.flags.carray else np.array(g, dtype=f32, order="C")
          for g in grads.weights + grads.biases]
    if lr is None:
        lr = state.lr
    step = state.step + 1
    a = f32(lr / (1.0 - state.beta1 ** step))
    b = f32(1.0 / (1.0 - state.beta2 ** step))
    beta1, beta2, eps = f32(state.beta1), f32(state.beta2), f32(state.eps)
    one_minus_beta1, one_minus_beta2 = f32(1.0 - state.beta1), f32(1.0 - state.beta2)
    params = net.weights + net.biases
    ms, vs = state.m_weights + state.m_biases, state.v_weights + state.v_biases
    arrays, kernel, table = params + ms + vs, _kernels(), state._table
    if kernel is not None and (table is None or len(table.arrays) != len(arrays)
                               or not all(map(operator.is_, table.arrays, arrays))):
        table = state._table = _AdamTable(params, ms, vs)
    in_kernel = kernel is not None and table.ptrs is not None and [g.shape for g in gs] == table.shapes
    if in_kernel:
        table.ptrs[1::4] = [ctypes.addressof(_floats(g)) for g in gs]
        table.consts[:] = (a, b, beta1, beta2, one_minus_beta1, one_minus_beta2, eps)
        finite = kernel.adam_step_all(len(gs), table.ptrs, table.sizes, table.consts)
    else:
        finite = all(np.isfinite(g).all() for g in gs)
    if not finite:
        raise NonFiniteGradient(f"non-finite gradient at optimizer step {step}")
    state.step = step
    if in_kernel:
        return
    for p, g, m, v in zip(params, gs, ms, vs):
        buf = np.multiply(one_minus_beta1, g)
        m *= beta1
        m += buf
        np.multiply(one_minus_beta2, g, out=buf)
        buf *= g
        v *= beta2
        v += buf
        np.multiply(v, b, out=buf)
        np.sqrt(buf, out=buf)
        buf += eps
        np.divide(np.multiply(a, m), buf, out=buf)
        p -= buf


def grad_check(
    net: DenseNet,
    loss_fn: Callable[[DenseNet], tuple[float, Gradients]],
    probes: int,
    h: float = 1e-3,
    seed: int = 0,
) -> float:
    """Max relative error between loss_fn's gradients and central differences.

    loss_fn must be deterministic and return (scalar loss, Gradients). Each
    probe perturbs one randomly chosen parameter. The perturbed values are
    rounded to float32 storage, so the finite difference divides by the step
    that was actually applied rather than the nominal 2h.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    rng = np.random.default_rng(seed)
    _, grads = loss_fn(net)
    worst = 0.0
    for _ in range(probes):
        layer = int(rng.integers(net.n_layers))
        use_bias = bool(rng.integers(2))
        tensor = net.biases[layer] if use_bias else net.weights[layer]
        grad = grads.biases[layer] if use_bias else grads.weights[layer]
        flat = int(rng.integers(tensor.size))
        idx = np.unravel_index(flat, tensor.shape)
        original = tensor[idx]
        plus = np.float32(float(original) + h)
        minus = np.float32(float(original) - h)
        tensor[idx] = plus
        loss_plus, _ = loss_fn(net)
        tensor[idx] = minus
        loss_minus, _ = loss_fn(net)
        tensor[idx] = original
        actual_step = float(plus) - float(minus)
        fd = (loss_plus - loss_minus) / actual_step
        bp = float(grad[idx])
        err = abs(fd - bp) / max(1.0, abs(fd), abs(bp))
        worst = max(worst, err)
    return worst


def save_checkpoint(net: DenseNet, path: str | Path, adam: AdamState | None = None) -> None:
    """Binary layout: magic, version, activation tag, dims, float32 parameter
    blobs per layer (W then b), then the optional Adam state."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(_ACTIVATION_TAG)
        fh.write(struct.pack("<I", len(net.layer_dims)))
        fh.write(struct.pack(f"<{len(net.layer_dims)}I", *net.layer_dims))
        for w, b in zip(net.weights, net.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f4").tobytes())
        if adam is None:
            fh.write(struct.pack("<B", 0))
        else:
            fh.write(struct.pack("<B", 1))
            fh.write(struct.pack("<Qdddd", adam.step, adam.lr, adam.beta1, adam.beta2, adam.eps))
            for group in (adam.m_weights, adam.v_weights, adam.m_biases, adam.v_biases):
                for tensor in group:
                    fh.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes())


def load_checkpoint(path: str | Path) -> tuple[DenseNet, AdamState | None]:
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ParseError(f"cannot read checkpoint {path}: {exc}") from exc
    with fh:
        read = exact_reader(fh, path)
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise ParseError(f"{path}: not a checkpoint file")
        (version,) = struct.unpack("<I", read(4))
        if version != CHECKPOINT_VERSION:
            raise ParseError(f"{path}: unsupported checkpoint version {version}")
        tag = read(4)
        if tag != _ACTIVATION_TAG:
            raise ParseError(f"{path}: unknown activation tag {tag!r}")
        (n_dims,) = struct.unpack("<I", read(4))
        if n_dims < 2:
            raise ParseError(f"{path}: a checkpoint needs at least 2 layer dims, got {n_dims}")
        dims = list(struct.unpack(f"<{n_dims}I", read(4 * n_dims)))

        def read_f32(shape: tuple[int, ...]) -> np.ndarray:
            return np.frombuffer(read(4 * int(np.prod(shape))), dtype="<f4").reshape(shape).copy()

        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            weights.append(read_f32((fan_out, fan_in)))
            biases.append(read_f32((fan_out,)))
        net = DenseNet(layer_dims=dims, weights=weights, biases=biases)
        (has_adam,) = struct.unpack("<B", read(1))
        if not has_adam:
            return net, None
        step, lr, beta1, beta2, eps = struct.unpack("<Qdddd", read(8 + 32))
        adam = AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps, step=step)
        for group_name in ("m_weights", "v_weights", "m_biases", "v_biases"):
            tensors = weights if "weights" in group_name else biases
            setattr(adam, group_name, [read_f32(t.shape) for t in tensors])
        return net, adam
