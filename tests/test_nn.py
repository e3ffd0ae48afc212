"""Dense network: forward/backward math, Adam, checkpoints, gradient checks."""

import copy
import struct

import numpy as np
import pytest

from partgen.errors import DimensionMismatch, NonFiniteGradient, ParseError
from partgen.nn import (
    AdamState,
    DenseNet,
    Gradients,
    _sigmoid,
    adam_step,
    backward,
    forward,
    grad_check,
    load_checkpoint,
    save_checkpoint,
)


@pytest.fixture
def small_net() -> DenseNet:
    return DenseNet.init([6, 16, 16, 4], seed=1)


def _reference_sigmoid(z: np.ndarray) -> np.ndarray:
    """The two-branch sigmoid by boolean-mask indexing: the reference the
    branch-free form must match bit for bit."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_adam_step(net: DenseNet, grads, state: AdamState, lr) -> None:
    """Adam with a fresh array per intermediate: the reference the in-place
    update must match bit for bit."""
    state.step += 1
    c1 = 1.0 - state.beta1 ** state.step
    c2 = 1.0 - state.beta2 ** state.step
    for params, gs, ms, vs in (
        (net.weights, grads.weights, state.m_weights, state.v_weights),
        (net.biases, grads.biases, state.m_biases, state.v_biases),
    ):
        for i in range(len(params)):
            g = gs[i].astype(np.float32)
            ms[i] = state.beta1 * ms[i] + (1.0 - state.beta1) * g
            vs[i] = state.beta2 * vs[i] + (1.0 - state.beta2) * g * g
            m_hat = ms[i] / c1
            v_hat = vs[i] / c2
            params[i] -= (lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(np.float32)


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def _quadratic_loss(net: DenseNet, x: np.ndarray, y: np.ndarray, dtype=np.float64):
    pred, tape = forward(net, x, dtype=dtype)
    diff = pred.astype(np.float64) - y
    loss = float(np.mean(np.sum(diff * diff, axis=1)))
    dy = (2.0 / x.shape[0]) * diff
    grads = backward(net, tape, dy.astype(dtype))
    return loss, grads


class TestForward:
    def test_shapes(self, small_net):
        x = np.random.default_rng(0).standard_normal((5, 6))
        y, tape = forward(small_net, x)
        assert y.shape == (5, 4)
        assert len(tape.pre_activations) == 3

    def test_silu_hidden_identity_output(self):
        # one weight=1 path through a single hidden unit exposes the activation
        net = DenseNet.init([1, 1, 1], seed=0)
        net.weights[0][:] = 1.0
        net.biases[0][:] = 0.0
        net.weights[1][:] = 1.0
        net.biases[1][:] = 0.0
        for z in (-2.0, -0.5, 0.0, 0.7, 3.0):
            y, _ = forward(net, np.array([[z]]), dtype=np.float64)
            expected = z / (1.0 + np.exp(-z)) if z != 0.0 else 0.0
            assert abs(float(y[0, 0]) - expected) < 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_mask_reference_bitwise(self, dtype):
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-30, -1e-30, 88.7, -88.7, 101.0, -101.0, 800.0, -800.0, 1e5, -1e5]
        random = 30.0 * np.random.default_rng(7).standard_normal(4099)
        z = np.concatenate([special, random]).astype(dtype)
        for offset, size in ((0, z.size), (1, 17), (3, 64), (0, 5)):
            part = z[offset:offset + size]
            got = _sigmoid(part)
            assert got.dtype == dtype
            assert np.array_equal(_bits(got), _bits(_reference_sigmoid(part)))
        assert np.array_equal(_bits(_sigmoid(z.reshape(-1, 5)[:, 1:4])), _bits(_reference_sigmoid(z.reshape(-1, 5)[:, 1:4])))

    def test_dimension_mismatch(self, small_net):
        with pytest.raises(DimensionMismatch):
            forward(small_net, np.zeros((3, 7)))
        with pytest.raises(DimensionMismatch):
            forward(small_net, np.zeros(6))  # a single vector is not a batch

    def test_init_bounds_and_determinism(self):
        net = DenseNet.init([100, 50, 10], seed=3)
        again = DenseNet.init([100, 50, 10], seed=3)
        for w, w2 in zip(net.weights, again.weights):
            assert np.array_equal(w, w2)
        bound0 = np.sqrt(6.0 / 100)
        assert np.abs(net.weights[0]).max() <= bound0
        assert all(np.all(b == 0) for b in net.biases)
        assert all(w.dtype == np.float32 for w in net.weights)


class TestBackward:
    def test_matches_finite_differences(self, small_net):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 6))
        y = rng.standard_normal((8, 4))
        err = grad_check(small_net, lambda n: _quadratic_loss(n, x, y), probes=20, seed=0)
        assert err < 1e-4


class TestAdam:
    def test_zero_gradient_is_noop(self, small_net):
        state = AdamState.init(small_net)
        change = copy.deepcopy(small_net)
        zero = Gradients(weights=[np.zeros_like(w) for w in small_net.weights], biases=[np.zeros_like(b) for b in small_net.biases])
        adam_step(change, zero, state)
        for w, w2 in zip(small_net.weights, change.weights):
            assert np.array_equal(w, w2)

    def test_first_step_magnitude(self, small_net):
        # with bias correction the first update has magnitude ~lr per param
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal((8, 6)), rng.standard_normal((8, 4))
        _, grads = _quadratic_loss(small_net, x, y, dtype=np.float32)
        before = copy.deepcopy(small_net)
        state = AdamState.init(small_net, lr=1e-3)
        adam_step(small_net, grads, state)
        delta = np.abs(small_net.weights[0] - before.weights[0])
        moved = delta[grads.weights[0] != 0]
        assert moved.size > 0
        assert np.all(moved < 1.1e-3)
        assert np.median(moved) > 0.5e-3

    def test_nonfinite_gradient_rejected(self, small_net):
        state = AdamState.init(small_net)
        _, grads = _quadratic_loss(small_net, np.ones((2, 6)), np.ones((2, 4)))
        grads.weights[0][0, 0] = np.nan
        before = copy.deepcopy(small_net)
        with pytest.raises(NonFiniteGradient):
            adam_step(small_net, grads, state)
        for w, w2 in zip(small_net.weights, before.weights):
            assert np.array_equal(w, w2)

    def test_descends_on_fixed_batch(self, small_net):
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((16, 6)), rng.standard_normal((16, 4))
        state = AdamState.init(small_net, lr=1e-2)
        first = _quadratic_loss(small_net, x, y, dtype=np.float32)[0]
        for _ in range(200):
            _, grads = _quadratic_loss(small_net, x, y, dtype=np.float32)
            adam_step(small_net, grads, state)
        last = _quadratic_loss(small_net, x, y, dtype=np.float32)[0]
        assert last < 0.2 * first


    @pytest.mark.parametrize("lr_type", [float, np.float64])
    def test_matches_allocating_reference_bitwise(self, small_net, lr_type):
        # the cosine schedule passes lr as np.float64, which promotes the
        # update to float64 before it is rounded for the subtraction
        net, ref_net = small_net, copy.deepcopy(small_net)
        state, ref_state = AdamState.init(net), AdamState.init(ref_net)
        rng = np.random.default_rng(8)
        for step in range(1, 21):
            x, y = rng.standard_normal((8, 6)), rng.standard_normal((8, 4))
            lr = lr_type(1e-2 * 0.5 * (1.0 + np.cos(np.pi * step / 20)))
            _, grads = _quadratic_loss(net, x, y, dtype=np.float32)
            _, ref_grads = _quadratic_loss(ref_net, x, y, dtype=np.float32)
            adam_step(net, grads, state, lr=lr)
            _reference_adam_step(ref_net, ref_grads, ref_state, lr)
        assert state.step == ref_state.step == 20
        pairs = (
            (net.weights, ref_net.weights),
            (net.biases, ref_net.biases),
            (state.m_weights, ref_state.m_weights),
            (state.v_weights, ref_state.v_weights),
            (state.m_biases, ref_state.m_biases),
            (state.v_biases, ref_state.v_biases),
        )
        for got, want in pairs:
            for a, b in zip(got, want):
                assert a.dtype == b.dtype == np.float32
                assert np.array_equal(_bits(a), _bits(b))


class TestCheckpoint:
    def test_round_trip_without_adam(self, small_net, tmp_path):
        path = tmp_path / "net.bin"
        save_checkpoint(small_net, path)
        loaded, adam = load_checkpoint(path)
        assert adam is None
        assert loaded.layer_dims == small_net.layer_dims
        for w, w2 in zip(small_net.weights, loaded.weights):
            assert np.array_equal(w, w2)
        for b, b2 in zip(small_net.biases, loaded.biases):
            assert np.array_equal(b, b2)

    def test_round_trip_with_adam(self, small_net, tmp_path):
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal((4, 6)), rng.standard_normal((4, 4))
        state = AdamState.init(small_net, lr=2e-3)
        for _ in range(3):
            _, grads = _quadratic_loss(small_net, x, y, dtype=np.float32)
            adam_step(small_net, grads, state)
        path = tmp_path / "net_adam.bin"
        save_checkpoint(small_net, path, adam=state)
        loaded, adam = load_checkpoint(path)
        assert adam is not None
        assert adam.step == state.step and adam.lr == state.lr
        for m, m2 in zip(state.m_weights, adam.m_weights):
            assert np.array_equal(m, m2)
        for v, v2 in zip(state.v_weights, adam.v_weights):
            assert np.array_equal(v, v2)
        for w, w2 in zip(small_net.weights, loaded.weights):
            assert np.array_equal(w, w2)

    def test_same_bytes_for_same_net(self, small_net, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(small_net, p1)
        save_checkpoint(small_net, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(Exception):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "where",
        ["version", "dims", "first weight", "100 bytes", "last bias", "adam flag", "adam scalars", "adam moments", "last moment"],
    )
    def test_truncated_file_is_parse_error(self, small_net, tmp_path, where):
        rng = np.random.default_rng(9)
        x, y = rng.standard_normal((4, 6)), rng.standard_normal((4, 4))
        state = AdamState.init(small_net)
        adam_step(small_net, _quadratic_loss(small_net, x, y, dtype=np.float32)[1], state)
        path = tmp_path / "full.bin"
        save_checkpoint(small_net, path, adam=state)
        data = path.read_bytes()
        header = 16 + 4 * len(small_net.layer_dims)
        flag = header + 4 * sum(w.size + b.size for w, b in zip(small_net.weights, small_net.biases))
        moments = flag + 1 + struct.calcsize("<Qdddd")
        assert data[flag] == 1 and len(data) == moments + 2 * (flag - header)
        size = {
            "version": 6,
            "dims": header - 2,
            "first weight": header + 10,
            "100 bytes": 100,
            "last bias": flag - 1,
            "adam flag": flag,
            "adam scalars": flag + 1 + 12,
            "adam moments": moments + 8,
            "last moment": len(data) - 1,
        }[where]
        path.write_bytes(data[:size])
        with pytest.raises(ParseError, match="truncated"):
            load_checkpoint(path)
