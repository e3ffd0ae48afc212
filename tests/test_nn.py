"""Dense network: forward/backward math, Adam, checkpoints, gradient checks."""

import copy
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from partgen import nn
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
    """Float32 Adam with a fresh array per intermediate: the reference the
    in-place update must match bit for bit."""
    state.step += 1
    f32 = np.float32
    a = f32(lr / (1.0 - state.beta1 ** state.step))
    b = f32(1.0 / (1.0 - state.beta2 ** state.step))
    beta1, beta2, eps = f32(state.beta1), f32(state.beta2), f32(state.eps)
    for params, gs, ms, vs in (
        (net.weights, grads.weights, state.m_weights, state.v_weights),
        (net.biases, grads.biases, state.m_biases, state.v_biases),
    ):
        for i in range(len(params)):
            g = gs[i].astype(np.float32)
            ms[i] = beta1 * ms[i] + f32(1.0 - state.beta1) * g
            vs[i] = beta2 * vs[i] + f32(1.0 - state.beta2) * g * g
            params[i] -= a * ms[i] / (np.sqrt(vs[i] * b) + eps)


def _extreme_gradient(rng: np.random.Generator, centre: np.ndarray, dtype=np.float32) -> np.ndarray:
    """Gradients of magnitude about 10^centre, one decade either way, with
    random signs and some exact +0 and -0: a centre of -45 gives float32
    subnormals, one of 30 gives squares that overflow v to inf."""
    g = 10.0 ** (centre + rng.standard_normal(centre.shape))
    g[rng.random(g.shape) < 0.5] *= -1.0
    g[rng.random(g.shape) < 0.05] = 0.0
    g[rng.random(g.shape) < 0.05] = -0.0
    return g.astype(dtype)


def _reference_forward_backward(net: DenseNet, x: np.ndarray, dy: np.ndarray, dtype):
    """forward then backward with a fresh array per intermediate and the
    two-branch sigmoid: the reference the in-place passes must match bit
    for bit. Returns the output, the pre-activations, the sigmoids and the
    gradients."""
    h = x.astype(dtype)
    zs, sigmoids, hs = [], [], [h]
    for i in range(net.n_layers):
        z = h @ net.weights[i].T.astype(dtype) + net.biases[i].astype(dtype)
        zs.append(z)
        h = z
        if i < net.n_layers - 1:
            sigmoids.append(_reference_sigmoid(z))
            h = z * sigmoids[-1]
        hs.append(h)
    delta = dy.astype(dtype)
    grad_w, grad_b = [None] * net.n_layers, [None] * net.n_layers
    for i in range(net.n_layers - 1, -1, -1):
        grad_w[i] = delta.T @ hs[i]
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            dx = delta @ net.weights[i].astype(dtype)
            z, s = zs[i - 1], sigmoids[i - 1]
            delta = dx * (s * (1.0 + z * (1.0 - s)))
    return h, zs, sigmoids, grad_w + grad_b


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def _quadratic_loss(net: DenseNet, x: np.ndarray, y: np.ndarray, dtype=np.float64):
    pred, tape = forward(net, x, dtype=dtype)
    diff = pred.astype(np.float64) - y
    loss = float(np.mean(np.sum(diff * diff, axis=1)))
    dy = (2.0 / x.shape[0]) * diff
    grads = backward(net, tape, dy.astype(dtype))
    return loss, grads


def _adam_arrays(net: DenseNet, state: AdamState) -> list[np.ndarray]:
    return net.weights + net.biases + state.m_weights + state.v_weights + state.m_biases + state.v_biases


def _assert_same_bits(got: list[np.ndarray], want: list[np.ndarray]) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.float32
        assert np.array_equal(_bits(a), _bits(b))


@pytest.fixture
def kernel_calls(kernel_path, monkeypatch) -> list[int]:
    """What each adam_step_all call of the test returned: one entry per
    step the compiled kernel took, none on the numpy path."""
    calls: list[int] = []
    kernel = nn._kernels()
    if kernel is not None:
        call = kernel.adam_step_all

        def recorded(*args):
            calls.append(call(*args))
            return calls[-1]

        monkeypatch.setattr(kernel, "adam_step_all", recorded)
    return calls


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_backward_match_allocating_reference_bitwise(self, dtype):
        net = DenseNet.init([6, 32, 32, 4], seed=3)
        rng = np.random.default_rng(10)
        for w in net.weights:
            w *= 4.0  # reach both sigmoid branches and saturate some units
        for b in net.biases:
            b[:] = rng.standard_normal(b.shape).astype(np.float32)
        x = 3.0 * rng.standard_normal((37, 6))
        dy = rng.standard_normal((37, 4))
        y, tape = forward(net, x, dtype=dtype)
        grads = backward(net, tape, dy.astype(dtype))
        ref_y, ref_zs, ref_sigmoids, ref_grads = _reference_forward_backward(net, x, dy, dtype)
        pairs = [(y, ref_y)] + list(zip(tape.pre_activations, ref_zs)) + list(zip(tape.sigmoids, ref_sigmoids))
        pairs += list(zip(grads.weights + grads.biases, ref_grads))
        assert len(pairs) == 1 + 3 + 2 + 6
        for got, want in pairs:
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(_bits(got), _bits(want))

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
        # the cosine schedule passes lr as np.float64; lr / c1 is rounded to
        # float32 once, so either type gives a float32 update
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


def _extreme_run(net: DenseNet, state: AdamState, ref_net: DenseNet, ref_state: AdamState) -> None:
    """200 steps of extreme gradients, some float64 or strided, through
    adam_step and the reference, then the two compared bit for bit. Each
    element keeps its decade for the whole run, so subnormal, ordinary and
    overflowing elements all last 200 steps."""
    rng = np.random.default_rng(12)
    shapes = [w.shape for w in net.weights] + [b.shape for b in net.biases]
    centres = [rng.uniform(-46.0, 31.0, size=shape) for shape in shapes]
    for step in range(1, 201):
        gs = [_extreme_gradient(rng, centre) for centre in centres]
        gs[1] = _extreme_gradient(rng, centres[1], np.float64)  # rounded to float32 by the update
        gs[2] = _extreme_gradient(rng, centres[2].T).T  # a transposed view
        gs[5] = np.repeat(gs[5], 2)[::2]  # a strided view
        grads = Gradients(weights=gs[:3], biases=gs[3:])
        lr = 1e-2 * 0.5 * (1.0 + np.cos(np.pi * step / 200))
        adam_step(net, grads, state, lr=lr)
        _reference_adam_step(ref_net, grads, ref_state, lr)
    assert state.step == ref_state.step == 200
    # every regime was reached: subnormal first moments, zero, ordinary
    # and infinite second moments
    m = np.abs(np.concatenate([m.ravel() for m in state.m_weights + state.m_biases]))
    v = np.concatenate([v.ravel() for v in state.v_weights + state.v_biases])
    tiny = np.finfo(np.float32).tiny
    assert ((0 < m) & (m < tiny)).any()
    assert (v == 0).any() and ((tiny <= v) & (v < np.inf)).any() and np.isinf(v).any()
    _assert_same_bits(_adam_arrays(net, state), _adam_arrays(ref_net, ref_state))


class TestAdamKernel:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_matches_reference_bitwise_over_extreme_gradients(self, small_net, kernel_calls):
        # a Fortran-order parameter and a strided moment send every step
        # to the numpy update
        net, ref_net = small_net, copy.deepcopy(small_net)
        net.weights[0] = np.asfortranarray(net.weights[0])
        ref_net.weights[0] = np.asfortranarray(ref_net.weights[0])
        state, ref_state = AdamState.init(net), AdamState.init(ref_net)
        state.v_biases[1] = np.zeros(2 * net.biases[1].size, dtype=np.float32)[::2]
        _extreme_run(net, state, ref_net, ref_state)
        assert kernel_calls == []

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_matches_reference_bitwise_over_extreme_gradients_in_one_call(self, small_net, kernel_path, kernel_calls):
        # every parameter and moment can go through the kernel, so on its
        # path each step is one adam_step_all call
        net, ref_net = small_net, copy.deepcopy(small_net)
        state, ref_state = AdamState.init(net), AdamState.init(ref_net)
        _extreme_run(net, state, ref_net, ref_state)
        assert kernel_calls == ([1] * 200 if kernel_path == "kernel" else [])

    def test_replaced_arrays_take_the_next_update(self, small_net, kernel_path, kernel_calls, tmp_path):
        # the kernel keeps the addresses of the parameters and moments from
        # step to step: an array replaced between steps must take the next
        # update, and the array it replaced must keep its bits
        net, ref_net = small_net, copy.deepcopy(small_net)
        state, ref_state = AdamState.init(net), AdamState.init(ref_net)
        rng = np.random.default_rng(15)
        x, y = rng.standard_normal((8, 6)), rng.standard_normal((8, 4))

        def step_both() -> None:
            _, grads = _quadratic_loss(net, x, y, dtype=np.float32)
            adam_step(net, grads, state, lr=1e-2)
            _reference_adam_step(ref_net, grads, ref_state, 1e-2)
            _assert_same_bits(_adam_arrays(net, state), _adam_arrays(ref_net, ref_state))

        step_both()
        for which in ("weight", "moment", "state"):
            if which == "weight":
                old = [net.weights[0]]
                net.weights[0] = net.weights[0].copy()
            elif which == "moment":
                old = [state.m_biases[1]]
                state.m_biases[1] = state.m_biases[1].copy()
            else:
                save_checkpoint(net, tmp_path / "net.bin", adam=state)
                old = state.m_weights + state.v_weights + state.m_biases + state.v_biases
                _, state = load_checkpoint(tmp_path / "net.bin")
            kept = [a.copy() for a in old]
            step_both()
            _assert_same_bits(old, kept)
        assert kernel_calls == ([1] * 4 if kernel_path == "kernel" else [])

    def test_a_deep_copy_updates_its_own_arrays(self, small_net, kernel_path, kernel_calls):
        # a copied state must not carry over the original's addresses
        state = AdamState.init(small_net)
        _, grads = _quadratic_loss(small_net, np.ones((2, 6)), np.ones((2, 4)), dtype=np.float32)
        adam_step(small_net, grads, state)
        net2, state2 = copy.deepcopy((small_net, state))
        kept = [a.copy() for a in _adam_arrays(small_net, state)]
        ref_net, ref_state = copy.deepcopy((small_net, state))
        adam_step(net2, grads, state2)
        _reference_adam_step(ref_net, grads, ref_state, state.lr)
        _assert_same_bits(_adam_arrays(small_net, state), kept)
        _assert_same_bits(_adam_arrays(net2, state2), _adam_arrays(ref_net, ref_state))
        assert kernel_calls == ([1] * 2 if kernel_path == "kernel" else [])

    @pytest.mark.parametrize(
        "dtype, bad",
        [(np.float32, np.nan), (np.float32, np.inf), (np.float32, -np.inf), (np.float64, -np.nan), (np.float64, 1e39)],
        ids=["nan", "inf", "-inf", "float64 nan", "float64 beyond float32"],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    def test_nonfinite_gradient_at_any_tensor_changes_nothing(self, small_net, kernel_path, kernel_calls, dtype, bad):
        rng = np.random.default_rng(13)
        x, y = rng.standard_normal((8, 6)), rng.standard_normal((8, 4))
        state = AdamState.init(small_net)
        adam_step(small_net, _quadratic_loss(small_net, x, y, dtype=np.float32)[1], state)
        for tensor in range(2 * small_net.n_layers):
            _, grads = _quadratic_loss(small_net, x, y, dtype=dtype)
            flat = (grads.weights + grads.biases)[tensor].reshape(-1)
            flat[rng.integers(flat.size)] = bad
            before = copy.deepcopy((small_net, state))
            with pytest.raises(NonFiniteGradient, match=r"^non-finite gradient at optimizer step 2$"):
                adam_step(small_net, grads, state)
            assert state.step == 1
            for name in ("weights", "biases"):
                for a, b in zip(getattr(small_net, name), getattr(before[0], name)):
                    assert np.array_equal(_bits(a), _bits(b))
            for name in ("m_weights", "v_weights", "m_biases", "v_biases"):
                for a, b in zip(getattr(state, name), getattr(before[1], name)):
                    assert np.array_equal(_bits(a), _bits(b))
        # on the kernel's path, the check ran in adam_step_all and refused
        # each bad step there
        assert kernel_calls == ([1] + [0] * 2 * small_net.n_layers if kernel_path == "kernel" else [])

    def test_a_failed_compile_falls_back_to_numpy(self, small_net, tmp_path, monkeypatch):
        bad = tmp_path / "_kernels.c"
        bad.write_text("not C\n", encoding="utf-8")
        monkeypatch.setattr(nn, "_KERNELS_SOURCE", bad)
        nn._kernels.cache_clear()
        try:
            assert nn._kernels() is None
            zero = Gradients(weights=[np.zeros_like(w) for w in small_net.weights], biases=[np.zeros_like(b) for b in small_net.biases])
            adam_step(small_net, zero, AdamState.init(small_net))
        finally:
            nn._kernels.cache_clear()

    def test_import_builds_no_kernel_and_loads_no_subprocess(self):
        # the library is built at a process's first Adam step or pair sweep,
        # never on import: `import partgen.cli` (the CLI's start-up, which
        # the benchmark's setup_s times) loads 238 modules under Python 3.11
        # and numpy 2.4.6
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = (
            "import sys, partgen.cli, partgen.nn\n"
            "print(len(sys.modules), 'subprocess' in sys.modules, partgen.nn._kernels.cache_info().currsize)"
        )
        result = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["238", "False", "0"]


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
