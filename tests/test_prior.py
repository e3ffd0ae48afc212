"""Prior objectives, noise schedule, training loop, and samplers."""

import hashlib

import numpy as np
import pytest

from partgen.errors import NonFiniteLoss, ValidationError
from partgen.hashing import combine_seed
from partgen.nn import DenseNet
from partgen.prior import (
    ALPHA_BARS,
    DIFFUSION_STEPS,
    FLOW_TIME_SCALE,
    OBJECTIVES,
    TIME_ENC_DIM,
    FlowDraws,
    TrainConfig,
    build_inputs,
    condition_features,
    input_dim,
    make_diffusion_draws,
    make_flow_draws,
    objective_loss,
    q_sample,
    sample_diffusion_batch,
    sample_flow_batch,
    time_encoding,
    train,
    write_loss_csv,
)
from partgen.world import SLOT_COUNT, compose_target, condition_set, make_dataset
from partgen.taxonomy import generate_corpus


@pytest.fixture(scope="module")
def small_batch(taxonomy, world):
    records = list(generate_corpus(taxonomy, 16, master_seed=21))
    return make_dataset(records, taxonomy, world)


def _reference_condition_features(conds, d):
    # row by row, slot by slot
    blocks = np.zeros((len(conds), SLOT_COUNT * d))
    masks = np.zeros((len(conds), SLOT_COUNT))
    for row, cond in enumerate(conds):
        for i in range(cond.k):
            blocks[row, i * d:(i + 1) * d] = cond.embeddings[i]
            masks[row, i] = 1.0
    return blocks, masks


def _zero_net(d: int) -> DenseNet:
    net = DenseNet.init([input_dim(d), 8, d], seed=0)
    for w in net.weights:
        w[:] = 0.0
    return net


class TestEncodings:
    def test_time_encoding_shape_and_bounds(self):
        enc = time_encoding(np.array([0.0, 1.0, 500.0, 1000.0]))
        assert enc.shape == (4, TIME_ENC_DIM)
        assert np.abs(enc).max() <= 1.0

    def test_time_zero_is_cos_block(self):
        enc = time_encoding(np.array([0.0]))[0]
        assert np.allclose(enc[: TIME_ENC_DIM // 2], 0.0)
        assert np.allclose(enc[TIME_ENC_DIM // 2:], 1.0)

    def test_distinct_times_distinct_codes(self):
        enc = time_encoding(np.linspace(0, 1000, 101))
        diffs = np.linalg.norm(enc[1:] - enc[:-1], axis=1)
        assert diffs.min() > 1e-4

    def test_input_layout(self, world, small_batch):
        cond, target = small_batch[0]
        blocks, masks = condition_features([cond], world.d)
        assert blocks.shape == (1, 4 * world.d) and masks.shape == (1, 4)
        assert masks[0].sum() == cond.k
        # slots beyond k are zero-padded
        assert np.all(blocks[0, cond.k * world.d:] == 0.0)
        state = np.ones((1, world.d))
        inputs = build_inputs(state, np.array([3.0]), blocks, masks)
        assert inputs.shape == (1, input_dim(world.d))
        assert np.array_equal(inputs[0, : world.d], state[0])
        assert np.array_equal(inputs[0, world.d: world.d + TIME_ENC_DIM], time_encoding(np.array([3.0]))[0])
        assert np.array_equal(inputs[0, -4:], masks[0])

    def test_condition_features_match_the_per_slot_loop_bitwise(self, taxonomy, world):
        conds = [condition_set(r.atoms, world) for r in generate_corpus(taxonomy, 300, master_seed=5)]
        assert {c.k for c in conds} == {2, 3, 4}
        for batch in (conds, conds[:1], []):
            blocks, masks = condition_features(batch, world.d)
            ref_blocks, ref_masks = _reference_condition_features(batch, world.d)
            assert blocks.shape == ref_blocks.shape and masks.shape == ref_masks.shape
            assert blocks.tobytes() == ref_blocks.tobytes() and masks.tobytes() == ref_masks.tobytes()


class TestNoiseSchedule:
    def test_alpha_bar_boundaries(self):
        assert DIFFUSION_STEPS == 1000 and ALPHA_BARS.shape == (DIFFUSION_STEPS + 1,)
        assert ALPHA_BARS[0] == 1.0
        assert ALPHA_BARS[1] == pytest.approx(1.0 - 1e-4)
        assert ALPHA_BARS[DIFFUSION_STEPS] < 1e-4

    def test_alpha_bar_monotone(self):
        bars = ALPHA_BARS[1:]
        assert np.all(np.diff(bars) < 0)

    def test_q_sample_interpolates(self):
        e = np.ones((2, 4))
        eps = np.zeros((2, 4))
        assert np.allclose(q_sample(e, 1, eps), np.sqrt(ALPHA_BARS[1]))
        noisy = q_sample(e, np.array([1, DIFFUSION_STEPS]), np.ones((2, 4)))
        assert not np.allclose(noisy[0], noisy[1])


class TestLosses:
    def test_zero_net_flow_loss_near_one_plus_d(self, world, small_batch):
        # E||e - x0||^2 = 1 + d for unit targets and standard normal x0
        rng = np.random.default_rng(0)
        losses = []
        net = _zero_net(world.d)
        for _ in range(40):
            draws = make_flow_draws(rng, len(small_batch), world.d, 0.0)
            loss, _ = objective_loss("rectified_flow", net, small_batch, draws=draws, want_grads=False)
            losses.append(loss)
        assert abs(np.mean(losses) - (1 + world.d)) < 6.0

    def test_flow_oracle_predictor_zero_loss(self, small_batch, world):
        targets = np.stack([t for _, t in small_batch])
        rng = np.random.default_rng(1)
        draws = make_flow_draws(rng, len(small_batch), world.d, cond_dropout=0.0)
        oracle = targets - draws.x0
        loss, grads = objective_loss(
            "rectified_flow", _zero_net(world.d), small_batch, draws=draws, want_grads=False,
            predictor=lambda inputs: oracle,
        )
        assert loss < 1e-10 and grads is None

    def test_diffusion_oracle_predictor_zero_loss(self, small_batch, world):
        targets = np.stack([t for _, t in small_batch])
        draws = make_diffusion_draws(np.random.default_rng(2), len(small_batch), world.d, 0.0)
        loss, _ = objective_loss(
            "diffusion_prior", _zero_net(world.d), small_batch, draws=draws, want_grads=False,
            predictor=lambda inputs: targets,
        )
        assert loss < 1e-10

    def test_predictor_refuses_gradients(self, small_batch, world):
        draws = make_flow_draws(np.random.default_rng(3), len(small_batch), world.d, 0.0)
        with pytest.raises(ValueError):
            objective_loss(
                "rectified_flow", _zero_net(world.d), small_batch, draws=draws, want_grads=True,
                predictor=lambda inputs: inputs,
            )

    def test_fixed_draws_make_loss_deterministic(self, small_batch, world):
        net = DenseNet.init([input_dim(world.d), 16, world.d], seed=5)
        draws = make_flow_draws(np.random.default_rng(4), len(small_batch), world.d, 0.2)
        a, _ = objective_loss("rectified_flow", net, small_batch, draws=draws, want_grads=False)
        b, _ = objective_loss("rectified_flow", net, small_batch, draws=draws, want_grads=False)
        assert a == b

    def test_dropout_zeroes_condition_and_mask(self, small_batch, world):
        # a dropped row must look exactly like the unconditional input
        cond, target = small_batch[0]
        batch = [(cond, target)]
        draws = FlowDraws(t=np.array([0.5]), x0=np.zeros((1, world.d)), drop=np.array([True]))

        seen = {}

        def spy(inputs):
            seen["inputs"] = inputs.copy()
            return np.zeros((1, world.d))

        objective_loss("rectified_flow", _zero_net(world.d), batch, draws=draws, want_grads=False, predictor=spy)
        inputs = seen["inputs"]
        assert np.all(inputs[0, world.d + TIME_ENC_DIM:] == 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_network_input_is_the_concatenated_layout_rounded_once(self, small_batch, world, objective, dtype):
        # the pairs write each float64 piece straight into one dtype array;
        # the reference concatenates in float64, zeroes the dropped rows'
        # slots and masks on copies, then casts
        targets = np.stack([t for _, t in small_batch])
        blocks, masks = condition_features([c for c, _ in small_batch], world.d)
        rng = np.random.default_rng(12)
        make_draws = make_flow_draws if objective == "rectified_flow" else make_diffusion_draws
        draws = make_draws(rng, len(small_batch), world.d, 0.5)
        assert 0 < draws.drop.sum() < len(small_batch)
        if objective == "rectified_flow":
            states = (1.0 - draws.t)[:, None] * draws.x0 + draws.t[:, None] * targets
            taus = FLOW_TIME_SCALE * draws.t
        else:
            states = q_sample(targets, draws.t, draws.eps)
            taus = draws.t.astype(np.float64)
        kept_blocks, kept_masks = blocks.copy(), masks.copy()
        kept_blocks[draws.drop] = 0.0
        kept_masks[draws.drop] = 0.0
        layout = np.concatenate([states, time_encoding(taus), kept_blocks, kept_masks], axis=1)
        assert np.array_equal(build_inputs(states, taus, kept_blocks, kept_masks).view(np.uint64), layout.view(np.uint64))
        seen = {}

        def spy(inputs):
            seen["inputs"] = inputs.copy()
            return targets

        objective_loss(objective, _zero_net(world.d), small_batch, draws=draws, want_grads=False, predictor=spy, dtype=dtype)
        want = layout.astype(dtype)
        got = seen["inputs"]
        assert got.dtype == dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))

    def test_nonfinite_loss_raises(self, small_batch, world):
        draws = make_flow_draws(np.random.default_rng(6), len(small_batch), world.d, 0.0)
        bad = lambda inputs: np.full((len(small_batch), world.d), np.nan)
        with pytest.raises(NonFiniteLoss):
            objective_loss(
                "rectified_flow", _zero_net(world.d), small_batch, draws=draws, want_grads=False, predictor=bad
            )


class TestTrainLoop:
    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(objective="score_matching")
        with pytest.raises(ValidationError):
            TrainConfig(cond_dropout=1.0)
        with pytest.raises(ValidationError):
            TrainConfig(steps=0)

    def test_short_training_is_deterministic_and_finite(self, small_batch):
        config = TrainConfig(steps=40, batch_size=8, seed=9)
        first = train(config, small_batch)
        second = train(config, small_batch)
        assert first.losses == second.losses
        assert all(np.isfinite(first.losses))
        for w, w2 in zip(first.net.weights, second.net.weights):
            assert np.array_equal(w, w2)

    def test_loss_decreases_on_average(self, small_batch):
        # most of the early loss is irreducible x0 variance, so a short run
        # only shaves part of it; the full-scale fixture lives in acceptance
        config = TrainConfig(steps=400, batch_size=16, seed=10, hidden_dims=[64])
        result = train(config, small_batch)
        head = float(np.mean(result.losses[:20]))
        tail = float(np.mean(result.losses[-20:]))
        assert tail < 0.75 * head

    def test_diffusion_objective_trains(self, small_batch):
        config = TrainConfig(objective="diffusion_prior", steps=60, batch_size=8, seed=11, hidden_dims=[32])
        result = train(config, small_batch)
        assert len(result.losses) == 60 and all(np.isfinite(result.losses))

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_step_one_loss_is_the_loss_function(self, world, small_batch, objective):
        # train's first step, rebuilt outside it: the initial net, then the
        # batch indices and the draws in train's order from its seeded stream
        config = TrainConfig(objective=objective, steps=2, batch_size=8, cond_dropout=0.5, seed=9, hidden_dims=[32])
        result = train(config, small_batch)
        net = DenseNet.init([input_dim(world.d), 32, world.d], seed=config.seed)
        rng = np.random.default_rng(combine_seed(config.seed, 0xA11))
        idx = rng.integers(0, len(small_batch), size=config.batch_size)
        batch = [small_batch[i] for i in idx]
        make_draws = make_flow_draws if objective == "rectified_flow" else make_diffusion_draws
        draws = make_draws(rng, config.batch_size, world.d, config.cond_dropout)
        loss, _ = objective_loss(objective, net, batch, draws=draws)
        assert 0 < draws.drop.sum() < config.batch_size
        assert result.losses[0] == loss

    # sha256 over losses, weights, biases and Adam m/v, taken when Adam
    # began updating in float32 (x86-64, numpy 2.4.6, OpenBLAS 0.3.31 with
    # its SkylakeX kernel); another BLAS kernel may round float32 matmuls
    # differently
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_training_digest_pinned(self, small_batch, objective):
        digest = {
            "rectified_flow": "011bb1674f206ff1497b5a6f96cc3635b18c77d3cca44d887a3c96c40539323b",
            "diffusion_prior": "80e18ffb9877d10007df1e10a550adbdb51b24dd4e6f144c162f599cd808f97b",
        }[objective]
        result = train(TrainConfig(objective=objective, steps=40, batch_size=8, seed=9, hidden_dims=[32]), small_batch)
        h = hashlib.sha256(np.asarray(result.losses, dtype=np.float64).tobytes())
        adam = result.adam
        for a in result.net.weights + result.net.biases + adam.m_weights + adam.v_weights + adam.m_biases + adam.v_biases:
            h.update(a.tobytes())
        assert h.hexdigest() == digest

    def test_loss_csv_rows(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_loss_csv([float(i) for i in range(1, 251)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,loss"
        steps = [int(line.split(",")[0]) for line in lines[1:]]
        assert steps == [1, 100, 200]


class TestSamplers:
    def test_flow_sampler_exact_with_true_field(self, taxonomy, world):
        records = list(generate_corpus(taxonomy, 6, master_seed=31))
        conds = [condition_set(r.atoms, world) for r in records]
        targets = np.stack([compose_target(c, world) for c in conds])

        def true_velocity(x, tau, blocks, masks):
            t = (tau / FLOW_TIME_SCALE)[:, None]
            return (targets - x) / (1.0 - t)

        out = sample_flow_batch(true_velocity, conds, world.d, n_steps=50, seed=0)
        assert np.abs(out - targets).max() < 1e-8

    def test_diffusion_sampler_exact_with_oracle_predictor(self, taxonomy, world):
        records = list(generate_corpus(taxonomy, 6, master_seed=32))
        conds = [condition_set(r.atoms, world) for r in records]
        targets = np.stack([compose_target(c, world) for c in conds])
        oracle = lambda x, tau, blocks, masks: targets
        out = sample_diffusion_batch(oracle, conds, world.d, n_steps=50, seed=0)
        assert np.abs(out - targets).max() < 1e-10

    def test_outputs_unit_norm_and_seeded(self, taxonomy, world, small_batch):
        net = DenseNet.init([input_dim(world.d), 32, world.d], seed=12)
        conds = [c for c, _ in small_batch[:5]]
        a = sample_flow_batch(net, conds, world.d, n_steps=10, seed=3)
        b = sample_flow_batch(net, conds, world.d, n_steps=10, seed=3)
        c = sample_flow_batch(net, conds, world.d, n_steps=10, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0)

    def test_subbatch_rows_match_full_batch(self, world, small_batch):
        net = DenseNet.init([input_dim(world.d), 32, world.d], seed=13)
        conds = [c for c, _ in small_batch[:4]]
        full = sample_flow_batch(net, conds, world.d, n_steps=8, seed=5)
        head = sample_flow_batch(net, conds[:2], world.d, n_steps=8, seed=5)
        assert np.allclose(full[:2], head)

    def test_cfg_scale_one_matches_plain_conditional(self, world, small_batch):
        # cfg_scale == 1 must never build the unconditional (all-zero-mask) branch.
        conds = [c for c, _ in small_batch[:3]]
        for sampler in (sample_flow_batch, sample_diffusion_batch):
            for cfg_scale, unconditional_calls in ((1.0, 0), (2.0, 6)):
                masks_seen = []

                def spy(x, tau, blocks, masks):
                    masks_seen.append(masks.copy())
                    return x

                sampler(spy, conds, world.d, n_steps=6, seed=6, cfg_scale=cfg_scale)
                assert sum(not m.any() for m in masks_seen) == unconditional_calls, (sampler.__name__, cfg_scale)
                assert sum(m.any() for m in masks_seen) == 6

    def test_cfg_scale_changes_output(self, world, small_batch):
        net = DenseNet.init([input_dim(world.d), 32, world.d], seed=15)
        conds = [c for c, _ in small_batch[:3]]
        base = sample_flow_batch(net, conds, world.d, n_steps=6, seed=7, cfg_scale=1.0)
        guided = sample_flow_batch(net, conds, world.d, n_steps=6, seed=7, cfg_scale=3.0)
        assert not np.allclose(base, guided)

    # sha256 over both cfg settings' output bytes, taken on the code from
    # before the schedule became the ALPHA_BARS table (x86-64, numpy 2.4.6,
    # OpenBLAS 0.3.31); cfg_scale=2 covers the unconditional branch
    @pytest.mark.parametrize("objective", ["flow", "diffusion"])
    def test_sampler_digest_pinned(self, world, small_batch, objective):
        digest, sampler = {
            "flow": ("5daca8bed873a8fa2f78f66ece06908aeeb2873ef06a9bde170a46f42f9fff75", sample_flow_batch),
            "diffusion": ("e26936ec4c97664f0f0e1a2b0c91dbb9893aa21e194b5e421f944432ada4cb48", sample_diffusion_batch),
        }[objective]
        net = DenseNet.init([input_dim(world.d), 32, world.d], seed=14)
        conds = [c for c, _ in small_batch[:5]]
        h = hashlib.sha256()
        for cfg_scale in (1.0, 2.0):
            h.update(sampler(net, conds, world.d, n_steps=10, cfg_scale=cfg_scale, seed=8).tobytes())
        assert h.hexdigest() == digest

    def test_step_count_validated(self, world, small_batch):
        conds = [c for c, _ in small_batch[:1]]
        with pytest.raises(ValueError):
            sample_flow_batch(_zero_net(world.d), conds, world.d, n_steps=0)
