"""Part-conditioned prior: denoising and flow-matching objectives over the
synthetic embedding world, plus the samplers that invert them.

The network always sees one flat input vector: the state, a 16-dim
sinusoidal encoding of time, four zero-padded condition slots, and a 4-bit
slot mask (dimension 5d + 20). The denoising objective predicts the clean
composite from its noised version (fixed linear schedule, ALPHA_BARS); the
flow objective predicts the straight path velocity target - x0. train and
objective_loss reach both through one table of draws and regression pairs.
Condition dropout zeroes both the slots and the mask of an item, which
trains the unconditional branch used by classifier-free guidance.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteLoss, ValidationError
from .hashing import combine_seed
from .nn import AdamState, DenseNet, Gradients, adam_step, backward, forward
from .world import SLOT_COUNT, ConditionSet, slot_rows

TIME_ENC_DIM = 16
_TIME_FREQS = 10000.0 ** (-np.arange(TIME_ENC_DIM // 2) / (TIME_ENC_DIM // 2 - 1))
FLOW_TIME_SCALE = 1000.0

DEFAULT_HIDDEN_DIMS = [256, 256, 256]


def input_dim(d: int) -> int:
    return d + TIME_ENC_DIM + SLOT_COUNT * d + SLOT_COUNT


# Linear beta schedule from 1e-4 to 0.02 over T = 1000 steps. ALPHA_BARS[t] is
# alpha_bar(t) for t in 0..T: 1 at t = 0, then alpha_1, decaying strictly.
DIFFUSION_STEPS = 1000
ALPHA_BARS = np.concatenate([[1.0], np.cumprod(1.0 - np.linspace(1e-4, 0.02, DIFFUSION_STEPS))])


def time_encoding(tau: np.ndarray) -> np.ndarray:
    """16 sinusoidal features of the scaled time in [0, 1000]."""
    tau = np.atleast_1d(np.asarray(tau, dtype=np.float64))
    angles = tau[:, None] * _TIME_FREQS[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


def condition_features(conds: Sequence[ConditionSet], d: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero-padded slot blocks (B, 4d) and presence masks (B, 4)."""
    embeddings, sets, slots = slot_rows(conds, d)
    blocks = np.zeros((len(conds), SLOT_COUNT, d))
    masks = np.zeros((len(conds), SLOT_COUNT))
    blocks[sets, slots] = embeddings
    masks[sets, slots] = 1.0
    return blocks.reshape(len(conds), SLOT_COUNT * d), masks


def build_inputs(
    states: np.ndarray, taus: np.ndarray, blocks: np.ndarray, masks: np.ndarray, dtype: type = np.float64
) -> np.ndarray:
    """State, time encoding, slot blocks and masks side by side in one
    ``dtype`` array; each float64 piece is rounded to ``dtype`` once."""
    d = states.shape[1]
    inputs = np.empty((states.shape[0], input_dim(d)), dtype=dtype)
    inputs[:, :d] = states
    inputs[:, d:d + TIME_ENC_DIM] = time_encoding(taus)
    inputs[:, d + TIME_ENC_DIM:-SLOT_COUNT] = blocks
    inputs[:, -SLOT_COUNT:] = masks
    return inputs


def q_sample(e: np.ndarray, t: int | np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Forward noising: sqrt(abar_t) e + sqrt(1 - abar_t) eps."""
    ab = ALPHA_BARS[t]
    if np.ndim(ab) == 1:
        ab = ab[:, None]
    return np.sqrt(ab) * e + np.sqrt(1.0 - ab) * eps


@dataclasses.dataclass
class FlowDraws:
    t: np.ndarray      # (B,) in [0, 1)
    x0: np.ndarray     # (B, d)
    drop: np.ndarray   # (B,) bool


@dataclasses.dataclass
class DiffusionDraws:
    t: np.ndarray      # (B,) integers in [1, T]
    eps: np.ndarray    # (B, d)
    drop: np.ndarray   # (B,) bool


def make_flow_draws(rng: np.random.Generator, batch_size: int, d: int, cond_dropout: float) -> FlowDraws:
    return FlowDraws(
        t=rng.random(batch_size),
        x0=rng.standard_normal((batch_size, d)),
        drop=rng.random(batch_size) < cond_dropout,
    )


def make_diffusion_draws(rng: np.random.Generator, batch_size: int, d: int, cond_dropout: float) -> DiffusionDraws:
    return DiffusionDraws(
        t=rng.integers(1, DIFFUSION_STEPS + 1, size=batch_size),
        eps=rng.standard_normal((batch_size, d)),
        drop=rng.random(batch_size) < cond_dropout,
    )


def _drop_conditions(inputs: np.ndarray, d: int, drop: np.ndarray) -> np.ndarray:
    """Zero the slot blocks and mask of the dropped rows, in place."""
    inputs[drop, d + TIME_ENC_DIM:] = 0.0
    return inputs


def _flow_pairs(targets, blocks, masks, draws: FlowDraws, dtype: type) -> tuple[np.ndarray, np.ndarray]:
    """Inputs at x_t = (1 - t) x0 + t e and the straight-path velocity e - x0."""
    x_t = (1.0 - draws.t)[:, None] * draws.x0 + draws.t[:, None] * targets
    inputs = build_inputs(x_t, FLOW_TIME_SCALE * draws.t, blocks, masks, dtype)
    return _drop_conditions(inputs, targets.shape[1], draws.drop), targets - draws.x0


def _diffusion_pairs(targets, blocks, masks, draws: DiffusionDraws, dtype: type) -> tuple[np.ndarray, np.ndarray]:
    """Inputs at the noised e_t and the clean composite e itself."""
    e_t = q_sample(targets, draws.t, draws.eps)
    inputs = build_inputs(e_t, draws.t.astype(np.float64), blocks, masks, dtype)
    return _drop_conditions(inputs, targets.shape[1], draws.drop), targets


# objective name -> (draw maker (rng, batch size, d, cond_dropout),
# (targets, blocks, masks, draws, dtype) -> (network inputs in dtype,
# regression targets))
_OBJECTIVES = {
    "rectified_flow": (make_flow_draws, _flow_pairs),
    "diffusion_prior": (make_diffusion_draws, _diffusion_pairs),
}
OBJECTIVES = tuple(_OBJECTIVES)


def _regression_loss(
    net: DenseNet,
    inputs: np.ndarray,
    targets: np.ndarray,
    want_grads: bool,
    predictor: Callable[[np.ndarray], np.ndarray] | None,
    dtype: type,
) -> tuple[float, Gradients | None]:
    if predictor is not None:
        pred = np.asarray(predictor(inputs))
        tape = None
    else:
        pred, tape = forward(net, inputs, dtype=dtype)
    diff = pred.astype(np.float64) - targets
    loss = float(np.mean(np.sum(diff * diff, axis=1)))
    if not np.isfinite(loss):
        raise NonFiniteLoss("loss evaluated to a non-finite value")
    if not want_grads:
        return loss, None
    if predictor is not None:
        raise ValueError("gradients require the network path, not a predictor override")
    dy = (2.0 / inputs.shape[0]) * diff
    return loss, backward(net, tape, dy.astype(dtype))


def objective_loss(
    objective: str,
    net: DenseNet,
    batch: Sequence[tuple[ConditionSet, np.ndarray]],
    draws: FlowDraws | DiffusionDraws,
    want_grads: bool = True,
    predictor: Callable[[np.ndarray], np.ndarray] | None = None,
    dtype: type = np.float32,
) -> tuple[float, Gradients | None]:
    """Mean squared error of ``objective``'s regression target on ``batch``.

    ``draws`` (from that objective's draw maker) pin the loss, which is how
    tests and gradient checks keep it deterministic. ``predictor`` replaces
    the network for oracle evaluations and disables gradients.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    targets = np.stack([target for _, target in batch])
    blocks, masks = condition_features([cond for cond, _ in batch], targets.shape[1])
    _, pairs = _OBJECTIVES[objective]
    inputs, reg_targets = pairs(targets, blocks, masks, draws, dtype)
    return _regression_loss(net, inputs, reg_targets, want_grads, predictor, dtype)


@dataclasses.dataclass
class TrainConfig:
    objective: str = "rectified_flow"
    lr: float = 1e-3
    batch_size: int = 64
    steps: int = 20000
    cond_dropout: float = 0.1
    seed: int = 0
    hidden_dims: list[int] = dataclasses.field(default_factory=lambda: list(DEFAULT_HIDDEN_DIMS))

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValidationError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if not (0.0 <= self.cond_dropout < 1.0):
            raise ValidationError("cond_dropout must be in [0, 1)")
        if self.steps < 1:
            raise ValidationError("steps must be >= 1")


@dataclasses.dataclass
class TrainResult:
    net: DenseNet
    adam: AdamState
    losses: list[float]  # one entry per optimizer step, pre-update


def train(config: TrainConfig, dataset: Sequence[tuple[ConditionSet, np.ndarray]]) -> TrainResult:
    """Seeded single-threaded training; identical config gives identical curves.

    Each step draws the batch indices, then the objective's draws, from one
    seeded stream, and regresses through the same pairs and loss as
    objective_loss. The learning rate follows a half-cosine from config.lr
    to zero. A non-finite loss aborts with the step index.
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    make_draws, pairs = _OBJECTIVES[config.objective]
    d = dataset[0][1].size
    net = DenseNet.init([input_dim(d)] + list(config.hidden_dims) + [d], seed=config.seed)
    adam = AdamState.init(net, lr=config.lr)
    rng = np.random.default_rng(combine_seed(config.seed, 0xA11))
    targets = np.stack([t for _, t in dataset])
    blocks, masks = condition_features([c for c, _ in dataset], d)
    losses: list[float] = []
    for step in range(1, config.steps + 1):
        idx = rng.integers(0, len(dataset), size=config.batch_size)
        draws = make_draws(rng, config.batch_size, d, config.cond_dropout)
        inputs, reg_targets = pairs(targets[idx], blocks[idx], masks[idx], draws, np.float32)
        try:
            loss, grads = _regression_loss(net, inputs, reg_targets, True, None, np.float32)
        except NonFiniteLoss as exc:
            raise NonFiniteLoss(f"{exc} at training step {step}") from exc
        losses.append(loss)
        lr = config.lr * 0.5 * (1.0 + np.cos(np.pi * step / config.steps))
        adam_step(net, grads, adam, lr=lr)
    return TrainResult(net=net, adam=adam, losses=losses)


def write_loss_csv(losses: Sequence[float], path) -> None:
    """Rows for step 1 and every 100th step, header 'step,loss'."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,loss\n")
        for step, loss in enumerate(losses, start=1):
            if step == 1 or step % 100 == 0:
                fh.write(f"{step},{loss:.10g}\n")


def _predict(net, inputs: np.ndarray, x: np.ndarray, tau: np.ndarray, blocks: np.ndarray, masks: np.ndarray) -> np.ndarray:
    if isinstance(net, DenseNet):
        out, _ = forward(net, inputs)
        return out.astype(np.float64)
    return np.asarray(net(x, tau, blocks, masks), dtype=np.float64)


def _guided(net, x: np.ndarray, tau: np.ndarray, blocks: np.ndarray, masks: np.ndarray, cfg_scale: float) -> np.ndarray:
    """Conditional prediction, CFG-extrapolated when cfg_scale != 1.

    cfg_scale == 1 never builds the unconditional branch, so that setting is
    bitwise identical to a plain conditional call.
    """
    inputs = build_inputs(x, tau, blocks, masks)
    cond_out = _predict(net, inputs, x, tau, blocks, masks)
    if cfg_scale == 1.0:
        return cond_out
    zero_blocks = np.zeros_like(blocks)
    zero_masks = np.zeros_like(masks)
    uncond_inputs = build_inputs(x, tau, zero_blocks, zero_masks)
    uncond_out = _predict(net, uncond_inputs, x, tau, zero_blocks, zero_masks)
    return uncond_out + cfg_scale * (cond_out - uncond_out)


def sample_flow_batch(
    net,
    conds: Sequence[ConditionSet],
    d: int,
    n_steps: int = 50,
    cfg_scale: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """Euler integration of the learned velocity field from seeded noise.

    Per-sample noise comes from a stream keyed by the sample index, so any
    sub-batch reproduces the full batch's rows. Outputs are unit-norm.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    blocks, masks = condition_features(conds, d)
    x = np.stack([np.random.default_rng(combine_seed(seed, i)).standard_normal(d) for i in range(len(conds))])
    h = 1.0 / n_steps
    for s in range(n_steps):
        t = s * h
        tau = np.full(len(conds), FLOW_TIME_SCALE * t)
        v = _guided(net, x, tau, blocks, masks, cfg_scale)
        x = x + h * v
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def sample_diffusion_batch(
    net,
    conds: Sequence[ConditionSet],
    d: int,
    n_steps: int = 50,
    cfg_scale: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """Deterministic reverse loop (eta = 0) over a strided timestep subset.

    The network predicts the clean composite; each step converts that to the
    implied noise and re-noises to the previous timestep. The final step
    lands on alpha_bar(0) = 1, so a perfect predictor returns the target
    exactly. Outputs are unit-norm.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    timesteps = np.unique(np.linspace(1, DIFFUSION_STEPS, min(n_steps, DIFFUSION_STEPS)).round().astype(int))[::-1]
    blocks, masks = condition_features(conds, d)
    x = np.stack([np.random.default_rng(combine_seed(seed, i)).standard_normal(d) for i in range(len(conds))])
    for j, t in enumerate(timesteps):
        tau = np.full(len(conds), float(t))
        e_hat = _guided(net, x, tau, blocks, masks, cfg_scale)
        ab_t = ALPHA_BARS[t]
        eps_hat = (x - np.sqrt(ab_t) * e_hat) / np.sqrt(1.0 - ab_t)
        t_prev = timesteps[j + 1] if j + 1 < len(timesteps) else 0
        ab_prev = ALPHA_BARS[t_prev]
        x = np.sqrt(ab_prev) * e_hat + np.sqrt(1.0 - ab_prev) * eps_hat
    return x / np.linalg.norm(x, axis=1, keepdims=True)

