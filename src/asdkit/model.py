"""Dense autoencoder trained by MSE, with exact gradients and MACs accounting.

The network is a plain fully-connected stack: rectifier on hidden layers,
identity output, no batch-norm (keeps repeated runs bitwise identical).
Training uses Adam with per-epoch uniform shuffling from a seeded stream, so
(seed, data, config) fully determine the trained parameters. Parameters live
in float32 by default; gradient tests run the same code in float64.

Model file layout (little-endian):
    8 bytes  magic  b"ASDK-AE\\0"
    u32      format version (1)
    u32      dtype code (1 = float32, 2 = float64)
    u32      number of dims
    u64      rng seed recorded at init
    u32[n]   layer dims
    payload: the flat parameter vector W0, b0, W1, b1, ... (each weight matrix
             in*out values, row-major, then its bias, out values)

The payload order is also the in-memory layout: AeModel.params is that flat
vector, and its weights and biases are views into it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ._io import atomic_write
from .errors import ConfigError, ModelFileError, TrainingDivergedError

MODEL_MAGIC = b"ASDK-AE\x00"
MODEL_VERSION = 1
_HEADER = struct.Struct("<8sIIIQ")  # magic, version, dtype code, number of dims, seed
_DTYPE_CODES = {1: np.float32, 2: np.float64}


def default_layer_dims(feature_dim: int) -> list[int]:
    """Baseline bottleneck shape scaled to the feature dimension."""
    return [feature_dim, 128, 128, 128, 128, 8, 128, 128, 128, 128, feature_dim]


DEFAULT_LAYER_DIMS = default_layer_dims(640)


def _n_params(dims) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))


def _views(flat: np.ndarray, dims) -> list[np.ndarray]:
    """Views W0, b0, W1, b1, ... into a flat parameter-shaped buffer."""
    views, pos = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        views.append(flat[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out))
        pos += fan_in * fan_out
        views.append(flat[pos:pos + fan_out])
        pos += fan_out
    return views


@dataclass
class AeModel:
    """Parameters as one flat array in model-file payload order; weights[l]
    (shape (dims[l], dims[l+1])) and biases[l] are views into it."""

    layer_dims: list[int]
    params: np.ndarray
    rng_seed: int = 0

    def __post_init__(self):
        dims = self.layer_dims
        if len(dims) < 2 or min(dims) < 1 or dims[0] != dims[-1]:
            raise ConfigError(f"layer dims {dims}: need at least 2 dims, each >= 1, "
                              "with input dim equal to output dim")
        views = _views(self.params, dims)
        self.weights = tuple(views[0::2])
        self.biases = tuple(views[1::2])

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def dtype(self) -> np.dtype:
        return self.params.dtype

    def copy(self) -> "AeModel":
        return AeModel(list(self.layer_dims), self.params.copy(), self.rng_seed)

    def param_norm(self) -> float:
        return float(np.sqrt(np.sum(self.params.astype(np.float64) ** 2)))


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 256
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")


def init_model(layer_dims, seed: int = 0, dtype=np.float32) -> AeModel:
    """Fan-in-scaled uniform init, deterministic per seed; biases start at zero."""
    dims = [int(d) for d in layer_dims]
    model = AeModel(dims, np.zeros(_n_params(dims), dtype=dtype), int(seed))
    rng = np.random.default_rng(seed)
    for w in model.weights:
        bound = 1.0 / np.sqrt(w.shape[0])
        w[:] = rng.uniform(-bound, bound, size=w.shape)
    return model


def _forward_cached(model: AeModel, batch):
    """Checks and casts a (B, D) or (D,) batch; returns (pre-acts, post-acts incl. input)."""
    x = np.asarray(batch, dtype=model.dtype)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != model.input_dim:
        raise ConfigError(
            f"input dim {x.shape[1]} does not match model dim {model.input_dim}")
    acts = [x]
    pre = []
    a = x
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        pre.append(z)
        a = z if l == last else np.maximum(z, 0)
        acts.append(a)
    return pre, acts


def forward(model: AeModel, batch: np.ndarray) -> np.ndarray:
    """Reconstruct a batch; accepts (B, D) or a single (D,) vector."""
    out = _forward_cached(model, batch)[1][-1]
    return out[0] if np.ndim(batch) == 1 else out


def gradient(model: AeModel, batch: np.ndarray):
    """Analytic gradient of the batch-mean MSE (mean over batch and dims).

    Returns (loss, grad) with grad laid out like model.params.
    """
    pre, acts = _forward_cached(model, batch)
    residual = acts[-1] - acts[0]
    loss = float(np.mean(residual.astype(np.float64) ** 2))
    grad = np.empty_like(model.params)
    views = _views(grad, model.layer_dims)
    delta = (2.0 / residual.size) * residual  # dL/d(output pre-activation)
    for l in range(len(model.weights) - 1, -1, -1):
        np.matmul(acts[l].T, delta, out=views[2 * l])
        np.sum(delta, axis=0, out=views[2 * l + 1])
        if l > 0:
            delta = (delta @ model.weights[l].T) * (pre[l - 1] > 0)
    return loss, grad


def train(model: AeModel, features: np.ndarray, config: TrainConfig):
    """Adam on the reconstruction MSE. Returns (trained model, per-epoch loss).

    The input model is not modified. Shuffling comes from a stream seeded by
    config.seed, so results are reproducible. Aborts with
    TrainingDivergedError as soon as a batch loss is non-finite.
    """
    feats = np.asarray(features, dtype=model.dtype)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise ConfigError(f"need a (N, D) feature matrix, got shape {feats.shape}")
    if not np.all(np.isfinite(feats)):
        raise ConfigError("training features contain non-finite values")
    model = model.copy()
    rng = np.random.default_rng(config.seed)
    m = np.zeros_like(model.params)
    v = np.zeros_like(model.params)
    step = 0
    history = []
    n = feats.shape[0]
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_sq_sum = 0.0
        for batch_idx, start in enumerate(range(0, n, config.batch_size)):
            batch = feats[order[start:start + config.batch_size]]
            loss, g = gradient(model, batch)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch} batch {batch_idx} "
                    f"(parameter norm {model.param_norm():.3e})",
                    epoch=epoch, batch=batch_idx, param_norm=model.param_norm())
            epoch_sq_sum += loss * batch.size
            step += 1
            bc1 = 1.0 - config.beta1 ** step
            bc2 = 1.0 - config.beta2 ** step
            m = config.beta1 * m + (1.0 - config.beta1) * g
            v = config.beta2 * v + (1.0 - config.beta2) * g * g
            # in place: weights and biases are views into params
            model.params -= (config.learning_rate * (m / bc1)
                             / (np.sqrt(v / bc2) + config.adam_eps))
        history.append(epoch_sq_sum / feats.size)
    return model, history


def count_macs(model: AeModel) -> int:
    """Multiply-accumulate ops for one forward pass of a single input vector.

    Counts one MAC per weight (in_dim * out_dim summed over layers); bias adds
    and activations are excluded, following the dominant-term convention.
    Per-clip cost is this figure times the clip's stacked-vector count K.
    """
    return sum(w.shape[0] * w.shape[1] for w in model.weights)


def save_model(model: AeModel, path) -> None:
    dims = model.layer_dims
    dtype_code = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}.get(model.dtype)
    if dtype_code is None:
        raise ModelFileError(f"cannot serialize dtype {model.dtype}")
    header = _HEADER.pack(MODEL_MAGIC, MODEL_VERSION, dtype_code, len(dims),
                          model.rng_seed & 0xFFFFFFFFFFFFFFFF)
    with atomic_write(path, "wb") as fh:
        fh.write(header + struct.pack(f"<{len(dims)}I", *dims) + model.params.tobytes())


def load_model(path) -> AeModel:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ModelFileError(f"{path}: unreadable model file ({exc})") from exc
    if len(blob) < _HEADER.size:
        raise ModelFileError(f"{path}: truncated model file")
    magic, version, dtype_code, n_dims, seed = _HEADER.unpack_from(blob)
    if magic != MODEL_MAGIC:
        raise ModelFileError(f"{path}: not a model file (bad magic)")
    if version != MODEL_VERSION:
        raise ModelFileError(f"{path}: unsupported model version {version}")
    if dtype_code not in _DTYPE_CODES:
        raise ModelFileError(f"{path}: unknown dtype code {dtype_code}")
    offset = _HEADER.size + 4 * n_dims
    if len(blob) < offset:
        raise ModelFileError(f"{path}: truncated model file")
    dims = list(struct.unpack_from(f"<{n_dims}I", blob, _HEADER.size))
    dtype = np.dtype(_DTYPE_CODES[dtype_code])
    n_params = _n_params(dims)
    extra = len(blob) - offset - n_params * dtype.itemsize
    if extra < 0:
        raise ModelFileError(f"{path}: truncated model file")
    if extra > 0:
        raise ModelFileError(f"{path}: {extra} trailing bytes")
    params = np.frombuffer(blob, dtype=dtype, count=n_params, offset=offset).copy()
    if not np.isfinite(params).all():
        raise ModelFileError(f"{path}: non-finite weights")
    try:
        return AeModel(dims, params, int(seed))
    except ConfigError as exc:
        raise ModelFileError(f"{path}: {exc}") from exc
