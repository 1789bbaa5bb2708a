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
    per layer: weight matrix (in*out values, row-major), then bias (out values)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ._io import atomic_write
from .errors import ConfigError, ModelFileError, TrainingDivergedError

MODEL_MAGIC = b"ASDK-AE\x00"
MODEL_VERSION = 1
_DTYPE_CODES = {1: np.float32, 2: np.float64}


def default_layer_dims(feature_dim: int) -> list[int]:
    """Baseline bottleneck shape scaled to the feature dimension."""
    return [feature_dim, 128, 128, 128, 128, 8, 128, 128, 128, 128, feature_dim]


DEFAULT_LAYER_DIMS = default_layer_dims(640)


@dataclass
class AeModel:
    layer_dims: list[int]
    weights: list[np.ndarray]  # weights[l] has shape (dims[l], dims[l+1])
    biases: list[np.ndarray]
    rng_seed: int = 0

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def dtype(self) -> np.dtype:
        return self.weights[0].dtype

    def copy(self) -> "AeModel":
        return AeModel(layer_dims=list(self.layer_dims),
                       weights=[w.copy() for w in self.weights],
                       biases=[b.copy() for b in self.biases],
                       rng_seed=self.rng_seed)

    def param_norm(self) -> float:
        total = 0.0
        for w, b in zip(self.weights, self.biases):
            total += float(np.sum(w.astype(np.float64) ** 2))
            total += float(np.sum(b.astype(np.float64) ** 2))
        return float(np.sqrt(total))


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
    if len(dims) < 2:
        raise ConfigError(f"need at least input and output dims, got {dims}")
    if any(d < 1 for d in dims):
        raise ConfigError(f"all layer dims must be >= 1, got {dims}")
    if dims[0] != dims[-1]:
        raise ConfigError(
            f"autoencoder input dim {dims[0]} must equal output dim {dims[-1]}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype))
        biases.append(np.zeros(fan_out, dtype=dtype))
    return AeModel(layer_dims=dims, weights=weights, biases=biases, rng_seed=int(seed))


def _forward_cached(model: AeModel, x: np.ndarray):
    """Returns (pre-activations per layer, post-activations incl. input)."""
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
    x = np.asarray(batch, dtype=model.dtype)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != model.input_dim:
        raise ConfigError(
            f"input dim {x.shape[1]} does not match model dim {model.input_dim}")
    _, acts = _forward_cached(model, x)
    out = acts[-1]
    return out[0] if single else out


def gradient(model: AeModel, batch: np.ndarray):
    """Analytic gradient of the batch-mean MSE (mean over batch and dims).

    Returns (loss, weight_grads, bias_grads) with gradients shaped like the
    parameters.
    """
    x = np.asarray(batch, dtype=model.dtype)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != model.input_dim:
        raise ConfigError(
            f"input dim {x.shape[1]} does not match model dim {model.input_dim}")
    pre, acts = _forward_cached(model, x)
    residual = acts[-1] - x
    loss = float(np.mean(residual.astype(np.float64) ** 2))
    n_layers = len(model.weights)
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    delta = (2.0 / residual.size) * residual  # dL/d(output pre-activation)
    for l in range(n_layers - 1, -1, -1):
        grads_w[l] = acts[l].T @ delta
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ model.weights[l].T) * (pre[l - 1] > 0)
    return loss, grads_w, grads_b


def train(model: AeModel, features: np.ndarray, config: TrainConfig):
    """Adam on the reconstruction MSE. Returns (trained model, per-epoch loss).

    The input model is not modified. Shuffling comes from a stream seeded by
    config.seed, so results are reproducible. Aborts with
    TrainingDivergedError as soon as a batch loss is non-finite.
    """
    feats = np.asarray(features, dtype=model.dtype)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise ConfigError(f"need a (N, D) feature matrix, got shape {feats.shape}")
    if feats.shape[1] != model.input_dim:
        raise ConfigError(
            f"feature dim {feats.shape[1]} does not match model dim {model.input_dim}")
    if not np.all(np.isfinite(feats)):
        raise ConfigError("training features contain non-finite values")
    model = model.copy()
    rng = np.random.default_rng(config.seed)
    m_w = [np.zeros_like(w) for w in model.weights]
    v_w = [np.zeros_like(w) for w in model.weights]
    m_b = [np.zeros_like(b) for b in model.biases]
    v_b = [np.zeros_like(b) for b in model.biases]
    step = 0
    history = []
    n = feats.shape[0]
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_sq_sum = 0.0
        for batch_idx, start in enumerate(range(0, n, config.batch_size)):
            batch = feats[order[start:start + config.batch_size]]
            loss, grads_w, grads_b = gradient(model, batch)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch} batch {batch_idx} "
                    f"(parameter norm {model.param_norm():.3e})",
                    epoch=epoch, batch=batch_idx, param_norm=model.param_norm())
            epoch_sq_sum += loss * batch.size
            step += 1
            bc1 = 1.0 - config.beta1 ** step
            bc2 = 1.0 - config.beta2 ** step
            for l in range(len(model.weights)):
                for params, grads, m, v in (
                        (model.weights, grads_w, m_w, v_w),
                        (model.biases, grads_b, m_b, v_b)):
                    g = grads[l]
                    m[l] = config.beta1 * m[l] + (1.0 - config.beta1) * g
                    v[l] = config.beta2 * v[l] + (1.0 - config.beta2) * g * g
                    update = (config.learning_rate * (m[l] / bc1)
                              / (np.sqrt(v[l] / bc2) + config.adam_eps))
                    params[l] = (params[l] - update).astype(params[l].dtype)
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
    blob = bytearray()
    blob += MODEL_MAGIC
    blob += struct.pack("<III", MODEL_VERSION, dtype_code, len(dims))
    blob += struct.pack("<Q", model.rng_seed & 0xFFFFFFFFFFFFFFFF)
    blob += struct.pack(f"<{len(dims)}I", *dims)
    for w, b in zip(model.weights, model.biases):
        blob += np.ascontiguousarray(w).tobytes()
        blob += np.ascontiguousarray(b).tobytes()
    with atomic_write(path, "wb") as fh:
        fh.write(bytes(blob))


def load_model(path) -> AeModel:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ModelFileError(f"{path}: unreadable model file ({exc})") from exc
    header = len(MODEL_MAGIC) + 12 + 8
    if len(blob) < header:
        raise ModelFileError(f"{path}: truncated model file")
    if blob[:len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise ModelFileError(f"{path}: not a model file (bad magic)")
    version, dtype_code, n_dims = struct.unpack_from("<III", blob, len(MODEL_MAGIC))
    if version != MODEL_VERSION:
        raise ModelFileError(f"{path}: unsupported model version {version}")
    if dtype_code not in _DTYPE_CODES:
        raise ModelFileError(f"{path}: unknown dtype code {dtype_code}")
    (seed,) = struct.unpack_from("<Q", blob, len(MODEL_MAGIC) + 12)
    offset = header
    if len(blob) < offset + 4 * n_dims:
        raise ModelFileError(f"{path}: truncated model file")
    dims = list(struct.unpack_from(f"<{n_dims}I", blob, offset))
    offset += 4 * n_dims
    dtype = np.dtype(_DTYPE_CODES[dtype_code])
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w_bytes = fan_in * fan_out * dtype.itemsize
        b_bytes = fan_out * dtype.itemsize
        if len(blob) < offset + w_bytes + b_bytes:
            raise ModelFileError(f"{path}: truncated model file")
        w = np.frombuffer(blob, dtype=dtype, count=fan_in * fan_out,
                          offset=offset).reshape(fan_in, fan_out).copy()
        offset += w_bytes
        b = np.frombuffer(blob, dtype=dtype, count=fan_out, offset=offset).copy()
        offset += b_bytes
        weights.append(w)
        biases.append(b)
    if offset != len(blob):
        raise ModelFileError(f"{path}: {len(blob) - offset} trailing bytes")
    if not all(np.isfinite(a).all() for a in weights + biases):
        raise ModelFileError(f"{path}: non-finite weights")
    return AeModel(layer_dims=dims, weights=weights, biases=biases, rng_seed=int(seed))
