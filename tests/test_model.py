from __future__ import annotations

import numpy as np
import pytest

from asdkit.errors import ConfigError, ModelFileError, TrainingDivergedError
from asdkit.model import (DEFAULT_LAYER_DIMS, AeModel, TrainConfig, count_macs,
                          forward, gradient, init_model, load_model,
                          save_model, train)


def make_model(dims, seed=0, dtype=np.float64):
    return init_model(dims, seed=seed, dtype=dtype)


# ---------------------------------------------------------------------------
# init

def test_init_structure_default_baseline():
    model = init_model(DEFAULT_LAYER_DIMS, seed=0)
    assert len(model.weights) == 10
    for w, (fan_in, fan_out) in zip(model.weights,
                                    zip(DEFAULT_LAYER_DIMS[:-1], DEFAULT_LAYER_DIMS[1:])):
        assert w.shape == (fan_in, fan_out)
    assert model.dtype == np.float32


def test_init_deterministic():
    a = init_model([64, 16, 64], seed=3)
    b = init_model([64, 16, 64], seed=3)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    c = init_model([64, 16, 64], seed=4)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_rejects_mismatched_io_dims():
    with pytest.raises(ConfigError):
        init_model([640, 8, 512], seed=0)
    with pytest.raises(ConfigError):
        init_model([640], seed=0)
    with pytest.raises(ConfigError):
        init_model([4, 0, 4], seed=0)


def test_weights_and_biases_are_views_in_model_file_order(tmp_path):
    model = make_model([3, 2, 3])
    assert isinstance(model.weights, tuple) and isinstance(model.biases, tuple)
    model.weights[0][:] = np.arange(1, 7).reshape(3, 2)   # W0: params[0:6]
    model.biases[0][:] = [7, 8]                          # b0: params[6:8]
    model.weights[1][:] = np.arange(9, 15).reshape(2, 3)  # W1: params[8:14]
    model.biases[1][:] = [15, 16, 17]                    # b1: params[14:17]
    assert np.array_equal(model.params, np.arange(1, 18))
    path = tmp_path / "m.aem"
    save_model(model, path)
    assert path.read_bytes().endswith(model.params.tobytes())
    assert np.array_equal(load_model(path).params, model.params)
    dup = model.copy()
    dup.params[:] = -1.0
    assert np.array_equal(model.params, np.arange(1, 18))
    assert np.all(dup.weights[1] == -1.0)


# ---------------------------------------------------------------------------
# forward

def test_forward_zero_model_outputs_zero():
    model = make_model([4, 3, 4])
    for w in model.weights:
        w[:] = 0.0
    batch = np.random.default_rng(0).standard_normal((5, 4))
    assert np.all(forward(model, batch) == 0.0)


def test_forward_batch_shape():
    model = make_model([6, 4, 6])
    batch = np.zeros((7, 6))
    assert forward(model, batch).shape == (7, 6)
    assert forward(model, np.zeros(6)).shape == (6,)


def test_forward_identity_network_passes_nonnegative_input():
    model = make_model([4, 4, 4])
    model.weights[0][:] = np.eye(4)
    model.weights[1][:] = np.eye(4)
    model.biases[0][:] = 0.0
    model.biases[1][:] = 0.0
    x = np.array([[0.5, 0.0, 2.0, 1.25]])
    assert np.array_equal(forward(model, x), x)


def test_forward_rejects_wrong_dim():
    model = make_model([4, 4])
    with pytest.raises(ConfigError):
        forward(model, np.zeros((2, 5)))


# ---------------------------------------------------------------------------
# gradient

def test_gradient_zero_at_perfect_reconstruction():
    model = make_model([3, 3])
    model.weights[0][:] = np.eye(3)
    model.biases[0][:] = 0.0
    batch = np.random.default_rng(1).standard_normal((4, 3))
    loss, grad = gradient(model, batch)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def fd_gradient(model, batch, step=1e-5):
    """Central finite differences of the batch-mean MSE over every parameter."""
    base = model.params.copy()
    grad = np.zeros_like(base)
    probe = model.copy()
    for i in range(base.size):
        for sign, slot in ((+1, 0), (-1, 1)):
            perturbed = base.copy()
            perturbed[i] += sign * step
            probe.params[:] = perturbed
            loss, _ = gradient(probe, batch)
            if slot == 0:
                plus = loss
            else:
                minus = loss
        grad[i] = (plus - minus) / (2 * step)
    return grad


def analytic_flat_gradient(model, batch):
    return gradient(model, batch)[1]


def max_relative_error(analytic, numeric):
    scale = np.maximum(np.abs(numeric), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / scale))


def hidden_preactivation_margin(model, batch):
    """Smallest |pre-activation| over the hidden layers for this batch."""
    a = np.asarray(batch, dtype=model.dtype)
    margin = np.inf
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        if l < len(model.weights) - 1:
            margin = min(margin, float(np.min(np.abs(z))))
            a = np.maximum(z, 0)
        else:
            a = z
    return margin


def sample_kink_free_case(rng, dims, batch_rows=4, margin=1e-3):
    """Draw (model, batch) where no rectifier input sits near its kink.

    Central differences are invalid when a perturbation can flip a rectifier:
    the loss is not differentiable there, so such draws are resampled. The
    margin dwarfs the 1e-5 FD step.
    """
    while True:
        model = make_model(dims, seed=int(rng.integers(0, 2**31)), dtype=np.float64)
        batch = rng.standard_normal((batch_rows, dims[0]))
        if hidden_preactivation_margin(model, batch) > margin:
            return model, batch


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(99)
    for trial in range(5):
        dims = [6, int(rng.integers(3, 6)), int(rng.integers(2, 5)), 6]
        model, batch = sample_kink_free_case(rng, dims)
        err = max_relative_error(analytic_flat_gradient(model, batch),
                                 fd_gradient(model, batch))
        assert err < 1e-4, f"trial {trial}: relative error {err}"


def test_gradient_scales_linearly():
    # gradient of 2*MSE equals twice the gradient: check against a doubled-loss
    # finite difference
    model = make_model([5, 4, 5], seed=2, dtype=np.float64)
    batch = np.random.default_rng(3).standard_normal((3, 5))
    analytic = analytic_flat_gradient(model, batch)
    base = model.params.copy()
    probe = model.copy()
    doubled_fd = np.zeros_like(base)
    step = 1e-5
    for i in range(base.size):
        for sign in (+1, -1):
            perturbed = base.copy()
            perturbed[i] += sign * step
            probe.params[:] = perturbed
            loss, _ = gradient(probe, batch)
            if sign > 0:
                plus = 2 * loss
            else:
                minus = 2 * loss
        doubled_fd[i] = (plus - minus) / (2 * step)
    assert max_relative_error(2 * analytic, doubled_fd) < 1e-4


# ---------------------------------------------------------------------------
# training

def test_train_constant_dataset_converges():
    model = make_model([6, 4, 6], seed=0, dtype=np.float64)
    features = np.tile(np.array([0.3, -1.2, 0.8, 0.0, 2.0, -0.5]), (32, 1))
    trained, history = train(model, features,
                             TrainConfig(epochs=200, batch_size=16,
                                         learning_rate=1e-2, seed=1))
    assert len(history) == 200
    assert history[-1] < 1e-3 * history[0]


def test_train_loss_decreases_on_structured_data(rng):
    base = rng.standard_normal((1, 12))
    features = base + 0.1 * rng.standard_normal((200, 12))
    model = make_model([12, 6, 3, 6, 12], seed=5)
    _, history = train(model, features,
                       TrainConfig(epochs=30, batch_size=32, seed=2))
    assert history[-1] < history[0]


def test_train_deterministic_and_nonmutating():
    rng = np.random.default_rng(0)
    features = rng.standard_normal((50, 8)).astype(np.float32)
    model = make_model([8, 4, 8], seed=1, dtype=np.float32)
    before = [w.copy() for w in model.weights]
    cfg = TrainConfig(epochs=5, batch_size=16, seed=9)
    trained_a, hist_a = train(model, features, cfg)
    trained_b, hist_b = train(model, features, cfg)
    assert hist_a == hist_b
    for wa, wb in zip(trained_a.weights, trained_b.weights):
        assert np.array_equal(wa, wb)
    for w0, w1 in zip(before, model.weights):
        assert np.array_equal(w0, w1)  # input model untouched
    assert trained_a.layer_dims == model.layer_dims


def reference_adam_train(model, features, config):
    """Per-layer Adam with separate moment lists for weights and biases, run
    over the per-layer views of gradient()'s flat result."""
    feats = np.asarray(features, dtype=model.dtype)
    model = model.copy()
    weights, biases = list(model.weights), list(model.biases)
    rng = np.random.default_rng(config.seed)
    m_w = [np.zeros_like(w) for w in model.weights]
    v_w = [np.zeros_like(w) for w in model.weights]
    m_b = [np.zeros_like(b) for b in model.biases]
    v_b = [np.zeros_like(b) for b in model.biases]
    step = 0
    n = feats.shape[0]
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = feats[order[start:start + config.batch_size]]
            grads = AeModel(model.layer_dims, gradient(model, batch)[1])
            grads_w, grads_b = grads.weights, grads.biases
            step += 1
            bc1 = 1.0 - config.beta1 ** step
            bc2 = 1.0 - config.beta2 ** step
            for l in range(len(model.weights)):
                for params, grads, m, v in (
                        (weights, grads_w, m_w, v_w),
                        (biases, grads_b, m_b, v_b)):
                    g = grads[l]
                    m[l] = config.beta1 * m[l] + (1.0 - config.beta1) * g
                    v[l] = config.beta2 * v[l] + (1.0 - config.beta2) * g * g
                    update = (config.learning_rate * (m[l] / bc1)
                              / (np.sqrt(v[l] / bc2) + config.adam_eps))
                    params[l] = (params[l] - update).astype(params[l].dtype)
            for view, new in zip(model.weights + model.biases, weights + biases):
                view[:] = new
    return model


def test_flat_adam_matches_per_layer_reference():
    rng = np.random.default_rng(6)
    features = rng.standard_normal((50, 8)).astype(np.float32)
    model = make_model([8, 5, 3, 5, 8], seed=2, dtype=np.float32)
    cfg = TrainConfig(epochs=3, batch_size=16, seed=4)
    trained, _ = train(model, features, cfg)
    assert np.array_equal(trained.params, reference_adam_train(model, features, cfg).params)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_train_divergence_aborts_with_diagnostics():
    rng = np.random.default_rng(4)
    features = (1e3 * rng.standard_normal((64, 6))).astype(np.float32)
    model = make_model([6, 4, 6], seed=0, dtype=np.float32)
    with pytest.raises(TrainingDivergedError) as excinfo:
        train(model, features, TrainConfig(epochs=50, batch_size=16,
                                           learning_rate=1e30, seed=0))
    err = excinfo.value
    assert err.epoch >= 0 and err.batch >= 0
    assert err.param_norm > 0


def test_train_rejects_bad_inputs():
    model = make_model([4, 4])
    with pytest.raises(ConfigError):
        train(model, np.zeros((0, 4)), TrainConfig(epochs=1))
    with pytest.raises(ConfigError):
        train(model, np.full((3, 4), np.nan), TrainConfig(epochs=1))
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)


# ---------------------------------------------------------------------------
# MACs

def test_macs_two_layer():
    assert count_macs(make_model([640, 128, 640])) == 640 * 128 + 128 * 640 == 163840


def test_macs_default_baseline_shape():
    model = init_model(DEFAULT_LAYER_DIMS, seed=0)
    assert count_macs(model) == 264192
    # independent tally straight off the parameter arrays
    assert count_macs(model) == sum(w.shape[0] * w.shape[1] for w in model.weights)


def test_macs_single_square_layer():
    assert count_macs(make_model([7, 7])) == 49


# ---------------------------------------------------------------------------
# serialization

def test_save_load_roundtrip_bit_exact(tmp_path):
    model = init_model([10, 6, 2, 6, 10], seed=8)
    path = tmp_path / "m.aem"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.layer_dims == model.layer_dims
    assert loaded.rng_seed == model.rng_seed
    batch = np.random.default_rng(0).standard_normal((4, 10)).astype(np.float32)
    assert np.array_equal(forward(model, batch), forward(loaded, batch))
    save_model(loaded, tmp_path / "m2.aem")
    assert (tmp_path / "m.aem").read_bytes() == (tmp_path / "m2.aem").read_bytes()


def test_load_truncated_file(tmp_path):
    model = init_model([6, 3, 6], seed=0)
    path = tmp_path / "m.aem"
    save_model(model, path)
    blob = path.read_bytes()
    (tmp_path / "t.aem").write_bytes(blob[:len(blob) // 2])
    with pytest.raises(ModelFileError):
        load_model(tmp_path / "t.aem")


def test_load_wrong_magic(tmp_path):
    path = tmp_path / "junk.aem"
    path.write_bytes(b"NOTMODEL" + b"\x00" * 64)
    with pytest.raises(ModelFileError):
        load_model(path)


def test_load_trailing_garbage(tmp_path):
    model = init_model([6, 3, 6], seed=0)
    path = tmp_path / "m.aem"
    save_model(model, path)
    (tmp_path / "g.aem").write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(ModelFileError):
        load_model(tmp_path / "g.aem")


def test_load_wrong_version(tmp_path):
    model = init_model([6, 3, 6], seed=0)
    path = tmp_path / "m.aem"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[8] = 99  # version field sits right after the magic
    (tmp_path / "v.aem").write_bytes(bytes(blob))
    with pytest.raises(ModelFileError):
        load_model(tmp_path / "v.aem")
