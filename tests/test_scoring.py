from __future__ import annotations

import struct
import warnings

import numpy as np
import pytest

from asdkit.errors import ConfigError, InsufficientDataError, ModelFileError
from asdkit.model import forward, init_model
from asdkit.scoring import (BLOCK_CLIPS, COV_MAGIC, COV_VERSION, RIDGE, DomainCovariances,
                            decide, fit_threshold, joint_whitening,
                            load_covariances, load_thresholds, mahalanobis_frame_scores,
                            read_score_csv, save_covariances, save_thresholds,
                            score_mahalanobis, score_mse, write_score_csv,
                            RIDGE_TRACE_FLOOR, SCATTER_ROWS, _clip_blocks,
                            _residual_scatter, _ridged_covariance, fit_covariances)

from conftest import identity_covariances


def zero_model(dim):
    """Single-layer net with zero weights/bias: reconstruction is always 0."""
    model = init_model([dim, dim], seed=0, dtype=np.float64)
    model.weights[0][:] = 0.0
    model.biases[0][:] = 0.0
    return model


def constant_model(dim, value):
    """Reconstructs every input as the constant vector `value`."""
    model = zero_model(dim)
    model.biases[0][:] = value
    return model


def identity_model(dim):
    model = zero_model(dim)
    model.weights[0][:] = np.eye(dim)
    return model


# ---------------------------------------------------------------------------
# score_mse

def test_mse_zero_for_perfect_reconstruction():
    feats = np.random.default_rng(0).standard_normal((6, 5))
    assert score_mse(identity_model(5), feats) == 0.0


def test_mse_hand_case():
    # residuals (1,0,0,0) and (0,1,0,0): (1 + 1) / (4 * 2) = 0.25
    feats = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    assert score_mse(zero_model(4), feats) == 0.25


def test_mse_matches_elementwise_oracle(rng):
    model = init_model([6, 4, 6], seed=1, dtype=np.float64)
    feats = rng.standard_normal((9, 6))
    recon = forward(model, feats)
    total = 0.0
    for k in range(feats.shape[0]):
        for d in range(feats.shape[1]):
            total += (feats[k, d] - recon[k, d]) ** 2
    expected = total / feats.size
    assert score_mse(model, feats) == pytest.approx(expected, rel=1e-12)


def test_mse_requires_features():
    with pytest.raises(ConfigError):
        score_mse(zero_model(3), np.zeros((0, 3)))


def overflowing_model():
    model = init_model([3, 3], seed=0, dtype=np.float32)
    model.weights[0][:] = 3e38  # finite float32 weights whose products overflow
    return model


def test_mse_rejects_overflowing_reconstruction():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected without a numpy RuntimeWarning
        with pytest.raises(ConfigError, match="finite"):
            score_mse(overflowing_model(), np.ones((2, 3)))


def test_mahalanobis_rejects_overflowing_reconstruction():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="finite"):
            score_mahalanobis(overflowing_model(), np.ones((2, 3)), identity_covariances(3))


def test_mse_zero_residual_frame_scales_score_exactly():
    value = np.array([0.5, -1.0, 2.0])
    model = constant_model(3, value)
    rng = np.random.default_rng(4)
    feats = rng.standard_normal((7, 3))
    old = score_mse(model, feats)
    extended = np.vstack([feats, value])  # residual of the new frame is zero
    new = score_mse(model, extended)
    assert new == pytest.approx(old * 7 / 8, rel=1e-12)


# ---------------------------------------------------------------------------
# covariances

def fit(model, clips, workers=1):
    """fit_covariances of clips given as (features, domain) pairs."""
    return fit_covariances(model, [f for f, _ in clips].__getitem__,
                           [domain for _, domain in clips], workers)


def batch_fit(model, source_features, target_features):
    """The fit train_machine makes, with each domain's features as one clip."""
    return fit(model, [(source_features, "source"), (target_features, "target")])[1]


def inverses(cov):
    """The inverse covariances a factorization stands for: W W' and W diag(lam) W'."""
    w = cov.whitening
    return w @ w.T, (w * cov.target_scale) @ w.T


def from_inverses(inv_source, inv_target):
    """Factor the covariances whose inverses are given, as the pipeline factors."""
    whitening, target_scale = joint_whitening(np.linalg.inv(inv_source),
                                              np.linalg.inv(inv_target))
    return DomainCovariances(whitening=whitening, target_scale=target_scale,
                             ridge=0.0, n_source=0, n_target=0)


def ridged(x, ridge):
    sigma = np.cov(x, rowvar=False, ddof=1)
    return sigma + ridge * max(np.trace(sigma) / len(sigma), RIDGE_TRACE_FLOOR) * np.eye(len(sigma))


def test_covariance_hand_case():
    residuals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    cov = batch_fit(zero_model(2), residuals, residuals)
    # sample covariance (divisor N-1) of the residuals is diag(2/3, 2/3)
    expected = ridged(residuals, RIDGE)
    assert np.allclose(expected, np.diag([2 / 3, 2 / 3]) * (1 + RIDGE), rtol=1e-12)
    for inv in inverses(cov):
        sigma = np.linalg.inv(inv)
        assert np.allclose(sigma, expected, rtol=1e-6, atol=1e-9)
    assert cov.n_source == 4 and cov.n_target == 4 and cov.ridge == RIDGE


def test_covariance_inverse_contract(rng):
    model = init_model([5, 3, 5], seed=2, dtype=np.float64)
    src = rng.standard_normal((40, 5))
    tgt = rng.standard_normal((25, 5))
    cov = batch_fit(model, src, tgt)
    for inv in inverses(cov):
        sigma = np.linalg.inv(inv)
        assert np.allclose(sigma @ inv, np.eye(5), atol=1e-6)
        assert np.allclose(inv, inv.T, atol=1e-8)
        assert np.all(np.linalg.eigvalsh(inv) > 0)
    assert cov.whitening.shape == (5, 5) and cov.target_scale.shape == (5,)
    assert np.all(cov.target_scale > 0)


@pytest.mark.parametrize("dim, n_source, n_target", [
    (6, 40, 25), (12, 50, 5), (24, 30, 3)],  # targets of fewer rows than D: rank-deficient
    ids=["full-rank", "target-5-of-12", "target-3-of-24"])
def test_joint_factors_equal_ridged_inverses(dim, n_source, n_target):
    # the factors' error grows with the product of both condition numbers, so
    # the source is kept well conditioned and the target carries the ridge
    rng = np.random.default_rng(dim)
    src = rng.standard_normal((n_source, dim)) * rng.uniform(0.5, 2.0, dim) + 3.0
    tgt = rng.standard_normal((n_target, dim)) * rng.uniform(0.1, 5.0, dim) - 1.0
    cov = batch_fit(zero_model(dim), src, tgt)
    assert (cov.n_source, cov.n_target) == (n_source, n_target)
    for got, x in zip(inverses(cov), (src, tgt)):
        expected = np.linalg.inv(ridged(x, RIDGE))
        assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(expected))


def test_joint_whitening_of_random_spd_pairs(rng):
    for _ in range(10):
        dim = int(rng.integers(1, 9))
        sigma_s, sigma_t = random_spd(rng, dim), random_spd(rng, dim)
        whitening, target_scale = joint_whitening(sigma_s, sigma_t)
        cov = DomainCovariances(whitening, target_scale, 0.0, 0, 0)
        for got, sigma in zip(inverses(cov), (sigma_s, sigma_t)):
            expected = np.linalg.inv(sigma)
            assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(expected))


@pytest.mark.parametrize("sigma_source, sigma_target", [
    (-np.eye(3), np.eye(3)), (np.eye(3), -np.eye(3)),
    (np.eye(3), np.diag([1.0, 0.0, 1.0])), (np.eye(3), np.full((3, 3), np.nan))],
    ids=["source-negative", "target-negative", "target-singular", "target-nan"])
def test_joint_whitening_rejects_non_positive_definite(sigma_source, sigma_target):
    with pytest.raises(InsufficientDataError, match="not positive definite|cannot be factored"):
        joint_whitening(sigma_source, sigma_target)


def test_covariance_degenerate_equal_residuals():
    feats = np.tile(np.array([1.0, 2.0, 3.0]), (5, 1))  # all residuals equal
    cov = batch_fit(zero_model(3), feats, feats)
    expected_diag = 1.0 / (RIDGE * RIDGE_TRACE_FLOOR)
    for inv in inverses(cov):
        assert np.allclose(np.diag(inv), expected_diag, rtol=1e-6)
        off = inv - np.diag(np.diag(inv))
        assert np.allclose(off, 0.0, atol=abs(expected_diag) * 1e-9)


def merged_covariance(x, sizes):
    """M2 / (n - 1) of the source rows x, fitted as clips of sizes rows each
    (and an unused target clip), straight from the block merge."""
    assert sum(sizes) == x.shape[0]
    clips = np.split(x, np.cumsum(sizes)[:-1]) + [x[:2]]
    domains = ["source"] * len(sizes) + ["target"]
    _, m2, n = _residual_scatter(zero_model(x.shape[1]), clips.__getitem__, domains, 1)
    assert n["source"] == x.shape[0]
    return m2["source"] / (n["source"] - 1)


CHUNKINGS = {"ones": [1] * 60, "twos": [2] * 30, "uneven": [1, 7, 1, 13, 2, 36],
             "single": [60],
             "long": np.random.default_rng(5).integers(1, 301, 40).tolist(),
             "over-stack": [3, SCATTER_ROWS - 2, SCATTER_ROWS + 1, 2]}


@pytest.mark.parametrize("offset", [0.0, 1e3])
@pytest.mark.parametrize("chunking", sorted(CHUNKINGS))
def test_streamed_covariance_matches_np_cov(offset, chunking):
    # clips of 1 to 300 rows, in one block or in several (40 clips of "long"),
    # and clips that fill or overflow one scatter product
    sizes = CHUNKINGS[chunking]
    x = np.random.default_rng(6).standard_normal((sum(sizes), 5)) + offset
    got = merged_covariance(x, sizes)
    centred = x - x.mean(axis=0)  # the direct two-pass float64 covariance
    expected = centred.T @ centred / (x.shape[0] - 1)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("chunking", sorted(CHUNKINGS))
def test_streamed_covariance_of_equal_rows_is_exactly_zero(chunking):
    sizes = CHUNKINGS[chunking]
    x = np.tile(np.array([0.1, 2.0, -3.3, 1e3, 0.7]), (sum(sizes), 1))
    assert np.all(merged_covariance(x, sizes) == 0.0)


@pytest.mark.parametrize("domains, blocks", [
    (["source"] * 3 + ["target"] * 2, [[0, 1, 2], [3, 4]]),
    (["source"] * (2 * BLOCK_CLIPS + 1) + ["target"],
     [list(range(BLOCK_CLIPS)), list(range(BLOCK_CLIPS, 2 * BLOCK_CLIPS)),
      [2 * BLOCK_CLIPS], [2 * BLOCK_CLIPS + 1]]),
    (["target", "source", "target", "source"], [[0, 2], [1, 3]])],
    ids=["small", "three-source-blocks", "interleaved"])
def test_clips_are_blocked_per_domain_in_clip_order(domains, blocks):
    assert _clip_blocks(domains) == blocks


def test_covariances_from_streamed_clips_equal_batch_fit(rng):
    model = init_model([5, 3, 5], seed=2, dtype=np.float64)
    shapes = [(7, "source"), (1, "target"), (12, "source"), (4, "unknown"), (5, "target"),
              (3, "source")] * 7  # 21 source clips: two source blocks
    clips = [(rng.standard_normal((k, 5)), domain) for k, domain in shapes]
    scores, streamed = fit(model, clips)
    assert scores == [score_mse(model, feats) for feats, _ in clips]
    batch = batch_fit(
        model, np.vstack([f for f, d in clips if d == "source"]),
        np.vstack([f for f, d in clips if d == "target"]))
    assert (streamed.n_source, streamed.n_target) == (22 * 7, 6 * 7)
    for a, b in zip(inverses(streamed), inverses(batch)):
        assert np.allclose(a, b, rtol=1e-9, atol=0)
    assert np.allclose(streamed.target_scale, batch.target_scale, rtol=1e-9, atol=0)


def test_covariances_are_the_same_bytes_for_any_worker_count(rng):
    model = init_model([6, 4, 6], seed=3, dtype=np.float64)
    clips = [(rng.standard_normal((int(k), 6)) + 50.0, "source" if i % 9 else "target")
             for i, k in enumerate(rng.integers(1, 40, 3 * BLOCK_CLIPS))]
    fits = {}
    for workers in (1, 2, 3):
        scores, cov = fit(model, clips, workers)
        fits[workers] = (scores, cov.whitening.tobytes(), cov.target_scale.tobytes())
    assert fits[1] == fits[2] == fits[3]


def test_covariances_spend_the_moments():
    m2 = np.random.default_rng(2).standard_normal((3, 3))
    m2 = m2 @ m2.T
    covariance = _ridged_covariance(m2, 9)
    assert covariance is m2  # M2's buffer became the covariance
    assert covariance.shape == (3, 3)


def test_covariance_insufficient_data():
    with pytest.raises(InsufficientDataError):
        batch_fit(zero_model(3), np.zeros((1, 3)), np.zeros((5, 3)))


# ---------------------------------------------------------------------------
# score_mahalanobis

def test_mahalanobis_identity_equals_mse(rng):
    model = init_model([6, 4, 6], seed=3, dtype=np.float64)
    feats = rng.standard_normal((11, 6))
    mse = score_mse(model, feats)
    mah = score_mahalanobis(model, feats, identity_covariances(6))
    assert mah == pytest.approx(mse, rel=1e-12)


def test_mahalanobis_min_picks_smaller_form(rng):
    model = init_model([4, 3, 4], seed=4, dtype=np.float64)
    feats = rng.standard_normal((8, 4))
    cov = from_inverses(2.0 * np.eye(4), np.eye(4))
    assert score_mahalanobis(model, feats, cov) == \
        pytest.approx(score_mse(model, feats), rel=1e-12)
    # the same with the domains swapped: the target form is the larger one
    cov = from_inverses(np.eye(4), 2.0 * np.eye(4))
    assert score_mahalanobis(model, feats, cov) == \
        pytest.approx(score_mse(model, feats), rel=1e-12)


def random_spd(rng, dim):
    a = rng.standard_normal((dim, dim))
    return a @ a.T + dim * np.eye(dim)


def test_mahalanobis_matches_quadratic_form_oracle(rng):
    model = init_model([3, 2, 3], seed=5, dtype=np.float64)
    feats = rng.standard_normal((4, 3))
    inv_s = random_spd(rng, 3)
    inv_t = random_spd(rng, 3)
    cov = from_inverses(inv_s, inv_t)
    residuals = feats - forward(model, feats)
    total = 0.0
    for k in range(4):
        e = residuals[k]
        q_s = sum(e[i] * inv_s[i, j] * e[j] for i in range(3) for j in range(3))
        q_t = sum(e[i] * inv_t[i, j] * e[j] for i in range(3) for j in range(3))
        total += min(q_s, q_t)
    expected = total / (3 * 4)
    assert score_mahalanobis(model, feats, cov) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("dim", [5, 40])
def test_mahalanobis_equals_reference_forms(dim):
    # a fitted factorization: score_mahalanobis against mahalanobis_frame_scores
    # on the inverses the factors stand for
    rng = np.random.default_rng(dim)
    model = init_model([dim, 4, dim], seed=7, dtype=np.float64)
    cov = batch_fit(model, rng.standard_normal((3 * dim, dim)) * rng.uniform(0.5, 2, dim),
                          rng.standard_normal((dim // 2, dim)))
    inv_s, inv_t = inverses(cov)
    for _ in range(5):
        feats = rng.standard_normal((int(rng.integers(1, 30)), dim))
        residuals = feats - forward(model, feats)
        expected = np.sum(np.minimum(mahalanobis_frame_scores(residuals, inv_s),
                                     mahalanobis_frame_scores(residuals, inv_t)))
        expected /= residuals.size
        assert score_mahalanobis(model, feats, cov) == pytest.approx(expected, rel=1e-12)


def test_mahalanobis_not_above_single_domain_scores(rng):
    model = init_model([5, 3, 5], seed=6, dtype=np.float64)
    feats = rng.standard_normal((10, 5))
    inv_s = random_spd(rng, 5)
    inv_t = random_spd(rng, 5)
    cov = from_inverses(inv_s, inv_t)
    residuals = (feats - forward(model, feats)).astype(np.float64)
    q_s = mahalanobis_frame_scores(residuals, inv_s)
    q_t = mahalanobis_frame_scores(residuals, inv_t)
    combined = score_mahalanobis(model, feats, cov)
    assert np.all(np.minimum(q_s, q_t) <= q_s + 1e-12)
    assert np.all(np.minimum(q_s, q_t) <= q_t + 1e-12)
    assert combined <= np.mean(q_s) / 5 + 1e-12
    assert combined <= np.mean(q_t) / 5 + 1e-12
    assert combined >= 0.0


def test_mahalanobis_rejects_negative_score(rng):
    # the factoring never gives a negative scale (see the rejection tests above),
    # and the score check still catches one made by hand
    feats = rng.standard_normal((4, 3))
    negative = DomainCovariances(whitening=np.eye(3), target_scale=-np.ones(3),
                                 ridge=0.0, n_source=0, n_target=0)
    with pytest.raises(ConfigError, match=">= 0"):
        score_mahalanobis(zero_model(3), feats, negative)


def test_mahalanobis_dim_mismatch():
    model = init_model([4, 4], seed=0)
    with pytest.raises(ConfigError):
        score_mahalanobis(model, np.zeros((2, 4)), identity_covariances(3))


def test_scores_are_nonnegative(rng):
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        model = init_model([dim, 2, dim], seed=int(rng.integers(100)), dtype=np.float64)
        feats = rng.standard_normal((6, dim))
        cov = from_inverses(random_spd(rng, dim), random_spd(rng, dim))
        assert score_mse(model, feats) >= 0.0
        assert score_mahalanobis(model, feats, cov) >= 0.0


# ---------------------------------------------------------------------------
# threshold and decision

def test_threshold_interpolation_worked_example():
    scores = [float(i) for i in range(1, 101)]
    # oracle: rank position (n-1) * q = 89.1 -> s[89] + 0.1 * (s[90] - s[89])
    expected = scores[89] + 0.1 * (scores[90] - scores[89])
    phi = fit_threshold(scores)
    assert type(phi) is float
    assert phi == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(90.1)


def test_threshold_degenerate_cases():
    assert fit_threshold([3.5]) == 3.5
    assert fit_threshold([2.0, 2.0, 2.0]) == 2.0
    assert fit_threshold([1.0, 2.0]) == pytest.approx(1.9, rel=1e-12)


def test_threshold_rejects_bad_inputs():
    with pytest.raises(ConfigError, match="empty score list"):
        fit_threshold([])


def test_decide_strict_inequality():
    assert decide(2.0, 1.0) == "anomaly"
    assert decide(1.0, 1.0) == "normal"
    assert decide(0.5, 1.0) == "normal"


def test_decide_invariant_under_increasing_transform(rng):
    for _ in range(50):
        value = float(rng.uniform(0, 5))
        phi = float(rng.uniform(0, 5))
        base = decide(value, phi)
        for transform in (np.exp, lambda v: 3 * v + 7, lambda v: v**3 + v):
            mapped = decide(float(transform(value)), float(transform(phi)))
            assert mapped == base


# ---------------------------------------------------------------------------
# artifact round trips

def test_covariance_file_roundtrip(tmp_path, rng):
    cov = from_inverses(random_spd(rng, 6), random_spd(rng, 6))
    cov.ridge, cov.n_source, cov.n_target = 1e-3, 40, 10
    path = tmp_path / "c.cov"
    save_covariances(cov, path)
    loaded = load_covariances(path)
    assert np.array_equal(loaded.whitening, cov.whitening)
    assert np.array_equal(loaded.target_scale, cov.target_scale)
    assert loaded.ridge == cov.ridge
    assert (loaded.n_source, loaded.n_target) == (40, 10)


def test_covariance_file_is_header_then_whitening_then_scales(tmp_path, rng):
    # a non-symmetric Fortran-ordered matrix: the file holds its C-order bytes
    whitening = np.asfortranarray(rng.standard_normal((5, 5)))
    target_scale = rng.uniform(0.5, 2.0, 5)
    cov = DomainCovariances(whitening=whitening, target_scale=target_scale,
                            ridge=2.5e-3, n_source=30, n_target=7)
    path = tmp_path / "c.cov"
    save_covariances(cov, path)
    header = (COV_MAGIC + struct.pack("<III", 2, 5, 0)
              + struct.pack("<dQQ", 2.5e-3, 30, 7))
    assert COV_VERSION == 2
    assert path.read_bytes() == header + whitening.tobytes(order="C") + target_scale.tobytes()
    assert len(path.read_bytes()) == len(header) + 8 * (5 * 5 + 5)


def test_covariance_file_corruption(tmp_path, rng):
    path = tmp_path / "c.cov"
    save_covariances(identity_covariances(3), path)
    blob = path.read_bytes()
    (tmp_path / "t.cov").write_bytes(blob[:-8])
    with pytest.raises(ModelFileError):
        load_covariances(tmp_path / "t.cov")
    (tmp_path / "m.cov").write_bytes(b"WRONGMGC" + blob[8:])
    with pytest.raises(ModelFileError):
        load_covariances(tmp_path / "m.cov")


def test_version_1_covariance_file_asks_for_retraining(tmp_path):
    # version 1 held both inverse matrices: 2 * D^2 floats after the header
    path = tmp_path / "c.cov"
    path.write_bytes(COV_MAGIC + struct.pack("<III", 1, 3, 0)
                     + struct.pack("<dQQ", 1e-3, 2, 2) + np.eye(3).tobytes() * 2)
    with pytest.raises(ModelFileError, match="version 1.*retrain"):
        load_covariances(path)


@pytest.mark.parametrize("field, value", [("whitening", np.nan),
                                          ("whitening", np.inf),
                                          ("target_scale", np.inf),
                                          ("target_scale", np.nan),
                                          ("ridge", np.nan)])
def test_non_finite_covariance_file_is_model_file_error(tmp_path, field, value):
    cov = identity_covariances(3)
    if field == "ridge":
        cov.ridge = value
    else:
        getattr(cov, field)[1] = value
    save_covariances(cov, tmp_path / "c.cov")
    with pytest.raises(ModelFileError, match="non-finite"):
        load_covariances(tmp_path / "c.cov")


@pytest.mark.parametrize("value", [-1.0, 0.0])
def test_non_positive_target_scale_in_file_is_model_file_error(tmp_path, value):
    cov = identity_covariances(3)
    cov.target_scale[2] = value
    save_covariances(cov, tmp_path / "c.cov")
    with pytest.raises(ModelFileError, match="target scales must be > 0"):
        load_covariances(tmp_path / "c.cov")


def test_threshold_file_roundtrip(tmp_path):
    thresholds = {"mse": 0.123, "mahalanobis": 4.56}
    path = tmp_path / "t.json"
    save_thresholds(thresholds, path)
    assert path.read_text() == '{\n  "mahalanobis": 4.56,\n  "mse": 0.123\n}\n'
    assert load_thresholds(path) == thresholds
    (tmp_path / "bad.json").write_text("{not json")
    with pytest.raises(ModelFileError):
        load_thresholds(tmp_path / "bad.json")


def test_score_csv_roundtrip(tmp_path):
    rows = [("a/test/x.wav", 0.123456789012345, "normal"),
            ("a/test/y.wav", 7.0, "anomaly")]
    path = tmp_path / "scores.csv"
    write_score_csv(rows, path)
    loaded = read_score_csv(path)
    assert loaded == rows


OLD_FORMAT = "older format; retrain the model"
NOT_FINITE = "is not a finite number"
NOT_BOTH = "must hold exactly the modes ['mahalanobis', 'mse']"


@pytest.mark.parametrize("text, message", [
    ("[]", "must map mode to phi"),
    ("0.5", "must map mode to phi"),
    # the record format of older asdkit versions, with and without its exact fields
    ('{"mse": {"phi": 0.5, "percentile": 90.0, "split": "train", "mode": "mse", "x": 1}}',
     OLD_FORMAT),
    ('{"mse": {"phi": 0.5, "split": "train", "mode": "mse"}}', OLD_FORMAT),
    ('{"mse": NaN, "mahalanobis": 1.0}', NOT_FINITE),
    ('{"mse": 0.5, "mahalanobis": Infinity}', NOT_FINITE),
    ('{"mse": "0.5", "mahalanobis": 1.0}', NOT_FINITE),
    ('{"mse": null, "mahalanobis": 1.0}', NOT_FINITE),
    ('{"mse": true, "mahalanobis": 1.0}', NOT_FINITE),
    ('{"mse": {"phi": 0.5, "percentile": 90.0, "split": "train", "mode": "mse"}}',
     OLD_FORMAT),
    # a run holds both modes' phi, and no other
    ('{"mse": 0.5}', NOT_BOTH),
    ('{"mahalanobis": 0.5}', NOT_BOTH),
    ('{"mse": 0.5, "mahalanobis": 1.0, "zscore": 2.0}', NOT_BOTH),
    ("[" * 100000, "unreadable threshold file"),  # nested too deep to decode
], ids=["list", "not-a-mapping", "unknown-field", "missing-field", "nan-phi",
        "inf-phi", "string-phi", "null-phi", "bool-phi", "old-record", "mse-only",
        "mahalanobis-only", "extra-mode", "too-deep"])
def test_corrupt_threshold_file_is_model_file_error(tmp_path, text, message):
    path = tmp_path / "thresholds.json"
    path.write_text(text)
    with pytest.raises(ModelFileError, match="thresholds.json") as excinfo:
        load_thresholds(path)
    assert message in str(excinfo.value)


def test_threshold_file_of_exact_fields_loads(tmp_path):
    # each mode maps to phi alone, and an int is a number too
    path = tmp_path / "thresholds.json"
    path.write_text('{"mahalanobis": 2.5, "mse": 1}')
    assert load_thresholds(path) == {"mahalanobis": 2.5, "mse": 1}


@pytest.mark.parametrize("value", ["abc", "", "nan", "inf", "-inf"])
def test_non_numeric_score_names_its_row(tmp_path, value):
    path = tmp_path / "scores.csv"
    path.write_text("clip_path,score,decision\n"
                    "a/test/x.wav,0.5,normal\n"
                    f"a/test/y.wav,{value},normal\n")
    with pytest.raises(ConfigError, match=r"line 3: .*'a/test/y.wav'"):
        read_score_csv(path)
