from __future__ import annotations

import struct
import warnings

import numpy as np
import pytest

from asdkit.errors import ConfigError, InsufficientDataError, ModelFileError
from asdkit.model import init_model
from asdkit.scoring import (COV_MAGIC, COV_VERSION, DEFAULT_RIDGE, DomainCovariances, Threshold, decide,
                            fit_threshold, identity_covariances, load_covariances,
                            load_thresholds, mahalanobis_frame_scores,
                            read_score_csv, save_covariances, save_thresholds,
                            score_mahalanobis, score_mse, write_score_csv,
                            RIDGE_TRACE_FLOOR, ResidualMoments,
                            covariances_from_moments, residual_statistics)


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
    from asdkit.model import forward
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

def fit_covariances(model, source_features, target_features, ridge=DEFAULT_RIDGE):
    """Each domain's features taken as one batch: the fit train_machine streams."""
    _, moments = residual_statistics(
        model, [(source_features, "source"), (target_features, "target")])
    return covariances_from_moments(moments["source"], moments["target"], ridge)


def test_covariance_hand_case():
    residuals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    ridge = 1e-9
    cov = fit_covariances(zero_model(2), residuals, residuals, ridge=ridge)
    # sample covariance (divisor N-1) of the residuals is diag(2/3, 2/3)
    sigma = np.linalg.inv(cov.inv_sigma_source)
    assert np.allclose(sigma, np.diag([2 / 3, 2 / 3]), rtol=1e-6, atol=1e-9)
    assert cov.n_source == 4 and cov.n_target == 4


def test_covariance_inverse_contract(rng):
    model = init_model([5, 3, 5], seed=2, dtype=np.float64)
    src = rng.standard_normal((40, 5))
    tgt = rng.standard_normal((25, 5))
    cov = fit_covariances(model, src, tgt, ridge=1e-3)
    for inv in (cov.inv_sigma_source, cov.inv_sigma_target):
        sigma = np.linalg.inv(inv)
        assert np.allclose(sigma @ inv, np.eye(5), atol=1e-6)
        assert np.allclose(inv, inv.T, atol=1e-8)
        assert np.all(np.linalg.eigvalsh(inv) > 0)


def test_covariance_degenerate_equal_residuals():
    feats = np.tile(np.array([1.0, 2.0, 3.0]), (5, 1))  # all residuals equal
    ridge = 1e-3
    cov = fit_covariances(zero_model(3), feats, feats, ridge=ridge)
    expected_diag = 1.0 / (ridge * RIDGE_TRACE_FLOOR)
    assert np.allclose(np.diag(cov.inv_sigma_source), expected_diag, rtol=1e-6)
    off = cov.inv_sigma_source - np.diag(np.diag(cov.inv_sigma_source))
    assert np.allclose(off, 0.0, atol=abs(expected_diag) * 1e-9)


def moments_of(x, sizes):
    moments = ResidualMoments(x.shape[1])
    offset = 0
    for k in sizes:
        moments.update(x[offset:offset + k])
        offset += k
    assert offset == x.shape[0]
    return moments


CHUNKINGS = {"ones": [1] * 60, "twos": [2] * 30, "uneven": [1, 7, 0, 13, 2, 37],
             "single": [60]}


@pytest.mark.parametrize("offset", [0.0, 1e3])
@pytest.mark.parametrize("chunking", sorted(CHUNKINGS))
def test_streamed_covariance_matches_np_cov(offset, chunking):
    x = np.random.default_rng(6).standard_normal((60, 5)) + offset
    moments = moments_of(x, CHUNKINGS[chunking])
    expected = np.cov(x, rowvar=False, ddof=1)
    got = moments.covariance()
    assert moments.n == 60
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.allclose(moments.mean, x.mean(axis=0), rtol=1e-14, atol=0)


@pytest.mark.parametrize("chunking", sorted(CHUNKINGS))
def test_streamed_covariance_of_equal_rows_is_exactly_zero(chunking):
    x = np.tile(np.array([0.1, 2.0, -3.3, 1e3, 0.7]), (60, 1))
    moments = moments_of(x, CHUNKINGS[chunking])
    assert np.all(moments.covariance() == 0.0)
    assert np.all(moments.mean == x[0])


def test_covariances_from_streamed_clips_equal_batch_fit(rng):
    model = init_model([5, 3, 5], seed=2, dtype=np.float64)
    clips = [(rng.standard_normal((k, 5)), domain)
             for k, domain in [(7, "source"), (1, "target"), (12, "source"),
                               (4, "unknown"), (5, "target"), (3, "source")]]
    scores, moments = residual_statistics(model, clips)
    assert scores == [score_mse(model, feats) for feats, _ in clips]
    streamed = covariances_from_moments(moments["source"], moments["target"])
    batch = fit_covariances(
        model, np.vstack([f for f, d in clips if d == "source"]),
        np.vstack([f for f, d in clips if d == "target"]))
    assert (streamed.n_source, streamed.n_target) == (22, 6)
    for a, b in ((streamed.inv_sigma_source, batch.inv_sigma_source),
                 (streamed.inv_sigma_target, batch.inv_sigma_target)):
        assert np.allclose(a, b, rtol=1e-9, atol=0)


def test_covariance_insufficient_data():
    with pytest.raises(InsufficientDataError):
        fit_covariances(zero_model(3), np.zeros((1, 3)), np.zeros((5, 3)))


def test_covariance_rejects_bad_ridge():
    with pytest.raises(ConfigError):
        fit_covariances(zero_model(2), np.zeros((3, 2)), np.zeros((3, 2)), ridge=0.0)


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
    cov = DomainCovariances(inv_sigma_source=2.0 * np.eye(4),
                            inv_sigma_target=np.eye(4),
                            ridge=0.0, n_source=0, n_target=0)
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
    cov = DomainCovariances(inv_sigma_source=inv_s, inv_sigma_target=inv_t,
                            ridge=0.0, n_source=0, n_target=0)
    from asdkit.model import forward
    residuals = feats - forward(model, feats)
    total = 0.0
    for k in range(4):
        e = residuals[k]
        q_s = sum(e[i] * inv_s[i, j] * e[j] for i in range(3) for j in range(3))
        q_t = sum(e[i] * inv_t[i, j] * e[j] for i in range(3) for j in range(3))
        total += min(q_s, q_t)
    expected = total / (3 * 4)
    assert score_mahalanobis(model, feats, cov) == pytest.approx(expected, rel=1e-10)


def test_mahalanobis_not_above_single_domain_scores(rng):
    model = init_model([5, 3, 5], seed=6, dtype=np.float64)
    feats = rng.standard_normal((10, 5))
    inv_s = random_spd(rng, 5)
    inv_t = random_spd(rng, 5)
    cov = DomainCovariances(inv_sigma_source=inv_s, inv_sigma_target=inv_t,
                            ridge=0.0, n_source=0, n_target=0)
    from asdkit.model import forward
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
    feats = rng.standard_normal((4, 3))
    indefinite = DomainCovariances(inv_sigma_source=-np.eye(3), inv_sigma_target=-np.eye(3),
                                   ridge=0.0, n_source=0, n_target=0)
    with pytest.raises(ConfigError, match=">= 0"):
        score_mahalanobis(zero_model(3), feats, indefinite)


def test_mahalanobis_dim_mismatch():
    model = init_model([4, 4], seed=0)
    with pytest.raises(ConfigError):
        score_mahalanobis(model, np.zeros((2, 4)), identity_covariances(3))


def test_scores_are_nonnegative(rng):
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        model = init_model([dim, 2, dim], seed=int(rng.integers(100)), dtype=np.float64)
        feats = rng.standard_normal((6, dim))
        cov = DomainCovariances(inv_sigma_source=random_spd(rng, dim),
                                inv_sigma_target=random_spd(rng, dim),
                                ridge=0.0, n_source=0, n_target=0)
        assert score_mse(model, feats) >= 0.0
        assert score_mahalanobis(model, feats, cov) >= 0.0


# ---------------------------------------------------------------------------
# threshold and decision

def test_threshold_interpolation_worked_example():
    scores = [float(i) for i in range(1, 101)]
    # oracle: rank position (n-1) * q = 89.1 -> s[89] + 0.1 * (s[90] - s[89])
    expected = scores[89] + 0.1 * (scores[90] - scores[89])
    threshold = fit_threshold(scores, percentile=90)
    assert threshold.phi == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(90.1)


def test_threshold_degenerate_cases():
    assert fit_threshold([3.5], percentile=25).phi == 3.5
    assert fit_threshold([2.0, 2.0, 2.0], percentile=90).phi == 2.0
    assert fit_threshold([1.0, 2.0], percentile=100).phi == 2.0


def test_threshold_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        fit_threshold([], percentile=90)
    with pytest.raises(ConfigError):
        fit_threshold([1.0], percentile=0.0)
    with pytest.raises(ConfigError):
        fit_threshold([1.0], percentile=101)


def test_decide_strict_inequality():
    threshold = Threshold(phi=1.0)
    assert decide(2.0, threshold) == "anomaly"
    assert decide(1.0, threshold) == "normal"
    assert decide(0.5, threshold) == "normal"


def test_decide_invariant_under_increasing_transform(rng):
    for _ in range(50):
        value = float(rng.uniform(0, 5))
        phi = float(rng.uniform(0, 5))
        base = decide(value, Threshold(phi=phi))
        for transform in (np.exp, lambda v: 3 * v + 7, lambda v: v**3 + v):
            mapped = decide(float(transform(value)), Threshold(phi=float(transform(phi))))
            assert mapped == base


# ---------------------------------------------------------------------------
# artifact round trips

def test_covariance_file_roundtrip(tmp_path, rng):
    cov = DomainCovariances(inv_sigma_source=random_spd(rng, 6),
                            inv_sigma_target=random_spd(rng, 6),
                            ridge=1e-3, n_source=40, n_target=10)
    path = tmp_path / "c.cov"
    save_covariances(cov, path)
    loaded = load_covariances(path)
    assert np.array_equal(loaded.inv_sigma_source, cov.inv_sigma_source)
    assert np.array_equal(loaded.inv_sigma_target, cov.inv_sigma_target)
    assert loaded.ridge == cov.ridge
    assert (loaded.n_source, loaded.n_target) == (40, 10)


def test_covariance_file_is_header_then_both_matrices(tmp_path, rng):
    # a non-symmetric Fortran-ordered matrix: the file holds its C-order bytes
    inv_s = random_spd(rng, 5)
    inv_t = np.asfortranarray(rng.standard_normal((5, 5)))
    cov = DomainCovariances(inv_sigma_source=inv_s, inv_sigma_target=inv_t,
                            ridge=2.5e-3, n_source=30, n_target=7)
    path = tmp_path / "c.cov"
    save_covariances(cov, path)
    header = (COV_MAGIC + struct.pack("<III", COV_VERSION, 5, 0)
              + struct.pack("<dQQ", 2.5e-3, 30, 7))
    assert path.read_bytes() == header + inv_s.tobytes() + inv_t.tobytes()


def test_covariance_file_corruption(tmp_path, rng):
    cov = DomainCovariances(inv_sigma_source=np.eye(3), inv_sigma_target=np.eye(3),
                            ridge=1e-3, n_source=2, n_target=2)
    path = tmp_path / "c.cov"
    save_covariances(cov, path)
    blob = path.read_bytes()
    (tmp_path / "t.cov").write_bytes(blob[:-8])
    with pytest.raises(ModelFileError):
        load_covariances(tmp_path / "t.cov")
    (tmp_path / "m.cov").write_bytes(b"WRONGMGC" + blob[8:])
    with pytest.raises(ModelFileError):
        load_covariances(tmp_path / "m.cov")


@pytest.mark.parametrize("field, value", [("inv_sigma_source", np.nan),
                                          ("inv_sigma_target", np.inf),
                                          ("ridge", np.nan)])
def test_non_finite_covariance_file_is_model_file_error(tmp_path, field, value):
    cov = DomainCovariances(inv_sigma_source=np.eye(3), inv_sigma_target=np.eye(3),
                            ridge=1e-3, n_source=2, n_target=2)
    if field == "ridge":
        cov.ridge = value
    else:
        getattr(cov, field)[1, 1] = value
    save_covariances(cov, tmp_path / "c.cov")
    with pytest.raises(ModelFileError, match="non-finite"):
        load_covariances(tmp_path / "c.cov")


def test_threshold_file_roundtrip(tmp_path):
    thresholds = {"mse": Threshold(phi=0.123, percentile=90.0),
                  "mahalanobis": Threshold(phi=4.56, percentile=90.0,
                                           mode="mahalanobis")}
    path = tmp_path / "t.json"
    save_thresholds(thresholds, path)
    loaded = load_thresholds(path)
    assert loaded["mse"].phi == 0.123
    assert loaded["mahalanobis"].phi == 4.56
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


@pytest.mark.parametrize("text", [
    "[]",
    '{"mse": 0.5}',
    '{"mse": {"phi": 0.5, "percentile": 90.0, "split": "train", "mode": "mse", "x": 1}}',
    '{"mse": {"phi": 0.5, "split": "train", "mode": "mse"}}',
    '{"mse": {"phi": NaN, "percentile": 90.0, "split": "train", "mode": "mse"}}',
    '{"mse": {"phi": Infinity, "percentile": 90.0, "split": "train", "mode": "mse"}}',
    '{"mse": {"phi": "0.5", "percentile": 90.0, "split": "train", "mode": "mse"}}',
    '{"mse": {"phi": null, "percentile": 90.0, "split": "train", "mode": "mse"}}',
], ids=["list", "not-a-mapping", "unknown-field", "missing-field", "nan-phi",
        "inf-phi", "string-phi", "null-phi"])
def test_corrupt_threshold_file_is_model_file_error(tmp_path, text):
    path = tmp_path / "thresholds.json"
    path.write_text(text)
    with pytest.raises(ModelFileError, match="thresholds.json"):
        load_thresholds(path)


def test_threshold_file_of_exact_fields_loads(tmp_path):
    path = tmp_path / "thresholds.json"
    path.write_text('{"mse": {"phi": 1, "percentile": 90.0, "split": "train", '
                    '"mode": "mse"}}')
    assert load_thresholds(path)["mse"].phi == 1


@pytest.mark.parametrize("value", ["abc", ""])
def test_non_numeric_score_names_its_row(tmp_path, value):
    path = tmp_path / "scores.csv"
    path.write_text("clip_path,score,decision\n"
                    "a/test/x.wav,0.5,normal\n"
                    f"a/test/y.wav,{value},normal\n")
    with pytest.raises(ConfigError, match=r"line 3: .*'a/test/y.wav'"):
        read_score_csv(path)
