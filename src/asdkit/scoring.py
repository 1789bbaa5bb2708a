"""Anomaly scores, per-domain covariance fitting, thresholding, and the decision.

Two operating modes share one trained autoencoder:
  * mse: score = mean squared reconstruction error over the clip's stacked
    vectors, i.e. (1 / (D*K)) * sum_k ||psi_k - r(psi_k)||^2.
  * mahalanobis: per frame, the smaller of two quadratic forms
    e_k' inv(Sigma_d) e_k on the residual e_k, one per domain, averaged with
    the same 1 / (D*K) normalization.

Note the Mahalanobis form is the *squared* one (no square root): with identity
covariances it then reduces exactly to the mse score, and the 1/(D*K)
normalization stays dimensionally consistent across modes.

Both forms come from one product per clip. The two ridged covariances are
factored jointly into a D x D transform W and D target scales lam, with
W W' = inv(Sigma_source) and W diag(lam) W' = inv(Sigma_target): Cholesky
Sigma_source = C C', then eigh(inv(C) Sigma_target inv(C)') = U diag(mu) U',
W = inv(C)' U and lam = 1 / mu. With z = e W, the source form is sum(z^2)
and the target form is z^2 . lam. No inverse of a covariance is formed.

Residuals and scores are float64 regardless of the model's parameter dtype.
Scoring functions are pure; concurrent calls on different clips are safe.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from ._io import atomic_write
from .errors import ConfigError, InsufficientDataError, ModelFileError
from .model import AeModel, forward

MODES = ("mse", "mahalanobis")
COV_MAGIC = b"ASDK-CV\x00"
COV_VERSION = 2
RIDGE = 1e-3
# keeps the ridge term positive even when the sample covariance is all zero
RIDGE_TRACE_FLOOR = 1e-12
THRESHOLD_PERCENTILE = 90.0


@dataclass
class DomainCovariances:
    """Both domains' inverse covariances as one joint factorization.

    whitening (D x D) is W and target_scale (D,) is lam, with
    W W' = inv(Sigma_source) and W diag(lam) W' = inv(Sigma_target).
    """
    whitening: np.ndarray
    target_scale: np.ndarray
    ridge: float
    n_source: int
    n_target: int

    @property
    def dim(self) -> int:
        return self.whitening.shape[0]


def _residuals(model: AeModel, features: np.ndarray) -> np.ndarray:
    feats = np.asarray(features)
    if feats.ndim == 1:
        feats = feats[None, :]
    if feats.shape[0] < 1:
        raise ConfigError("need at least one feature vector")
    # an overflowing model gives inf/nan; the score check rejects it, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        return np.subtract(feats, forward(model, feats), dtype=np.float64)


def _checked_score(value: float) -> float:
    if not (math.isfinite(value) and value >= 0):
        raise ConfigError(f"anomaly score must be finite and >= 0, got {value}")
    return value


def _mse(residuals: np.ndarray) -> float:
    return _checked_score(float(np.mean(residuals**2)))


def score_mse(model: AeModel, features: np.ndarray) -> float:
    """Mean squared reconstruction error over all stacked vectors of a clip."""
    return _mse(_residuals(model, features))


def mahalanobis_frame_scores(residuals: np.ndarray, inv_sigma: np.ndarray) -> np.ndarray:
    """Quadratic form e' inv_sigma e for each residual row (squared form).

    The reference form: score_mahalanobis gets the same values from the
    joint factorization, with one product per clip for both domains.
    """
    e = np.asarray(residuals, dtype=np.float64)
    return np.sum((e @ inv_sigma) * e, axis=1)


def score_mahalanobis(model: AeModel, features: np.ndarray, cov: DomainCovariances) -> float:
    """Per-frame minimum of the source/target quadratic forms, averaged over D*K."""
    residuals = _residuals(model, features)
    d = residuals.shape[1]
    if cov.dim != d:
        raise ConfigError(f"covariance dim {cov.dim} does not match feature dim {d}")
    # inf residuals give inf or nan forms, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        z = residuals @ cov.whitening
        z *= z
        q_source = z.sum(axis=1)
        q_target = z @ cov.target_scale
        np.minimum(q_source, q_target, out=q_source)
    return _checked_score(float(np.sum(q_source) / residuals.size))


class ResidualMoments:
    """Running count n, mean and centred second moment M2 of residual vectors.

    Batches merge with the pairwise update of Chan, Golub & LeVeque (1979):
    M2 = M2_a + M2_b + delta delta' * n_a n_b / n, with delta the difference
    of the batch means. Each batch is centred on its own mean after shifting
    by its first row, so a large common offset never cancels and a batch of
    identical rows adds exactly zero to M2.
    """

    def __init__(self, dim: int):
        self.n = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros((dim, dim))

    def update(self, residuals: np.ndarray) -> None:
        x = np.asarray(residuals, dtype=np.float64)
        k = x.shape[0]
        if k == 0:
            return
        # rows[:k] is the centred batch; rows[k] = sqrt(n_a k / n) * delta,
        # so one product rows' rows gives M2_b plus the merge term
        rows = np.empty((k + 1, x.shape[1]))
        np.subtract(x, x[0], out=rows[:k])
        shift = rows[:k].mean(axis=0)
        rows[:k] -= shift
        n = self.n + k
        delta = x[0] + shift - self.mean
        rows[k] = delta * np.sqrt(self.n * k / n)
        self.m2 += rows.T @ rows
        self.mean += delta * (k / n)
        self.n = n

    def covariance(self) -> np.ndarray:
        """Sample covariance, divisor n - 1, computed in place in M2.

        The moments give up their M2 buffer to the result, so call this once,
        after the last update.
        """
        if self.n < 2:
            raise InsufficientDataError(
                f"need at least 2 residual vectors per domain, got {self.n}")
        sigma, self.m2 = self.m2, None
        sigma /= self.n - 1
        return sigma


def _ridged_covariance(moments: ResidualMoments) -> np.ndarray:
    """Sample covariance plus RIDGE * max(trace/D, floor) * I, in M2's buffer."""
    sigma = moments.covariance()
    mean_diag = float(np.trace(sigma)) / sigma.shape[0]
    sigma.flat[::sigma.shape[0] + 1] += RIDGE * max(mean_diag, RIDGE_TRACE_FLOOR)
    return sigma


def residual_statistics(model: AeModel, clips):
    """One residual pass over clips given as (features, domain) pairs.

    Each clip's residual is computed once. It gives the clip's mse score and
    is merged into the moments of its domain ("source" or "target"; clips of
    other domains only get a score). Returns (mse scores in clip order,
    {"source": ResidualMoments, "target": ResidualMoments}).
    """
    moments = {"source": ResidualMoments(model.input_dim),
               "target": ResidualMoments(model.input_dim)}
    scores = []
    for features, domain in clips:
        residuals = _residuals(model, features)
        scores.append(_mse(residuals))
        if domain in moments:
            moments[domain].update(residuals)
    return scores, moments


def joint_whitening(sigma_source: np.ndarray, sigma_target: np.ndarray):
    """(W, lam) with W W' = inv(sigma_source) and W diag(lam) W' = inv(sigma_target).

    Cholesky sigma_source = C C', then eigh(inv(C) sigma_target inv(C)') =
    U diag(mu) U', W = inv(C)' U and lam = 1 / mu. Each argument is
    dropped once used, which frees it when the caller passed the only
    reference; after that at most inv(C), the middle matrix and U live at
    once. A covariance that is not positive definite is an
    InsufficientDataError: the residuals cannot support the fit.
    """
    try:
        c = np.linalg.cholesky(sigma_source)
        del sigma_source
        c_inv = np.linalg.inv(c)
        del c
        middle = c_inv @ sigma_target
        del sigma_target
        middle = middle @ c_inv.T  # eigh reads its lower triangle only
        mu, u = np.linalg.eigh(middle)
        del middle
    except np.linalg.LinAlgError as exc:
        raise InsufficientDataError(
            f"the ridged residual covariances cannot be factored ({exc})") from exc
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = 1.0 / mu
    if not (np.all(mu > 0) and np.all(np.isfinite(scale))):
        raise InsufficientDataError(
            "the target residual covariance is not positive definite relative to "
            f"the source even with the ridge (smallest eigenvalue {mu.min():.3g})")
    return c_inv.T @ u, scale


def covariances_from_moments(source: ResidualMoments,
                             target: ResidualMoments) -> DomainCovariances:
    """Joint factorization of the ridged residual covariances of both domains.

    Covariance = mean-centered sample covariance (divisor N-1) plus
    RIDGE * max(trace/D, floor) * I. The ridge keeps the target matrix
    invertible even with very few target-domain clips. Both are built in the
    moments' M2 buffers, so the moments are spent afterwards.
    """
    n_source, n_target = source.n, target.n
    whitening, target_scale = joint_whitening(_ridged_covariance(source),
                                              _ridged_covariance(target))
    return DomainCovariances(whitening=whitening, target_scale=target_scale,
                             ridge=RIDGE, n_source=n_source, n_target=n_target)


def identity_covariances(dim: int) -> DomainCovariances:
    """Identity inverse covariances; makes the mahalanobis mode equal the mse mode."""
    return DomainCovariances(whitening=np.eye(dim), target_scale=np.ones(dim),
                             ridge=0.0, n_source=0, n_target=0)


def fit_threshold(training_scores) -> float:
    """phi: the THRESHOLD_PERCENTILE percentile (linear interpolation) of
    training-split scores."""
    values = np.asarray(training_scores, dtype=np.float64)
    if values.size == 0:
        raise ConfigError("cannot fit a threshold on an empty score list")
    return float(np.percentile(values, THRESHOLD_PERCENTILE))


def decide(score: float, phi: float) -> str:
    """'anomaly' iff the score strictly exceeds phi, else 'normal'."""
    return "anomaly" if score > phi else "normal"


# ---------------------------------------------------------------------------
# artifact I/O

def save_covariances(cov: DomainCovariances, path) -> None:
    d = cov.dim
    if cov.whitening.shape != (d, d) or cov.target_scale.shape != (d,):
        raise ModelFileError("covariance factors must be a square matrix and "
                             "one scale per row")
    with atomic_write(path, "wb") as fh:
        fh.write(COV_MAGIC)
        fh.write(struct.pack("<III", COV_VERSION, d, 0))
        fh.write(struct.pack("<dQQ", cov.ridge, cov.n_source, cov.n_target))
        for array in (cov.whitening, cov.target_scale):
            fh.write(np.ascontiguousarray(array, dtype=np.float64))  # no bytes copy


def load_covariances(path) -> DomainCovariances:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ModelFileError(f"{path}: unreadable covariance file ({exc})") from exc
    header = len(COV_MAGIC) + 12 + 24
    if len(blob) < header:
        raise ModelFileError(f"{path}: truncated covariance file")
    if blob[:len(COV_MAGIC)] != COV_MAGIC:
        raise ModelFileError(f"{path}: not a covariance file (bad magic)")
    version, d, _ = struct.unpack_from("<III", blob, len(COV_MAGIC))
    if version != COV_VERSION:
        raise ModelFileError(f"{path}: unsupported covariance version {version} "
                             f"(this asdkit reads version {COV_VERSION}); retrain "
                             "the model to write a current covariance file")
    ridge, n_source, n_target = struct.unpack_from("<dQQ", blob, len(COV_MAGIC) + 12)
    if len(blob) != header + 8 * (d * d + d):
        raise ModelFileError(f"{path}: covariance payload size mismatch")
    whitening = np.frombuffer(blob, dtype=np.float64, count=d * d,
                              offset=header).reshape(d, d).copy()
    target_scale = np.frombuffer(blob, dtype=np.float64, count=d,
                                 offset=header + 8 * d * d).copy()
    if not (math.isfinite(ridge) and np.isfinite(whitening).all()
            and np.isfinite(target_scale).all()):
        raise ModelFileError(f"{path}: non-finite covariance values")
    if not np.all(target_scale > 0):
        raise ModelFileError(f"{path}: target scales must be > 0, got minimum "
                             f"{target_scale.min()}")
    return DomainCovariances(whitening=whitening, target_scale=target_scale,
                             ridge=ridge, n_source=int(n_source), n_target=int(n_target))


def save_thresholds(thresholds: dict[str, float], path) -> None:
    with atomic_write(path) as fh:
        json.dump(thresholds, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_thresholds(path) -> dict[str, float]:
    """Read thresholds.json: {mode: phi}, each phi a finite number."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (ValueError, OSError) as exc:
        raise ModelFileError(f"{path}: unreadable threshold file ({exc})") from exc
    if not isinstance(payload, dict):
        raise ModelFileError(f"{path}: threshold file must map mode to phi")
    for mode, phi in payload.items():
        if isinstance(phi, dict):  # the {phi, percentile, split, mode} record of old runs
            raise ModelFileError(f"{path}: {mode!r} threshold is in an older format; "
                                 "retrain the model")
        if type(phi) not in (int, float) or not -math.inf < phi < math.inf:
            raise ModelFileError(f"{path}: {mode!r} threshold {phi!r} is not "
                                 "a finite number")
    return payload


def write_score_csv(rows, path) -> None:
    """rows: iterable of (clip_path, score_value, decision)."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["clip_path", "score", "decision"])
        for clip_path, value, decision in rows:
            writer.writerow([clip_path, repr(float(value)), decision])


def read_score_csv(path) -> list[tuple[str, float, str]]:
    out = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"clip_path", "score"}
            if not required <= set(reader.fieldnames or []):
                raise ConfigError(f"{path}: score CSV needs columns {sorted(required)}")
            for row in reader:
                try:
                    score = float(row["score"])
                except (TypeError, ValueError):
                    score = math.nan
                if not -math.inf < score < math.inf:
                    raise ConfigError(f"{path} line {reader.line_num}: score "
                                      f"{row['score']!r} of {row['clip_path']!r} "
                                      "is not a finite number")
                out.append((row["clip_path"], score, row.get("decision", "")))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read scores file {path}: {exc}") from exc
    return out
