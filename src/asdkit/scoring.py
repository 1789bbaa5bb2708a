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

Each domain's covariance comes from one residual pass over its training
clips, which runs on the fork pool in blocks of BLOCK_CLIPS clips of one
domain. A block sums its clips' within-clip scatters; the blocks are folded
in block order and the between-clip term is added from the clip means. Only
the clip order sets the blocks, so the covariance bytes are the same for any
worker count.

Residuals and scores are float64 regardless of the model's parameter dtype.
Scoring functions are pure; concurrent calls on different clips are safe.
"""

from __future__ import annotations

import json
import math
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import _pool
from ._io import atomic_write, read_table, write_table
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
class ScoringConfig:
    mode: str = "mse"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"scoring.mode: expected one of {list(MODES)}, got {self.mode!r}")


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


# Training clips per residual block. A block is one pool task, and the
# within-clip scatter is summed inside a block and then over blocks in block
# order, so only the clip order, never the worker count, sets the bytes.
BLOCK_CLIPS = 16
# Centred residual rows per scatter product inside a block. At one BLAS
# thread, a product of 1536 rows costs about 0.6 times as much per row as one
# of a 10 s clip's 307 rows; the stack takes 7.9 MB at D = 640.
SCATTER_ROWS = 1536


def _clip_blocks(domains) -> list[list[int]]:
    """Clip indices in blocks: each domain's clips, in clip order, in runs of BLOCK_CLIPS."""
    by_domain: dict[str, list[int]] = {}
    for i, domain in enumerate(domains):
        by_domain.setdefault(domain, []).append(i)
    return [clips[k:k + BLOCK_CLIPS] for clips in by_domain.values()
            for k in range(0, len(clips), BLOCK_CLIPS)]


def _block_moments(model: AeModel, clips, block, scatter):
    """The residual statistics of the clips in block (indices into clips), one pool task.

    Returns each clip's mse score, row count and residual mean, and adds the
    block's within-clip scatter sum_k C_k' C_k to scatter, with C_k clip k's
    residuals centred on the clip's mean. The mean is taken after shifting
    by the clip's first row, so a large common offset never cancels and a
    clip of identical rows adds exactly zero to the scatter. Consecutive
    clips' C_k are stacked up to SCATTER_ROWS rows, and each stack adds one
    product C' C.
    """
    d = model.input_dim
    scores, counts = np.empty(len(block)), np.empty(len(block), dtype=np.int64)
    means, stack = np.empty((len(block), d)), np.empty((SCATTER_ROWS, d))
    filled = 0  # rows of stack not yet in the scatter
    for j, i in enumerate(block):
        residuals = _residuals(model, clips[i])
        k = residuals.shape[0]
        scores[j], counts[j] = _mse(residuals), k
        first = residuals[0].copy()
        residuals -= first
        shift = residuals.mean(axis=0)
        residuals -= shift
        np.add(first, shift, out=means[j])
        if filled + k > SCATTER_ROWS:
            _add_scatter(scatter, stack[:filled])
            filled = 0
        if k > SCATTER_ROWS:
            _add_scatter(scatter, residuals)
        else:
            stack[filled:filled + k] = residuals
            filled += k
    _add_scatter(scatter, stack[:filled])
    return scores, counts, means


def _add_scatter(scatter: np.ndarray, rows: np.ndarray) -> None:
    scatter += rows.T @ rows  # one symmetric rank-k update (BLAS syrk)


def _add_between_clip_scatter(m2: np.ndarray, counts: np.ndarray, means: np.ndarray) -> None:
    """Add sum_k n_k (mu_k - mu)(mu_k - mu)' to m2 in place, from one domain's
    per-clip row counts n_k and residual means mu_k (mu: the mean of all rows).

    mu is taken relative to the first clip's mean, so a large common offset
    never cancels and equal clip means add exactly zero.
    """
    deviations = means - means[0]
    deviations -= (counts @ deviations) / counts.sum()
    deviations *= np.sqrt(counts)[:, None]
    m2 += deviations.T @ deviations


def _residual_scatter(model: AeModel, clips, domains, workers: int):
    """The residual pass of fit_covariances: (mse scores in clip order,
    {domain: M2}, {domain: row count}) for the source and target domains.

    M2 is a domain's centred second moment: the blocks' within-clip scatters
    folded in block order as each block ends, then the between-clip term.
    """
    d = model.input_dim
    blocks = _clip_blocks(domains)
    scores, counts = np.empty(len(domains)), np.empty(len(domains), dtype=np.int64)
    means = np.empty((len(domains), d))
    # each block's scatter is written in shared memory, never pickled, and
    # freed once folded: this process holds at most one in memory at a time
    scatters, free_scatter = _pool.shared_slots(len(blocks), (d, d), np.float64)
    m2 = {"source": np.zeros((d, d)), "target": np.zeros((d, d))}
    results = _pool.run(lambda b: _block_moments(model, clips, blocks[b], scatters[b]),
                        range(len(blocks)), min(workers, len(blocks)))
    for b, (block_scores, block_counts, block_means) in enumerate(results):
        block = blocks[b]
        scores[block], counts[block], means[block] = block_scores, block_counts, block_means
        if domains[block[0]] in m2:
            m2[domains[block[0]]] += scatters[b]
        free_scatter(b)
    n = {}
    with _pool.one_blas_thread():  # as the factorization, to fix the last digits
        for domain in m2:
            members = [i for i, dom in enumerate(domains) if dom == domain]
            n[domain] = int(counts[members].sum())
            if members:
                _add_between_clip_scatter(m2[domain], counts[members], means[members])
    return scores.tolist(), m2, n


def _ridged_covariance(m2: np.ndarray, n: int) -> np.ndarray:
    """Sample covariance M2 / (n - 1) plus RIDGE * max(trace/D, floor) * I, in M2's buffer."""
    if n < 2:
        raise InsufficientDataError(f"need at least 2 residual vectors per domain, got {n}")
    sigma = m2
    sigma /= n - 1
    mean_diag = float(np.trace(sigma)) / sigma.shape[0]
    sigma.flat[::sigma.shape[0] + 1] += RIDGE * max(mean_diag, RIDGE_TRACE_FLOOR)
    return sigma


def joint_whitening(sigma_source: np.ndarray, sigma_target: np.ndarray):
    """(W, lam) with W W' = inv(sigma_source) and W diag(lam) W' = inv(sigma_target).

    Cholesky sigma_source = C C', then eigh(inv(C) sigma_target inv(C)') =
    U diag(mu) U', W = inv(C)' U and lam = 1 / mu. Each argument is
    dropped once used, which frees it when the caller passed the only
    reference. The peak, about six D x D float64 matrices, is inside eigh:
    inv(C), the middle matrix, eigh's own copy of it, U and a LAPACK
    workspace of about 2 D^2 doubles. Before it, inv holds five (sigma_target,
    C, inv(C) and two LAPACK buffers) and the second middle product three.
    A covariance that is not positive definite is an InsufficientDataError:
    the residuals cannot support the fit.
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


def fit_covariances(model: AeModel, clips, domains,
                    workers: int = 1) -> tuple[list[float], DomainCovariances]:
    """One residual pass over the training clips, then the joint factorization
    of both domains' ridged residual covariances.

    clips[i] is clip i's (K_i, D) stacked vectors and domains[i] its domain
    ("source" or "target"; clips of other domains only get a score). Each
    clip's residual is computed once and gives the clip's mse score. The
    clips are cut into blocks of BLOCK_CLIPS clips of one domain, which run
    as tasks of the fork pool on up to workers workers. A task is a block
    index: workers read the clips they inherit at the fork, so no clip is
    pickled. Each block returns its clips' row counts and residual means
    and its within-clip scatter; the scatters are folded into their
    domain's M2 in block order, and the between-clip term from the means
    is added last. Covariance = mean-centered sample covariance (divisor
    N-1) plus RIDGE * max(trace/D, floor) * I; the ridge keeps the target
    matrix invertible even with very few target-domain clips. Returns (mse
    scores in clip order, DomainCovariances).
    """
    scores, m2, n = _residual_scatter(model, clips, domains, workers)
    with _pool.one_blas_thread():  # LAPACK's last digits vary with the thread count
        # each covariance is handed over as its only reference, freed once used
        whitening, target_scale = joint_whitening(
            _ridged_covariance(m2.pop("source"), n["source"]),
            _ridged_covariance(m2.pop("target"), n["target"]))
    return scores, DomainCovariances(whitening=whitening, target_scale=target_scale,
                                     ridge=RIDGE, n_source=n["source"], n_target=n["target"])


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
    """Read thresholds.json: {mode: phi} for exactly the MODES, each phi a finite
    number, no mode named twice."""
    def unique(pairs):
        repeated = [key for key, n in Counter(key for key, _ in pairs).items() if n > 1]
        if repeated:
            raise ModelFileError(f"{path}: threshold file repeats {repeated}")
        return dict(pairs)

    try:
        with open(path) as fh:
            payload = json.load(fh, object_pairs_hook=unique)
    except (ValueError, OSError, RecursionError) as exc:  # RecursionError: nested too deep
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
    if sorted(payload) != sorted(MODES):
        raise ModelFileError(f"{path}: threshold file must hold exactly the modes "
                             f"{sorted(MODES)}, got {sorted(payload)}")
    return payload


def write_score_csv(rows, path) -> None:
    """rows: iterable of (clip_path, score_value, decision)."""
    write_table(path, ["clip_path", "score", "decision"],
                ([clip_path, repr(float(value)), decision] for clip_path, value, decision in rows))


def read_score_csv(path) -> list[tuple[str, float, str]]:
    out = []
    for line, row in read_table(path, "score CSV", ["clip_path", "score"]):
        try:
            score = float(row["score"])
        except ValueError:
            score = math.nan
        if not -math.inf < score < math.inf:
            raise ConfigError(f"{path} line {line}: score {row['score']!r} of "
                              f"{row['clip_path']!r} is not a finite number")
        out.append((row["clip_path"], score, row.get("decision", "")))
    return out
