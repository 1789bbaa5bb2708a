"""asdkit: first-shot unsupervised anomalous-sound-detection toolkit.

Pipeline: WAV -> log-mel features -> stacked vectors -> dense autoencoder ->
anomaly score (mean squared reconstruction error, or the selective per-domain
Mahalanobis form) -> threshold decision -> AUC / partial-AUC / official-score
evaluation. A deterministic synthetic-data generator makes the whole pipeline
testable at desk scale.
"""

__version__ = "0.1.0"

from .dsp import (AudioClip, FeatureConfig, extract_features, log_mel,
                  mel_filterbank, read_wav, stack_frames, stft_power)
from .dataset import (ClipRecord, DatasetManifest, load_attributes_csv,
                      load_manifest, save_manifest, scan_dataset)
from .synth import SynthSpec, synth_generate
from .model import (AeModel, TrainConfig, count_macs, forward, gradient,
                    init_model, load_model, save_model, train)
from .scoring import (DomainCovariances, decide, fit_threshold, identity_covariances,
                      score_mahalanobis, score_mse)
from .metrics import (MetricsReport, ScoredClip, ScoredTestSet, auc_domain,
                      build_report, official_score, pauc_section)
from .config import RunConfig

__all__ = [
    "__version__",
    "AudioClip", "FeatureConfig", "extract_features", "log_mel",
    "mel_filterbank", "read_wav", "stack_frames", "stft_power",
    "ClipRecord", "DatasetManifest", "load_attributes_csv", "load_manifest",
    "save_manifest", "scan_dataset",
    "SynthSpec", "synth_generate",
    "AeModel", "TrainConfig", "count_macs", "forward", "gradient",
    "init_model", "load_model", "save_model", "train",
    "DomainCovariances", "decide", "fit_threshold", "identity_covariances",
    "score_mahalanobis", "score_mse",
    "MetricsReport", "ScoredClip", "ScoredTestSet", "auc_domain",
    "build_report", "official_score", "pauc_section",
    "RunConfig",
]
