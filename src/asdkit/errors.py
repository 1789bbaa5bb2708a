"""Exception taxonomy shared by all asdkit modules.

The CLI maps these onto stable exit codes (see cli.EXIT_*), so scripted
pipelines can branch on failure class without parsing messages. An error
carries only its message, so it pickles across the worker pool.
"""


class AsdkitError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(AsdkitError):
    """Invalid or inconsistent configuration (bad dims, bad synth spec, ...)."""


class WavFormatError(AsdkitError):
    """File is not a readable RIFF/WAVE of a supported encoding."""


class ChannelCountError(WavFormatError):
    """Multi-channel audio; the toolkit never downmixes silently."""


class EmptyAudioError(WavFormatError):
    """WAV decodes to zero samples."""


class TooShortError(AsdkitError):
    """Clip shorter than one analysis frame, or spectrogram shorter than the stack."""


class DatasetError(AsdkitError):
    """Dataset-level problem: empty tree, duplicate paths, missing machine."""


class InsufficientDataError(DatasetError):
    """Not enough samples to fit an estimator (e.g. < 2 residuals per domain)."""


class UndefinedMetricError(AsdkitError):
    """Metric has no value for this input (no normals, no anomalies, floor(p*N) = 0)."""


class ModelFileError(AsdkitError):
    """Model or covariance artifact is missing, truncated, corrupt, or non-finite."""


class MismatchError(AsdkitError):
    """Scored clips and ground-truth manifest do not line up."""


class TrainingDivergedError(AsdkitError):
    """Loss became non-finite; the message gives epoch, batch and parameter norm."""
