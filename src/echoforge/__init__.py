"""Speech enhancement front end for voice control during music playback.

Cancels loudspeaker echo with a cascaded robust multidelay adaptive
filter, suppresses residual echo and noise with a probability-blended
power estimate and an SNR-switched masking gain, detects voice activity,
and ships a reproducible synthetic-corpus generator plus a genetic
parameter tuner.
"""

from .audio import AudioBuffer, read_wav, write_wav
from .params import PipelineParams, build_pipeline_params, default_params
from .pipeline import EnhanceResult, measure_erle, process_stream
from .stft import analyze, synthesize

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "EnhanceResult",
    "PipelineParams",
    "analyze",
    "build_pipeline_params",
    "default_params",
    "measure_erle",
    "process_stream",
    "read_wav",
    "synthesize",
    "write_wav",
    "__version__",
]
