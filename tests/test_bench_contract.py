"""The benchmark's tracer (perfbench/spans.py) times echoforge by swapping
module attributes and class methods that the package looks up at call
time. A refactor that removes or renames one of them, or changes how the
pipeline calls it, breaks `perfbench/run.py --trace 1`; these tests catch
that without running the benchmark."""

import importlib.util
import pathlib

import numpy as np

from echoforge import AudioBuffer, pipeline
from echoforge.params import build_pipeline_params
from conftest import music_like, speech_like

SPANS_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists_and_is_restored():
    spans = _spans_module()
    tracer = spans.Tracer()
    analyze, synthesize = pipeline.analyze, pipeline.synthesize
    try:
        spans.install_echoforge(tracer)
        assert pipeline.analyze is not analyze
    finally:
        tracer.uninstall()
    assert pipeline.analyze is analyze
    assert pipeline.synthesize is synthesize


def test_traced_stream_reaches_every_stage():
    spans = _spans_module()
    tracer = spans.Tracer()
    ref = music_like(1.0, seed=90)
    mic = AudioBuffer(2.0 * ref + speech_like(1.0, seed=91, rms=0.1))
    try:
        spans.install_echoforge(tracer)
        result = pipeline.process_stream(mic, AudioBuffer(ref))
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"raec.cascade", "raec.stage1", "raec.stage2", "raec.block",
            "stft.analyze", "stft.synthesize", "dtp.update", "rpe.update_high",
            "rpe.update_low", "rpe.combine", "npe.update",
            "suppressor.process_frame", "vad.statistic", "vad.decide",
            "vad.segments"} <= names
    # one raec.block span per block of each stage: the per-block traced unit
    params = build_pipeline_params()
    blocks = sum(-(-len(mic) // p.frame_size) for p in (params.raec1, params.raec2))
    assert sum(s.name == "raec.block" for s in tracer.spans) == blocks
    # the tracer reads the frame count of synthesize from its first argument
    n_frames = -(-len(mic) // 256)
    assert [s.value for s in tracer.spans if s.name == "stft.synthesize"] == [n_frames]
    assert [s.value for s in tracer.spans if s.name == "vad.segments"] == \
        [len(result.segments)]
    assert np.all(np.isfinite(result.enhanced.samples))
