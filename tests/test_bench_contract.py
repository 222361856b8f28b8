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


def _traced_stream(params=None):
    """(tracer, mic, result) of one traced process_stream on a 1 s item."""
    spans = _spans_module()
    tracer = spans.Tracer()
    ref = music_like(1.0, seed=90)
    mic = AudioBuffer(2.0 * ref + speech_like(1.0, seed=91, rms=0.1))
    try:
        spans.install_echoforge(tracer)
        result = pipeline.process_stream(mic, AudioBuffer(ref), params)
    finally:
        tracer.uninstall()
    return tracer, mic, result


def _blocks_per_stage(tracer):
    """raec.block spans counted under each RAEC stage span."""
    counts = {}
    for s in tracer.spans:
        if s.name == "raec.block":
            counts[s.parent.name] = counts.get(s.parent.name, 0) + 1
    return counts


def test_traced_stream_reaches_every_stage():
    tracer, mic, result = _traced_stream()
    names = {s.name for s in tracer.spans}
    assert {"raec.cascade", "raec.stage1", "raec.block",
            "stft.analyze", "stft.synthesize", "dtp.update", "rpe.update_high",
            "rpe.update_low", "rpe.combine", "npe.update",
            "suppressor.process_frame", "vad.statistic", "vad.decide",
            "vad.segments"} <= names
    # At the defaults the two stages share a block size and iteration count,
    # so cascade_run runs them as one stack: one run_blocks span per cascade
    # and one raec.block span per block of the shared size, each making the
    # 8 transforms of a block.
    params = build_pipeline_params()
    assert params.raec1.frame_size == params.raec2.frame_size
    blocks = -(-len(mic) // params.raec1.frame_size)
    assert [s.name for s in tracer.spans if s.name.startswith("raec.stage")] == ["raec.stage1"]
    assert _blocks_per_stage(tracer) == {"raec.stage1": blocks}
    assert {s.ffts for s in tracer.spans if s.name == "raec.block"} == {8}
    # the tracer reads the frame count of synthesize from its first argument
    n_frames = -(-len(mic) // 256)
    # analyze runs per signal and chunk; its spans' frames add up to the
    # three spectrograms of mic, reference and error (the echo estimate's
    # spectrum is Y - E), which keeps the bench's stft.frames count
    assert sum(s.value for s in tracer.spans if s.name == "stft.analyze") == 3 * n_frames
    assert [s.value for s in tracer.spans if s.name == "stft.synthesize"] == [n_frames]
    assert [s.value for s in tracer.spans if s.name == "vad.segments"] == \
        [len(result.segments)]
    assert np.all(np.isfinite(result.enhanced.samples))


def test_traced_stream_with_unshared_block_sizes():
    # Stages on different block sizes run one after the other, each its own
    # stack: a stage span each, with one raec.block per block of its size.
    params = build_pipeline_params({"raec1.frame_size": 512, "raec2.frame_size": 128})
    tracer, mic, result = _traced_stream(params)
    assert [s.name for s in tracer.spans if s.name.startswith("raec.stage")] == \
        ["raec.stage1", "raec.stage2"]
    assert _blocks_per_stage(tracer) == {"raec.stage1": -(-len(mic) // 512),
                                         "raec.stage2": -(-len(mic) // 128)}
    assert np.all(np.isfinite(result.enhanced.samples))
