"""Span tracing of echoforge from outside the package.

The traced run replaces names that echoforge looks up at call time
(module attributes such as ``pipeline.cascade_run`` and class methods such
as ``DtpEstimator.update``) with timing wrappers, and restores them
afterwards. Nothing under ``src/`` is modified; the untraced run installs
no wrapper at all.

Each span records its name, start, end, parent and the work unit (stream,
candidate or corpus item) it belongs to. Parents come from a thread-local
stack, so spans stay correct when the tuner evaluates candidates on a
thread pool; a span opened on a thread whose stack is empty is adopted by
the tracer's current ``adopter`` (the open GA generation). Calls to
``numpy.fft.rfft``/``irfft`` are counted on the innermost open span.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import os
import statistics
import threading
import time
from collections import defaultdict

_INHERIT = object()


class Span:
    __slots__ = ("name", "start", "end", "parent", "unit", "ffts", "value")

    def __init__(self, name, start, parent, unit):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.unit = unit
        self.ffts = 0
        self.value = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; wrappers installed and removed as a group."""

    def __init__(self):
        self.spans: list[Span] = []
        self.adopter: Span | None = None
        self._local = threading.local()
        self._installed: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, unit=_INHERIT) -> Span:
        """Open a span. An explicit unit also becomes the thread's current
        unit, which later spans without a unit-bearing parent inherit."""
        stack = self._stack()
        parent = stack[-1] if stack else self.adopter
        if unit is _INHERIT:
            unit = parent.unit if parent is not None and parent.unit is not None \
                else getattr(self._local, "unit", None)
        else:
            self._local.unit = unit
        span = Span(name, time.perf_counter(), parent, unit)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, unit=_INHERIT):
        opened = self.open(name, unit)
        try:
            yield opened
        finally:
            self.close(opened)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, owner, attr: str, name, unit=None, value=None,
             adopts=False) -> None:
        """Time every call of owner.attr.

        name is a string or a function of the call's arguments; unit, if
        given, maps the arguments to the work unit the call starts; value
        maps (args, result) to a number stored on the span; adopts makes
        the span the parent of spans opened on otherwise idle threads.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(tracer, args) if callable(name) else name
            span = tracer.open(label) if unit is None else tracer.open(label, unit(args))
            outer = tracer.adopter
            if adopts:
                tracer.adopter = span
            try:
                result = original(*args, **kwargs)
            finally:
                if adopts:
                    tracer.adopter = outer
                tracer.close(span)
            if value is not None:
                span.value = value(args, result)
            return result

        self._replace(owner, attr, original, wrapper)

    def count_calls(self, owner, attr: str) -> None:
        """Credit each call of owner.attr to the innermost open span."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                stack[-1].ffts += 1
            return original(*args, **kwargs)

        self._replace(owner, attr, original, wrapper)

    def _replace(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict:
        """Span -> its duration minus the time its child spans cover."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[id(s.parent)].append(s)
        out = {}
        for s in self.spans:
            out[id(s)] = s.duration - covered(
                [(c.start, c.end) for c in children.get(id(s), ())], s.start, s.end)
        return out

    def write(self, path: str) -> None:
        """All spans as gzipped JSON lines, parents by index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = self.spans[0].start if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "i": i, "name": s.name, "start": s.start - t0, "end": s.end - t0,
                    "parent": index.get(id(s.parent)), "unit": s.unit,
                    "ffts": s.ffts, "value": s.value}) + "\n")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _stage_name(tracer: Tracer, args) -> str:
    """cascade_run drives stage 1, then stage 2, through run_blocks."""
    stack = tracer._stack()
    parent = stack[-1] if stack else None
    if parent is None or parent.name != "raec.cascade":
        return "raec.run_blocks"
    parent.value = (parent.value or 0) + 1
    return f"raec.stage{parent.value}"


def install_echoforge(tracer: Tracer) -> None:
    """Wrap the public calls between echoforge's layers."""
    import numpy
    from echoforge import corpus, dtp, npe, pipeline, raec, rpe, suppressor, tuner, vad

    tracer.count_calls(numpy.fft, "rfft")
    tracer.count_calls(numpy.fft, "irfft")

    tracer.wrap(tuner, "process_stream", "pipeline.process_stream")
    tracer.wrap(pipeline, "cascade_run", "raec.cascade")
    tracer.wrap(raec, "run_blocks", _stage_name)
    tracer.wrap(raec.Raec, "process_block", "raec.block")
    tracer.wrap(pipeline, "analyze", "stft.analyze",
                value=lambda args, out: out.shape[0])
    tracer.wrap(pipeline, "synthesize", "stft.synthesize",
                value=lambda args, out: args[0].shape[0])
    tracer.wrap(dtp.DtpEstimator, "update", "dtp.update",
                value=lambda args, p_dt: float(p_dt > 0.5))
    tracer.wrap(rpe.ResidualPowerEstimator, "update_high", "rpe.update_high")
    tracer.wrap(rpe.ResidualPowerEstimator, "update_low", "rpe.update_low")
    tracer.wrap(pipeline, "combine_residual_power", "rpe.combine")
    tracer.wrap(npe.NoisePowerEstimator, "update", "npe.update")
    tracer.wrap(suppressor.Suppressor, "process_frame", "suppressor.process_frame")
    tracer.wrap(pipeline, "vad_statistic", "vad.statistic")
    tracer.wrap(vad.VadDecider, "decide", "vad.decide")
    tracer.wrap(pipeline, "segments_from_flags", "vad.segments",
                value=lambda args, segs: len(segs))

    tracer.wrap(tuner, "ga_run", "tuner.ga_run")
    tracer.wrap(tuner, "_evaluate", "tuner.generation", adopts=True)
    tracer.wrap(tuner, "segmental_snr_improvement", "metrics.score")

    tracer.wrap(corpus, "generate_corpus", "corpus.generate", unit=lambda args: None)
    tracer.wrap(corpus, "_draw_recipe", "corpus.draw",
                unit=lambda args: (args[0].master_seed, args[1]))
    tracer.wrap(corpus, "mix_item", "corpus.mix")
    tracer.wrap(corpus, "make_default_irs", "corpus.irs")
    tracer.wrap(corpus, "fftconvolve", "corpus.convolve")
    tracer.wrap(corpus, "read_wav", "audio.read")
    tracer.wrap(corpus, "write_wav", "audio.write",
                value=lambda args, out: os.path.getsize(args[0]))


# Per-layer metric names and units.
PER_LAYER = {
    "raec.stage1_s": "s", "raec.stage2_s": "s", "raec.block_us": "us",
    "raec.blocks": "count", "raec.fft_calls_per_block": "count",
    "suppressor.process_frame_s": "s", "suppressor.frame_us": "us",
    "stft.analyze_s": "s", "stft.synthesize_s": "s", "stft.frames": "count",
    "dtp.update_s": "s", "dtp.double_talk_frac": "ratio",
    "rpe.update_s": "s", "npe.update_s": "s",
    "vad.s": "s", "vad.segments": "count",
    "pipeline.self_s": "s", "metrics.score_s": "s",
    "tuner.candidates": "count", "tuner.failed": "count",
    "tuner.repeat_candidates": "count", "tuner.objective_busy_s": "s",
    "tuner.parallel_efficiency": "ratio", "tuner.self_s": "s",
    "corpus.mix_calls_per_item": "count", "corpus.wav_reads_per_item": "count",
    "corpus.mix_s": "s", "corpus.convolve_s": "s", "corpus.self_s": "s",
    "audio.read_s": "s", "audio.write_s": "s", "audio.bytes_written": "B",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, unit_span: str, jobs: int = 1) -> dict:
    """Per-layer numbers from the spans of one traced run.

    Times and counts are per work unit: the mean over the spans named
    unit_span (a stream, a GA candidate or a corpus item). Per-call
    durations (``*_us``) are medians over calls. Layers the workload does
    not exercise read 0. The tuner counts cover the first traced GA run.
    """
    spans = tracer.spans
    self_t = tracer.self_times()
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    n_units = max(len(by_name[unit_span]), 1)

    def per_unit(*names, attr="duration"):
        total = 0.0
        for name in names:
            for s in by_name[name]:
                total += self_t[id(s)] if attr == "self" else getattr(s, attr)
        return total / n_units

    def calls_per_unit(name):
        return len(by_name[name]) / n_units

    def median_us(name):
        vals = [s.duration for s in by_name[name]]
        return 1e6 * statistics.median(vals) if vals else 0.0

    blocks = by_name["raec.block"]
    dtp_spans = by_name["dtp.update"]
    m = {
        "raec.stage1_s": per_unit("raec.stage1"),
        "raec.stage2_s": per_unit("raec.stage2"),
        "raec.block_us": median_us("raec.block"),
        "raec.blocks": len(blocks) / n_units,
        "raec.fft_calls_per_block":
            sum(s.ffts for s in blocks) / len(blocks) if blocks else 0.0,
        "suppressor.process_frame_s": per_unit("suppressor.process_frame"),
        "suppressor.frame_us": median_us("suppressor.process_frame"),
        "stft.analyze_s": per_unit("stft.analyze"),
        "stft.synthesize_s": per_unit("stft.synthesize"),
        "stft.frames": per_unit("stft.analyze", "stft.synthesize", attr="value"),
        "dtp.update_s": per_unit("dtp.update"),
        "dtp.double_talk_frac":
            sum(s.value for s in dtp_spans) / len(dtp_spans) if dtp_spans else 0.0,
        "rpe.update_s": per_unit("rpe.update_high", "rpe.update_low", "rpe.combine"),
        "npe.update_s": per_unit("npe.update"),
        "vad.s": per_unit("vad.statistic", "vad.decide", "vad.segments"),
        "vad.segments": per_unit("vad.segments", attr="value"),
        "pipeline.self_s": per_unit("pipeline.process_stream", attr="self"),
        "metrics.score_s": per_unit("metrics.score"),
        "corpus.mix_calls_per_item": calls_per_unit("corpus.mix"),
        "corpus.wav_reads_per_item": calls_per_unit("audio.read"),
        "corpus.mix_s": per_unit("corpus.mix"),
        "corpus.convolve_s": per_unit("corpus.convolve"),
        "corpus.self_s": per_unit("corpus.generate", "corpus.draw", "corpus.mix",
                                  "corpus.irs", attr="self"),
        "audio.read_s": per_unit("audio.read"),
        "audio.write_s": per_unit("audio.write"),
        "audio.bytes_written": per_unit("audio.write", attr="value"),
    }
    m.update(_tuner_metrics(by_name, jobs))
    return m


def _tuner_metrics(by_name, jobs: int) -> dict:
    runs = by_name["tuner.ga_run"]
    if not runs:
        return {k: 0.0 for k in ("tuner.candidates", "tuner.failed",
                                 "tuner.repeat_candidates", "tuner.objective_busy_s",
                                 "tuner.parallel_efficiency", "tuner.self_s")}
    candidates = sorted(by_name["tuner.candidate"], key=lambda c: c.start)
    generations = by_name["tuner.generation"]

    def inside(run, spans):
        return [s for s in spans if run.start <= s.start <= run.end]

    in_first = inside(runs[0], candidates)
    seen, repeats = set(), 0
    for c in in_first:
        repeats += c.value["params"] in seen
        seen.add(c.value["params"])
    busy = sum(c.duration for c in candidates)
    wall = sum(g.duration for g in generations)
    # ga_run time not covered by any candidate: breeding, selection, pool set-up
    tuner_self = [
        (run.duration - covered([(c.start, c.end) for c in inside(run, candidates)],
                                run.start, run.end))
        / max(len(inside(run, generations)), 1)
        for run in runs]
    return {
        "tuner.candidates": float(len(in_first)),
        "tuner.failed": float(sum(1 for c in in_first if c.value["score"] == float("-inf"))),
        "tuner.repeat_candidates": float(repeats),
        "tuner.objective_busy_s": busy / max(len(generations), 1),
        "tuner.parallel_efficiency": busy / (wall * jobs) if wall > 0 else 0.0,
        "tuner.self_s": sum(tuner_self) / len(tuner_self),
    }
