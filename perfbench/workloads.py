"""The three benchmark workloads.

Each workload function takes the run settings and returns a Run: the
end-to-end metrics (untraced run) or the per-layer metrics (traced run),
the attempted and failed operation counts, and extra facts for the run
record. Inputs come from the workload seed only.

Every workload reports the same end-to-end metrics, each read on the
workload's own unit of work. Times are at reference speed (refspeed.py);
the run record keeps the plain wall times next to them:

    workload         unit (rtf_p50)                  batch (batch_s_p50)
    enhance-10s      one process_stream on 10 s      the same stream
    tune-generation  one GA candidate (2 x 2 s)      one GA generation
    corpus-build     one corpus item (2 s)           one generate_corpus call

and the quality of the enhancement the workload produces (see quality()).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import signals
import spans as tracing
from refspeed import RefClock

SETUP_REPEATS = 3
ENHANCE_ITEMS = 4
ENHANCE_ITEM_S = 10.0
TUNE_ITEMS = 2
TUNE_SHAPE = dict(population=4, elite=2, generations=1, tournament=3)
GA_SEED = 0
CORPUS_BATCH = 5
QUALITY_CALLS = 4   # corpus calls whose items are enhanced for quality()
CORPUS_ITEM_S = 2.0
QUALITY_WINDOW_S = 1.0


@dataclass
class Run:
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    record: dict = field(default_factory=dict)
    digest: str = ""

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)


@dataclass
class Settings:
    seed: int
    seconds: float
    trace: bool
    work_dir: str     # scratch space, removed after the run
    out_dir: str      # span files
    import_seconds: Callable[[], float]  # module import cost, part of setup_s
    jobs: int


def tail(values):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples above it, or the maximum when there are too few."""
    vals = sorted(values)
    n = len(vals)
    k = n - 11 if n >= 11 else n - 1
    return vals[k], 100.0 * (k + 1) / n, n - 1 - k


def timed_setup(settings: Settings, clock: RefClock, build, run: Run):
    """Set up SETUP_REPEATS times: import the modules in a fresh
    interpreter, then build() the inputs and make the warm-up call.
    Returns (last build result, median set-up time at reference speed);
    the import and wall times go to the run record."""
    def once(rep):
        imported = settings.import_seconds()
        return imported, build(rep)

    ref_times, wall_times, imports = [], [], []
    for rep in range(SETUP_REPEATS):
        (imported, state), wall, ref = clock.call(once, rep)
        imports.append(imported)
        wall_times.append(wall)
        ref_times.append(ref)
    run.record.update({"import_s": imports, "setup_wall_s": wall_times})
    return state, statistics.median(ref_times)


def quality(results, run: Run) -> dict:
    """segsnr_gain_db and erle_db over enhancement results.

    results: (mic, enhanced, target) arrays per enhanced stream. The gain is
    the mean segmental-SNR improvement against the reverberant speech
    target; ERLE is the median over every 1 s window in which the near-end
    talker is silent (the first second of every two, by construction of
    the inputs).
    """
    from echoforge.metrics import erle_windows, segmental_snr_improvement

    gains, erles = [], []
    window = int(QUALITY_WINDOW_S * signals.FS)
    for mic, enhanced, target in results:
        gains.append(segmental_snr_improvement(target, enhanced, mic))
        erles.extend(erle_windows(mic, enhanced, window)[0::2])
    gain, erle = float(np.mean(gains)), float(np.median(erles))
    if not (np.isfinite(gain) and np.isfinite(erle)):
        run.fail(f"non-finite quality: segsnr_gain_db={gain} erle_db={erle}")
    return {"segsnr_gain_db": gain, "erle_db": erle}


def check_enhanced(result, mic_len: int, what: str, run: Run) -> str:
    """Output checks on one process_stream result; returns its digest."""
    samples = result.enhanced.samples
    if len(samples) != mic_len or not np.all(np.isfinite(samples)):
        run.fail(f"{what}: output length {len(samples)} (mic {mic_len}) or non-finite")
    prev_end = 0
    for start, end in result.segments:
        if not prev_end <= start < end <= mic_len:
            run.fail(f"{what}: segment ({start}, {end}) out of order or range")
        prev_end = end
    h = hashlib.sha1(samples.tobytes())
    h.update(repr(result.segments).encode())
    return h.hexdigest()


def _cycle_median(batch_times, cycle: int) -> float:
    return statistics.median(statistics.fmean(batch_times[i:i + cycle])
                             for i in range(0, len(batch_times) - cycle + 1, cycle))


def _end_to_end(run: Run, clock: RefClock, unit_times, unit_audio_s: float, batch_times,
                cycle: int, setup_s: float, unit_wall, batch_wall):
    """rtf_p50 over single units; batch_s_p50 is the median over complete
    cycles of the workload's inputs (cycle batches each) of the mean batch
    time, so that every cycle weighs the same inputs. unit_times and
    batch_times are at reference speed; unit_wall and batch_wall are the
    same times on the wall clock, for the record."""
    rtf = [t / unit_audio_s for t in unit_times]
    value, pct, beyond = tail(rtf)
    run.metrics.update({
        "setup_s": setup_s,
        "rtf_p50": statistics.median(rtf),
        "batch_s_p50": _cycle_median(batch_times, cycle),
    })
    # The tail is recorded, not a metric: on tune-generation it did not
    # repeat within a tenth from seed to seed (see DESIGN.md).
    run.record.update({"units": len(rtf), "batches": len(batch_times),
                       "rtf_tail": value, "rtf_tail_percentile": pct,
                       "rtf_tail_samples_beyond": beyond,
                       "wall_rtf_p50": statistics.median(unit_wall) / unit_audio_s,
                       "wall_batch_s_p50": _cycle_median(batch_wall, cycle),
                       "probe_s_p50": statistics.median(clock.probes),
                       "unit_s": [round(t, 6) for t in unit_times],
                       "unit_wall_s": [round(t, 6) for t in unit_wall],
                       "batch_s": [round(t, 6) for t in batch_times]})


def _layers(run: Run, tracer, settings: Settings, name: str, unit_span: str,
            overhead_s: float) -> None:
    layer = tracing.layer_metrics(tracer, unit_span, settings.jobs)
    layer["trace.overhead_s"] = overhead_s
    run.metrics.update(layer)
    path = os.path.join(settings.out_dir, f"{name}-seed{settings.seed}.spans.jsonl.gz")
    tracer.write(path)
    run.record.update({"spans": len(tracer.spans), "spans_file": os.path.relpath(path)})


# ---------------------------------------------------------------------------
# enhance-10s
# ---------------------------------------------------------------------------


def enhance_10s(settings: Settings) -> Run:
    """process_stream at default params, one stream at a time (closed loop),
    rotating over four seeded 10 s double-talk items."""
    from echoforge import AudioBuffer, pipeline

    run = Run()
    clock = RefClock()
    seeds = np.random.SeedSequence(settings.seed).spawn(ENHANCE_ITEMS)

    def build(rep):
        items = []
        for ss in seeds:
            mic, ref, target = signals.enhance_item(ss, ENHANCE_ITEM_S)
            items.append((AudioBuffer(mic, signals.FS), AudioBuffer(ref, signals.FS), target))
        pipeline.process_stream(items[0][0], items[0][1])
        return items

    items, setup_s = timed_setup(settings, clock, build, run)
    digests, quality_in = {}, {}

    def traced_stream(mic, ref, tracer, i):
        with tracer.span("pipeline.process_stream", unit=i):
            return pipeline.process_stream(mic, ref)

    def one(i, tracer=None):
        """(wall, reference-speed) seconds of one process_stream."""
        k = i % ENHANCE_ITEMS
        mic, ref, target = items[k]
        if tracer is None:
            result, wall, ref_s = clock.call(pipeline.process_stream, mic, ref)
        else:
            result, wall, ref_s = clock.call(traced_stream, mic, ref, tracer, i)
        run.attempted += 1
        digest = check_enhanced(result, len(mic), f"item {k}", run)
        if k not in digests:
            digests[k] = digest
            quality_in[k] = (mic.samples, result.enhanced.samples, target)
        elif digest != digests[k]:
            run.fail(f"item {k}: output differs from its first run"
                     + (" (traced)" if tracer else ""))
        return wall, ref_s

    end = time.perf_counter() + settings.seconds
    plain, traced = [], []
    tracer = tracing.Tracer() if settings.trace else None
    for i in itertools.count():
        if time.perf_counter() >= end and i >= ENHANCE_ITEMS:
            break
        plain.append(one(i))
        if tracer is not None:
            tracing.install_echoforge(tracer)
            try:
                traced.append(one(i, tracer))
            finally:
                tracer.uninstall()

    run.digest = "".join(digests[k] for k in sorted(digests))
    if tracer is not None:
        overhead = statistics.median(t[0] for t in traced) \
            - statistics.median(t[0] for t in plain)
        _layers(run, tracer, settings, "enhance-10s", "pipeline.process_stream", overhead)
        run.record["trace_overhead_s_per_stream"] = overhead
    else:
        wall, ref_s = [t[0] for t in plain], [t[1] for t in plain]
        _end_to_end(run, clock, ref_s, ENHANCE_ITEM_S, ref_s, ENHANCE_ITEMS, setup_s,
                    wall, wall)
        run.metrics.update(quality([quality_in[k] for k in sorted(quality_in)], run))
    return run


# ---------------------------------------------------------------------------
# tune-generation
# ---------------------------------------------------------------------------


class BenchObjective:
    """The objective handed to ga_run: the tuner's own signal-fidelity
    objective, with each call's wall time, parameters and outcome noted.

    A ConfigError is the tuner rejecting an infeasible gene combination
    (scored -inf by design); any other exception or a non-finite score is
    a failure of the program.
    """

    def __init__(self, objective, run: Run, tracer=None, tag=None):
        self.objective, self.run, self.tracer, self.tag = objective, run, tracer, tag
        self.calls = []   # (start, end) of every call
        self.scored = []  # wall time of the calls that processed audio
        self.rejected = 0
        self._ids = itertools.count()

    def __call__(self, params):
        from echoforge.errors import ConfigError

        idx = next(self._ids)
        span = None if self.tracer is None \
            else self.tracer.open("tuner.candidate", unit=(self.tag, idx))
        score = float("-inf")
        t0 = time.perf_counter()
        try:
            score = self.objective(params)
            self.scored.append(time.perf_counter() - t0)
            if not np.isfinite(score):
                self.run.fail(f"candidate {idx}: non-finite score {score}")
            return score
        except ConfigError:
            self.rejected += 1
            raise
        except Exception as exc:
            self.run.fail(f"candidate {idx}: {type(exc).__name__}: {exc}")
            raise
        finally:
            self.calls.append((t0, time.perf_counter()))
            if span is not None:
                self.tracer.close(span)
                span.value = {"params": tuple(sorted(params.items())), "score": score}


def tune_generation(settings: Settings) -> Run:
    """ga_run with the signal-fidelity objective on a two-item smoke corpus.

    The workload seed draws the corpus. Every ga_run evaluates the same
    gene vectors: one generation, GA seed GA_SEED. A candidate's cost
    depends on its genes by up to 5x, and later generations breed from
    corpus-dependent scores; with them the cost of a run moved by +-40 %
    from seed to seed. Population 4 keeps a generation near 2 s, so that a
    run holds a dozen generations, each bracketed by probes.
    """
    from echoforge import corpus, tuner
    from echoforge.params import build_pipeline_params, default_params

    run = Run()
    clock = RefClock()
    shape = TUNE_SHAPE

    def build(rep):
        root = os.path.join(settings.work_dir, f"tune{rep}")
        paths = signals.write_sources(os.path.join(root, "sources"), settings.seed)
        spec = corpus.CorpusSpec(
            speech_files=tuple(paths["speech"]), music_files=tuple(paths["music"]),
            noise_files={"babble": tuple(paths["noise"])},
            ser_range_db=(-15.0, -15.0), snr_range_db=(5.0, 5.0), sigma3=0.01,
            master_seed=settings.seed)
        out = os.path.join(root, "corpus")
        corpus.generate_corpus(spec, TUNE_ITEMS, out)
        items = tuner.load_corpus_items(
            corpus.read_manifest(os.path.join(out, "manifest.json")), out)
        objective = tuner.signal_fidelity_objective(items)
        objective(default_params())
        return items, objective

    (items, objective), setup_s = timed_setup(settings, clock, build, run)

    def ga(rep, tracer=None):
        """(result, objective, wall s, scale to reference speed)."""
        bench = BenchObjective(objective, run, tracer, tag=rep)
        cfg = tuner.GaConfig(seed=GA_SEED, jobs=settings.jobs, **shape)
        result, wall, ref_s = clock.call(tuner.ga_run, cfg, tuner.default_bounds(), bench,
                                         default_params())
        run.attempted += len(bench.calls)
        return result, bench, wall, ref_s / wall

    end = time.perf_counter() + settings.seconds
    cand_times, cand_wall, gen_times, gen_wall = [], [], [], []
    plain_s, traced_s, rejected = [], [], []
    first = None
    tracer = tracing.Tracer() if settings.trace else None
    # The untraced run stops at the GA-run boundary nearest to the end of
    # the measuring time; the traced run after it.
    for rep in itertools.count():
        now = time.perf_counter()
        if rep > 0 and now + (0 if tracer else gen_wall[-1] / 2) >= end:
            break
        result, bench, wall, scale = ga(rep)
        cand_wall += bench.scored
        cand_times += [t * scale for t in bench.scored]
        gen_wall.append(wall)  # one generation per ga_run
        gen_times.append(wall * scale)
        plain_s.append(wall / len(bench.calls))
        rejected.append(bench.rejected)
        if first is None:
            first = result
        if tracer is not None:
            tracing.install_echoforge(tracer)
            try:
                again, bench, wall, _ = ga(rep, tracer)
            finally:
                tracer.uninstall()
            traced_s.append(wall / len(bench.calls))
            if (again.best_params, again.best_score) != (result.best_params, result.best_score):
                run.fail(f"GA run {rep}: traced best differs from untraced")

    run.digest = hashlib.sha1(
        repr((sorted(first.best_params.items()), first.best_score)).encode()).hexdigest()
    run.record.update({"ga_best_db": first.best_score, "rejected_candidates": rejected,
                       "jobs": settings.jobs, "ga_shape": shape})
    if tracer is not None:
        overhead = statistics.median(traced_s) - statistics.median(plain_s)
        _layers(run, tracer, settings, "tune-generation", "tuner.candidate", overhead)
        run.record["trace_overhead_s_per_candidate"] = overhead
        return run

    _end_to_end(run, clock, cand_times, TUNE_ITEMS * CORPUS_ITEM_S, gen_times, 1,
                setup_s, cand_wall, gen_wall)
    # segsnr_gain_db is the tuner's product: the first GA run's best
    # parameters, re-run on the smoke items, must reproduce its score.
    # erle_db is read at default parameters: the best parameters differ
    # from seed to seed, and their ERLE with them.
    def enhance_items(params):
        return [(mix.samples, tuner.process_stream(mix, ref, params).enhanced.samples,
                 speech.samples) for mix, speech, ref in items]

    q = {"segsnr_gain_db": quality(enhance_items(
             build_pipeline_params(first.best_params)), run)["segsnr_gain_db"],
         "erle_db": quality(enhance_items(build_pipeline_params()), run)["erle_db"]}
    if q["segsnr_gain_db"] != first.best_score:
        run.fail(f"re-scored GA best {q['segsnr_gain_db']} != {first.best_score}")
    run.metrics.update(q)
    return run


# ---------------------------------------------------------------------------
# corpus-build
# ---------------------------------------------------------------------------


def _file_digest(paths) -> str:
    h = hashlib.sha1()
    for p in sorted(paths):
        with open(p, "rb") as fh:
            h.update(os.path.basename(p).encode())
            h.update(fh.read())
    return h.hexdigest()


def _corpus_files(out: str) -> list:
    return [os.path.join(out, f) for f in os.listdir(out)]


def corpus_build(settings: Settings) -> Run:
    """generate_corpus in calls of five items from synthesized source WAVs,
    built-in 1024-tap responses; each call draws a fresh master seed."""
    from echoforge import corpus, pipeline

    run = Run()
    clock = RefClock()

    def spec_for(paths, batch):
        return corpus.CorpusSpec(
            speech_files=tuple(paths["speech"]), music_files=tuple(paths["music"]),
            noise_files={"babble": tuple(paths["noise"])},
            ser_range_db=(-15.0, -15.0), snr_range_db=(5.0, 5.0), sigma3=0.01,
            master_seed=settings.seed * 1_000_003 + batch + 1)

    def build(rep):
        root = os.path.join(settings.work_dir, f"corpus{rep}")
        paths = signals.write_sources(os.path.join(root, "sources"), settings.seed)
        corpus.generate_corpus(spec_for(paths, -1), CORPUS_BATCH, os.path.join(root, "warm"))
        return root, paths, corpus.make_default_irs()

    (root, paths, irs), setup_s = timed_setup(settings, clock, build, run)
    out_a, out_b = os.path.join(root, "out"), os.path.join(root, "out_traced")

    def check(recipes, batch):
        """Re-measure one item's SER/SNR from its recipe and compare the
        mix on disk with the rebuilt one."""
        files = _corpus_files(out_a)
        if len(recipes) != CORPUS_BATCH or len(files) != 4 * CORPUS_BATCH + 1:
            run.fail(f"batch {batch}: {len(recipes)} recipes, {len(files)} files")
            return
        recipe = recipes[batch % CORPUS_BATCH]
        mixed = corpus.mix_item(recipe, irs)
        errs = (abs(corpus.measured_ser_db(mixed, recipe) - recipe.ser_db),
                abs(corpus.measured_snr_db(mixed, recipe) - recipe.snr_db))
        if not max(errs) < 0.01:
            run.fail(f"batch {batch} {recipe.item_id}: SER/SNR off by {errs} dB")
        on_disk = corpus.read_wav(os.path.join(out_a, f"{recipe.item_id}.mix.wav")).samples
        if not np.array_equal(on_disk, mixed.mix.samples.astype(np.float32)):
            run.fail(f"batch {batch} {recipe.item_id}: mix on disk differs from its recipe")

    def enhance_batch(recipes, out):
        """Default-params enhancement of the written items, for quality()."""
        results = []
        for r in recipes:
            def load(kind):
                return corpus.read_wav(os.path.join(out, f"{r.item_id}.{kind}.wav"))
            mix, speech, ref = load("mix"), load("speech"), load("ref")
            enhanced = pipeline.process_stream(mix, ref).enhanced.samples
            results.append((mix.samples, enhanced, speech.samples))
        return results

    end = time.perf_counter() + settings.seconds
    batch_times, batch_wall, traced_times = [], [], []
    tracer = tracing.Tracer() if settings.trace else None
    for batch in itertools.count():
        if time.perf_counter() >= end and batch > 0:
            break
        recipes, wall, ref_s = clock.call(corpus.generate_corpus, spec_for(paths, batch),
                                          CORPUS_BATCH, out_a)
        batch_wall.append(wall)
        batch_times.append(ref_s)
        run.attempted += len(recipes)
        check(recipes, batch)
        if batch == 0:
            run.digest = _file_digest(_corpus_files(out_a))
        if tracer is not None:
            tracing.install_echoforge(tracer)
            try:
                t0 = time.perf_counter()
                corpus.generate_corpus(spec_for(paths, batch), CORPUS_BATCH, out_b)
                traced_times.append(time.perf_counter() - t0)
                run.attempted += CORPUS_BATCH
            finally:
                tracer.uninstall()
            if _file_digest(_corpus_files(out_b)) != _file_digest(_corpus_files(out_a)):
                run.fail(f"batch {batch}: traced corpus files differ from untraced")

    if tracer is not None:
        overhead = (statistics.median(traced_times)
                    - statistics.median(batch_wall)) / CORPUS_BATCH
        _layers(run, tracer, settings, "corpus-build", "corpus.draw", overhead)
        run.record["trace_overhead_s_per_item"] = overhead
        return run
    _end_to_end(run, clock, [t / CORPUS_BATCH for t in batch_times], CORPUS_ITEM_S,
                batch_times, 1, setup_s, [t / CORPUS_BATCH for t in batch_wall], batch_wall)
    # Quality of the first QUALITY_CALLS calls' items, rebuilt after the
    # timed loop: one talker-silent ERLE window per 2 s item.
    results = []
    for batch in range(QUALITY_CALLS):
        out_q = os.path.join(root, f"out_quality{batch}")
        recipes = corpus.generate_corpus(spec_for(paths, batch), CORPUS_BATCH, out_q)
        if batch == 0 and _file_digest(_corpus_files(out_q)) != run.digest:
            run.fail("first call's corpus does not regenerate bit-identically")
        results += enhance_batch(recipes, out_q)
    run.metrics.update(quality(results, run))
    return run


WORKLOADS = {
    "enhance-10s": enhance_10s,
    "tune-generation": tune_generation,
    "corpus-build": corpus_build,
}
