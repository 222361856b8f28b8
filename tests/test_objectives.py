import gc
import multiprocessing
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from echoforge.corpus import generate_corpus, read_manifest
from echoforge.errors import InputError
from echoforge.metrics import segmental_snr_improvement
from echoforge.params import build_pipeline_params, default_params
from echoforge.pipeline import process_stream
from echoforge.tuner import (GaConfig, default_bounds, external_objective,
                             ga_run, load_corpus_items,
                             signal_fidelity_objective)
from conftest import make_corpus_spec, speech_like


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("objcorpus")
    from conftest import music_like, stationary_noise
    from echoforge.audio import AudioBuffer, write_wav

    paths = {"speech": [], "music": [], "noise": []}
    for i in range(2):
        p = root / f"sp{i}.wav"
        write_wav(p, AudioBuffer(speech_like(1.0, seed=400 + i, rms=0.05)))
        paths["speech"].append(str(p))
    p = root / "mu.wav"
    write_wav(p, AudioBuffer(music_like(4.0, seed=410)))
    paths["music"].append(str(p))
    p = root / "no.wav"
    write_wav(p, AudioBuffer(stationary_noise(4.0, seed=420)))
    paths["noise"].append(str(p))
    out = root / "corpus"
    spec = make_corpus_spec(paths, ser_range_db=(-12.0, -10.0),
                            snr_range_db=(5.0, 10.0))
    generate_corpus(spec, 3, out)
    return out


class TestSegmentalImprovementExamples:
    def test_perfect_enhancement_hits_ceiling(self):
        clean = speech_like(1.0, seed=1, rms=0.1)
        mixture = clean + speech_like(1.0, seed=2, rms=0.3)
        assert segmental_snr_improvement(clean, clean, mixture) == 40.0

    def test_identity_processing_scores_zero(self):
        clean = speech_like(1.0, seed=3, rms=0.1)
        mixture = clean + speech_like(1.0, seed=4, rms=0.3)
        assert segmental_snr_improvement(clean, mixture, mixture) == 0.0


class TestSignalFidelityObjective:
    def test_good_defaults_beat_crippled_params(self, small_corpus):
        manifest = read_manifest(small_corpus / "manifest.json")
        items = load_corpus_items(manifest, str(small_corpus))
        objective = signal_fidelity_objective(items)
        good = objective(default_params())
        broken = dict(default_params())
        broken.update({"raec1.mu": 0.05, "raec2.mu": 0.05,
                       "raec1.iterations": 1, "raec2.iterations": 1,
                       "ns.g_min": 1.0, "ns.theta1_db": 10.0,
                       "ns.theta2_db": 30.0})
        assert good > objective(broken)

    def test_bad_candidate_scores_minus_inf_in_ga(self, small_corpus):
        manifest = read_manifest(small_corpus / "manifest.json")
        items = load_corpus_items(manifest, str(small_corpus))
        objective = signal_fidelity_objective(items)

        def sometimes_invalid(params):
            if params["ns.theta1_db"] > params["ns.theta2_db"]:
                # build_pipeline_params would raise; mimic raw usage
                pass
            return objective(params)

        result = ga_run(GaConfig(population=4, elite=1, generations=1, seed=2),
                        default_bounds(), sometimes_invalid)
        assert result.best_score > -np.inf


def _load_items(corpus_dir):
    return load_corpus_items(read_manifest(corpus_dir / "manifest.json"), str(corpus_dir))


def _workers_started_by(build):
    """(what build() returns, the worker processes it started)."""
    before = set(multiprocessing.active_children())
    built = build()
    return built, [p for p in multiprocessing.active_children() if p not in before]


OFF_DEFAULT = {"raec1.frame_size": 128, "raec1.partitions": 5, "raec2.frame_size": 512,
               "raec2.iterations": 3, "dtp.a01": 0.003, "rpe.partitions_low": 3,
               "ns.g_min": 0.25, "ns.theta1_db": -8.0, "vad.hangover": 3}


class TestItemPool:
    @pytest.mark.parametrize("genes", [{}, OFF_DEFAULT], ids=["default", "off_default"])
    def test_pooled_score_equals_in_process_score(self, small_corpus, genes):
        items = _load_items(small_corpus)
        params = {**default_params(), **genes}
        pipeline_params = build_pipeline_params(params)
        gains = [segmental_snr_improvement(
                     speech.samples,
                     process_stream(mix, ref, pipeline_params).enhanced.samples,
                     mix.samples)
                 for mix, speech, ref in items]
        assert signal_fidelity_objective(items)(params) == float(np.mean(gains))

    def test_candidates_in_flight_do_not_change_the_result(self, small_corpus):
        objective = signal_fidelity_objective(_load_items(small_corpus))
        results = [ga_run(GaConfig(population=4, elite=1, generations=2, seed=4, jobs=jobs),
                          default_bounds(), objective)
                   for jobs in (1, 2)]
        assert results[0].best_params == results[1].best_params
        assert results[0].best_score == results[1].best_score
        assert results[0].history == results[1].history

    def test_no_items_is_an_input_error(self):
        # as `tune` reports an empty manifest: exit 2, not a configuration error
        with pytest.raises(InputError, match="no corpus items"):
            signal_fidelity_objective([])

    def test_one_worker_per_core_at_most_one_per_item(self, small_corpus):
        items = _load_items(small_corpus)
        cores = len(os.sched_getaffinity(0))
        for n in (1, len(items)):
            _, workers = _workers_started_by(lambda: signal_fidelity_objective(items[:n]))
            assert len(workers) == min(cores, n)

    def test_runs_where_the_platform_has_no_affinity_call(self, small_corpus, corpus_sources,
                                                          tmp_path, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity; the core count
        # falls back to os.cpu_count() there
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert len(generate_corpus(make_corpus_spec(corpus_sources), 2, tmp_path / "c")) == 2
        objective = signal_fidelity_objective(_load_items(small_corpus))
        assert np.isfinite(objective(default_params()))

    def test_workers_exit_with_their_objective(self, small_corpus):
        objective, workers = _workers_started_by(
            lambda: signal_fidelity_objective(_load_items(small_corpus)))
        assert workers
        del objective
        gc.collect()
        deadline = time.monotonic() + 5.0
        while (set(workers) & set(multiprocessing.active_children())
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert not set(workers) & set(multiprocessing.active_children())

    def test_dead_worker_fails_the_run(self, small_corpus):
        objective, workers = _workers_started_by(
            lambda: signal_fidelity_objective(_load_items(small_corpus)))
        workers[0].kill()
        workers[0].join(timeout=5.0)
        assert not workers[0].is_alive()
        with pytest.raises(BrokenProcessPool):
            ga_run(GaConfig(population=2, elite=1, generations=1, seed=0),
                   default_bounds(), objective)


class TestExternalObjective:
    def test_protocol_round_trip(self, small_corpus, tmp_path):
        manifest = read_manifest(small_corpus / "manifest.json")
        items = load_corpus_items(manifest, str(small_corpus))
        scorer = tmp_path / "scorer.py"
        scorer.write_text(
            "import json, sys, os\n"
            "d = sys.argv[1]\n"
            "with open(os.path.join(d, 'candidate.json')) as fh:\n"
            "    doc = json.load(fh)\n"
            "ok = all(os.path.exists(i['enhanced']) for i in doc['items'])\n"
            "print(0.75 if ok and doc['params'] else -1.0)\n")
        objective = external_objective(
            f"{sys.executable} {scorer} {{dir}}", tmp_path / "exchange",
            timeout=120.0, items=items)
        assert objective(default_params()) == 0.75

    def test_other_braces_reach_the_command_unchanged(self, small_corpus, tmp_path):
        # only {dir} is replaced, here inside a word; the dict literal's
        # braces are the scorer's own
        manifest = read_manifest(small_corpus / "manifest.json")
        items = load_corpus_items(manifest, str(small_corpus))[:1]
        code = ("import os, sys; "
                "print({True: 0.5, False: -1.0}[os.path.isfile(sys.argv[1])])")
        objective = external_objective(
            f'{sys.executable} -c "{code}" {{dir}}/candidate.json', tmp_path / "exchange",
            timeout=60.0, items=items)
        assert objective(default_params()) == 0.5

    def test_failure_and_timeout_become_minus_inf(self, small_corpus, tmp_path):
        manifest = read_manifest(small_corpus / "manifest.json")
        items = load_corpus_items(manifest, str(small_corpus))[:1]
        failing = external_objective(
            f"{sys.executable} -c 'import sys; sys.exit(9)'",
            tmp_path / "ex1", timeout=60.0, items=items)
        slow = external_objective(
            f"{sys.executable} -c 'import time; time.sleep(30)'",
            tmp_path / "ex2", timeout=1.0, items=items)

        def switch(params):
            return failing(params) if params["vad.hangover"] % 2 else slow(params)

        result = ga_run(GaConfig(population=3, elite=1, generations=1, seed=3),
                        default_bounds(), switch)
        assert result.best_score == -np.inf
        assert len(result.history) == 1

    def test_non_finite_score_becomes_minus_inf(self, small_corpus, tmp_path):
        manifest = read_manifest(small_corpus / "manifest.json")
        items = load_corpus_items(manifest, str(small_corpus))[:1]
        objective = external_objective(
            f"{sys.executable} -c 'print(\"nan\")'", tmp_path / "exchange",
            timeout=60.0, items=items)
        result = ga_run(GaConfig(population=2, elite=1, generations=1, seed=3),
                        default_bounds(), objective, incumbent=default_params())
        assert result.best_score == -np.inf
