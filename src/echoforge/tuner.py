"""Bounded genetic search over the pipeline parameter set.

Maximizes a black-box objective over the flat parameter dictionary:
uniform initial population inside the bounds (optionally seeded with an
incumbent), tournament selection, uniform gene-wise crossover, bounded
per-gene mutation, and elitism (the N best survive unchanged, carrying
their scores). The best member of the final population wins.

A candidate whose evaluation raises or times out scores -inf, is logged,
and the run continues; a worker process that dies fails the run. Up to
`GaConfig.jobs` candidates are in flight at once, each on its own thread;
scores are gathered by candidate index, so the result is identical
however they are scheduled.

The corpus objectives enhance their items on a process pool that they
start when they are built: up to one forked worker per available core,
never more than there are items. Each worker holds the items from the
fork on, so per item only its index and the candidate's parameters cross
the pipe. Per-item results are gathered by index and averaged in item
order, so a score does not depend on the worker count or on scheduling.
"""

from __future__ import annotations

import json
import logging
import math
import multiprocessing
import os
import shlex
import subprocess
import tempfile
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from .audio import write_wav
from .corpus import read_source, usable_cores
from .errors import ConfigError, InputError, require_unit
from .metrics import segmental_snr_improvement
from .params import SCHEMA, THETA_PAIR, Field, build_pipeline_params, validate_params
from .pipeline import process_stream

log = logging.getLogger("echoforge.tuner")


@dataclass(frozen=True)
class GaConfig:
    population: int = 40
    elite: int = 10
    generations: int = 3
    mutation_rate: float = 0.15
    mutation_scale: float = 0.2
    crossover_rate: float = 0.8
    tournament: int = 3
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if not 1 <= self.elite < self.population:
            raise ConfigError(
                f"need 1 <= elite < population, got {self.elite}/{self.population}")
        if self.generations < 1:
            raise ConfigError(f"generations must be >= 1, got {self.generations}")
        require_unit(self, "mutation_rate", "crossover_rate", closed=True)
        if not 0.0 <= self.mutation_scale < math.inf:
            raise ConfigError(
                f"mutation_scale must be finite and >= 0, got {self.mutation_scale}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.tournament < 1 or self.jobs < 1:
            raise ConfigError("tournament and jobs must be >= 1")


def default_bounds() -> dict:
    return {f.name: (f.low, f.high) for f in SCHEMA}


def validate_bounds(bounds: dict) -> None:
    """Bounds must cover every tunable, each bound must be a valid value of
    its parameter (inside the schema box, on an int or pow2 gene's
    lattice), lo <= hi, and they must admit an ordered theta pair."""
    for f in SCHEMA:
        if f.name not in bounds:
            raise ConfigError(f"bounds missing parameter {f.name!r}")
    for name, (lo, hi) in bounds.items():
        for which, value in (("min", lo), ("max", hi)):
            try:
                validate_params({name: value})
            except ConfigError as exc:
                raise ConfigError(f"bounds.{name}.{which}: {exc}") from None
        if lo > hi:
            raise ConfigError(f"{name}: bound lo {lo} > hi {hi}")
    low, high = THETA_PAIR
    if bounds[low][0] >= bounds[high][1]:
        raise ConfigError(
            f"bounds.{low}.min = {bounds[low][0]} >= bounds.{high}.max = "
            f"{bounds[high][1]}: no candidate can have {low} < {high}")


def _sample_gene(f: Field, lo: float, hi: float, rng: np.random.Generator):
    if f.kind == "real":
        return float(rng.uniform(lo, hi))
    if f.kind == "int":
        return int(rng.integers(int(lo), int(hi) + 1))
    if f.kind == "log":
        return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))
    e_lo, e_hi = int(math.log2(lo)), int(math.log2(hi))  # pow2, the last kind
    return int(2 ** rng.integers(e_lo, e_hi + 1))


def sample_uniform(bounds: dict, rng: np.random.Generator) -> dict:
    return {f.name: _sample_gene(f, *bounds[f.name], rng) for f in SCHEMA}


def mutate(params: dict, bounds: dict, rate: float, scale: float,
           rng: np.random.Generator) -> dict:
    """Perturb each gene with probability `rate` by bounded uniform noise."""
    child = dict(params)
    for f in SCHEMA:
        lo, hi = bounds[f.name]
        if rng.uniform() >= rate:
            continue
        v = child[f.name]
        if f.kind == "real":
            v = float(np.clip(v + rng.uniform(-1, 1) * scale * (hi - lo), lo, hi))
        elif f.kind == "int":
            v = int(np.clip(round(v + rng.uniform(-1, 1) * scale * (hi - lo)),
                            int(lo), int(hi)))
        elif f.kind == "log":
            span = math.log10(hi) - math.log10(lo)
            v = float(np.clip(v * 10.0 ** (rng.uniform(-1, 1) * scale * span), lo, hi))
        elif f.kind == "pow2":
            e_lo, e_hi = int(math.log2(lo)), int(math.log2(hi))
            e = int(np.clip(round(math.log2(v) + rng.uniform(-1, 1) * scale
                                  * (e_hi - e_lo)), e_lo, e_hi))
            v = 2 ** e
        child[f.name] = v
    return child


def crossover(parent_a: dict, parent_b: dict, rng: np.random.Generator) -> dict:
    """Uniform gene-wise crossover; each gene comes from one parent."""
    return {f.name: (parent_a if rng.uniform() < 0.5 else parent_b)[f.name]
            for f in SCHEMA}


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best: float
    mean: float
    worst: float


@dataclass
class GaResult:
    best_params: dict
    best_score: float
    history: list

    def history_table(self) -> str:
        lines = [f"{'gen':>4} {'best':>12} {'mean':>12} {'worst':>12}"]
        for s in self.history:
            lines.append(f"{s.generation:>4} {s.best:>12.4f} {s.mean:>12.4f} "
                         f"{s.worst:>12.4f}")
        return "\n".join(lines)


def _evaluate(objective, population, scores, jobs: int):
    """Fill in missing scores; failures score -inf and the run continues.

    Candidates run on a pool of `jobs` threads, one thread included, so an
    interrupt waits for the candidates in flight whatever `jobs` is.
    A dead worker process is not a candidate failure: BrokenProcessPool
    propagates, because every later candidate would fail the same way.
    """
    todo = [i for i, s in enumerate(scores) if s is None]

    def run_one(i):
        try:
            score = float(objective(population[i]))
            if not math.isfinite(score):
                raise ValueError(f"objective returned {score}")
            return score
        except BrokenProcessPool:
            raise
        except Exception as exc:  # candidate failure must not kill the run
            log.warning("candidate %d failed: %s", i, exc)
            return float("-inf")

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for i, s in zip(todo, pool.map(run_one, todo)):
            scores[i] = s
    return scores


def _check_incumbent(incumbent: dict, bounds: dict) -> None:
    try:
        validate_params(incumbent)
    except ConfigError as exc:
        raise ConfigError(f"incumbent: {exc}") from None
    for f in SCHEMA:
        if f.name not in incumbent:
            raise ConfigError(f"incumbent: missing parameter {f.name!r}")
        lo, hi = bounds[f.name]
        if not lo <= incumbent[f.name] <= hi:
            raise ConfigError(f"incumbent: {f.name} = {incumbent[f.name]} outside "
                              f"the tuning bounds [{lo}, {hi}]")


def ga_run(cfg: GaConfig, bounds: dict, objective, incumbent: dict | None = None) -> GaResult:
    """Maximize `objective(params) -> float` inside `bounds`.

    The incumbent, when given, joins the initial population unchanged; it
    must be a complete parameter set inside `bounds`.
    Fixed (cfg, bounds, incumbent, objective) reproduce the same result.
    """
    validate_bounds(bounds)
    if incumbent is not None:
        _check_incumbent(incumbent, bounds)
    rng = np.random.default_rng(cfg.seed)
    population = [sample_uniform(bounds, rng) for _ in range(cfg.population)]
    if incumbent is not None:
        population[0] = dict(incumbent)
    scores: list = [None] * cfg.population

    history = []
    order = None
    for gen in range(cfg.generations):
        scores = _evaluate(objective, population, scores, cfg.jobs)
        order = sorted(range(cfg.population), key=lambda i: -scores[i])
        finite = [s for s in scores if math.isfinite(s)]
        history.append(GenerationStats(
            generation=gen,
            best=scores[order[0]],
            mean=float(np.mean(finite)) if finite else float("-inf"),
            worst=min(scores),
        ))
        if gen + 1 == cfg.generations:
            break

        def pick_parent():
            contenders = rng.integers(0, cfg.population, size=cfg.tournament)
            return population[max(contenders, key=lambda i: scores[i])]

        next_pop = [dict(population[i]) for i in order[: cfg.elite]]
        next_scores: list = [scores[i] for i in order[: cfg.elite]]
        while len(next_pop) < cfg.population:
            parent = pick_parent()
            if rng.uniform() < cfg.crossover_rate:
                child = crossover(parent, pick_parent(), rng)
            else:
                child = dict(parent)
            child = mutate(child, bounds, cfg.mutation_rate, cfg.mutation_scale, rng)
            next_pop.append(child)
            next_scores.append(None)
        population = next_pop
        scores = next_scores

    best = order[0]
    return GaResult(best_params=dict(population[best]), best_score=scores[best],
                    history=history)


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


def load_corpus_items(manifest: dict, base_dir: str) -> list:
    """Load every item's (mix, clean target, far-end reference) triple into
    memory; no item is skipped.

    Errors name the file: FileNotFoundError a missing one, InputError one
    unreadable, not at SAMPLE_RATE, or a target of another length than its mix.
    """
    items = []
    for entry in manifest["items"]:
        paths = [os.path.join(base_dir, entry["files"][key])
                 for key in ("mix", "speech", "reference")]
        mix, speech, ref = map(read_source, paths)
        if len(speech) != len(mix):
            raise InputError(f"{paths[1]}: {len(speech)} samples; mix {paths[0]}: {len(mix)}")
        items.append((mix, speech, ref))
    return items


# The corpus items of this worker process, set once by the pool initializer.
_worker_items = None


def _hold_items(items) -> None:
    global _worker_items
    _worker_items = items


def _score_item(i: int, pipeline_params):
    """Worker: segmental-SNR improvement of item i, enhanced."""
    mix, speech, ref = _worker_items[i]
    result = process_stream(mix, ref, pipeline_params)
    return segmental_snr_improvement(speech.samples, result.enhanced.samples, mix.samples)


def _enhance_item_to(i: int, pipeline_params, workdir: str):
    """Worker: write item i, enhanced, to workdir; return its VAD segments."""
    mix, _, ref = _worker_items[i]
    result = process_stream(mix, ref, pipeline_params)
    write_wav(os.path.join(workdir, f"enhanced{i:04d}.wav"), result.enhanced)
    return [list(s) for s in result.segments]


def _item_pool(items) -> ProcessPoolExecutor:
    """Fork the item workers now, on the calling thread."""
    if not items:
        raise InputError("no corpus items")
    pool = ProcessPoolExecutor(
        max_workers=min(usable_cores(), len(items)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_hold_items, initargs=(items,))
    # The first submit forks every worker of a fork-context pool.
    pool.submit(os.getpid).result()
    return pool


def _map_items(pool: ProcessPoolExecutor, fn, n: int, *args) -> list:
    """fn(i, *args) for every item i on the pool, results in item order."""
    futures = [pool.submit(fn, i, *args) for i in range(n)]
    return [f.result() for f in futures]


def signal_fidelity_objective(items):
    """Mean segmental-SNR improvement of enhanced over mixture, in dB."""
    pool = _item_pool(items)

    def objective(params: dict) -> float:
        pipeline_params = build_pipeline_params(params)
        return float(np.mean(_map_items(pool, _score_item, len(items), pipeline_params)))

    weakref.finalize(objective, pool.shutdown)  # the workers exit with the objective
    return objective


def external_objective(command_template: str, exchange_dir, timeout: float, items):
    """Attachment point for an external scorer (e.g. a speech recognizer).

    Per candidate: enhanced WAVs plus a candidate manifest go to a fresh
    work directory under `exchange_dir`; the command, split into words once
    here and with each `{dir}` replaced by that directory, must print one
    decimal score on stdout. An unsplittable template is a ConfigError.
    """
    if not 0 < timeout < math.inf:
        raise ConfigError(f"timeout must be positive and finite, got {timeout}")
    try:
        words = shlex.split(command_template)
    except ValueError as exc:  # an unclosed quote or a trailing escape
        raise ConfigError(f"objective command {command_template!r}: {exc}") from None
    os.makedirs(exchange_dir, exist_ok=True)
    pool = _item_pool(items)

    def objective(params: dict) -> float:
        pipeline_params = build_pipeline_params(params)
        workdir = tempfile.mkdtemp(prefix="candidate_", dir=exchange_dir)
        segments = _map_items(pool, _enhance_item_to, len(items), pipeline_params, workdir)
        entries = [{"enhanced": os.path.join(workdir, f"enhanced{i:04d}.wav"),
                    "segments": segs} for i, segs in enumerate(segments)]
        with open(os.path.join(workdir, "candidate.json"), "w", encoding="utf-8") as fh:
            json.dump({"params": params, "items": entries}, fh, indent=2)
        cmd = [word.replace("{dir}", workdir) for word in words]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(
                f"external objective exited {proc.returncode}: {proc.stderr.strip()}")
        return float(proc.stdout.strip())

    weakref.finalize(objective, pool.shutdown)  # the workers exit with the objective
    return objective
