import numpy as np
import pytest

from echoforge.errors import ConfigError
from echoforge.params import SCHEMA, default_params, field
from echoforge.tuner import (GaConfig, crossover, default_bounds, ga_run,
                             mutate, sample_uniform, validate_bounds)

SPHERE_GENES = ("ns.g_min", "dtp.b01", "dtp.b10", "dtp.beta")


def sphere(params):
    return -sum((params[g] - 0.3) ** 2 for g in SPHERE_GENES)


class TestOperators:
    def test_mutation_rate_zero_is_identity(self):
        rng = np.random.default_rng(0)
        p = default_params()
        assert mutate(p, default_bounds(), 0.0, 0.2, rng) == p

    def test_mutation_scale_zero_is_identity(self):
        rng = np.random.default_rng(1)
        p = default_params()
        assert mutate(p, default_bounds(), 1.0, 0.0, rng) == p

    def test_mutation_respects_bounds(self):
        rng = np.random.default_rng(2)
        bounds = default_bounds()
        p = sample_uniform(bounds, rng)
        for _ in range(10_000):
            p = mutate(p, bounds, 0.5, 0.5, rng)
        for f in SCHEMA:
            lo, hi = bounds[f.name]
            assert lo <= p[f.name] <= hi, f.name
            if f.kind in ("int", "pow2"):
                assert float(p[f.name]).is_integer()

    def test_crossover_identical_parents(self):
        rng = np.random.default_rng(3)
        p = default_params()
        assert crossover(p, p, rng) == p

    def test_crossover_picks_parent_genes(self):
        rng = np.random.default_rng(4)
        bounds = default_bounds()
        pa = sample_uniform(bounds, rng)
        pb = sample_uniform(bounds, rng)
        child = crossover(pa, pb, rng)
        for f in SCHEMA:
            assert child[f.name] in (pa[f.name], pb[f.name])

    def test_crossover_is_balanced(self):
        rng = np.random.default_rng(5)
        pa = {f.name: 0.0 for f in SCHEMA}
        pb = {f.name: 1.0 for f in SCHEMA}
        picks = 0
        trials = 10_000 // len(SCHEMA) + 1
        total = 0
        for _ in range(trials):
            child = crossover(pa, pb, rng)
            picks += sum(child[f.name] == 0.0 for f in SCHEMA)
            total += len(SCHEMA)
        assert picks / total == pytest.approx(0.5, abs=0.02)

    def test_sampling_respects_kinds(self):
        rng = np.random.default_rng(6)
        bounds = default_bounds()
        for _ in range(200):
            p = sample_uniform(bounds, rng)
            for f in SCHEMA:
                lo, hi = bounds[f.name]
                assert lo <= p[f.name] <= hi
            n = p["raec1.frame_size"]
            assert n & (n - 1) == 0


class TestGaRun:
    def test_sphere_optimum_recovered(self):
        cfg = GaConfig(population=40, elite=10, generations=10, seed=1)
        result = ga_run(cfg, default_bounds(), sphere)
        for g in SPHERE_GENES:
            assert result.best_params[g] == pytest.approx(0.3, abs=0.05)

    def test_sphere_optimum_approached_over_seeds(self):
        # the search, not one random stream: over ten GA seeds the median
        # run's worst sphere gene lies within 0.05 of the optimum
        worst = []
        for seed in range(10):
            cfg = GaConfig(population=40, elite=10, generations=10, seed=seed)
            best = ga_run(cfg, default_bounds(), sphere).best_params
            worst.append(max(abs(best[g] - 0.3) for g in SPHERE_GENES))
        assert np.median(worst) <= 0.05, worst

    def test_degenerate_run_returns_best_of_initial(self):
        cfg = GaConfig(population=12, elite=2, generations=1,
                       mutation_rate=0.0, crossover_rate=0.0, seed=7)
        result = ga_run(cfg, default_bounds(), sphere)
        # replay the sampling stream: the GA must return its argmax
        rng = np.random.default_rng(7)
        initial = [sample_uniform(default_bounds(), rng) for _ in range(12)]
        scores = [sphere(p) for p in initial]
        assert result.best_params == initial[int(np.argmax(scores))]
        assert result.best_score == max(scores)
        assert len(result.history) == 1

    def test_same_seed_reproduces_everything(self):
        cfg = GaConfig(population=10, elite=2, generations=4, seed=3)
        a = ga_run(cfg, default_bounds(), sphere)
        b = ga_run(cfg, default_bounds(), sphere)
        assert a.best_params == b.best_params
        assert a.history == b.history

    def test_parallel_matches_sequential(self):
        seq = ga_run(GaConfig(population=10, elite=2, generations=3, seed=5),
                     default_bounds(), sphere)
        par = ga_run(GaConfig(population=10, elite=2, generations=3, seed=5,
                              jobs=4), default_bounds(), sphere)
        assert seq.best_params == par.best_params
        assert seq.history == par.history

    def test_elitism_monotone_over_seeds(self):
        for seed in range(20):
            cfg = GaConfig(population=12, elite=3, generations=5, seed=seed)
            result = ga_run(cfg, default_bounds(), sphere)
            bests = [s.best for s in result.history]
            assert all(bests[i + 1] >= bests[i] for i in range(len(bests) - 1))

    def test_candidates_always_feasible(self):
        seen = []

        def recording(params):
            seen.append(dict(params))
            return sphere(params)

        ga_run(GaConfig(population=8, elite=2, generations=4, seed=9),
               default_bounds(), recording)
        bounds = default_bounds()
        for p in seen:
            for f in SCHEMA:
                lo, hi = bounds[f.name]
                assert lo <= p[f.name] <= hi

    def test_failing_candidates_survive_the_run(self):
        calls = {"n": 0}

        def flaky(params):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise RuntimeError("evaluation blew up")
            return sphere(params)

        result = ga_run(GaConfig(population=9, elite=2, generations=3, seed=11),
                        default_bounds(), flaky)
        assert np.isfinite(result.best_score)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_objective_value_is_a_failed_candidate(self, bad, caplog):
        calls, finite = [], []

        def second_call_bad(params):
            calls.append(params)
            if len(calls) == 2:
                return bad
            finite.append(sphere(params))
            return finite[-1]

        result = ga_run(GaConfig(population=6, elite=2, generations=2, seed=3, jobs=1),
                        default_bounds(), second_call_bad)
        assert result.best_score == max(finite)
        assert all(h.best >= h.mean for h in result.history)
        assert f"objective returned {bad}" in caplog.text

    def test_incumbent_joins_initial_population(self):
        incumbent = default_params()
        result = ga_run(
            GaConfig(population=6, elite=1, generations=1,
                     mutation_rate=0.0, crossover_rate=0.0, seed=13),
            default_bounds(),
            lambda p: 1.0 if p == incumbent else 0.0,
            incumbent=incumbent)
        assert result.best_params == incumbent
        assert result.best_score == 1.0

    def test_bounds_validation(self):
        bounds = default_bounds()
        del bounds["ns.g_min"]
        with pytest.raises(ConfigError, match="ns.g_min"):
            ga_run(GaConfig(population=4, elite=1, generations=1, seed=0),
                   bounds, sphere)
        bounds = default_bounds()
        f = field("raec1.mu")
        bounds["raec1.mu"] = (f.low, f.high + 10)
        with pytest.raises(ConfigError, match="raec1.mu"):
            validate_bounds(bounds)
        bounds["raec1.mu"] = (0.7, 0.3)
        with pytest.raises(ConfigError, match="raec1.mu: bound lo 0.7 > hi 0.3"):
            validate_bounds(bounds)

    @pytest.mark.parametrize("theta1_min,theta2_max", [(5.0, 0.0), (0.0, 0.0)])
    def test_theta_bounds_without_an_ordered_pair_rejected(self, theta1_min, theta2_max):
        # every candidate would need ns.theta1_db >= ns.theta2_db and score -inf
        bounds = default_bounds()
        bounds["ns.theta1_db"] = (theta1_min, 10.0)
        bounds["ns.theta2_db"] = (-10.0, theta2_max)
        with pytest.raises(ConfigError, match=r"bounds\.ns\.theta1_db\.min.*"
                                              r"bounds\.ns\.theta2_db\.max"):
            validate_bounds(bounds)

    def test_theta_bounds_with_an_ordered_pair_accepted(self):
        bounds = default_bounds()
        bounds["ns.theta1_db"] = (-0.5, 10.0)
        bounds["ns.theta2_db"] = (-10.0, 0.0)
        validate_bounds(bounds)

    def test_incumbent_outside_bounds_rejected(self):
        bounds = default_bounds()
        bounds["raec1.mu"] = (0.05, 0.3)  # the default incumbent has 0.5
        with pytest.raises(ConfigError, match=r"raec1\.mu = 0\.5 outside"):
            ga_run(GaConfig(population=4, elite=1, generations=1, seed=0),
                   bounds, sphere, incumbent=default_params())

    @pytest.mark.parametrize("change,message", [
        ({"ns.g_min": None}, "missing parameter 'ns.g_min'"),
        ({"raec1.turbo": 1.0}, "unknown parameter 'raec1.turbo'"),
    ])
    def test_incomplete_incumbent_rejected(self, change, message):
        incumbent = default_params()
        incumbent.update(change)
        incumbent = {k: v for k, v in incumbent.items() if v is not None}
        with pytest.raises(ConfigError, match=f"incumbent: {message}"):
            ga_run(GaConfig(population=4, elite=1, generations=1, seed=0),
                   default_bounds(), sphere, incumbent=incumbent)

    @pytest.mark.parametrize("name,bound,message", [
        ("raec1.frame_size", (100, 1024), "power of two"),
        ("vad.hangover", (2.5, 32), "integer"),
    ])
    def test_off_lattice_bound_rejected(self, name, bound, message):
        # sampling would round such a bound to a gene outside it
        bounds = default_bounds()
        bounds[name] = bound
        with pytest.raises(ConfigError, match=rf"bounds\.{name}\.min: .*{message}"):
            validate_bounds(bounds)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GaConfig(population=5, elite=5)
        with pytest.raises(ConfigError):
            GaConfig(generations=0)
        with pytest.raises(ConfigError):
            GaConfig(mutation_rate=1.5)
        for scale in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="mutation_scale"):
                GaConfig(mutation_scale=scale)
        with pytest.raises(ConfigError, match="seed"):
            GaConfig(seed=-1)
        for bad in ({"tournament": 0}, {"jobs": 0}):
            with pytest.raises(ConfigError, match="tournament and jobs must be >= 1"):
                GaConfig(**bad)
