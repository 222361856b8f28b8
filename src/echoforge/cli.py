"""Command-line entry point: enhance / corpus / tune / metrics.

Exit codes: 0 success, 2 input/output problem (the message names the
path), 3 configuration problem (the message names the field). Verbosity
comes from the ECHOFORGE_LOG environment variable (DEBUG/INFO/WARNING).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields

from . import config as cfgmod
from . import corpus as corpusmod
from . import params as paramsmod
from . import tuner as tunermod
from .audio import read_wav, write_wav
from .errors import ConfigError, EchoforgeError, InputError
from .metrics import erle_db, segmental_snr
from .pipeline import measure_erle, process_stream, write_diagnostics_file

log = logging.getLogger("echoforge")


def _setup_logging():
    level = os.environ.get("ECHOFORGE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def load_run_config(path):
    """Read a config file into pipeline parameters: `ns.cap_at_unity` is a
    boolean run setting, every other key a schema parameter."""
    raw = cfgmod.read_config(path) if path else {}
    cap = cfgmod.as_bool(raw.pop("ns.cap_at_unity", "false"), "ns.cap_at_unity")
    overrides = {key: cfgmod.as_float(value, key) for key, value in raw.items()}
    return paramsmod.build_pipeline_params(overrides, cap_at_unity=cap)


def cmd_enhance(args) -> int:
    pipeline_params = load_run_config(args.config)
    mic = corpusmod.read_source(args.mic)
    ref = corpusmod.read_source(args.reference)
    result = process_stream(mic, ref, pipeline_params,
                            collect_diagnostics=args.diagnostics)
    write_wav(args.output, result.enhanced)
    stem, _ = os.path.splitext(args.output)
    manifest = {"segments": [list(s) for s in result.segments],
                "sample_rate": mic.sample_rate}
    with open(stem + ".segments.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    if args.diagnostics:
        write_diagnostics_file(stem + ".diag.f32", result.diagnostics)
        log.info("diagnostics written to %s.diag.f32", stem)
    log.info("enhanced %s -> %s (%d segments)", args.mic, args.output,
             len(result.segments))
    return 0


def _as_path_tuple(raw, key):
    return tuple(cfgmod.as_paths(raw))


# Every corpus spec key and its converter.
_CORPUS_KEYS = {
    **dict.fromkeys(["corpus.speech", "corpus.music", "corpus.irs"]
                    + [f"corpus.noise.{t}" for t in corpusmod.NOISE_TYPES], _as_path_tuple),
    **dict.fromkeys(["corpus.ser_min", "corpus.ser_max", "corpus.snr_min",
                     "corpus.snr_max", "corpus.sigma3"], cfgmod.as_float),
    "corpus.seed": cfgmod.as_int,
}


def load_corpus_spec(path):
    """Read a corpus spec file into (CorpusSpec, directory of the file);
    absent keys take CorpusSpec's defaults."""
    raw = cfgmod.read_config(path)
    base_dir = os.path.dirname(os.path.abspath(path))
    v = {}
    for key, value in raw.items():
        if key not in _CORPUS_KEYS:
            raise ConfigError(f"unknown corpus key {key!r}")
        v[key] = _CORPUS_KEYS[key](value, key)
    d = corpusmod.CorpusSpec  # its class attributes are the field defaults
    spec = corpusmod.CorpusSpec(
        speech_files=v.get("corpus.speech", ()),
        music_files=v.get("corpus.music", ()),
        noise_files={t: v.get(f"corpus.noise.{t}", ()) for t in corpusmod.NOISE_TYPES},
        ir_files=v.get("corpus.irs", d.ir_files),
        ser_range_db=(v.get("corpus.ser_min", d.ser_range_db[0]),
                      v.get("corpus.ser_max", d.ser_range_db[1])),
        snr_range_db=(v.get("corpus.snr_min", d.snr_range_db[0]),
                      v.get("corpus.snr_max", d.snr_range_db[1])),
        sigma3=v.get("corpus.sigma3", d.sigma3),
        master_seed=v.get("corpus.seed", d.master_seed),
    )
    return spec, base_dir


def cmd_corpus(args) -> int:
    spec, base_dir = load_corpus_spec(args.spec)
    recipes = corpusmod.generate_corpus(spec, args.count, args.out, base_dir)
    print(f"wrote {len(recipes)} items to {args.out}")
    return 0


# ga.<field> for every GaConfig field but jobs, which is --jobs only.
_GA_KEYS = {f"ga.{f.name}": cfgmod.as_int if isinstance(f.default, int) else cfgmod.as_float
            for f in fields(tunermod.GaConfig) if f.name != "jobs"}


def load_tune_config(path, jobs=None):
    """Read a GA config / bounds file into (GaConfig, bounds); `jobs` comes
    from the command line."""
    raw = cfgmod.read_config(path) if path else {}
    ga_kwargs = {}
    bounds = tunermod.default_bounds()
    for key, value in raw.items():
        if key in _GA_KEYS:
            ga_kwargs[key[len("ga."):]] = _GA_KEYS[key](value, key)
        elif key.startswith("bounds."):
            name, _, which = key[len("bounds."):].rpartition(".")
            if which not in ("min", "max") or not name:
                raise ConfigError(f"bad bounds key {key!r}; use bounds.<param>.min/max")
            paramsmod.field(name)  # raises ConfigError for unknown names
            lo, hi = bounds[name]
            v = cfgmod.as_float(value, key)
            bounds[name] = (v, hi) if which == "min" else (lo, v)
        else:
            raise ConfigError(f"unknown tune config key {key!r}")
    if jobs is not None:
        ga_kwargs["jobs"] = jobs
    cfg = tunermod.GaConfig(**ga_kwargs)
    tunermod.validate_bounds(bounds)
    return cfg, bounds


def cmd_tune(args) -> int:
    cfg, bounds = load_tune_config(args.ga_config, args.jobs)
    manifest = corpusmod.read_manifest(args.manifest)
    if not manifest["items"]:
        raise InputError(f"{args.manifest}: no corpus items")
    base_dir = os.path.dirname(os.path.abspath(args.manifest))
    items = tunermod.load_corpus_items(manifest, base_dir)
    if args.objective_cmd:
        objective = tunermod.external_objective(
            args.objective_cmd, args.exchange_dir or ".", args.timeout, items)
    else:
        objective = tunermod.signal_fidelity_objective(items)

    incumbent = paramsmod.default_params() if args.seed_incumbent else None
    result = tunermod.ga_run(cfg, bounds, objective, incumbent=incumbent)
    if result.best_score == float("-inf"):
        raise InputError(f"{args.manifest}: no candidate could be scored")
    print(result.history_table())
    print(f"best score: {result.best_score:.4f}")
    header = f"tuned parameters (score {result.best_score:.4f})"
    cfgmod.write_config(args.out, result.best_params, header=header)
    print(f"best parameters written to {args.out}")
    return 0


def cmd_metrics(args) -> int:
    a = read_wav(args.signal_a)
    b = read_wav(args.signal_b)
    if a.sample_rate != b.sample_rate:
        raise InputError(
            f"sample rate mismatch: {args.signal_a} is at {a.sample_rate} Hz, "
            f"{args.signal_b} at {b.sample_rate} Hz")
    if len(a) != len(b):
        raise InputError(
            f"length mismatch: {args.signal_a} has {len(a)}, "
            f"{args.signal_b} has {len(b)}")
    per_window = measure_erle(a, b, args.window)
    print(f"erle_db_overall = {erle_db(a.samples, b.samples):.2f}")
    for i, v in enumerate(per_window):
        print(f"erle_db_window_{i} = {v:.2f}")
    print(f"segmental_snr_db = {segmental_snr(a.samples, b.samples):.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echoforge",
        description="Speech enhancement front end for voice control during "
                    "music playback.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        # No abbreviations: every option has one spelling, and a removed
        # option is not taken as a prefix of another (--seed of --seed-incumbent).
        return sub.add_parser(name, help=help_text, allow_abbrev=False)

    p = command("enhance", "cancel echo and suppress noise in one file")
    p.add_argument("mic", help="microphone WAV")
    p.add_argument("reference", help="far-end (loudspeaker) reference WAV")
    p.add_argument("output", help="enhanced output WAV")
    p.add_argument("--config", help="parameter config file")
    p.add_argument("--diagnostics", action="store_true",
                   help="write per-frame xi/gamma/zeta side file")
    p.set_defaults(func=cmd_enhance)

    p = command("corpus", "generate a synthetic noisy corpus")
    p.add_argument("spec", help="corpus spec config file")
    p.add_argument("count", type=int, help="number of items")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_corpus)

    p = command("tune", "genetic parameter search over a corpus")
    p.add_argument("manifest", help="corpus manifest.json")
    p.add_argument("--ga-config", dest="ga_config", help="GA config / bounds file")
    p.add_argument("--out", required=True, help="output best-parameters config")
    p.add_argument("--objective-cmd", dest="objective_cmd",
                   help="external scorer command template ({dir} placeholder)")
    p.add_argument("--exchange-dir", dest="exchange_dir",
                   help="work directory for the external scorer")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="external scorer timeout, seconds")
    p.add_argument("--jobs", type=int, help="candidates in flight at once")
    p.add_argument("--seed-incumbent", action="store_true",
                   help="put the default parameters into the initial population")
    p.set_defaults(func=cmd_tune)

    p = command("metrics", "ERLE / segmental SNR between two files")
    p.add_argument("signal_a")
    p.add_argument("signal_b")
    p.add_argument("--window", type=float, default=1.0, help="ERLE window, seconds")
    p.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except (OSError, EchoforgeError) as exc:
        print(f"input/output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
