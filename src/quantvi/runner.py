"""Experiment harness: INI configs, presets, CSV/JSON output, CLI.

A config is flat key-value INI with four sections (problem, noise,
quantization, schedule) plus a [run] section.  ``_SCHEMA`` lists every key
once; parsing, defaults, the INI dump, ``--set`` overrides and the compare
check all derive from it.  Every key has a default, so a minimal file only
names the problem preset.  ``run_experiment`` writes three files next to
each other: ``<out>.csv`` (one row per checkpoint), ``<out>.json``
(summary), and ``<out>.ini`` (the fully resolved config, which reloads to
reproduce the run byte for byte).  A run that diverges writes them too:
the rows it reached, and a JSON holding the error and its iteration.

Example::

    [problem]
    preset = bilinear
    d = 20
    K = 4

    [noise]
    kind = absolute
    sigma = 0.1

    [run]
    T = 10000
    seed = 3
    out = runs/demo

Checkpoints are the powers of two up to T, plus T itself.  The reported
slope is a least-squares fit of log10(gap) against log10(t) over the rows
with t >= T/100.
"""

import argparse
import configparser
import io
import json
import os
import sys
from dataclasses import make_dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.random import SeedSequence, default_rng

from . import adapt, codec, solver, vi
from .levels import LevelFamily, assignment_from_layer_sizes, sequence_from_spec


class ParseError(ValueError):
    """Bad or contradictory config input; message names the field."""


class UnknownPreset(KeyError):
    def __str__(self):
        return self.args[0] if self.args else ""


class IncomparableConfigs(ValueError):
    """compare() got configs that differ outside the allowed axes."""


class _Kind(NamedTuple):
    """How one config value is read from INI text and written back."""

    parse: Callable[[str, str], object]  # ("[section] key", text) -> value
    dump: Callable[[object], str]  # value -> text that parses back to it


def _number(cast, noun, least=None, above=None):
    def parse(where, text):
        try:
            value = cast(text)
        except ValueError:
            raise ParseError(f"{where}: expected {noun}, got {text!r}") from None
        if value != value or abs(value) == float("inf"):  # NaN or infinite
            raise ParseError(f"{where}: expected a finite number, got {text!r}")
        if least is not None and value < least:
            raise ParseError(f"{where} must be >= {least}, got {value}")
        if above is not None and value <= above:
            raise ParseError(f"{where} must be > {above}, got {value}")
        return value
    return parse


def _integer(least=None):
    return _Kind(_number(int, "an integer", least), str)


def _real(least=None, above=None):
    # repr is the shortest text that reloads to the same float.
    return _Kind(_number(float, "a number", least, above), repr)


def _integers(least=None):
    one = _number(int, "an integer", least)
    return _Kind(lambda where, text: [one(where, tok) for tok in text.split(",") if tok.strip()],
                 lambda values: ",".join(map(str, values)))


def _choice(*values):
    def parse(where, text):
        value = text.strip().lower()
        if value not in values:
            raise ParseError(f"{where}: unknown value {value!r}; choices: {', '.join(values)}")
        return value
    return _Kind(parse, str)


def _parse_bool(where, text):
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ParseError(f"{where}: expected a boolean, got {text!r}")


def _parse_level_lists(where, text):
    tokens = [tok.strip() for tok in text.split("|")] if text.strip() else []
    for tok in tokens:
        try:
            sequence_from_spec(tok)
        except ValueError as exc:
            raise ParseError(f"{where}: bad level list {tok!r}: {exc}") from None
    return tokens


def _parse_text(where, text):
    if not text.strip():
        raise ParseError(f"{where} must not be empty")
    return text.strip()


_TEXT = _Kind(_parse_text, str)
_BOOL = _Kind(_parse_bool, lambda value: str(value).lower())
_LEVEL_LISTS = _Kind(_parse_level_lists, " | ".join)


class _Key(NamedTuple):
    section: str
    key: str
    attr: str  # the ExperimentConfig attribute
    kind: _Kind
    default: str
    varies: bool = False  # compare() accepts configs that differ in it

    @property
    def where(self):
        return f"[{self.section}] {self.key}"


# The one description of the config.  Its order is the INI dump's order.
_SCHEMA = (
    _Key("problem", "preset", "preset", _TEXT, ""),
    _Key("problem", "d", "d", _integer(1), "20"),
    _Key("problem", "K", "K", _integer(1), "4", varies=True),
    _Key("problem", "seed", "problem_seed", _integer(0), "7"),
    _Key("noise", "kind", "noise_kind", _choice("none", "absolute", "relative"), "absolute"),
    _Key("noise", "sigma", "sigma", _real(least=0.0), "0.1"),
    _Key("noise", "clip", "clip", _real(least=0.0), "0"),
    _Key("quantization", "enabled", "quant_enabled", _BOOL, "true"),
    _Key("quantization", "M", "M", _integer(1), "2"),
    _Key("quantization", "layer_sizes", "layer_sizes", _integers(), ""),
    _Key("quantization", "q", "q", _integer(1), "2"),
    _Key("quantization", "protocol", "protocol",
         _choice(codec.PROTOCOL_MAIN, codec.PROTOCOL_ALTERNATING), codec.PROTOCOL_MAIN),
    _Key("quantization", "scheme", "scheme",
         _choice(codec.SCHEME_HUFFMAN, codec.SCHEME_ELIAS), codec.SCHEME_HUFFMAN),
    _Key("quantization", "update_period", "update_period", _integer(0), "1000"),
    _Key("quantization", "grid", "grid", _integer(2), "512"),
    _Key("quantization", "estimator", "estimator",
         _choice("empirical", "truncated-normal"), "empirical"),
    _Key("quantization", "samples_per_node", "samples_per_node", _integer(1), "16"),
    _Key("quantization", "budgets", "budgets", _integers(0), "3"),
    _Key("quantization", "levels", "levels", _LEVEL_LISTS, ""),
    _Key("schedule", "kind", "schedule_kind", _choice("general", "alt", "constant"), "general",
         varies=True),
    _Key("schedule", "q_hat", "q_hat", _real(), "0.25", varies=True),
    _Key("schedule", "c", "c", _real(), "0.5", varies=True),
    _Key("run", "T", "T", _integer(1), "10000"),
    _Key("run", "seed", "seed", _integer(0), "0", varies=True),
    _Key("run", "out", "out", _TEXT, "run", varies=True),
    _Key("run", "algorithm", "algorithm", _choice("qoda", "extragradient"), "qoda", varies=True),
    _Key("run", "step", "step", _real(above=0.0), "0.3", varies=True),
)
_NAMES = {(k.section, k.key) for k in _SCHEMA}
_SECTIONS = {k.section for k in _SCHEMA}
_ALTERNATIVES = {"budgets", "levels"}  # [quantization] keys that exclude each other

ExperimentConfig = make_dataclass(
    "ExperimentConfig", [k.attr for k in _SCHEMA],
    namespace={"__module__": __name__,
               "__doc__": "A fully resolved config: one attribute per row of _SCHEMA."})


def config_from_dict(raw):
    """Resolve a nested {section: {key: value}} mapping into a config."""
    for sec, entries in raw.items():
        if sec not in _SECTIONS:
            raise ParseError(f"unknown section [{sec}]")
        for key in entries:
            if (sec, key) not in _NAMES:
                raise ParseError(f"[{sec}] unknown key {key!r}")
    quant = raw.get("quantization", {})
    if "budgets" in quant and str(quant.get("levels", "")).strip():
        raise ParseError("[quantization] give either budgets or explicit levels, not both")
    v = {k.attr: k.kind.parse(k.where, str(raw.get(k.section, {}).get(k.key, k.default)))
         for k in _SCHEMA}

    try:
        base, _ = vi.parse_kind(v["preset"])
    except vi.UnknownKind:
        raise UnknownPreset(f"unknown problem preset {v['preset']!r}") from None
    except ValueError as exc:
        raise ParseError(f"[problem] preset: {exc}") from None
    M, d = v["M"], v["d"]
    if base == "bilinear" and d % 2:
        raise ParseError(f"[problem] d: bilinear problems need even dimension >= 2, got {d}")
    if v["levels"] and len(v["levels"]) != M:
        raise ParseError(f"[quantization] expected {M} level lists, got {len(v['levels'])}")
    if len(v["budgets"]) == 1:
        v["budgets"] = v["budgets"] * M
    if len(v["budgets"]) != M:
        raise ParseError(f"[quantization] expected {M} budgets, got {len(v['budgets'])}")
    if not v["layer_sizes"]:
        v["layer_sizes"] = _even_split(d, M)
    sizes = v["layer_sizes"]
    if len(sizes) != M or sum(sizes) != d or min(sizes) < 1:
        raise ParseError(f"[quantization] layer_sizes must be {M} positive ints summing to {d}")
    if v["quant_enabled"] and v["update_period"] > 0:
        alphas = [sequence_from_spec(t).alpha for t in v["levels"]] or v["budgets"]
        if max(alphas) >= v["grid"]:
            raise ParseError(f"[quantization] grid {v['grid']} must exceed every type's "
                             f"interior level count, here {max(alphas)}, to place levels")
    if v["schedule_kind"] == "alt" and not 0.0 < v["q_hat"] <= 0.25:
        raise ParseError(f"[schedule] q_hat must lie in (0, 1/4], got {v['q_hat']}")
    if v["schedule_kind"] == "constant" and v["c"] <= 0:
        raise ParseError("[schedule] c must be positive")
    return ExperimentConfig(**v)


def _even_split(d, M):
    """The default layer split: M near-equal sizes summing to d."""
    base, extra = divmod(d, M)
    return [base + (1 if i < extra else 0) for i in range(M)]


def load_config(path, overrides=None):
    """Parse an INI file into a resolved config, ``overrides`` laid on its keys."""
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keep K / M / T capitalized
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config {path!r}: {exc}") from None
    except configparser.Error as exc:
        raise ParseError(str(exc)) from None
    raw = {sec: dict(cp.items(sec)) for sec in cp.sections()}
    return config_from_dict(_overlay(raw, overrides))


def _sections(cfg):
    """The config as {section: {key: text}}; of budgets / levels, only the one in use.

    Values that ``config_from_dict`` derives are written as the source text
    they derive from: the default layer split as an empty ``layer_sizes``
    and equal budgets as one.  The text reloads to the same config, and an
    override of d or M resizes them again.
    """
    unused = "budgets" if cfg.levels else "levels"
    source = {
        "layer_sizes": [] if cfg.layer_sizes == _even_split(cfg.d, cfg.M) else cfg.layer_sizes,
        "budgets": cfg.budgets[:1] if len(set(cfg.budgets)) == 1 else cfg.budgets,
    }
    out = {}
    for k in _SCHEMA:
        if k.key != unused:
            value = source.get(k.attr, getattr(cfg, k.attr))
            out.setdefault(k.section, {})[k.key] = k.kind.dump(value)
    return out


def _overlay(base, extra):
    """``base`` with ``extra``'s {section: {key: value}} laid on top, as text.

    Naming either of budgets / levels drops both from ``base``: an overlay
    that picks one of the alternatives replaces the other.
    """
    out = {sec: dict(entries) for sec, entries in base.items()}
    for sec, entries in (extra or {}).items():
        target = out.setdefault(sec, {})
        if sec == "quantization" and _ALTERNATIVES & entries.keys():
            for key in _ALTERNATIVES:
                target.pop(key, None)
        target.update((key, str(value)) for key, value in entries.items())
    return out


def config_to_ini(cfg):
    """Serialize a resolved config back to INI text (valid load_config input)."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read_dict(_sections(cfg))
    return cp


def build_noise(cfg):
    if cfg.noise_kind == "none":
        noise = None
    elif cfg.noise_kind == "absolute":
        noise = vi.AbsoluteNoise(cfg.sigma)
    else:
        noise = vi.RelativeNoise(cfg.sigma)
    if noise is not None and cfg.clip > 0:
        noise = vi.AlmostSureClip(cfg.clip, noise)
    return noise


def build_problem(cfg):
    return vi.make_problem(cfg.preset, cfg.d, cfg.K, cfg.problem_seed,
                           noise=build_noise(cfg))


def build_family(cfg):
    if cfg.levels:
        seqs = [sequence_from_spec(tok) for tok in cfg.levels]
    else:
        seqs = [sequence_from_spec(f"uniform:{b}") for b in cfg.budgets]
    assignment = assignment_from_layer_sizes(cfg.layer_sizes)
    return LevelFamily(seqs, assignment, q=cfg.q)


def build_quant(cfg):
    if not cfg.quant_enabled:
        return None
    return solver.QuantizationConfig(
        family=build_family(cfg), protocol=cfg.protocol, scheme=cfg.scheme,
        update_period=cfg.update_period, grid=cfg.grid, estimator=cfg.estimator,
        samples_per_node=cfg.samples_per_node,
    )


def build_schedule(cfg):
    if cfg.schedule_kind == "general":
        return solver.GeneralRates()
    if cfg.schedule_kind == "alt":
        return solver.AltRates(cfg.q_hat)
    return solver.ConstantRates(cfg.c)


def fit_slope(rows, T):
    """Log-log slope of gap vs t over checkpoints with t >= T/100."""
    lo = max(1.0, T / 100.0)
    pts = [(row[0], row[1]) for row in rows if row[0] >= lo and row[1] > 0]
    if len(pts) < 2:
        return float("nan")
    ts = np.log10([p[0] for p in pts])
    gs = np.log10([p[1] for p in pts])
    return float(np.polyfit(ts, gs, 1)[0])


def execute(cfg):
    """Run the configured algorithm; returns (metrics, slope)."""
    problem = build_problem(cfg)
    quant = build_quant(cfg)
    if cfg.algorithm == "qoda":
        metrics = solver.run_qoda(problem, build_schedule(cfg), cfg.T,
                                  quant=quant, seed=cfg.seed)
    else:
        metrics = solver.run_extragradient_baseline(problem, cfg.T, quant=quant,
                                                    seed=cfg.seed, step=cfg.step)
    return metrics, fit_slope(metrics.rows, cfg.T)


def _csv_text(rows):
    lines = [",".join(solver.METRIC_COLUMNS)]
    for t, gap, gamma, eta, bits, calls, eps in rows:
        lines.append(
            f"{t},{gap:.12g},{gamma:.12g},{eta:.12g},{bits},{calls},{eps:.12g}"
        )
    return "\n".join(lines) + "\n"


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(path, text):
    """Write ``text`` to ``path``, making its parent directory first."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def _write_run(cfg, rows, result):
    """Write a run's rows to <out>.csv, ``result`` to <out>.json and its config to <out>.ini."""
    ini = io.StringIO()
    config_to_ini(cfg).write(ini)
    _write(cfg.out + ".csv", _csv_text(rows))
    _write(cfg.out + ".json", _json_text(result))
    _write(cfg.out + ".ini", ini.getvalue())


def _execute_recording_divergence(cfg):
    """``execute(cfg)``; a run that diverges leaves its files, then re-raises.

    Those are the rows it reached in <out>.csv, its config in <out>.ini and
    a JSON naming the error and its iteration in <out>.json.
    """
    try:
        return execute(cfg)
    except solver.Diverged as exc:
        _write_run(cfg, exc.rows, {"error": str(exc), "status": "diverged", "t": exc.t})
        raise


def run_experiment(cfg):
    """Execute one config and write <out>.csv, <out>.json, <out>.ini."""
    metrics, slope = _execute_recording_divergence(cfg)
    summary = dict(metrics.summary, slope=slope)
    _write_run(cfg, metrics.rows, summary)
    return summary


def mqv_study(cfg, probes=16):
    """Layer-wise vs pooled-global quantization objective on oracle samples.

    Evaluates the run's own node operators, without noise, at random probe
    points (K rows per point), estimates the magnitude CDFs, places optimal
    levels per type and for one shared global sequence on the pooled CDF,
    and returns both objectives.
    """
    if not cfg.quant_enabled:
        return None
    problem = build_problem(cfg)
    rng = default_rng(SeedSequence(entropy=cfg.problem_seed, spawn_key=(9,)))
    xs = problem.x1 + rng.standard_normal((probes, cfg.d))
    # One evaluation per probe: a stacked gemm would round unlike gemv.
    node_values = vi.node_evaluator(problem)
    samples = np.concatenate([node_values(x) for x in xs])

    family = build_family(cfg)
    layer_family, cdfs = solver.refresh_levels(samples, family, cfg.grid, "empirical")
    layer_val = adapt.mqv_objective(layer_family, cdfs)

    pooled = adapt.pooled_cdf(cdfs, family)
    global_budget = max(seq.alpha for seq in family.sequences)
    global_seq = adapt.optimize_levels(pooled, global_budget, cfg.grid)
    global_val = adapt.quantization_cost(pooled, global_seq)
    return {"layerwise": layer_val, "global": global_val}


def compare(cfgs, labels=None):
    """Run several configs that differ only in keys the schema lets vary.

    Returns a dict with per-run summaries and deltas against the first
    config; raises IncomparableConfigs when the fixed axes differ.  A config
    that diverges writes its files as ``run_experiment`` does.
    """
    if len(cfgs) < 2:
        raise IncomparableConfigs("need at least two configs to compare")
    differ = [k.where for k in _SCHEMA if not k.varies
              and len({k.kind.dump(getattr(c, k.attr)) for c in cfgs}) > 1]
    if differ:
        allowed = [k.where for k in _SCHEMA if k.varies]
        raise IncomparableConfigs(
            f"configs differ in {', '.join(differ)}; only {', '.join(allowed)} may vary")
    # mqv_study seeds its own generator, so running it first changes no
    # result, and a budget the grid cannot hold fails before any config runs.
    mqv = mqv_study(cfgs[0])
    if labels is None:
        labels = []
        for i, c in enumerate(cfgs):
            base = os.path.basename(c.out) or f"run{i}"
            labels.append(f"{base}#{i}" if base in labels else base)

    summaries = {}
    rows_by_label = {}
    for label, cfg in zip(labels, cfgs):
        metrics, slope = _execute_recording_divergence(cfg)
        summaries[label] = dict(metrics.summary, slope=slope)
        rows_by_label[label] = metrics.rows

    first = labels[0]
    base = summaries[first]
    vs_first = {}
    for label in labels[1:]:
        s = summaries[label]
        vs_first[label] = {
            "gap_delta": s["final_gap"] - base["final_gap"],
            "bits_ratio": s["total_bits"] / base["total_bits"] if base["total_bits"] else float("nan"),
            "oracle_ratio": s["oracle_calls_per_node"] / base["oracle_calls_per_node"],
        }

    threshold = max(s["final_gap"] for s in summaries.values())
    bits_to_threshold = {}
    for label in labels:
        hit = None
        for row in rows_by_label[label]:
            if row[1] <= threshold:
                hit = row[4]
                break
        bits_to_threshold[label] = hit

    return {
        "labels": labels,
        "summaries": summaries,
        "gap_at_T": {lb: summaries[lb]["final_gap"] for lb in labels},
        "vs_first": vs_first,
        "bits_to_gap_threshold": {"threshold": threshold, "bits": bits_to_threshold},
        "mqv": mqv,
    }


EXPERIMENT_PRESETS = {
    "bilinear-abs": {
        "problem": {"preset": "bilinear"},
        "noise": {"kind": "absolute", "sigma": "0.1"},
        "run": {"T": "10000", "out": "bilinear-abs"},
    },
    "cocoercive-rel": {
        "problem": {"preset": "cocoercive"},
        "noise": {"kind": "relative", "sigma": "0.5"},
        "run": {"T": "10000", "out": "cocoercive-rel"},
    },
    "bilinear-alt": {
        "problem": {"preset": "bilinear"},
        "noise": {"kind": "relative", "sigma": "0.5", "clip": "10"},
        "schedule": {"kind": "alt", "q_hat": "0.25"},
        "run": {"T": "10000", "out": "bilinear-alt"},
    },
}


def preset_config(name, overrides=None):
    """Resolve a named experiment preset, with optional section overrides."""
    if name not in EXPERIMENT_PRESETS:
        raise UnknownPreset(f"unknown experiment preset {name!r}; "
                            f"choices: {sorted(EXPERIMENT_PRESETS)}")
    return config_from_dict(_overlay(EXPERIMENT_PRESETS[name], overrides))


SUITES = ("rate-suite", "k-sweep", "halving")


def run_suite(name, out="suite", overrides=None):
    """Run a named collection of presets and write a suite-level JSON.

    A run's config lays ``overrides``, then its path under ``out``, over the
    suite's keys for that run.  An override of a key whose value differs
    between the suite's runs would collapse the axis the suite compares, so
    it raises ParseError.  Every config is built before ``out`` is created,
    so a rejected suite leaves no directory behind.
    """
    if name == "rate-suite":
        runs = {preset: (preset, {}) for preset in ("bilinear-abs", "cocoercive-rel")}
        labels = list(runs)
    elif name == "k-sweep":
        runs = {f"K{K}": ("bilinear-abs", {"problem": {"K": K}, "noise": {"sigma": "0.5"},
                                           "run": {"T": "2000"}}) for K in (1, 4, 16)}
        labels = [f"K={K}" for K in (1, 4, 16)]
    elif name == "halving":
        keys = {"quantization": {"update_period": "0"}, "run": {"T": "1000"}}
        runs = {"qoda": ("bilinear-abs", keys), "extragradient": (
            "bilinear-abs", _overlay(keys, {"run": {"algorithm": "extragradient"}}))}
        labels = list(runs)
    else:
        raise UnknownPreset(f"unknown suite {name!r}; choices: {sorted(SUITES)}")

    def build(extra):
        return [preset_config(preset, _overlay(_overlay(keys, extra),
                                               {"run": {"out": os.path.join(out, label)}}))
                for label, (preset, keys) in runs.items()]

    plain = [_sections(cfg) for cfg in build(None)]
    for sec, entries in (overrides or {}).items():
        for key in entries:
            if len({p.get(sec, {}).get(key) for p in plain}) > 1:
                raise ParseError(f"[{sec}] {key} differs between the runs of suite {name!r} "
                                 "and cannot be overridden")
    cfgs = build(overrides)
    if name == "rate-suite":
        result = {"slopes": {label: run_experiment(cfg)["slope"]
                             for label, cfg in zip(labels, cfgs)}}
    else:
        result = compare(cfgs, labels)
    _write(os.path.join(out, f"{name}.json"), _json_text(result))
    return result


def _load_run_arg(arg, overrides):
    if os.path.exists(arg):
        return load_config(arg, overrides)
    if arg in EXPERIMENT_PRESETS:
        return preset_config(arg, overrides)
    raise UnknownPreset(f"{arg!r} is neither a config file nor a preset; "
                        f"presets: {sorted(EXPERIMENT_PRESETS)}")


def _override_dict(pairs):
    """Parse ``section.key=value`` strings into a nested raw-config dict."""
    raw = {}
    for pair in pairs:
        target, eq, value = pair.partition("=")
        section, dot, key = target.partition(".")
        if not eq or not dot or not section or not key:
            raise ParseError(f"override must look like section.key=value, got {pair!r}")
        raw.setdefault(section, {})[key] = value
    return raw


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="quantvi",
        description="quantized VI solver experiments (CSV + JSON output)")
    sub = parser.add_subparsers(dest="command", required=True)
    # (command, help, positional, its options, default --out, what --set overrides)
    for command, text, arg, opts, out, scope in (
        ("run", "run one config file or preset", "config",
         {"help": "path to an INI config, or a preset name"}, None, " (repeatable)"),
        ("compare", "run several configs and diff them", "configs",
         {"nargs": "+", "help": "two or more INI configs"}, "compare",
         " in every compared config"),
        ("suite", "run a named preset collection", "name",
         {"help": f"one of {sorted(SUITES)}"}, "suite", " in every suite run"),
    ):
        p = sub.add_parser(command, help=text)
        p.add_argument(arg, **opts)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=out)
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help=f"override a config key{scope}")

    args = parser.parse_args(argv)
    try:
        if not args.out and args.command != "run":
            raise ParseError(f"{args.command} --out must not be empty")
        # --seed, and run's --out, are config keys: laid over --set, checked alike.
        opts = {"seed": args.seed, "out": args.out if args.command == "run" else None}
        overrides = _overlay(_override_dict(args.overrides),
                             {"run": {k: v for k, v in opts.items() if v is not None}})
        if args.command == "run":
            result = run_experiment(_load_run_arg(args.config, overrides))
        elif args.command == "compare":
            result = compare([load_config(p, overrides) for p in args.configs])
            _write(args.out + ".json", _json_text(result))
        else:
            result = run_suite(args.name, out=args.out, overrides=overrides)
        sys.stdout.write(_json_text(result))
    except Exception as exc:  # CLI boundary: report and exit nonzero
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
