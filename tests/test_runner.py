import configparser
import dataclasses
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from quantvi import runner
from quantvi.runner import (
    EXPERIMENT_PRESETS,
    IncomparableConfigs,
    ParseError,
    SUITES,
    UnknownPreset,
    build_family,
    build_noise,
    build_schedule,
    compare,
    config_from_dict,
    config_to_ini,
    fit_slope,
    load_config,
    main,
    mqv_study,
    preset_config,
    run_experiment,
    run_suite,
)
from quantvi import solver, vi


MINIMAL = {"problem": {"preset": "bilinear"}}


def _tiny(out, T=40, seed=0, extra=None):
    raw = {
        "problem": {"preset": "bilinear", "d": "6", "K": "2"},
        "noise": {"kind": "absolute", "sigma": "0.2"},
        "quantization": {"update_period": "0"},
        "run": {"T": str(T), "seed": str(seed), "out": out},
    }
    for sec, kv in (extra or {}).items():
        raw.setdefault(sec, {}).update(kv)
    return config_from_dict(raw)


def test_minimal_config_resolves_defaults():
    cfg = config_from_dict(MINIMAL)
    assert (cfg.d, cfg.K, cfg.T) == (20, 4, 10000)
    assert cfg.algorithm == "qoda"
    assert cfg.schedule_kind == "general"
    assert cfg.budgets == [3, 3]
    assert cfg.layer_sizes == [10, 10]
    assert cfg.q == 2
    assert cfg.quant_enabled


def test_unknown_sections_and_keys_rejected():
    with pytest.raises(ParseError):
        config_from_dict({"problem": {"preset": "bilinear"}, "badsec": {"x": "1"}})
    with pytest.raises(ParseError):
        config_from_dict({"problem": {"preset": "bilinear", "nope": "1"}})


def test_preset_required_and_validated():
    with pytest.raises(ParseError):
        config_from_dict({})
    with pytest.raises(UnknownPreset):
        config_from_dict({"problem": {"preset": "octonion"}})


def test_levels_and_budgets_conflict():
    with pytest.raises(ParseError):
        config_from_dict(
            {
                "problem": {"preset": "bilinear"},
                "quantization": {"budgets": "3", "levels": "0,0.5,1"},
            }
        )


def test_q_must_be_integer():
    with pytest.raises(ParseError):
        config_from_dict(
            {"problem": {"preset": "bilinear"}, "quantization": {"q": "2.5"}}
        )


def test_alt_schedule_validates_q_hat():
    with pytest.raises(ParseError):
        config_from_dict(
            {"problem": {"preset": "bilinear"}, "schedule": {"kind": "alt", "q_hat": "0.3"}}
        )
    cfg = config_from_dict(
        {"problem": {"preset": "bilinear"}, "schedule": {"kind": "alt", "q_hat": "0.25"}}
    )
    assert isinstance(build_schedule(cfg), solver.AltRates)


def test_run_section_validation():
    with pytest.raises(ParseError):
        config_from_dict({"problem": {"preset": "bilinear"}, "run": {"T": "0"}})
    with pytest.raises(ParseError):
        config_from_dict({"problem": {"preset": "bilinear"}, "run": {"algorithm": "sgd"}})
    with pytest.raises(ParseError):
        config_from_dict({"problem": {"preset": "bilinear"}, "run": {"checkpoints": "all"}})


def test_explicit_levels_round_through_family():
    cfg = config_from_dict(
        {
            "problem": {"preset": "bilinear", "d": "6"},
            "quantization": {"M": "2", "levels": "0,0.5,1 | 0,0.25,1", "layer_sizes": "2,4"},
        }
    )
    fam = build_family(cfg)
    assert fam.num_types == 2
    assert fam.sequences[1].levels.tolist() == [0.0, 0.25, 1.0]
    assert fam.counts.tolist() == [2, 4]


def test_build_noise_variants():
    assert build_noise(_tiny("x")) is not None
    none_cfg = config_from_dict(
        {"problem": {"preset": "bilinear"}, "noise": {"kind": "none"}}
    )
    assert build_noise(none_cfg) is None
    clip_cfg = config_from_dict(
        {"problem": {"preset": "bilinear"}, "noise": {"kind": "relative", "clip": "2.0"}}
    )
    noise = build_noise(clip_cfg)
    assert isinstance(noise, vi.AlmostSureClip)
    assert vi.is_relative(noise)


def test_config_ini_roundtrip_is_lossless(tmp_path):
    cfgs = [
        preset_config("bilinear-alt", {"noise": {"sigma": "0.1234567890123"}}),
        preset_config("bilinear-abs", {"quantization": {"levels": "uniform:2 | 0,0.3,1"},
                                       "run": {"step": repr(1 / 3)}}),
        # Unequal budgets and a split other than the default are kept as given.
        preset_config("bilinear-abs", {"quantization": {
            "M": "3", "budgets": "2,3,5", "layer_sizes": "4,10,6"}}),
    ]
    assert cfgs[0].sigma == 0.1234567890123
    for i, cfg in enumerate(cfgs):
        path = str(tmp_path / f"roundtrip{i}.ini")
        with open(path, "w") as fh:
            config_to_ini(cfg).write(fh)
        assert load_config(path) == cfg


def test_readme_config_block_is_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme[readme.index("```ini\n[problem]") + len("```ini\n"):]
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
    cp.optionxform = str
    cp.read_string(block[:block.index("```")])
    raw = {sec: dict(cp.items(sec)) for sec in cp.sections()}
    assert list(raw) == ["problem", "noise", "quantization", "schedule", "run"]
    assert config_from_dict(raw) == config_from_dict(MINIMAL)


def test_load_config_reports_parse_errors(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("problem]\npreset = bilinear\n")
    with pytest.raises(ParseError):
        load_config(str(bad))


def test_fit_slope_recovers_power_laws():
    rows = [(t, 10.0 * t ** -0.5) for t in (1000, 2000, 5000, 10000)]
    assert fit_slope(rows, 10000) == pytest.approx(-0.5, abs=1e-9)
    rows = [(t, 3.0 * t ** -1.0) for t in (100, 1000, 10000)]
    assert fit_slope(rows, 10000) == pytest.approx(-1.0, abs=1e-9)
    assert np.isnan(fit_slope([(1, 0.0)], 10))
    # Points before T / 100 are excluded from the fit window.
    rows = [(1, 1e9), (100, 1.0), (10000, 0.01)]
    assert fit_slope(rows, 10000) == pytest.approx(-1.0, abs=1e-9)


def test_presets_resolve_and_differ():
    assert set(EXPERIMENT_PRESETS) == {"bilinear-abs", "cocoercive-rel", "bilinear-alt"}
    for name in EXPERIMENT_PRESETS:
        cfg = preset_config(name)
        assert cfg.T == 10000
    assert preset_config("bilinear-alt").schedule_kind == "alt"
    assert preset_config("cocoercive-rel").noise_kind == "relative"
    with pytest.raises(UnknownPreset):
        preset_config("nope")


def test_preset_overrides_deep_merge():
    cfg = preset_config("bilinear-abs", {"run": {"T": "55"}, "problem": {"d": "8"}})
    assert cfg.T == 55 and cfg.d == 8
    assert cfg.noise_kind == "absolute"  # preset value survives


def test_run_experiment_writes_csv_json_ini(tmp_path):
    out = str(tmp_path / "exp")
    cfg = _tiny(out, T=30)
    summary = run_experiment(cfg)
    csv_text = open(out + ".csv").read()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "t,gap,gamma,eta,bits,oracle_calls,eps_q"
    assert len(lines) == 1 + len(solver._checkpoints(30))
    loaded = json.load(open(out + ".json"))
    assert loaded == summary
    for key in ("final_gap", "slope", "total_bits", "eps_bar", "eps_hat", "n_bar",
                "oracle_calls_per_node"):
        assert key in summary
    # The echoed config reproduces the exact run.
    cfg2 = dataclasses.replace(load_config(out + ".ini"), out=str(tmp_path / "exp2"))
    run_experiment(cfg2)
    assert open(out + ".csv", "rb").read() == open(str(tmp_path / "exp2") + ".csv", "rb").read()


def test_rerun_same_seed_is_byte_identical(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    run_experiment(_tiny(a, T=25, seed=3))
    run_experiment(_tiny(b, T=25, seed=3))
    assert open(a + ".csv", "rb").read() == open(b + ".csv", "rb").read()


def test_compare_requires_matching_axes(tmp_path):
    cfg_a = _tiny(str(tmp_path / "a"), T=20)
    cfg_small = dataclasses.replace(cfg_a, d=8, layer_sizes=[4, 4])
    with pytest.raises(IncomparableConfigs, match=r"differ in \[problem\] d, "
                                                  r"\[quantization\] layer_sizes;"):
        compare([cfg_a, cfg_small])
    with pytest.raises(IncomparableConfigs):
        compare([cfg_a])


def test_compare_reports_deltas(tmp_path):
    cfg_a = _tiny(str(tmp_path / "a"), T=20, seed=0)
    cfg_b = dataclasses.replace(cfg_a, K=4, out=str(tmp_path / "b"))
    result = compare([cfg_a, cfg_b], labels=["K2", "K4"])
    assert result["labels"] == ["K2", "K4"]
    assert set(result["summaries"]) == {"K2", "K4"}
    assert set(result["gap_at_T"]) == {"K2", "K4"}
    vs = result["vs_first"]["K4"]
    assert vs["oracle_ratio"] == pytest.approx(1.0)
    assert vs["bits_ratio"] == pytest.approx(2.0, rel=0.05)
    assert result["mqv"]["layerwise"] <= result["mqv"]["global"] + 1e-12


def test_mqv_study_layerwise_at_most_global():
    cfg = _tiny("unused", T=10, extra={"quantization": {"M": "2", "budgets": "3"}})
    study = mqv_study(cfg, probes=8)
    assert study["layerwise"] <= study["global"] + 1e-12


def test_run_suite_halving(tmp_path):
    result = run_suite("halving", seed=0, out=str(tmp_path / "s"),
                       overrides={"run": {"T": "12"}, "problem": {"d": "6", "K": "2"}})
    assert result["labels"] == ["qoda", "extragradient"]
    ratio = result["vs_first"]["extragradient"]["oracle_ratio"]
    assert ratio == pytest.approx(2.0)
    assert os.path.exists(str(tmp_path / "s") + "/halving.json")
    with pytest.raises(KeyError):
        run_suite("nonesuch", out=str(tmp_path / "s2"))
    assert set(SUITES) == {"rate-suite", "k-sweep", "halving"}


def test_cli_run_with_overrides(tmp_path, capsys):
    out = str(tmp_path / "cli")
    code = main([
        "run", "bilinear-abs", "--out", out, "--seed", "2",
        "--set", "run.T=16", "--set", "problem.d=6", "--set", "problem.K=2",
        "--set", "quantization.layer_sizes=3,3",
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["T"] == 16
    assert os.path.exists(out + ".csv")


def test_cli_rejects_a_level_budget_the_grid_cannot_place(tmp_path, capsys):
    # 600 interior levels need a placement grid of more than 600 points;
    # the run used to fail only at its first level refresh, writing nothing.
    out = str(tmp_path / "big")
    big = ["--set", "quantization.budgets=600", "--set", "quantization.grid=600"]
    assert main(["run", "bilinear-abs", "--out", out, *_SMALL, *big]) == 1
    assert "[quantization] grid" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    explicit = ["--set", "quantization.levels=uniform:2 | uniform:8",
                "--set", "quantization.grid=8"]
    assert main(["run", "bilinear-abs", "--out", out, *_SMALL, *explicit]) == 1
    assert "[quantization] grid" in capsys.readouterr().err
    # Without level refreshes the grid is never used.
    for args in (big, explicit):
        assert main(["run", "bilinear-abs", "--out", out, *_SMALL, *args,
                     "--set", "quantization.update_period=0"]) == 0
    assert os.path.exists(out + ".csv")


def test_cli_compare_rejects_a_level_budget_the_grid_cannot_place(tmp_path, monkeypatch, capsys):
    # With no level refreshes every run is valid, but compare's mqv study
    # places the first config's levels on the grid.
    paths = []
    for seed in (0, 1):
        path = tmp_path / f"s{seed}.ini"
        path.write_text("[problem]\npreset = bilinear\nd = 6\nK = 2\n\n"
                        "[quantization]\nlayer_sizes = 3,3\nbudgets = 600\ngrid = 600\n"
                        f"update_period = 0\n\n[run]\nT = 8\nseed = {seed}\n")
        paths.append(str(path))
    runs = []
    monkeypatch.setattr(runner, "execute", lambda cfg: runs.append(cfg))
    out = str(tmp_path / "cmp")
    assert main(["compare", *paths, "--out", out]) == 1
    assert "600 interior levels need a grid of > 600 points" in capsys.readouterr().err
    assert runs == []
    assert not os.path.exists(out + ".json")


def test_cli_run_divergence_names_its_iteration(tmp_path, capsys):
    # A constant rate of 50 makes the iterates blow up until a message norm
    # no longer fits the 32-bit wire format, at t = 21.
    code = main([
        "run", "bilinear-abs", "--out", str(tmp_path / "div"), *_SMALL,
        "--set", "run.T=64", "--set", "schedule.kind=constant", "--set", "schedule.c=50",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "diverged at iteration 21" in err
    assert "overflows the 32-bit wire format" in err


def test_cli_unquantized_divergence_names_its_first_overflow(tmp_path, capsys):
    # Without quantization no wire-format check stops the run; the first
    # floating-point overflow does, long before the gap at t = 128 turns
    # non-finite.
    code = main([
        "run", "bilinear-abs", "--out", str(tmp_path / "div"),
        "--set", "quantization.enabled=false", "--set", "schedule.kind=constant",
        "--set", "schedule.c=50", "--set", "problem.d=6", "--set", "problem.K=2",
        "--set", "run.T=400",
    ])
    assert code == 1
    err = capsys.readouterr().err
    match = re.search(r"diverged at iteration (\d+): overflow encountered", err)
    assert match and int(match.group(1)) < 128


def test_cli_rejects_bad_input(tmp_path, capsys):
    assert main(["run", "nope"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["run", "bilinear-abs", "--set", "run.T"]) == 1
    assert "section.key=value" in capsys.readouterr().err


def test_cli_suite_with_overrides(tmp_path, capsys):
    code = main([
        "suite", "halving", "--out", str(tmp_path / "s"),
        "--set", "run.T=12", "--set", "problem.d=6", "--set", "problem.K=2",
        "--set", "quantization.layer_sizes=3,3",
    ])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["vs_first"]["extragradient"]["oracle_ratio"] == pytest.approx(2.0)


def test_cli_compare(tmp_path, capsys):
    paths = []
    for i, seed in enumerate((0, 1)):
        cfg = _tiny(str(tmp_path / f"r{i}"), T=12, seed=seed)
        with open(str(tmp_path / f"c{i}.ini"), "w") as fh:
            config_to_ini(cfg).write(fh)
        paths.append(str(tmp_path / f"c{i}.ini"))
    code = main(["compare", *paths, "--out", str(tmp_path / "cmp")])
    assert code == 0
    result = json.load(open(str(tmp_path / "cmp") + ".json"))
    assert len(result["summaries"]) == 2


_SMALL = ["--set", "run.T=8", "--set", "problem.d=6", "--set", "problem.K=2",
          "--set", "quantization.layer_sizes=3,3"]


def test_cli_set_switches_between_budgets_and_levels(tmp_path, capsys):
    lv = str(tmp_path / "lv")
    assert main(["run", "bilinear-abs", "--out", lv, *_SMALL,
                 "--set", "quantization.levels=uniform:2 | exponential:2"]) == 0
    assert load_config(lv + ".ini").levels == ["uniform:2", "exponential:2"]
    bd = str(tmp_path / "bd")
    assert main(["run", lv + ".ini", "--out", bd, "--set", "quantization.budgets=4"]) == 0
    cfg = load_config(bd + ".ini")
    assert (cfg.levels, cfg.budgets) == ([], [4, 4])
    # Naming both in one command is still a conflict.
    assert main(["run", "bilinear-abs", *_SMALL, "--set", "quantization.budgets=4",
                 "--set", "quantization.levels=uniform:2 | uniform:2"]) == 1
    assert "not both" in capsys.readouterr().err


def test_cli_compare_set_switches_between_budgets_and_levels(tmp_path, capsys):
    def write(name, cfg):
        path = str(tmp_path / f"{name}.ini")
        with open(path, "w") as fh:
            config_to_ini(cfg).write(fh)
        return path

    cfgs = [_tiny(str(tmp_path / f"r{seed}"), T=8, seed=seed) for seed in (0, 1)]
    with_budgets = [write(f"b{i}", c) for i, c in enumerate(cfgs)]
    with_levels = [write(f"l{i}", dataclasses.replace(c, levels=["uniform:1"] * 2))
                   for i, c in enumerate(cfgs)]
    out = str(tmp_path / "cmp")
    for paths, pair in ((with_budgets, "quantization.levels=uniform:2 | exponential:2"),
                        (with_levels, "quantization.budgets=4")):
        assert main(["compare", *paths, "--out", out, "--set", pair]) == 0
        assert len(json.load(open(out + ".json"))["summaries"]) == 2
    capsys.readouterr()


def test_cli_run_set_resizes_derived_keys(tmp_path, capsys):
    # The default layer split and the budgets broadcast to M follow d and M.
    small = ["--set", "run.T=8", "--set", "problem.K=2"]
    out = str(tmp_path / "d6")
    assert main(["run", "bilinear-abs", "--out", out, *small, "--set", "problem.d=6"]) == 0
    cfg = load_config(out + ".ini")
    assert (cfg.d, cfg.layer_sizes, cfg.budgets) == (6, [3, 3], [3, 3])
    out = str(tmp_path / "m3")
    assert main(["run", "bilinear-abs", "--out", out, *small, "--set", "quantization.M=3"]) == 0
    cfg = load_config(out + ".ini")
    assert (cfg.M, cfg.layer_sizes, cfg.budgets) == (3, [7, 7, 6], [3, 3, 3])
    # A run's own .ini names the source keys, so the same overrides resize it.
    own = str(tmp_path / "own")
    assert main(["run", "bilinear-abs", "--out", own, *small]) == 0
    out = str(tmp_path / "own-d6")
    assert main(["run", own + ".ini", "--out", out, "--set", "problem.d=6"]) == 0
    cfg = load_config(out + ".ini")
    assert (cfg.d, cfg.layer_sizes, cfg.budgets) == (6, [3, 3], [3, 3])
    out = str(tmp_path / "own-m3")
    assert main(["run", own + ".ini", "--out", out, "--set", "quantization.M=3"]) == 0
    cfg = load_config(out + ".ini")
    assert (cfg.M, cfg.layer_sizes, cfg.budgets) == (3, [7, 7, 6], [3, 3, 3])
    capsys.readouterr()


def test_cli_compare_set_resizes_derived_keys(tmp_path, capsys):
    paths = []
    for seed in (0, 1):
        path = tmp_path / f"s{seed}.ini"
        path.write_text("[problem]\npreset = bilinear\nd = 8\nK = 2\n\n"
                        f"[run]\nT = 8\nseed = {seed}\n")
        paths.append(str(path))
    out = str(tmp_path / "cmp")
    assert main(["compare", *paths, "--out", out, "--set", "problem.d=6"]) == 0
    assert len(json.load(open(out + ".json"))["summaries"]) == 2
    capsys.readouterr()
