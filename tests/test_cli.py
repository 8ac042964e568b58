"""Config parsing, experiment orchestration, result files, exit codes."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import infconv
from infconv import (
    CornerAllocation,
    Entropic,
    NegBeta,
    ProportionalAllocation,
    Uniform,
    stratified_sample,
)
from infconv import cli, sharing
from infconv.cli import (
    ConfigError,
    compare_reports,
    load_experiment,
    main,
    parse_experiment,
    render_experiment,
    run_experiment,
)

MINIMAL = """\
name = demo
distribution = uniform(-1.0,1.0)
rho1 = entropic(beta=2.0)
rho2 = entropic(beta=3.0)
"""

TINY_RUN = """\
name = tiny
distribution = uniform(-1.0,1.0)
rho1 = entropic(beta=2.0)
rho2 = entropic(beta=3.0)
seed = 5
n_samples = 400
batch_size = 50
epochs = 3
learning_rate = 0.001
ensemble_size = 2
hidden_widths = 8,8
activation = relu
"""


def _nine_sig_idempotent(text: str) -> bool:
    return text == format(float(text), ".9g")


# -------------------------------------------------------------------- parsing


def test_parse_minimal_uses_desk_defaults():
    spec = parse_experiment(MINIMAL)
    assert spec.name == "demo"
    assert spec.distribution == Uniform(-1.0, 1.0)
    assert spec.rho1 == Entropic(2.0)
    assert spec.rho2 == Entropic(3.0)
    assert spec.profile == "desk"
    cfg = spec.train
    assert cfg.base_seed == 0
    assert cfg.n_samples == 20_000
    assert cfg.batch_size == 1_000
    assert cfg.epochs == 150
    assert cfg.learning_rate == 1e-4
    assert cfg.ensemble_size == 3
    assert cfg.hidden_widths == (64, 64)
    assert cfg.activation == "relu"
    assert cfg.patience == 10
    assert cfg.threshold == 1e-6
    assert cfg.factor == 0.1
    assert cfg.min_lr == 0.0
    assert spec.oracle_segments is None
    assert spec.oracle_levels is None
    assert spec.out_dir == "results/demo"


def test_parse_render_round_trip():
    text = MINIMAL + "profile = paper\nseed = 42\noracle_segments = 5\noracle_levels = 3\n"
    spec = parse_experiment(text)
    rendered = render_experiment(spec)
    again = parse_experiment(rendered)
    assert again == spec
    assert render_experiment(again) == rendered  # canonical fixed point


def test_parse_ignores_comments_blanks_and_key_case():
    text = (
        "# experiment header\n"
        "NAME = demo\n"
        "\n"
        "Distribution = uniform(-1.0,1.0)  # support\n"
        "rho1 = ENTROPIC(2)\n"
        "rho2 = es(0.8)\n"
    )
    spec = parse_experiment(text)
    assert spec.name == "demo"
    assert spec.rho1 == Entropic(2.0)


def test_parse_paper_profile_defaults():
    spec = parse_experiment(MINIMAL + "profile = paper\n")
    cfg = spec.train
    assert cfg.n_samples == 100_000
    assert cfg.epochs == 300
    assert cfg.learning_rate == 1e-6
    assert cfg.hidden_widths == (100, 100, 100)
    assert cfg.batch_size == 1_000


def test_parse_paper_profile_shortens_distortion_runs():
    text = (
        "name = dist\n"
        "distribution = uniform(-1.0,1.0)\n"
        "rho1 = distortion(0.5*es(0.9)+0.5*es(0.7))\n"
        "rho2 = entropic(1.0)\n"
        "profile = paper\n"
    )
    assert parse_experiment(text).train.epochs == 200
    # explicit epochs beat the profile default
    assert parse_experiment(text + "epochs = 77\n").train.epochs == 77


def test_parse_unknown_key_points_at_line():
    with pytest.raises(ConfigError, match=r"line 5: unknown key 'flavor'"):
        parse_experiment(MINIMAL + "flavor = mild\n")


def test_parse_duplicate_key_rejected():
    with pytest.raises(ConfigError, match=r"line 5: duplicate key 'name'"):
        parse_experiment(MINIMAL + "NAME = other\n")


def test_parse_missing_required_key():
    with pytest.raises(ConfigError, match=r"missing required key 'rho2'"):
        parse_experiment("name = x\ndistribution = uniform(-1.0,1.0)\nrho1 = es(0.9)\n")


def test_parse_bad_value_names_line_and_field():
    with pytest.raises(ConfigError, match=r"line 5: field 'epochs'"):
        parse_experiment(MINIMAL + "epochs = soon\n")
    with pytest.raises(ConfigError, match=r"line 5: field 'hidden_widths'"):
        parse_experiment(MINIMAL + "hidden_widths = 8,wide\n")
    with pytest.raises(ConfigError, match=r"line 2: field 'distribution'"):
        parse_experiment(MINIMAL.replace("uniform(-1.0,1.0)", "uniform(1.0)"))


def test_parse_malformed_line_rejected():
    with pytest.raises(ConfigError, match=r"line 5: expected 'key = value'"):
        parse_experiment(MINIMAL + "just some words\n")
    with pytest.raises(ConfigError, match=r"line 5: empty value for key 'seed'"):
        parse_experiment(MINIMAL + "seed =\n")


def test_parse_profile_and_seed_validation():
    with pytest.raises(ConfigError, match="profile"):
        parse_experiment(MINIMAL + "profile = bench\n")
    with pytest.raises(ConfigError, match="invalid training configuration"):
        parse_experiment(MINIMAL + "seed = -1\n")
    with pytest.raises(ConfigError, match="invalid training configuration"):
        parse_experiment(MINIMAL + "n_samples = 100\nbatch_size = 200\n")


def test_parse_oracle_keys_must_pair():
    with pytest.raises(ConfigError, match="together"):
        parse_experiment(MINIMAL + "oracle_segments = 5\n")
    spec = parse_experiment(MINIMAL + "oracle_segments = 5\noracle_levels = 3\n")
    assert (spec.oracle_segments, spec.oracle_levels) == (5, 3)


# ------------------------------------------------------------ load + override


def test_load_experiment_applies_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(MINIMAL + "seed = 1\n", encoding="utf-8")
    spec = load_experiment(path, profile="paper", seed=9, out="elsewhere")
    assert spec.profile == "paper"
    assert spec.train.base_seed == 9
    assert spec.out_dir == "elsewhere"
    plain = load_experiment(path)
    assert plain.profile == "desk"
    assert plain.train.base_seed == 1


def test_load_experiment_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_experiment("no/such/place.cfg")


# -------------------------------------------------------------- run end to end


def test_run_command_writes_stable_files(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_RUN, encoding="utf-8")
    out = tmp_path / "out"

    assert main(["run", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "relative error" in stdout

    names = ["report.json", "loss_history.csv", "allocation_curve.csv"]
    first = {}
    for name in names:
        path = out / name
        assert path.exists()
        first[name] = path.read_bytes()
        assert first[name].endswith(b"\n")

    report = json.loads(first["report.json"])
    assert list(report) == [
        "name", "version", "config",
        "final_loss_mean", "final_loss_std", "ensemble_final_loss",
        "eval_loss_mean", "eval_loss_std", "ensemble_eval_loss",
        "analytic_infimum", "relative_error", "relative_error_std", "l2_allocation_error",
        "allocation_cash_offset",
        "oracle_value", "oracle_slopes", "oracle_evaluations", "allocation_curve",
    ]
    assert list(report["config"]) == [
        "name", "distribution", "rho1", "rho2", "profile", "seed",
        "n_samples", "batch_size", "epochs", "learning_rate", "ensemble_size",
        "hidden_widths", "activation", "patience", "threshold", "factor", "min_lr",
        "out_dir",
    ]
    assert list(report["allocation_curve"]) == ["x", "phi1_mean", "phi1_std", "phi2_mean", "phi2_std"]
    assert report["name"] == "tiny"
    assert report["version"].startswith("infconv-")
    assert report["config"]["activation"] == "relu"
    assert report["config"]["n_samples"] == "400"
    assert report["analytic_infimum"] is not None
    assert report["relative_error"] is not None
    assert report["oracle_value"] is None
    curve = report["allocation_curve"]
    assert len(curve["x"]) == 401
    total = np.array(curve["phi1_mean"]) + np.array(curve["phi2_mean"])
    assert np.allclose(total, np.array(curve["x"]), rtol=0.0, atol=1e-8)

    history_lines = first["loss_history.csv"].decode().splitlines()
    assert history_lines[0] == "epoch,mean_loss,std_loss,lr"
    assert len(history_lines) == 1 + 3  # header plus one row per epoch
    for line in history_lines[1:]:
        epoch, *floats = line.split(",")
        assert epoch.isdigit()
        assert all(_nine_sig_idempotent(s) for s in floats)

    curve_lines = first["allocation_curve.csv"].decode().splitlines()
    assert curve_lines[0] == "x,phi1_mean,phi1_std,phi2_mean,phi2_std"
    assert len(curve_lines) == 1 + 401
    assert all(_nine_sig_idempotent(s) for s in curve_lines[200].split(","))

    # identical run: every output byte-identical
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    for name in names:
        assert (out / name).read_bytes() == first[name]


def test_run_evaluates_each_network_once_per_point_set(monkeypatch):
    # training sample, evaluation grid, L2 grid and curve grid: each member's
    # two networks run once on each, and training makes no forward call
    sizes = Counter()
    real_forward = sharing.forward

    def counting_forward(mlp, xs):
        sizes[len(xs)] += 1
        return real_forward(mlp, xs)

    monkeypatch.setattr(sharing, "forward", counting_forward)
    spec = parse_experiment(TINY_RUN)
    report, _ = run_experiment(spec)
    assert report.l2_allocation_error is not None
    members = spec.train.ensemble_size
    assert sizes == {400: 2 * members, 200_001: 2 * members, 10_001: 2 * members, 401: 2 * members}


class _Shifted:
    """An allocation whose first share is exact's plus shift(x)."""

    def __init__(self, exact, shift):
        self.exact, self.shift = exact, shift

    def first(self, xs):
        return self.exact.first(xs) + self.shift(xs)


@pytest.mark.parametrize("exact", [ProportionalAllocation(0.4), CornerAllocation(True), CornerAllocation(False)])
@pytest.mark.parametrize("c", [-0.75, 0.0, 0.3, 2.5])
def test_allocation_error_profiles_out_the_cash_constant(exact, c):
    # a cash transfer leaves the pooled risk unchanged, so an exact share
    # shifted by c has no allocation error, only the offset c
    xs = stratified_sample(Uniform(-1.0, 1.0), 10_001)
    error, offset = cli._l2_and_cash_offset(_Shifted(exact, lambda t: c), exact, xs)
    assert error < 1e-28
    assert abs(offset - c) < 1e-15
    # with a shape error as well, the plain l2_error is the profiled error plus c**2
    bent = _Shifted(exact, lambda t: c + 0.1 * t**2)
    error, offset = cli._l2_and_cash_offset(bent, exact, xs)
    assert error > 1e-4
    assert abs(error + offset**2 - sharing.l2_error(bent, exact, xs)) < 1e-15


def test_run_divergence_exits_3_with_partial_history(tmp_path, capsys):
    cfg = tmp_path / "explode.cfg"
    cfg.write_text(TINY_RUN.replace("learning_rate = 0.001", "learning_rate = 1e300"),
                   encoding="utf-8")
    out = tmp_path / "boom"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert "diverged" in capsys.readouterr().err
    partial = (out / "partial_history.csv").read_text(encoding="utf-8")
    lines = partial.splitlines()
    assert lines[0] == "member,epoch,loss"
    # divergence in the first epoch leaves no completed rows; later rows are
    # member,epoch indices plus a loss rendered at 9 significant digits
    for line in lines[1:]:
        member, epoch, loss = line.split(",")
        assert member.isdigit() and epoch.isdigit()
        float(loss)


def test_run_divergence_prints_no_raw_numpy_warning(tmp_path):
    # the network passes overflow; training refuses the values itself, so
    # even under warnings-as-errors the run ends in the exit-3 report
    cfg = tmp_path / "explode.cfg"
    cfg.write_text(
        TINY_RUN.replace("learning_rate = 0.001", "learning_rate = 1e300")
        .replace("n_samples = 400", "n_samples = 200").replace("hidden_widths = 8,8", "hidden_widths = 4"),
        encoding="utf-8",
    )
    src = str(Path(infconv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for flags in ([], ["-W", "error::RuntimeWarning"]):
        done = subprocess.run(
            [sys.executable, *flags, "-m", "infconv", "run", str(cfg), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120, check=False,
        )
        assert done.returncode == 3, done.stderr
        assert "diverged" in done.stderr
        assert "RuntimeWarning" not in done.stderr


def test_run_epoch_end_divergence_exits_3(tmp_path, capsys, monkeypatch):
    # finite batch losses whose epoch mean overflows to inf
    loss_and_cotangents = sharing.batch_loss_and_cotangents

    def huge(*args):
        _, cot1, cot2 = loss_and_cotangents(*args)
        return 1e308, cot1, cot2

    monkeypatch.setattr(sharing, "batch_loss_and_cotangents", huge)
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(TINY_RUN, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    # the epoch's mean fails after its last batch, batch 7 of 8, and the cause is named
    err = capsys.readouterr().err
    assert "member 0 failed at epoch 0, batch 7" in err
    assert "non-finite epoch loss" in err
    assert (out / "partial_history.csv").exists()


def test_run_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(MINIMAL + "flavor = mild\n", encoding="utf-8")
    assert main(["run", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "absent.cfg")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_commands_cite_the_config_file_line(tmp_path, capsys, command):
    cfg = tmp_path / "commented.cfg"
    cfg.write_text(
        "# experiment\n\n" + MINIMAL.replace("\n", "\n\n", 2) + "epochs = ten\n",
        encoding="utf-8",
    )
    assert cfg.read_text(encoding="utf-8").splitlines()[8] == "epochs = ten"
    assert main([command, str(cfg), "--seed", "3"]) == 2
    assert "line 9: field 'epochs'" in capsys.readouterr().err


def test_run_deeply_nested_spec_exits_2(tmp_path, capsys):
    cfg = tmp_path / "deep.cfg"
    deep = "mix(1*" * 1000 + "es(0.5)" + ")" * 1000
    cfg.write_text(MINIMAL.replace("entropic(beta=2.0)", deep), encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: line 3: field 'rho1'")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "shapes", ["2, 1e155", "50, 1e155", "3.556101372430057e-307, 2.2250738585072014e-308"]
)
def test_run_negbeta_shapes_without_finite_quantiles_exit_2(tmp_path, capsys, shapes):
    # betaincinv returns NaN quantiles for these shapes
    cfg = tmp_path / "negbeta.cfg"
    cfg.write_text(MINIMAL.replace("uniform(-1.0,1.0)", f"negbeta({shapes})"), encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: line 2: field 'distribution'")
    assert not (tmp_path / "out").exists()


def test_run_uniform_wider_than_float64_exits_2(tmp_path, capsys):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(MINIMAL.replace("uniform(-1.0,1.0)", "uniform(-1e308,1e308)"), encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: line 2: field 'distribution'")
    assert "too wide for float64" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "line", ["patience = -1", "factor = 1.5", "threshold = -1.0", "min_lr = -1.0"]
)
def test_run_bad_plateau_setting_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "plateau.cfg"
    cfg.write_text(MINIMAL + line + "\n", encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_small_beta_entropic_pair(tmp_path, capsys):
    # entropic(0.001) twice pools to beta = 0.002, whose exponential layer at
    # the lower support end is 1000 times narrower than the support
    cfg = tmp_path / "small_beta.cfg"
    cfg.write_text(
        TINY_RUN.replace("beta=2.0", "beta=0.001").replace("beta=3.0", "beta=0.001")
        .replace("epochs = 3", "epochs = 1").replace("ensemble_size = 2", "ensemble_size = 1"),
        encoding="utf-8",
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    beta = 0.002
    closed = 1.0 + beta * np.log(beta * -np.expm1(-2.0 / beta) / 2.0)
    assert report["analytic_infimum"] == pytest.approx(closed, rel=1e-8)


def _training_forbidden(*args, **kwargs):
    raise AssertionError("train_ensemble was called")


def test_run_unresolvable_reference_exits_2_before_training(tmp_path, capsys, monkeypatch):
    # the pooled beta of 1e-290 makes a boundary layer at -1 thinner than
    # every quadrature node's offset from it
    monkeypatch.setattr(cli, "train_ensemble", _training_forbidden)
    cfg = tmp_path / "sharp.cfg"
    cfg.write_text(
        "name = sharp\n"
        "distribution = uniform(-1, 1)\n"
        "rho1 = entropic(beta=5e-291)\n"
        "rho2 = entropic(beta=5e-291)\n"
        "n_samples = 400\nbatch_size = 50\nepochs = 1\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_run_over_budget_oracle_exits_4_before_training(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "train_ensemble", _training_forbidden)
    cfg = tmp_path / "big.cfg"
    cfg.write_text(
        MINIMAL + "n_samples = 200\nbatch_size = 50\n"
        "oracle_segments = 40\noracle_levels = 8\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 4
    assert "budget" in capsys.readouterr().err
    assert not out.exists()


def test_python_m_infconv_runs_without_warnings():
    src = str(Path(infconv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "infconv", "--version"],
        capture_output=True, text=True, env=env, timeout=60, check=False,
    )
    assert done.returncode == 0
    assert done.stdout.startswith("infconv-")
    assert done.stderr == ""


# --------------------------------------------------------------------- oracle


def test_oracle_command_solves_and_reruns_identically(tmp_path, capsys):
    cfg = tmp_path / "oracle.cfg"
    cfg.write_text(
        "name = tails\n"
        "distribution = uniform(-1.0,1.0)\n"
        "rho1 = es(0.8)\n"
        "rho2 = es(0.7)\n"
        "n_samples = 150\n"
        "batch_size = 50\n"
        "oracle_segments = 4\n"
        "oracle_levels = 3\n",
        encoding="utf-8",
    )
    out = tmp_path / "res"
    assert main(["oracle", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "minimum" in stdout

    payload = json.loads((out / "oracle.json").read_text(encoding="utf-8"))
    assert set(payload) == {"value", "slopes", "knots", "resolution", "evaluations"}
    assert all(s == 1.0 for s in payload["slopes"])
    assert payload["resolution"]["segments"] == len(payload["knots"]) - 1
    assert payload["resolution"]["levels"] == 3
    assert payload["evaluations"] == 4 ** payload["resolution"]["segments"]

    first = (out / "oracle.json").read_bytes()
    assert main(["oracle", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "oracle.json").read_bytes() == first


def test_oracle_budget_exits_4(tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(
        MINIMAL + "n_samples = 200\nbatch_size = 50\n"
        "oracle_segments = 40\noracle_levels = 8\n",
        encoding="utf-8",
    )
    assert main(["oracle", str(cfg), "--out", str(tmp_path / "x")]) == 4
    assert "budget" in capsys.readouterr().err


def test_oracle_without_settings_exits_2(tmp_path, capsys):
    cfg = tmp_path / "plain.cfg"
    cfg.write_text(MINIMAL, encoding="utf-8")
    assert main(["oracle", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "oracle settings missing" in capsys.readouterr().err


def test_oracle_refusing_a_beta_exits_2(tmp_path, capsys):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(
        MINIMAL.replace("rho1 = entropic(beta=2.0)", "rho1 = entropic(beta=1e14)")
        + "n_samples = 200\nbatch_size = 50\noracle_segments = 4\noracle_levels = 3\n",
        encoding="utf-8",
    )
    assert main(["oracle", str(cfg), "--out", str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: grid oracle failed: entropic beta too large")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "x").exists()


# -------------------------------------------------------------------- compare


def _fake_report(name, activation, mean, std, rel):
    return {
        "name": name,
        "config": {"activation": activation},
        "final_loss_mean": mean,
        "final_loss_std": std,
        "relative_error": rel,
    }


def test_compare_marks_group_minima_and_empty_cells(tmp_path):
    paths = []
    rows = [
        _fake_report("alpha", "relu", 0.21, 0.001, 0.002),
        _fake_report("alpha", "tanh", 0.215, 0.001, 0.004),
        _fake_report("alpha", "linear", 0.22, 0.0, None),
        _fake_report("beta", "relu", 0.5, 0.01, None),
    ]
    for i, row in enumerate(rows):
        path = tmp_path / f"r{i}.json"
        path.write_text(json.dumps(row), encoding="utf-8")
        paths.append(path)

    table = compare_reports(paths)
    lines = table.splitlines()
    assert lines[0] == "name,activation,mean_loss,std_loss,rel_error,min_loss"
    assert lines[1].endswith(",*")  # alpha minimum on the relu row
    assert not lines[2].endswith(",*")
    assert lines[3].split(",")[4] == ""  # absent rel_error stays empty, not 0
    assert lines[4].endswith(",*")  # beta group has its own minimum
    assert table.endswith("\n")


def test_compare_single_report_and_out_dir(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(_fake_report("solo", "relu", 0.1, 0.0, 0.01)),
                    encoding="utf-8")
    table = compare_reports([path])
    assert len(table.splitlines()) == 2
    assert table.splitlines()[1].endswith(",*")

    assert main(["compare", str(path), "--out", str(tmp_path / "agg")]) == 0
    capsys.readouterr()
    assert (tmp_path / "agg" / "compare.csv").read_text(encoding="utf-8") == table

    assert main(["compare", str(path)]) == 0
    assert capsys.readouterr().out == table


def test_compare_rejects_incompatible_schema(tmp_path, capsys):
    path = tmp_path / "broken.json"
    for report in (
        {"name": "x", "config": {}},
        _fake_report("x", "relu", "abc", 0.0, None),
        _fake_report("x", "relu", 0.1, "abc", None),
        _fake_report("x", "relu", 0.1, 0.0, "oops"),
    ):
        path.write_text(json.dumps(report), encoding="utf-8")
        with pytest.raises(ConfigError, match="incompatible schema"):
            compare_reports([path])
        assert main(["compare", str(path)]) == 2
        assert "config error" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="at least one report"):
        compare_reports([])
