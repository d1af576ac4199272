import csv
import filecmp
import os
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from object_form import read_manifest
from chdp import cli, csvio, curvature, evolution, flowmap, verification
from chdp.cli import CliError, main, parse_config
from chdp.connection import VelocityPair
from chdp.csvio import read_snapshot, write_snapshot
from chdp.flowmap import FlowmapResult
from chdp.presets import initial_condition
from chdp.spectral import Grid, PeriodicField


EVOLVE_ARGS = ["evolve", "--model", "2ch", "--ic", "pair:1:0.1:1:0.1",
               "--n", "64", "--dt", "1e-3", "--t-end", "0.05", "--stride", "5"]
FLOWMAP_ARGS = ["flowmap", "--model", "2ch", "--ic", "pair:1:0.1:1:0.1",
                "--n", "64", "--dt", "1e-3", "--t-end", "0.05", "--snapshot-stride", "10"]
RIGIDBODY_ARGS = ["rigidbody", "--inertia", "1,2,3", "--omega0", "1,1,1",
                  "--dt", "1e-2", "--t-end", "1.0"]
SCAN_ARGS = ["curvature-scan", "--max-mode", "4", "--negative-search", "16", "--seed", "3"]
CURVATURE_ARGS = ["curvature", "--k1", "2", "--k2", "5", "--l1", "4", "--l2", "1"]
DENSITY_ARGS = ["curvature", "--k1", "0", "--k2", "2", "--l1", "0", "--l2", "5"]
CSV_COMMANDS = {"evolve": EVOLVE_ARGS, "flowmap": FLOWMAP_ARGS, "curvature": CURVATURE_ARGS,
                "curvature-density": DENSITY_ARGS, "curvature-scan": SCAN_ARGS,
                "rigidbody": RIGIDBODY_ARGS}
RUN_OPTIONS = {"model", "ic", "n", "dt", "t-end", "stride", "snapshot-stride",
               "slope-threshold", "rhox-threshold"}
# Each command's own options by flag name; every command also takes --out-dir.
OPTIONS = {"evolve": RUN_OPTIONS, "flowmap": RUN_OPTIONS,
           "curvature": {"k1", "k2", "l1", "l2"},
           "curvature-scan": {"max-mode", "negative-search", "seed"},
           "rigidbody": {"inertia", "omega0", "dt", "t-end"},
           "verify": {"seed"}}


def read_csv_column(path, name):
    with open(path, newline="") as handle:
        return [row[name] for row in csv.DictReader(handle)]


def run_cli(args, out_dir):
    return main(args + ["--out-dir", str(out_dir)])


def replay_argv(command, config):
    """The argv of a run from its run.json config.

    --NAME=VALUE per key, a true switch bare, null and false keys left out.
    """
    argv = [command]
    for name, value in config.items():
        if value is True:
            argv.append(f"--{name}")
        elif value is not None and value is not False:
            argv.append(f"--{name}={value}")
    return argv


class TestParse:
    def test_valid_evolve(self):
        config = parse_config(["evolve", "--model", "2ch", "--ic", "cosmode:1:0.1",
                               "--n", "256", "--dt", "1e-4", "--t-end", "1.0"])
        assert config.command == "evolve"
        assert config.model == "2ch"
        assert config.n == 256
        assert config.dt == pytest.approx(1e-4)

    def test_missing_model_names_flag(self):
        with pytest.raises(CliError, match="--model"):
            parse_config(["evolve", "--ic", "zero"])

    def test_odd_grid_rejected(self):
        with pytest.raises(CliError, match="grid size must be even"):
            parse_config(["evolve", "--model", "2ch", "--ic", "zero", "--n", "255"])

    def test_unknown_flag_rejected(self):
        with pytest.raises(CliError):
            parse_config(EVOLVE_ARGS + ["--frobnicate", "1"])

    def test_bad_preset_message(self, tmp_path):
        code = main(["evolve", "--model", "2ch", "--ic", "wiggle:3",
                     "--n", "64", "--dt", "1e-3", "--t-end", "0.01",
                     "--out-dir", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("ic", ["cosmode:inf:0.1", "cosmode:1:nan", "pair:1:0.1:1:inf",
                                    "cosmode:40:0.001", "cosmode:64:0.1"],
                             ids=["mode_inf", "amplitude_nan", "amplitude_inf",
                                  "mode_above_cutoff", "mode_aliased_to_zero"])
    def test_bad_preset_parameters_exit_1(self, tmp_path, capsys, ic):
        # n=64 keeps modes 1..21; mode 40 aliases to 24 and mode 64 to 0
        code = main(["evolve", "--model", "2ch", "--ic", ic, "--n", "64",
                     "--dt", "1e-3", "--t-end", "0.01", "--out-dir", str(tmp_path)])
        assert code == 1
        assert f"preset {ic!r}" in capsys.readouterr().err
        assert not (tmp_path / "run.json").exists()

    def test_preset_mode_at_cutoff_accepted(self):
        state = initial_condition("pair:21:0.1:1:0.2", Grid(64))
        assert np.max(np.abs(state.u.values - 0.1 * np.cos(42 * np.pi * state.grid.points))) == 0.0

    def test_bad_inertia(self):
        with pytest.raises(CliError, match="--inertia"):
            parse_config(["rigidbody", "--inertia", "1,-2,3"])

    @pytest.mark.parametrize("command", ["evolve", "flowmap", "rigidbody"])
    @pytest.mark.parametrize("steps, name", [
        (["--dt", "1e-3", "--t-end", "inf"], "t_end"),
        (["--dt", "nan", "--t-end", "0.01"], "dt"),
        (["--dt", "0.3", "--t-end", "1"], "t_end"),
    ], ids=["t_end_inf", "dt_nan", "t_end_not_whole_steps"])
    def test_bad_step_size_exits_1(self, tmp_path, capsys, command, steps, name):
        model = [] if command == "rigidbody" else ["--model", "2ch", "--ic", "zero", "--n", "64"]
        code = main([command, *model, *steps, "--out-dir", str(tmp_path)])
        assert code == 1
        assert name in capsys.readouterr().err
        assert not (tmp_path / "run.json").exists()

    @pytest.mark.parametrize("args, message", [
        (["evolve", "--model", "2ch", "--ic", "zero", "--n", "255"],
         "--n: grid size must be even"),
        (EVOLVE_ARGS + ["--stride", "0"],
         "--stride/--slope-threshold/--rhox-threshold: diagnostics stride must be >= 1"),
        (EVOLVE_ARGS + ["--slope-threshold", "1"],
         "--stride/--slope-threshold/--rhox-threshold: slope threshold must be"),
        (FLOWMAP_ARGS + ["--dt", "0.03"], "--dt/--t-end: t_end=0.05 is not a whole number"),
        (["evolve", "--model", "ch", "--ic", "cosmode:40:0.1", "--n", "64"],
         "--ic: preset 'cosmode:40:0.1': modes must be integers in 1..21"),
        (["rigidbody", "--inertia", "1,-2,3"],
         "--inertia/--omega0: inertia moments must be positive"),
        (["rigidbody", "--omega0", "1,x,1"], "--omega0: expected comma-separated numbers"),
        (["rigidbody", "--omega0", "nan,1,1"], "--inertia/--omega0: omega must be finite"),
        (["rigidbody", "--inertia", "1,inf,3"], "--inertia/--omega0: inertia must be finite"),
        (["evolve", "--model", "ch", "--ic", "pair:1:0.1:1:0.1", "--n", "64", "--dt", "0.01",
          "--t-end", "0.1"], "--model/--ic: model ch requires rho = 0 initial data"),
        (["evolve", "--model", "ch", "--ic", "cosmode:1:1e308", "--n", "64", "--dt", "1e-3",
          "--t-end", "0.01"], "--model/--ic: initial data must have finite grid values"),
        (["flowmap", "--model", "ch", "--ic", "cosmode:1:1e308", "--n", "64", "--dt", "1e-3",
          "--t-end", "0.01"], "--model/--ic: initial data must have finite grid values"),
        (["curvature", "--k1", "1", "--k2", "1", "--l1", "1", "--l2", "1"],
         "--k1/--k2/--l1/--l2: direction pair is degenerate (u = v)"),
        (["curvature", "--k1", "0", "--k2", "3", "--l1", "0", "--l2", "3"],
         "--k1/--k2/--l1/--l2: direction pair is degenerate (u = v)"),
        (["curvature", "--k1", "0", "--k2", "3", "--l1", "1", "--l2", "2"],
         "--k1/--k2/--l1/--l2: modes must be positive integers; velocity modes may both be 0"),
        (["curvature", "--k1", "0", "--k2", "0", "--l1", "0", "--l2", "2"],
         "--k1/--k2/--l1/--l2: modes must be positive integers; velocity modes may both be 0"),
        (["curvature-scan", "--max-mode", "2", "--negative-search", "4", "--seed", "-1"],
         "--seed: expected non-negative integer"),
        (["verify", "--seed", "-20"], "--seed: expected non-negative integer"),
        (["evolve", "--model", "2ch", "--ic", "file:no-such-dir/snapshot.csv", "--n", "64",
          "--dt", "0.01", "--t-end", "0.1"],
         "--ic: cannot read snapshot no-such-dir/snapshot.csv: No such file or directory"),
    ], ids=["grid", "stride", "slope_threshold", "steps", "initial_condition",
            "inertia", "omega0", "omega0_nan",
            "inertia_inf", "one_component_rho", "overflowing_start_evolve",
            "overflowing_start_flowmap", "degenerate_pair", "degenerate_density_pair",
            "one_velocity_mode_zero", "density_mode_zero", "scan_seed", "verify_seed", "missing_snapshot"])
    def test_object_errors_name_the_flag(self, tmp_path, capsys, args, message):
        # Every object is built before --out-dir is made.
        with pytest.raises(CliError) as raised:
            parse_config(args)
        assert str(raised.value).startswith(message)
        out = tmp_path / "out"
        assert run_cli(args, out) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True], ids=["regular_file", "under_regular_file"])
    def test_out_dir_blocked_by_a_file(self, tmp_path, capsys, under):
        blocker = tmp_path / "F"
        blocker.write_text("kept")
        out = blocker / "out" if under else blocker
        assert run_cli(CURVATURE_ARGS, out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --out-dir: [Errno ") and f"'{out}'" in err
        assert blocker.read_text() == "kept"

    def test_uneven_snapshot_stride_rejected(self):
        with pytest.raises(CliError, match="--snapshot-stride must be a multiple of --stride"):
            parse_config(EVOLVE_ARGS + ["--snapshot-stride", "12"])
        assert parse_config(EVOLVE_ARGS + ["--snapshot-stride", "15"]).snapshot_stride == 15
        # the flow map keeps the rows evolve keeps, so the same rule holds
        with pytest.raises(CliError, match="--snapshot-stride must be a multiple of --stride"):
            parse_config(FLOWMAP_ARGS + ["--stride", "3"])
        assert parse_config(FLOWMAP_ARGS + ["--stride", "5"]).snapshot_stride == 10


class TestEvolveCommand:
    def test_outputs_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(EVOLVE_ARGS, out) == 0
        manifest = read_manifest(out / "run.json")
        assert manifest["status"] == "completed"
        assert manifest["config"]["model"] == "2ch"
        assert "energy" in manifest["final_diagnostics"]
        assert manifest["wall_seconds"] > 0
        with open(out / "diagnostics.csv", newline="") as handle:
            header = next(csv.reader(handle))
        assert header == ["t", "energy", "min_ux", "max_abs_rhox", "mean_m", "mean_rho"]
        snap = read_snapshot(out / "snapshot_000000.csv")
        assert snap.grid.n == 64
        assert np.max(np.abs(snap.u.values - 0.1 * np.cos(2 * np.pi * snap.grid.points))) <= 1e-12

    def test_snapshot_names_carry_the_step(self, tmp_path):
        # --stride 5 keeps steps 0, 5, ..., 50; every 10th step is written.
        out = tmp_path / "run"
        assert run_cli(EVOLVE_ARGS + ["--snapshot-stride", "10"], out) == 0
        names = sorted(p.name for p in out.glob("snapshot_*.csv"))
        assert names == [f"snapshot_{step:06d}.csv" for step in range(0, 51, 10)]
        t = read_csv_column(out / "diagnostics.csv", "t")
        assert len(t) == 11 and float(t[-1]) == pytest.approx(0.05)

    def test_blowup_exit_code(self, tmp_path, capsys):
        out = tmp_path / "steep"
        code = main(["evolve", "--model", "2ch", "--ic", "cosmode:1:2.0",
                     "--n", "256", "--dt", "5e-4", "--t-end", "2.0",
                     "--slope-threshold", "-50", "--rhox-threshold", "50",
                     "--out-dir", str(out)])
        assert code == 2
        manifest = read_manifest(out / "run.json")
        assert manifest["status"] == "blowup_detected"
        assert manifest["reason"] == "min_ux"
        last_t = float(read_csv_column(out / "diagnostics.csv", "t")[-1])
        assert 0.0 < manifest["blowup_t"] == last_t < 2.0
        assert f"(min_ux) at t={last_t:.6g}" in capsys.readouterr().out

    def test_blowup_value_reported(self, tmp_path, capsys):
        out = tmp_path / "rhox"
        code = main(["evolve", "--model", "2ch", "--ic", "pair:1:0.1:1:0.1", "--n", "64",
                     "--dt", "1e-3", "--t-end", "0.01", "--rhox-threshold", "0.5",
                     "--out-dir", str(out)])
        assert code == 2
        manifest = read_manifest(out / "run.json")
        assert (manifest["reason"], manifest["blowup_t"]) == ("max_abs_rhox", 0.0)
        rhox = float(read_csv_column(out / "diagnostics.csv", "max_abs_rhox")[-1])
        assert manifest["blowup_value"] == pytest.approx(rhox, rel=1e-15)
        assert manifest["blowup_value"] == pytest.approx(0.2 * np.pi, rel=1e-13)
        assert f"(max_abs_rhox) at t=0 (value {manifest['blowup_value']:.6g})" in \
            capsys.readouterr().out

    def test_nonfinite_snapshot_rejected(self, tmp_path, capsys):
        grid = Grid(64)
        u = np.cos(2 * np.pi * grid.points)
        u[5] = np.nan
        snap = tmp_path / "nan_snapshot.csv"
        write_snapshot(snap, VelocityPair.single(PeriodicField(grid, u)))
        code = main(["evolve", "--model", "2ch", "--ic", f"file:{snap}",
                     "--n", "64", "--dt", "1e-3", "--t-end", "0.05",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "nan_snapshot.csv" in err and "non-finite" in err

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("x,u,rho\n", "expected data rows of 3 values"),
        ("x,u,rho\n0.0,1.0,0.0\n0.5,1.0\n", "expected data rows of 3 values"),
        ("x,u,rho\n0.0,a,0.0\n", "could not convert string to float"),
        ("x,u,rho\n" + "0.0,1.0,0.0\n" * 2, "2 rows: grid size must be at least 16"),
        ("x,u,rho\n" + "0.0,1.0,0.0\n" * 15, "15 rows: grid size must be even"),
    ], ids=["empty", "header_only", "ragged", "non_numeric", "two_rows", "fifteen_rows"])
    def test_malformed_snapshot_rejected(self, tmp_path, capsys, text, message):
        snap = tmp_path / "bad_snapshot.csv"
        snap.write_text(text)
        code = main(["evolve", "--model", "2ch", "--ic", f"file:{snap}",
                     "--n", "64", "--dt", "1e-3", "--t-end", "0.05",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{snap}: {message}" in err
        assert not (tmp_path / "out" / "run.json").exists()

    @pytest.mark.parametrize("prefix", [b"x,u,rho\n", b"x,u,rho\n" + b"0.0,1.0,0.0\n" * 1000],
                             ids=["first_row", "past_first_read"])
    def test_non_utf8_snapshot_rejected(self, tmp_path, capsys, prefix):
        snap = tmp_path / "bad_snapshot.csv"
        snap.write_bytes(prefix + b"\xff,1.0,0.0\n")
        code = main(["evolve", "--model", "2ch", "--ic", f"file:{snap}",
                     "--n", "64", "--dt", "1e-3", "--t-end", "0.05",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --ic: {snap}: ") and "can't decode byte 0xff" in err
        assert not (tmp_path / "out" / "run.json").exists()

    def test_file_preset_roundtrip(self, tmp_path):
        out1 = tmp_path / "a"
        assert run_cli(EVOLVE_ARGS, out1) == 0
        final = sorted(out1.glob("snapshot_*.csv"))[-1]
        out2 = tmp_path / "b"
        code = main(["evolve", "--model", "2ch", "--ic", f"file:{final}",
                     "--n", "64", "--dt", "1e-3", "--t-end", "0.05",
                     "--out-dir", str(out2)])
        assert code == 0


@pytest.mark.parametrize("args", [EVOLVE_ARGS, FLOWMAP_ARGS, RIGIDBODY_ARGS, SCAN_ARGS],
                         ids=["evolve", "flowmap", "rigidbody", "curvature-scan"])
def test_deterministic_outputs(tmp_path, args):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(args, out1) == 0
    assert run_cli(args, out2) == 0
    names = sorted(p.name for p in out1.glob("*.csv"))
    assert names and names == sorted(p.name for p in out2.glob("*.csv"))
    for name in names:
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


def assert_replays(args, tmp_path):
    """The config echo alone replays the run, into the same --out-dir: same CSVs, same config."""
    out = tmp_path / "run"
    assert run_cli(args, out) == 0
    first = out.rename(tmp_path / "first")
    config = read_manifest(first / "run.json")["config"]
    assert main(replay_argv(args[0], config)) == 0
    assert read_manifest(out / "run.json")["config"] == config
    names = sorted(p.name for p in first.glob("*.csv"))
    assert names and names == sorted(p.name for p in out.glob("*.csv"))
    for name in names:
        assert filecmp.cmp(first / name, out / name, shallow=False), name


@pytest.mark.parametrize("args", CSV_COMMANDS.values(), ids=CSV_COMMANDS.keys())
def test_manifest_roundtrip(tmp_path, args):
    assert_replays(args, tmp_path)


@st.composite
def curvature_argv(draw):
    """A valid `curvature` argv: a full or density-only pair, u != v."""
    mode = st.integers(1, 6)
    k1, l1 = draw(st.sampled_from([(0, 0), (draw(mode), draw(mode))]))
    k2, l2 = draw(mode), draw(mode)
    if (k1, k2) == (l1, l2):
        l2 = l2 % 6 + 1
    return ["curvature", f"--k1={k1}", f"--k2={k2}", f"--l1={l1}", f"--l2={l2}"]


@st.composite
def rigidbody_argv(draw):
    """A valid `rigidbody` argv of 2..40 steps, well inside RK4's stability limit."""
    inertia = draw(st.lists(st.floats(0.5, 4.0), min_size=3, max_size=3))
    omega0 = draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
    dt = draw(st.sampled_from([5e-3, 1e-2, 2e-2]))
    steps = draw(st.integers(2, 40))
    return ["rigidbody", "--inertia=" + ",".join(map(repr, inertia)),
            "--omega0=" + ",".join(map(repr, omega0)), f"--dt={dt!r}", f"--t-end={steps * dt!r}"]


@pytest.mark.parametrize("argv", [curvature_argv(), rigidbody_argv()],
                         ids=["curvature", "rigidbody"])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_random_options_replay(argv, data):
    with tempfile.TemporaryDirectory() as tmp:
        assert_replays(data.draw(argv), Path(tmp))


@pytest.mark.parametrize("args, code", [
    *((args, 0) for args in CSV_COMMANDS.values()),
    (["verify"], 0),
    (EVOLVE_ARGS + ["--rhox-threshold", "0.5"], 2),
    (FLOWMAP_ARGS + ["--rhox-threshold", "0.5"], 2),
], ids=[*CSV_COMMANDS, "verify", "evolve-blowup", "flowmap-blowup"])
def test_one_run_json_shape(tmp_path, monkeypatch, args, code):
    fast = [entry for entry in verification.CRITERIA if entry[0] == "C1"]
    monkeypatch.setattr(verification, "CRITERIA", fast)
    assert run_cli(args, tmp_path) == code
    manifest = read_manifest(tmp_path / "run.json")
    blowup = {"reason", "blowup_t", "blowup_value"} if code == 2 else set()
    assert set(manifest) == {"config", "status", "final_diagnostics", "wall_seconds", *blowup}
    assert set(manifest["config"]) == OPTIONS[args[0]] | {"out-dir"}
    assert manifest["config"]["out-dir"] == str(tmp_path)
    assert manifest["wall_seconds"] > 0


def test_wall_seconds_includes_the_csvs(tmp_path, monkeypatch):
    real = csvio.write_rigidbody

    def slow(path, trajectory):
        time.sleep(0.2)
        real(path, trajectory)

    monkeypatch.setattr(csvio, "write_rigidbody", slow)
    assert run_cli(RIGIDBODY_ARGS, tmp_path) == 0
    assert read_manifest(tmp_path / "run.json")["wall_seconds"] >= 0.2


@pytest.mark.parametrize("args", [EVOLVE_ARGS, FLOWMAP_ARGS, RIGIDBODY_ARGS],
                         ids=["evolve", "flowmap", "rigidbody"])
def test_one_step_run(tmp_path, args):
    # t_end = dt: one step, and the rows of t = 0 and t = dt kept.
    assert run_cli(args + ["--dt", "1e-3", "--t-end", "1e-3"], tmp_path) == 0
    manifest = read_manifest(tmp_path / "run.json")
    assert manifest["status"] == "completed"
    if args[0] == "rigidbody":
        assert read_csv_column(tmp_path / "rigidbody.csv", "t") == ["0.0", "0.001"]
    else:
        assert read_csv_column(tmp_path / "diagnostics.csv", "t") == ["0.0", "0.001"]


@pytest.mark.parametrize("command", ["evolve", "flowmap"])
def test_nonfinite_blowup_time(tmp_path, capsys, command):
    # u^2 overflows in the first step: the time reported is t=dt, not
    # the last stored record (t=0 for evolve).
    out = tmp_path / "overflow"
    code = main([command, "--model", "ch", "--ic", "cosmode:1:1e200",
                 "--n", "64", "--dt", "1e-3", "--t-end", "0.01",
                 "--slope-threshold=-1e300", "--rhox-threshold", "1e300",
                 "--out-dir", str(out)])
    assert code == 2
    manifest = read_manifest(out / "run.json")
    assert (manifest["reason"], manifest["blowup_t"]) == ("non_finite", 1e-3)
    assert manifest["blowup_value"] is None
    if command == "evolve":  # the energy of the kept t=0 row overflows too
        assert manifest["final_diagnostics"]["energy"] is None
    assert "(non_finite) at t=0.001 " in capsys.readouterr().out


@pytest.mark.parametrize("command", ["evolve", "flowmap"])
def test_unallocatable_history_fails_before_out_dir(tmp_path, capsys, command):
    # 10^10 kept steps of (u, rho) at n = 256 would need 37.3 TiB (evolve) or 74.5 TiB.
    out = tmp_path / "X"
    code = main([command, "--model", "2ch", "--ic", "pair:1:0.1:1:0.1", "--n", "256",
                 "--dt", "1e-4", "--t-end", "1e6", "--stride", "1", "--out-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --stride/--t-end: the kept history") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evolve", "flowmap"])
def test_unallocatable_grid_fails_before_out_dir(tmp_path, capsys, command):
    # Even the first and last steps at n = 10^11 need 2.9 TiB (evolve) or 5.8 TiB.
    out = tmp_path / "X"
    code = main([command, "--model", "2ch", "--ic", "pair:1:0.1:1:0.1",
                 "--n", "100000000000", "--out-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --n: the smallest history") and "Traceback" not in err
    assert not out.exists()


def test_unallocatable_plane_fails_before_out_dir(tmp_path, capsys):
    # Mode 10^10 needs a grid of 6 * 10^10 points; the check runs no grid-size search.
    out = tmp_path / "X"
    start = time.perf_counter()
    code = main(["curvature", "--k1", "1", "--k2", "1", "--l1", "1", "--l2", "10000000000",
                 "--out-dir", str(out)])
    assert time.perf_counter() - start < 5.0
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --k1/--k2/--l1/--l2: the plane's grid") and "Traceback" not in err
    assert not out.exists()


def test_unallocatable_scan_fails_before_out_dir(tmp_path, capsys):
    # Max mode 1000 is 5 * 10^11 planes and a 2 * 10^6-square Gram: 68 TiB.
    out = tmp_path / "X"
    code = main(["curvature-scan", "--max-mode", "1000", "--out-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --max-mode: the scan needs") and "Traceback" not in err
    assert not out.exists()


def test_unallocatable_rigidbody_fails_before_out_dir(tmp_path, capsys):
    # 10^11 steps of the (4, 3) state and its per-step outputs: 14.6 TiB.
    out = tmp_path / "X"
    code = main(["rigidbody", "--dt", "1e-3", "--t-end", "1e8", "--out-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --dt/--t-end: the trajectory") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("args", [EVOLVE_ARGS, FLOWMAP_ARGS], ids=["evolve", "flowmap"])
def test_history_check_reads_the_run_shape(tmp_path, monkeypatch, args):
    # The command checks the shape of the history that its run allocates.
    shape, shapes = evolution._history_shape, []

    def recording(*args):
        shapes.append(shape(*args))
        return shapes[-1]

    monkeypatch.setattr(cli, "_history_shape", recording)
    monkeypatch.setattr(evolution, "_history_shape", recording)
    assert run_cli(args, tmp_path) == 0
    assert len(shapes) == 2 and shapes[0] == shapes[1]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor-fault counts from os.wait4 are read on Linux")
def test_large_grid_steps_do_not_refault(tmp_path, child_env):
    # A fresh CLI process at n = 4096: each RK4 step and the monitor write
    # into buffers made once per run, so 400 more steps add at most 10
    # minor faults per step (about 275-320 when every stage allocated its
    # temporaries, and about 12 in some heap layouts when the monitor did).

    def faults(steps):
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, "-m", "chdp.cli", "evolve", "--model", "2ch",
             "--ic", "pair:1:0.1:1:0.1", "--n", "4096", "--dt", "1e-5",
             "--t-end", repr(steps * 1e-5), "--stride", "1000",
             "--out-dir", str(tmp_path / str(steps))],
            child_env, file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
        _, status, usage = os.wait4(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        return usage.ru_minflt

    assert (faults(500) - faults(100)) / 400 <= 10


class TestFlowmapCommand:
    def test_outputs(self, tmp_path):
        out = tmp_path / "flow"
        code = main(["flowmap", "--model", "2ch", "--ic", "pair:1:0.1:1:0.1",
                     "--n", "64", "--dt", "1e-3", "--t-end", "0.05",
                     "--out-dir", str(out)])
        assert code == 0
        with open(out / "flowmap_000000.csv", newline="") as handle:
            header = next(csv.reader(handle))
        assert header == ["x", "phi", "phix", "f"]
        with open(out / "diagnostics.csv", newline="") as handle:
            header = next(csv.reader(handle))
        assert header == ["t", "energy", "min_ux", "max_abs_rhox", "mean_m", "mean_rho"]
        manifest = read_manifest(out / "run.json")
        assert manifest["final_diagnostics"]["momentum_drift"]["rho0"] <= 1e-8

    def test_compression_exits_2_on_unresolved_labels(self, tmp_path, capsys):
        # The labels map steepens where phi compresses; the run stops with
        # the tail that tripped, before the labels stop resolving phi.
        out = tmp_path / "steep"
        code = main(["flowmap", "--model", "2ch", "--ic", "pair:1:0.3:1:0.3", "--n", "64",
                     "--dt", "1e-3", "--t-end", "1", "--out-dir", str(out)])
        assert code == 2
        manifest = read_manifest(out / "run.json")
        assert (manifest["status"], manifest["reason"]) == ("blowup_detected",
                                                            "labels_unresolved")
        assert manifest["blowup_value"] > flowmap._LABELS_TAIL_LIMIT
        last_t = float(read_csv_column(out / "diagnostics.csv", "t")[-1])
        assert 0.0 < manifest["blowup_t"] == last_t < 1.0
        assert manifest["final_diagnostics"]["min_phix"] > 0.0
        assert f"(labels_unresolved) at t={last_t:.6g}" in capsys.readouterr().out

    def test_folded_labels_write_strict_json(self, tmp_path):
        # The step to t=0.05 folds the labels, so the last row has no phi:
        # min phi_x is null and each drift is the maximum over row 0 alone.
        out = tmp_path / "folded"
        code = main(["flowmap", "--model", "2ch", "--ic", "pair:1:5:1:5", "--n", "32",
                     "--dt", "0.05", "--t-end", "1", "--out-dir", str(out)])
        assert code == 2
        manifest = read_manifest(out / "run.json")
        assert (manifest["reason"], manifest["blowup_t"]) == ("labels_folded", 0.05)
        assert manifest["blowup_value"] < 0.0
        assert manifest["final_diagnostics"] == {
            "t": 0.05, "min_phix": None, "momentum_drift": {"m0": 0.0, "rho0": 0.0}}
        assert sorted(p.name for p in out.glob("flowmap_*.csv")) == [
            "flowmap_000000.csv", "flowmap_000001.csv"]

    def test_jacobians_only_for_used_rows(self, tmp_path, monkeypatch):
        # 6 kept rows (steps 0, 10, ..., 50): all are snapshots, read in one
        # call; the drift samples read phi_x row by row, not through it
        seen = []
        original = FlowmapResult.jacobians

        def spy(self, rows=None):
            seen.append(None if rows is None else list(rows))
            return original(self, rows)

        monkeypatch.setattr(FlowmapResult, "jacobians", spy)
        assert run_cli(FLOWMAP_ARGS, tmp_path) == 0
        assert seen == [list(range(6))]
        assert sorted(p.name for p in tmp_path.glob("flowmap_*.csv")) == [
            f"flowmap_{step:06d}.csv" for step in range(0, 51, 10)]


class TestCurvatureCommands:
    def test_single_direction(self, tmp_path, capsys):
        out = tmp_path / "curv"
        code = main(["curvature", "--k1", "1", "--k2", "1", "--l1", "2",
                     "--l2", "2", "--out-dir", str(out)])
        assert code == 0
        manifest = read_manifest(out / "run.json")
        s_num = manifest["final_diagnostics"]["S_numeric"]
        s_closed = manifest["final_diagnostics"]["S_closed"]
        assert abs(s_num - s_closed) <= 1e-8 * (1 + abs(s_closed))

    def test_degenerate_direction_rejected(self, tmp_path):
        code = main(["curvature", "--k1", "1", "--k2", "1", "--l1", "1",
                     "--l2", "1", "--out-dir", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("args", [CURVATURE_ARGS, SCAN_ARGS], ids=["curvature", "scan"])
    def test_grid_size_is_not_an_option(self, tmp_path, capsys, args):
        # The curvature commands derive their grid from the modes.
        out = tmp_path / "out"
        assert main([*args, "--n", "16", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --n 16\n"
        assert not out.exists()

    def test_high_mode_runs_on_its_own_grid(self, tmp_path):
        # Mode 9 needs n >= 56; the command picks scan_grid(9), n = 60.
        code = main(["curvature", "--k1", "9", "--k2", "1", "--l1", "1", "--l2", "2",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        result = read_manifest(tmp_path / "run.json")["final_diagnostics"]
        assert abs(result["S_numeric"] - result["S_closed"]) <= 1e-8 * (1 + abs(result["S_closed"]))

    def test_large_mode_plane_builds_only_its_rows(self, tmp_path, monkeypatch):
        # Mode 300 runs on n = 1920, whose basis has 639 rows; the plane
        # pairs only its own four, not the 204,480 pairs of all of them.
        built = []
        real = curvature._pair_grams

        def spy(grid, bases):
            built.append(bases.shape)
            return real(grid, bases)

        monkeypatch.setattr(curvature, "_pair_grams", spy)
        code = main(["curvature", "--k1", "1", "--k2", "2", "--l1", "3", "--l2", "300",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        assert built == [(4, 2, 1920)]
        result = read_manifest(tmp_path / "run.json")["final_diagnostics"]
        assert abs(result["S_numeric"] - result["S_closed"]) <= 1e-8 * (1 + abs(result["S_closed"]))

    def test_negative_trial_count_rejected(self, tmp_path, capsys):
        code = main(["curvature-scan", "--max-mode", "2", "--negative-search", "-3",
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "error: --negative-search" in capsys.readouterr().err
        assert not (tmp_path / "run.json").exists()

    def test_scan_csv_all_positive(self, tmp_path):
        out = tmp_path / "scan"
        code = main(["curvature-scan", "--max-mode", "3", "--out-dir", str(out)])
        assert code == 0
        with open(out / "scan.csv", newline="") as handle:
            reader = csv.DictReader(handle)
            rows = list(reader)
        full_rows = [r for r in rows if int(r["m_k1"]) > 0]
        assert len(full_rows) == 36
        assert all(float(r["S_numeric"]) > 0 for r in full_rows)
        header = list(rows[0].keys())
        assert header == ["m_k1", "m_k2", "m_l1", "m_l2",
                          "S_numeric", "S_closed", "Sec", "gram"]

    def test_negative_search_summary(self, tmp_path):
        # The seeded search the scan runs, summarised over its kept planes.
        out = tmp_path / "scan"
        assert main([*SCAN_ARGS, "--out-dir", str(out)]) == 0
        summary = read_manifest(out / "run.json")["final_diagnostics"]
        found = curvature.negative_search(np.random.default_rng(3), 16, 4)
        sec = np.array([s for _, s in found])
        quantiles = summary["negative_search"].pop("sec_quantiles")
        assert summary["negative_search"] == {
            "trials": 16, "negative_planes": int(np.sum(sec < 0)),
            "most_negative": sec[0], "negative_fraction": float(np.mean(sec < 0))}
        assert quantiles == {"0": sec[0], "0.01": pytest.approx(np.quantile(sec, 0.01), rel=1e-15),
                             "0.5": pytest.approx(np.quantile(sec, 0.5), rel=1e-15)}
        table = curvature.positivity_scan(4)
        assert summary["max_closed_form_rel_err"] == float(table.closed_form_error().max())
        assert 0 < summary["max_closed_form_rel_err"] <= 1e-8

    @pytest.mark.parametrize("found, fraction, quantiles", [
        ([(2, -0.5), (0, -0.1), (3, 0.2), (1, 0.3)], 0.5, [-0.5, -0.488, 0.05]),
        ([], None, [None, None, None]),
    ], ids=["half_negative", "none_kept"])
    def test_negative_search_summary_values(self, tmp_path, monkeypatch, found, fraction,
                                            quantiles):
        monkeypatch.setattr(curvature, "negative_search", lambda *args: found)
        out = tmp_path / "scan"
        assert main([*SCAN_ARGS, "--out-dir", str(out)]) == 0
        summary = read_manifest(out / "run.json")["final_diagnostics"]["negative_search"]
        assert summary["negative_fraction"] == fraction
        assert list(summary["sec_quantiles"]) == ["0", "0.01", "0.5"]
        assert list(summary["sec_quantiles"].values()) == pytest.approx(quantiles, abs=1e-15)

    def test_single_plane_row_is_the_scan_row(self, tmp_path):
        # max-mode 5 and the one-plane commands below all pick n = 32
        assert main(["curvature-scan", "--max-mode", "5",
                     "--out-dir", str(tmp_path / "scan")]) == 0
        with open(tmp_path / "scan" / "scan.csv", newline="") as handle:
            scan_rows = {tuple(row[:4]): row for row in csv.reader(handle)}
        for args in (["--k1", "2", "--k2", "5", "--l1", "4", "--l2", "1"],
                     ["--k1", "0", "--k2", "2", "--l1", "0", "--l2", "5"]):
            out = tmp_path / "-".join(args)
            assert main(["curvature", *args, "--out-dir", str(out)]) == 0
            with open(out / "curvature.csv", newline="") as handle:
                header, row = csv.reader(handle)
            assert header == scan_rows[tuple(header[:4])]
            assert row == scan_rows[tuple(row[:4])]

    def test_density_family_grid_from_its_modes(self, tmp_path, monkeypatch):
        # the zero velocity modes do not size the grid; the density modes do
        grids = []
        real = curvature._cosine_table

        def spy(grid, tuples, planes):
            grids.append(grid.n)
            return real(grid, tuples, planes)

        monkeypatch.setattr(curvature, "_cosine_table", spy)
        args = ["curvature", "--k1", "0", "--l1", "0", "--k2", "1"]
        assert main([*args, "--l2", "2", "--out-dir", str(tmp_path / "plain")]) == 0
        assert main([*args, "--l2", "9", "--out-dir", str(tmp_path / "big")]) == 0
        assert grids == [16, 60]


    @pytest.mark.parametrize("args, column, value, violations, line", [
        (["curvature-scan", "--max-mode", "3"], "S_numeric", -1.0, {"S <= 0": 1},
         "S <= 0 on 1 of 39 planes, first at modes (1, 1)+(1, 2)"),
        (["curvature", "--k1", "1", "--k2", "1", "--l1", "1", "--l2", "2"], "S_numeric", -1.0,
         {"S <= 0": 1}, "S <= 0 on 1 of 1 planes, first at modes (1, 1)+(1, 2)"),
        (["curvature", "--k1", "0", "--k2", "2", "--l1", "0", "--l2", "3"], "gram", np.nan,
         {"Gram != 1/4": 1}, "Gram != 1/4 on 1 of 1 planes, first at modes (0, 2)+(0, 3)"),
    ], ids=["scan", "curvature", "curvature-nan"])
    def test_broken_bound_fails_the_run(self, tmp_path, monkeypatch, capsys, args, column, value,
                                        violations, line):
        # The first plane breaks a bound: exit 1 with the CSV and run.json
        # written, no exception, and the bound named on stdout.
        real = curvature._cosine_table

        def broken(grid, tuples, planes):
            table = real(grid, tuples, planes)
            if column == "S_numeric":  # its closed form moves with it
                table.s_numeric[0] = table.s_closed[0] = value
            else:
                table.gram[0] = value
            return table

        monkeypatch.setattr(curvature, "_cosine_table", broken)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*args, "--out-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert line + "\n" in out and "> 0" not in out
        csv_name = "scan.csv" if args[0] == "curvature-scan" else "curvature.csv"
        assert read_csv_column(tmp_path / csv_name, column)[0] == repr(value)
        manifest = read_manifest(tmp_path / "run.json")
        assert manifest["status"] == "failed"
        assert manifest["final_diagnostics"]["violations"] == violations
        if args[0] == "curvature":
            assert manifest["final_diagnostics"][column] == (None if np.isnan(value) else value)

    def test_nan_scan_row_writes_strict_json(self, tmp_path, monkeypatch):
        # Every non-finite diagnostic is null, at any depth.
        real = curvature._cosine_table

        def broken(grid, tuples, planes):
            table = real(grid, tuples, planes)
            table.s_numeric[0] = table.gram[-1] = np.nan
            return table

        monkeypatch.setattr(curvature, "_cosine_table", broken)
        monkeypatch.setattr(curvature, "negative_search", lambda *args: [(0, float("nan"))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["curvature-scan", "--max-mode", "3", "--negative-search", "1",
                         "--out-dir", str(tmp_path)]) == 1
        assert read_csv_column(tmp_path / "scan.csv", "S_numeric")[0] == "nan"
        manifest = read_manifest(tmp_path / "run.json")
        final = manifest["final_diagnostics"]
        assert manifest["status"] == "failed"
        assert final["min_S_numeric"] is final["max_closed_form_rel_err"] is None
        assert final["min_sec_density_family"] >= 0.125 - 1e-12
        assert final["negative_search"]["most_negative"] is None
        assert final["negative_search"]["sec_quantiles"] == {"0": None, "0.01": None, "0.5": None}
        assert final["violations"] == {"S <= 0": 1, "S off the closed form": 1, "Gram != 1/4": 1}


class TestRigidbodyCommand:
    def test_outputs(self, tmp_path):
        out = tmp_path / "body"
        code = main(["rigidbody", "--inertia", "1,2,3", "--omega0", "1,1,1",
                     "--dt", "1e-2", "--t-end", "1.0", "--out-dir", str(out)])
        assert code == 0
        with open(out / "rigidbody.csv", newline="") as handle:
            header = next(csv.reader(handle))
        assert header == ["t", "w1", "w2", "w3", "pi1", "pi2", "pi3", "energy"]
        manifest = read_manifest(out / "run.json")
        assert manifest["final_diagnostics"]["pi_drift"] <= 1e-7
        assert set(manifest["final_diagnostics"]) == {
            "t", "pi_drift", "energy_drift", "coadjoint_drift"}

    def test_dt_past_stability_exits_1(self, tmp_path, capsys):
        code = main([*RIGIDBODY_ARGS, "--dt", "2", "--t-end", "8", "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: rigid-body step 1 with dt=2.0: attitude is 13 from")
        assert "reduce dt" in err
        assert not (tmp_path / "rigidbody.csv").exists()

    @pytest.mark.parametrize("omega0", ["1e100,1,1", "1e200,0,0"])
    def test_huge_data_exits_1_under_warnings_as_errors(self, tmp_path, capsys, omega0):
        # The stages overflow; the user sees the "reduce dt" error, not the warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["rigidbody", "--inertia", "1,2,3", "--omega0", omega0, "--dt", "1e-3",
                         "--t-end", "1e-2", "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: rigid-body step 1 with dt=0.001: ") and "reduce dt" in err

    def test_overflowing_body_momentum_fails_before_out_dir(self, tmp_path, capsys):
        # Finite inputs whose I * Omega overflows: an input error, not a step's.
        out = tmp_path / "body"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["rigidbody", "--inertia", "1e300,1e300,1e300", "--omega0", "1e10,1,1",
                         "--dt", "0.1", "--t-end", "1", "--out-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --inertia/--omega0: body momentum") and "reduce dt" not in err
        assert not out.exists()

    def test_overflowed_energy_drift_is_null(self, tmp_path):
        # The energy Omega . I Omega overflows; run.json stays strict JSON.
        out = tmp_path / "body"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["rigidbody", "--inertia", "1e200,1e200,1e200", "--omega0", "1e100,0,0",
                         "--dt", "1e-101", "--t-end", "1e-101", "--out-dir", str(out)])
        assert code == 0
        final = read_manifest(out / "run.json")["final_diagnostics"]
        assert final["energy_drift"] is None
        assert final["pi_drift"] == final["coadjoint_drift"] == 0.0

    def test_overflowed_attitude_is_named_non_finite(self, tmp_path, capsys):
        # Its distance from orthonormal is no number: the error says so, not "nan".
        code = main(["rigidbody", "--inertia", "1,2,3", "--omega0", "1e100,1,1", "--dt", "1e-3",
                     "--t-end", "1e-2", "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "non-finite" in err and "reduce dt" in err and "nan" not in err


class TestVerifyCommand:
    def test_wiring_with_single_criterion(self, tmp_path, monkeypatch, capsys):
        fast = [entry for entry in verification.CRITERIA if entry[0] == "C1"]
        monkeypatch.setattr(verification, "CRITERIA", fast)
        code = main(["verify", "--out-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "[PASS] C1" in captured.out
        manifest = read_manifest(tmp_path / "run.json")
        assert manifest["final_diagnostics"]["C1"]["passed"] is True
