"""Command-line surface: exit codes, files, determinism (small grids)."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import pacavity as pv
from pacavity import cli
from pacavity import io as pio
from pacavity.cli import main
from pacavity.core import MAX_N

from helpers import graded


def run(*argv):
    return main(list(argv))


class TestPhantomCommand:
    def test_default_writes_both_files(self, tmp_path):
        out = tmp_path / "o"
        assert run("phantom", "--n", "33", "--out", str(out)) == 0
        f = pio.read_field(out / "phantom.csv")
        assert f.grid.n == 33
        direct = pv.paper_six_phantom(pv.Grid2D(33))
        assert np.array_equal(f.values, direct.values)
        assert (out / "phantom.pgm").exists()

    def test_explicit_bumps(self, tmp_path):
        out = tmp_path / "o"
        assert run("phantom", "--n", "33", "--bumps", "0.0,0.0,0.3,1.0",
                   "--out", str(out)) == 0
        f = pio.read_field(out / "phantom.csv")
        assert f.values.max() == pytest.approx(1.0, abs=1e-6)

    def test_invalid_bump_names_index(self, tmp_path, capsys):
        rc = run("phantom", "--n", "33", "--bumps", "0.0,0.0,0.3,1.0; 0.9,0.9,0.3,1.0",
                 "--out", str(tmp_path))
        assert rc != 0
        assert "bump 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["phantom"], ["forward"], ["demo", "fig1-full"]],
                         ids=["phantom", "forward", "demo"])
def test_n_above_ceiling_is_refused(tmp_path, capsys, monkeypatch, command):
    # refused when the key is parsed: no grid, phantom or trace is made
    def make_grid(self):
        raise AssertionError("make_grid was called")

    monkeypatch.setattr(pio.RunConfig, "make_grid", make_grid)
    assert run(*command, "--n", str(MAX_N + 1), "--out", str(tmp_path)) == 2
    assert "key 'n'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


class TestForwardCommand:
    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("forward", "--n", "33", "--T", "1.0", "--out", str(out)) == 0
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
        assert (a / "metrics.txt").read_bytes() == (b / "metrics.txt").read_bytes()

    def test_noise_ratio_reported(self, tmp_path):
        out = tmp_path / "o"
        assert run("forward", "--n", "33", "--T", "1.0", "--noise", "0.5",
                   "--seed", "7", "--out", str(out)) == 0
        metrics = (out / "metrics.txt").read_text()
        ratio = float([ln.split("=")[1] for ln in metrics.splitlines()
                       if ln.startswith("noise_ratio")][0])
        assert ratio == pytest.approx(0.5, abs=1e-12)

    def test_non_multiple_T_is_config_error(self, tmp_path, capsys):
        rc = run("forward", "--n", "33", "--T", "1.001", "--out", str(tmp_path))
        assert rc != 0
        err = capsys.readouterr().err
        assert "key 'T'" in err and "multiple" in err

    @pytest.mark.parametrize("bumps", ["0,0,nan,1", "nan,0,0.3,1", "0,0,0.3,inf"])
    def test_non_finite_bump_is_config_error(self, tmp_path, capsys, bumps):
        rc = run("forward", "--n", "33", "--T", "1", "--bumps", bumps,
                 "--out", str(tmp_path))
        assert rc == 2
        err = capsys.readouterr().err
        assert "'bumps'" in err and "bump 0" in err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("snap", ["false", "true"])
    def test_huge_T_is_config_error(self, tmp_path, capsys, snap):
        # T / dt overflows to inf, which no step count can round
        rc = run("forward", "--n", "33", "--T", "1e308", "--snap-time", snap,
                 "--out", str(tmp_path))
        assert rc == 2
        err = capsys.readouterr().err
        assert "key 'T'" in err and "T/dt must be finite" in err

    @pytest.mark.parametrize("argv", [
        ["--dt-factor", "1e-300"],
        ["--dt-factor", "1e-12", "--snap-time", "true"],
    ], ids=["dt_factor_1e-300", "dt_factor_1e-12_snapped"])
    def test_step_count_above_ceiling_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                      argv):
        # refused before any trace is synthesized or its memory taken
        def synthesize_data(*args):
            raise AssertionError("synthesize_data was called")

        monkeypatch.setattr(cli, "synthesize_data", synthesize_data)
        tracemalloc.start()
        try:
            rc = run("forward", "--n", "33", "--T", "1", *argv, "--out", str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        err = capsys.readouterr().err
        assert "key 'T'" in err and "dt_factor" in err and "ceiling" in err
        assert peak < 1 << 20
        assert not (tmp_path / "trace.csv").exists()

    def test_huge_noise_is_config_error(self, tmp_path, capsys):
        # the scaled noise would overflow: refused before any sample is drawn,
        # without a numpy overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run("forward", "--n", "33", "--T", "1", "--noise", "1e308",
                     "--out", str(tmp_path))
        assert rc == 2
        err = capsys.readouterr().err
        assert "key 'noise'" in err and "too large" in err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("command", [["forward"], ["demo", "fig1-full"]],
                             ids=["forward", "demo"])
    def test_T_is_refused_before_the_phantom_is_rendered(self, tmp_path, capsys,
                                                          monkeypatch, command):
        def make_phantom(self, grid):
            raise AssertionError("make_phantom was called")

        monkeypatch.setattr(pio.RunConfig, "make_phantom", make_phantom)
        rc = run(*command, "--n", "33", "--T", "1e308", "--out", str(tmp_path))
        assert rc == 2
        assert "key 'T'" in capsys.readouterr().err

    def test_snap_time_override(self, tmp_path):
        assert run("forward", "--n", "33", "--T", "1.001", "--snap-time", "true",
                   "--out", str(tmp_path)) == 0


class TestReconstructCommand:
    def test_end_to_end(self, tmp_path):
        out = tmp_path / "o"
        assert run("forward", "--n", "65", "--T", "2.0", "--out", str(out)) == 0
        assert run("reconstruct", str(out / "trace.csv"), "--n", "65", "--T", "2.0",
                   "--iterations", "2", "--out", str(out)) == 0
        assert (out / "recon.csv").exists()
        assert (out / "recon.pgm").exists()

    def test_trace_from_another_phantom_is_not_scored(self, tmp_path, capsys):
        # the trace does not record its phantom: scoring it against the
        # configured default would report a large error for a good estimate
        out = tmp_path / "o"
        assert run("forward", "--n", "33", "--T", "2", "--bumps", "0.2,0.1,0.3,1.0",
                   "--out", str(out)) == 0
        capsys.readouterr()
        assert run("reconstruct", str(out / "trace.csv"), "--n", "33", "--T", "2",
                   "--out", str(out)) == 0
        printed = capsys.readouterr().out
        assert "%" not in printed
        assert "recon.csv" in printed
        assert (out / "recon.csv").exists()
        assert not (out / "errors.csv").exists()
        assert not (out / "cross_section.csv").exists()

    def test_missing_trace_reports_path(self, tmp_path, capsys):
        rc = run("reconstruct", str(tmp_path / "nope.csv"), "--out", str(tmp_path))
        assert rc != 0
        assert "nope.csv" in capsys.readouterr().err
        # any OS error is reported with its path, not raised: a directory
        # given as a file, and a file given as a directory
        afile = tmp_path / "afile"
        afile.write_text("")
        for args, path in ((("reconstruct", str(tmp_path)), tmp_path),
                           (("reconstruct", "x.csv", "--config", str(tmp_path)), tmp_path),
                           (("phantom", "--n", "9", "--out", str(afile / "sub")), afile / "sub")):
            assert run(*args) == 2
            assert str(path) in capsys.readouterr().err

    def test_undecodable_trace_names_file(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("forward", "--n", "33", "--T", "1.0", "--out", str(out)) == 0
        bad = tmp_path / "bad.csv"
        bad.write_bytes((out / "trace.csv").read_bytes().replace(b"trace v4", b"trace v4 \xe9", 1))
        capsys.readouterr()
        assert run("reconstruct", str(bad), "--n", "33", "--T", "1.0", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_v2_trace_names_file_and_n(self, tmp_path, capsys):
        # the same trace as v2 wrote it: no n entry, a t,node_0,... row and
        # a time column
        out = tmp_path / "o"
        assert run("forward", "--n", "33", "--T", "1.0", "--out", str(out)) == 0
        header, *rows = (out / "trace.csv").read_text().splitlines()
        dt = pv.Grid2D(33).dt
        bad = tmp_path / "v2.csv"
        bad.write_text("\n".join([header.replace("trace v4; n = 33;", "trace v2;"),
                                  "t," + ",".join(f"node_{b}" for b in range(128))]
                                 + [f"{j * dt!r},{row}" for j, row in enumerate(rows)]) + "\n")
        capsys.readouterr()
        assert run("reconstruct", str(bad), "--n", "33", "--T", "1.0", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "'# n = ...'" in err

    def test_parent_layout_partial_trace_names_file(self, tmp_path, capsys):
        # a left+bottom trace as v3 wrote it: all 128 boundary nodes a row,
        # zeros off Gamma, where a row now holds Gamma's 65 values
        out = tmp_path / "o"
        assert run("forward", "--n", "33", "--T", "1.0", "--gamma", "left_bottom",
                   "--out", str(out)) == 0
        trace = pio.read_trace(out / "trace.csv")
        rows = np.zeros((trace.samples.shape[0], 128))
        rows[:, trace.bspec.gamma] = trace.samples
        header = (out / "trace.csv").read_text().splitlines()[0]
        bad = tmp_path / "v3.csv"
        bad.write_text("\n".join([header.replace("trace v4", "trace v3")]
                                 + [",".join(f"{v:.16e}" for v in row) for row in rows]) + "\n")
        capsys.readouterr()
        assert run("reconstruct", str(bad), "--n", "33", "--T", "1.0", "--gamma", "left_bottom",
                   "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {bad}:2: expected 65 values per row, got 128")

    def test_grid_mismatch_detected(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("forward", "--n", "33", "--T", "1.0", "--out", str(out)) == 0
        rc = run("reconstruct", str(out / "trace.csv"), "--n", "65", "--out", str(out))
        assert rc != 0
        assert "does not match" in capsys.readouterr().err

    def test_non_default_time_step_round_trip(self, tmp_path):
        out = tmp_path / "o"
        assert run("forward", "--n", "33", "--T", "1.0", "--dt-factor", "0.4",
                   "--out", str(out)) == 0
        assert run("reconstruct", str(out / "trace.csv"), "--n", "33", "--T", "1.0",
                   "--dt-factor", "0.4", "--out", str(out)) == 0

    @pytest.mark.parametrize("options, key", [
        (["--dt-factor", "0.4"], "dt_factor"),
        (["--gamma", "full"], "gamma"),
        (["--T", "1.2", "--snap-time", "true"], "T"),
        (["--gamma", "0,1,2"], "gamma"),
        (["--n", "65"], "n"),
        (["--T", "2.0"], "T"),
    ])
    def test_configuration_conflicting_with_trace_names_key(self, tmp_path, capsys,
                                                             options, key):
        # a left+bottom trace inverted as full data would read the unmeasured
        # walls as zero pressure and return a wrong image without complaint
        out = tmp_path / "o"
        assert run("forward", "--n", "33", "--T", "1.0", "--gamma", "left_bottom",
                   "--out", str(out)) == 0
        capsys.readouterr()
        rc = run("reconstruct", str(out / "trace.csv"), "--n", "33", "--T", "1.0", *options,
                 "--out", str(out))
        assert rc == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err and "does not match" in err
        assert run("reconstruct", str(out / "trace.csv"), "--n", "33", "--T", "1.0",
                   "--gamma", "left_bottom", "--out", str(out)) == 0

    def test_per_node_lambda_trace_inverts_with_its_own_spec(self, tmp_path):
        # no key states lambda: the trace's header does, one value per Gamma node
        grid = pv.Grid2D(33)
        T = 2.0
        g = pv.synthesize_data(pv.paper_six_phantom(grid), graded(grid), T, grid.dt)
        pio.write_trace(tmp_path / "trace.csv", g)
        g = pio.read_trace(tmp_path / "trace.csv")
        out = tmp_path / "o"
        assert run("reconstruct", str(tmp_path / "trace.csv"), "--n", "33", "--T", "2",
                   "--gamma", "left_bottom", "--iterations", "2", "--out", str(out)) == 0
        cfg = pv.ReconConfig(T=T, iterations=2, c=pv.ScalarField.constant(grid, 1.0),
                             bspec=g.bspec)
        expected = pv.neumann_iterate(g, cfg).estimate.first
        assert np.array_equal(pio.read_field(out / "recon.csv").values, expected.values)


@pytest.mark.parametrize("command", [["phantom"], ["forward"], ["reconstruct", "t.csv"],
                                     ["demo", "fig1-full"]],
                         ids=["phantom", "forward", "reconstruct", "demo"])
@pytest.mark.parametrize("option", [["--lambda", "1"], ["--subspace", "H1"]],
                         ids=["lambda", "subspace"])
def test_retired_options_are_refused(tmp_path, capsys, command, option):
    # lambda comes from the trace and the iteration runs on H1: neither is an option
    with pytest.raises(SystemExit) as info:
        run(*command, "--n", "9", *option, "--out", str(tmp_path))
    assert info.value.code == 2
    assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


class TestDemoCommand:
    def test_unknown_name_lists_valid(self, tmp_path, capsys):
        rc = run("demo", "made-up", "--out", str(tmp_path))
        assert rc != 0
        err = capsys.readouterr().err
        for name in ("fig1-full", "fig4-iter-partial"):
            assert name in err

    def test_small_grid_demo_runs(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert run("demo", "fig3-iter-full", "--n", "33", "--out", str(out)) == 0
        printed = capsys.readouterr().out
        assert "relative L2 error" in printed
        d = out / "fig3-iter-full"
        for name in ("phantom.csv", "trace.csv", "recon.csv", "errors.csv",
                     "cross_section.csv"):
            assert (d / name).exists()

    def test_all_zero_phantom_is_config_error(self, tmp_path, capsys):
        # a zero phantom leaves the demo nothing to score against
        rc = run("demo", "fig1-full", "--n", "33", "--bumps", "0,0,0.3,0",
                 "--out", str(tmp_path))
        assert rc == 2
        err = capsys.readouterr().err
        assert "'bumps'" in err and "zero at every node" in err

    def test_file_then_preset_then_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 33\niterations = 4\n")
        out = tmp_path / "demo"
        assert run("demo", "fig3-iter-full", "--config", str(cfg),
                   "--iterations", "2", "--out", str(out)) == 0
        d = out / "fig3-iter-full"
        assert pio.read_field(d / "recon.csv").grid.n == 33
        assert len((d / "errors.csv").read_text().splitlines()) == 1 + 2

    def test_noise_demo_takes_configured_gamma(self, tmp_path):
        out = tmp_path / "demo"
        assert run("demo", "fig2-noise", "--n", "33", "--gamma", "0,1,2",
                   "--out", str(out)) == 0
        d = out / "fig2-noise"
        header = (d / "trace.csv").read_text().splitlines()[0]
        assert "; gamma = 0,1,2;" in header
        for name in ("phantom.csv", "recon.csv", "errors.csv", "cross_section.csv"):
            assert (d / name).exists()


def test_files_are_read_and_written_as_utf8(tmp_path):
    # with the locale's default encoding, any text open, read_text or
    # write_text without an encoding raises EncodingWarning, an error here
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 17\nT = 2\ngamma = left_bottom\n", encoding="utf-8")
    out = tmp_path / "o"
    for args in (["forward", "--config", str(cfg)],
                 ["reconstruct", str(out / "trace.csv"), "--config", str(cfg)],
                 ["demo", "fig4-iter-partial", "--n", "17"]):
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "pacavity.cli", *args, "--out", str(out)],
            env=env, capture_output=True, encoding="utf-8")
        assert proc.returncode == 0, proc.stderr
