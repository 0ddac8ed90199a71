"""Command-line surface: exit codes, files, determinism (small grids)."""

import numpy as np
import pytest

import pacavity as pv
from pacavity import io as pio
from pacavity.cli import main


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
        assert "multiple" in capsys.readouterr().err

    def test_snap_time_override(self, tmp_path):
        assert run("forward", "--n", "33", "--T", "1.001", "--snap-time", "true",
                   "--out", str(tmp_path)) == 0


class TestReconstructCommand:
    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("forward", "--n", "65", "--T", "2.0", "--out", str(out)) == 0
        assert run("reconstruct", str(out / "trace.csv"), "--n", "65",
                   "--iterations", "2", "--out", str(out)) == 0
        printed = capsys.readouterr().out
        assert "relative L2 error" in printed
        assert (out / "recon.csv").exists()
        assert (out / "recon.pgm").exists()
        errs = (out / "errors.csv").read_text().splitlines()
        assert errs[0] == "iteration,relative_l2_error"
        assert len(errs) == 3
        xs = (out / "cross_section.csv").read_text().splitlines()
        assert xs[0] == "x,phantom,reconstruction"
        assert len(xs) == 66

    def test_missing_trace_reports_path(self, tmp_path, capsys):
        rc = run("reconstruct", str(tmp_path / "nope.csv"), "--out", str(tmp_path))
        assert rc != 0
        assert "nope.csv" in capsys.readouterr().err

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
        assert run("reconstruct", str(out / "trace.csv"), "--n", "33",
                   "--dt-factor", "0.4", "--out", str(out)) == 0

    @pytest.mark.parametrize("options, key", [
        (["--dt-factor", "0.4"], "dt_factor"),
        (["--gamma", "full"], "gamma"),
        (["--gamma", "left_bottom", "--lambda", "2"], "lambda"),
        (["--gamma", "left_bottom", "--taper", "0.2"], "lambda"),
    ])
    def test_configuration_conflicting_with_trace_names_key(self, tmp_path, capsys,
                                                             options, key):
        # a left+bottom trace inverted as full data would read the unmeasured
        # walls as zero pressure and return a wrong image without complaint
        out = tmp_path / "o"
        assert run("forward", "--n", "33", "--T", "1.0", "--gamma", "left_bottom",
                   "--out", str(out)) == 0
        capsys.readouterr()
        rc = run("reconstruct", str(out / "trace.csv"), "--n", "33", *options,
                 "--out", str(out))
        assert rc != 0
        assert f"'{key}'" in capsys.readouterr().err
        assert run("reconstruct", str(out / "trace.csv"), "--n", "33",
                   "--gamma", "left_bottom", "--out", str(out)) == 0


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

    def test_file_then_preset_then_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 33\niterations = 4\n")
        out = tmp_path / "demo"
        assert run("demo", "fig3-iter-full", "--config", str(cfg),
                   "--iterations", "2", "--out", str(out)) == 0
        d = out / "fig3-iter-full"
        assert pio.read_field(d / "recon.csv").grid.n == 33
        assert len((d / "errors.csv").read_text().splitlines()) == 1 + 2

    def test_noise_demo_covers_both_apertures(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert run("demo", "fig2-noise", "--n", "33", "--out", str(out)) == 0
        printed = capsys.readouterr().out
        assert "full" in printed and "left_bottom" in printed
        d = out / "fig2-noise"
        assert (d / "full_recon.csv").exists()
        assert (d / "left_bottom_recon.csv").exists()
