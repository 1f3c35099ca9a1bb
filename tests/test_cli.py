import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wignerlab.cli as cli
from wignerlab.cli import (RunConfig, load_config, main, parse_config,
                           run_constraint_study, run_figure_comparison,
                           run_norms, run_solve, run_v_convergence)
from wignerlab.errors import ConfigurationError, SolverError

FIGURE_TEXT = """\
# comparison configuration
device_length = 50
segment = -1.5, 1.5, 0.2
N_x = 100
N_v = 256
R_h = 2048
Ly = 31
dy = 0.5
inflow_left = 1.0, 0.0, 0.0002
scheme = both
"""

TINY_TEXT = """\
device_length = 50
segment = -1.5, 1.5, 0.2
N_x = 6
N_v = 8
R_h = 16
Ly = 8
dy = 1.0
inflow_left = 1.0, 0.5, 0.25
"""

# conv_v.cfg's barrier and inflow on a coarse spatial mesh
ZERO_S_TEXT = """\
device_length = 50
segment = -1.5, 1.5, 0.2
N_x = 8
N_v = 64
R_h = 32
Ly = 8
dy = 1
inflow_left = 1.0, 0.5pi, 0.25
levels = 32, 64, 128
"""


class TestParseConfig:
    def test_full_configuration(self):
        cfg = parse_config(FIGURE_TEXT)
        assert cfg.n_x == 100 and cfg.n_v == 256 and cfg.r_h == 2048
        assert cfg.l_y == 31 and cfg.dy == 0.5
        assert cfg.segments == ((-1.5, 1.5, 0.2),)
        assert cfg.inflow_left == (1.0, 0.0, 0.0002)
        assert cfg.inflow_right is None
        assert cfg.scheme == "both"
        assert cfg.h == pytest.approx(1 / 4096)

    def test_pi_suffix(self):
        cfg = parse_config(TINY_TEXT + "inflow_right = 1, 0.5pi, 0.25\n")
        assert cfg.inflow_right[1] == pytest.approx(0.5 * np.pi)
        cfg = parse_config(TINY_TEXT + "inflow_right = 1, -pi, 0.25\n")
        assert cfg.inflow_right[1] == -np.pi

    def test_odd_nv_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config(TINY_TEXT.replace("N_v = 8", "N_v = 127"))
        assert "even" in str(err.value)

    def test_aliasing_guard(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config(TINY_TEXT.replace("Ly = 8", "Ly = 40"))
        assert "Ly" in str(err.value) and "R_h" in str(err.value)

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config(TINY_TEXT + "N_z = 3\n")
        assert "line 9" in str(err.value) and "N_z" in str(err.value)

    def test_malformed_number_reports_line(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config(TINY_TEXT.replace("N_x = 6", "N_x = six"))
        assert "line 3" in str(err.value)

    def test_missing_required_keys(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config("N_x = 6\n")
        msg = str(err.value)
        assert "N_v" in msg and "R_h" in msg

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config("N_x 6\n")
        assert "line 1" in str(err.value)

    def test_bad_scheme(self):
        with pytest.raises(ConfigurationError):
            parse_config(TINY_TEXT + "scheme = wrong\n")

    def test_levels_list(self):
        cfg = parse_config(TINY_TEXT + "levels = 4, 8, 16\n")
        assert cfg.levels == (4, 8, 16)


class TestMain:
    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_TEXT.replace("N_v = 8", "N_v = 7"))
        code = main(["solve", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_solver_error_exit_code(self, tmp_path, capsys, monkeypatch):
        cfg_file = tmp_path / "ok.cfg"
        cfg_file.write_text(TINY_TEXT)
        monkeypatch.setattr("wignerlab.cli.run_solve",
                            lambda *a, **k: (_ for _ in ()).throw(
                                SolverError("boom")))
        code = main(["solve", "--config", str(cfg_file), "--out",
                     str(tmp_path)])
        assert code == 3
        assert "solver error" in capsys.readouterr().err

    def test_iteration_cap_exits_with_solver_error(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setattr("wignerlab.bvp_solver.MAX_ITERATIONS", 2)
        cfg_file = tmp_path / "ok.cfg"
        # N_x = 10 puts a node at x = 5, where the barrier couples
        # velocities; at N_x = 6 no iteration is needed.
        cfg_file.write_text(TINY_TEXT.replace("N_x = 6", "N_x = 10"))
        code = main(["solve", "--config", str(cfg_file), "--out",
                     str(tmp_path / "out")])
        assert code == 3
        assert re.search(r"^solver error: GMRES did not converge in 2 "
                         r"iterations: relative residual \d\.\d{3}e[-+]\d+",
                         capsys.readouterr().err)

    def test_oversized_system_fails_fast_with_resource_error(self, tmp_path,
                                                             capsys):
        cfg_file = tmp_path / "big.cfg"
        cfg_file.write_text(TINY_TEXT.replace("N_v = 8", "N_v = 16777216"))
        start = time.perf_counter()
        code = main(["solve", "--config", str(cfg_file), "--out",
                     str(tmp_path / "out")])
        assert time.perf_counter() - start < 5
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "physical memory" in err

    def test_zero_constraint_residual_gives_nan_aggregate(self, tmp_path,
                                                          capsys):
        # At N_x = 8 every node is beyond the kernel's reach of the barrier
        # or at its symmetric centre, so S = 0 at every level.
        cfg_file = tmp_path / "zero.cfg"
        cfg_file.write_text(ZERO_S_TEXT)
        out = tmp_path / "out"
        code = main(["constraint", "--config", str(cfg_file), "--out",
                     str(out)])
        assert code == 0
        assert (out / "report.csv").is_file()
        assert "aggregate order: nan" in capsys.readouterr().out

    def test_solve_success(self, tmp_path, capsys):
        cfg_file = tmp_path / "ok.cfg"
        cfg_file.write_text(TINY_TEXT)
        out = tmp_path / "out"
        code = main(["solve", "--config", str(cfg_file), "--out", str(out),
                     "--scheme", "improved"])
        assert code == 0
        assert (out / "solution_improved.csv").exists()
        assert "residual" in capsys.readouterr().out


class TestRunners:
    def test_figure_outputs_and_determinism(self, tmp_path):
        cfg = parse_config(TINY_TEXT + "scheme = both\n")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_figure_comparison(cfg, out)
            outs.append({p.name: p.read_bytes()
                         for p in sorted(out.iterdir())})
        assert set(outs[0]) == {
            "slice_left_original.csv", "slice_left_improved.csv",
            "slice_center_original.csv", "slice_center_improved.csv",
            "figure_left.svg", "figure_center.svg"}
        assert outs[0] == outs[1]  # byte-identical reruns

    def test_figure_zero_potential_reproduces_inflow(self, tmp_path):
        text = TINY_TEXT.replace("segment = -1.5, 1.5, 0.2\n", "")
        cfg = parse_config(text + "scheme = both\n")
        result = run_figure_comparison(cfg, tmp_path / "o")
        import csv
        for scheme in ("original", "improved"):
            with open(tmp_path / "o" / f"slice_center_{scheme}.csv") as fh:
                fh.readline()  # location comment
                rows = list(csv.DictReader(fh))
            v = np.array([float(r["v"]) for r in rows])
            f = np.array([float(r["f"]) for r in rows])
            expected = np.where(v > 0, np.exp(-(v - 0.5) ** 2 / 0.25), 0.0)
            np.testing.assert_allclose(f, expected, atol=1e-12)

    def test_solve_writes_solutions(self, tmp_path):
        cfg = parse_config(TINY_TEXT)
        sols = run_solve(cfg, tmp_path, ["original", "improved"])
        assert set(sols) == {"original", "improved"}
        for scheme in sols:
            path = tmp_path / f"solution_{scheme}.csv"
            assert path.read_text().startswith("x,v,f\n")

    def test_norms_csv(self, tmp_path):
        cfg = parse_config(TINY_TEXT + "levels = 16, 32\nnorm_position = 10\n")
        rows = run_norms(cfg, tmp_path)
        assert [r["r_h"] for r in rows] == [16, 32]
        header = (tmp_path / "norms.csv").read_text().splitlines()[0]
        assert header == "r_h,norm_theta,norm_A,norm_B"

    def test_conv_requires_two_levels(self, tmp_path):
        from wignerlab.cli import run_v_convergence
        cfg = parse_config(TINY_TEXT + "levels = 8\n")
        with pytest.raises(ConfigurationError):
            run_v_convergence(cfg, tmp_path)


# conv_v.cfg's barrier and inflow on a tiny mesh
LEVELS_TEXT = """\
device_length = 50
segment = -1.5, 1.5, 0.2
N_x = 8
N_v = 32
R_h = 16
Ly = 8
dy = 1
inflow_left = 1.0, 0.5pi, 0.25
scheme = improved
"""


class TestLevels:
    @pytest.mark.parametrize("command,levels", [
        ("conv-v", "32, 64"),  # one error, no order
        ("conv-x", "8, 16"),
        ("constraint", "64"),
        ("conv-v", "128, 64, 32"),  # descending
        ("conv-x", "16, 8, 4"),
        ("conv-x", "8, 12"),
        ("conv-x", "8, 12, 16"),  # 12 does not divide 16
        ("conv-v", "32, 32, 64"),
        ("norms", "0, 16"),
        ("conv-v", "0, 32, 64"),  # 0 is not the config's own N_v
        ("conv-v", "32, 63, 128"),  # odd N_v after a good level
        ("conv-v", "2, 4, 8"),  # one velocity on each half-line
        ("constraint", "32, 63"),
        ("conv-x", "2, 4, 8"),  # N_x below the upwind stencil's 4
    ])
    def test_bad_levels_exit_2_before_any_solve(self, tmp_path, capsys,
                                                monkeypatch, command, levels):
        calls = []
        for name in ("solve_bvp", "build_theta_kernel"):
            monkeypatch.setattr(cli, name,
                                lambda *a, name=name: calls.append(name))
        cfg_file = tmp_path / "levels.cfg"
        cfg_file.write_text(LEVELS_TEXT + f"levels = {levels}\n")
        code = main([command, "--config", str(cfg_file), "--out",
                     str(tmp_path / "out")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err
        assert calls == []


TINY_FIELDS = dict(segments=((-1.5, 1.5, 0.2),), n_x=6, n_v=8, r_h=16,
                   l_y=8, dy=1.0, inflow_left=(1.0, 0.5, 0.25))


class TestValidation:
    @pytest.mark.parametrize("line", [
        "N_x = inf",
        "N_x = nan",
        "segment = 1, 0, 0.2",
        "segment = 0, nan, 0.2",
        "inflow_left = 1.0, 0.5pi, 0",
        "inflow_left = 1.0, 0.5, -0.25",
        "inflow_left = nan, 0.5, 0.25",
        "inflow_right = 1.0, inf, 0.25",
    ])
    def test_bad_config_exits_with_configuration_error(self, tmp_path, capsys,
                                                       line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_TEXT + line + "\n")
        code = main(["solve", "--config", str(bad), "--out",
                     str(tmp_path / "out")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("n_x", float("inf")), ("n_x", float("nan")), ("n_x", 3),
        ("n_x", 6.5), ("n_v", 7), ("n_v", float("nan")), ("r_h", 0.0),
        ("r_h", float("nan")), ("l_y", 40.0), ("l_y", float("nan")),
        ("dy", 0.0), ("dy", 3.0), ("device_length", 0.0),
        ("device_length", float("inf")), ("segments", ((1.0, 0.0, 0.2),)),
        ("segments", ((0.0, float("nan"), 0.2),)),
        ("default_v", float("nan")), ("inflow_left", (1.0, 0.5, 0.0)),
        ("inflow_left", (1.0, 0.5, -1.0)),
        ("inflow_right", (float("nan"), 0.0, 1.0)), ("scheme", "wrong"),
        ("norm_position", float("inf")),
    ])
    def test_direct_construction_validates(self, field, value):
        RunConfig(**TINY_FIELDS)
        with pytest.raises(ConfigurationError):
            RunConfig(**{**TINY_FIELDS, field: value})

    def test_fields_become_tuples(self):
        cfg = RunConfig(**{**TINY_FIELDS, "segments": [[-1.5, 1.5, 0.2]],
                           "levels": [4, 8], "inflow_left": [1.0, 0.5, 0.25]})
        assert cfg.segments == ((-1.5, 1.5, 0.2),)
        assert cfg.levels == (4, 8)
        assert cfg.inflow_left == (1.0, 0.5, 0.25)
        assert cfg == parse_config(TINY_TEXT + "levels = 4, 8\n")
        hash(cfg)

    _token = st.one_of(
        st.sampled_from(["pi", "-pi", "+pi", "0.5pi", "- pi", "nan", "inf",
                         "-inf", "1e400", "0", "-1", "", "-", "both", "x"]),
        st.floats().map(repr), st.integers(-10, 300).map(str),
        st.text(max_size=4))
    _value = st.one_of(
        _token, st.lists(_token, min_size=3, max_size=3).map(", ".join),
        st.lists(_token, max_size=5).map(", ".join))
    _line = st.one_of(
        st.tuples(st.sampled_from(sorted(cli._FIELDS) + ["N_z"]), _value)
        .map(" = ".join),
        st.text(max_size=20))

    @settings(max_examples=500, deadline=None)
    @given(base=st.sampled_from(["", TINY_TEXT]),
           lines=st.lists(_line, max_size=6))
    def test_any_text_gives_config_or_configuration_error(self, base, lines):
        try:
            cfg = parse_config(base + "\n".join(lines) + "\n")
        except ConfigurationError:
            return
        assert isinstance(cfg, RunConfig)


class TestSharedSweep:
    def test_conv_v_and_constraint_share_one_solve_per_level(self, tmp_path,
                                                             monkeypatch):
        # N_x = 10 puts a node at x = 5, inside the kernel's reach of the
        # barrier, so S is nonzero and the byte comparison has content.
        cfg = parse_config(TINY_TEXT.replace("N_x = 6", "N_x = 10")
                           + "levels = 32, 64, 128\n")
        calls = []
        solve_bvp = cli.solve_bvp

        def counting(profile, smesh, vmesh, quad, scheme, bc):
            calls.append((scheme, vmesh.n_v))
            return solve_bvp(profile, smesh, vmesh, quad, scheme, bc)

        monkeypatch.setattr(cli, "solve_bvp", counting)
        cli._velocity_sweep.cache_clear()
        run_v_convergence(cfg, tmp_path / "conv")
        report = run_constraint_study(cfg, tmp_path / "shared")
        assert all(row[1] > 0 for rows in report.rows.values()
                   for row in rows)
        expected = [(s, n_v) for s in ("original", "improved")
                    for n_v in (32, 64, 128)]
        assert calls == expected

        cli._velocity_sweep.cache_clear()
        run_constraint_study(cfg, tmp_path / "fresh")
        assert calls == expected * 2
        shared = (tmp_path / "shared" / "report.csv").read_bytes()
        assert shared == (tmp_path / "fresh" / "report.csv").read_bytes()


def test_interp_only_on_conv_v(tmp_path, capsys):
    cfg_file = tmp_path / "ok.cfg"
    cfg_file.write_text(TINY_TEXT)
    with pytest.raises(SystemExit):
        main(["solve", "--config", str(cfg_file), "--out",
              str(tmp_path / "out"), "--interp", "sinc"])
    assert "unrecognized arguments: --interp" in capsys.readouterr().err
