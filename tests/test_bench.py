"""Experiment harness and command line front end."""

import csv
import io
import typing

import numpy as np
import pytest

from almprec import cli
from almprec.alm import AlmConfig
from almprec.bench import (ExperimentConfig, condition_estimate,
                           csv_to_table, materialize, random_spd_matrix,
                           rows_to_csv, run_alm_experiment, run_experiment,
                           run_linsys_experiment, run_spectral_experiment)
from almprec.cli import ConfigError, build_experiment_config, main, \
    parse_config_text
from almprec.sparse import SparseSymmetricMatrix, write_matrix_market


def _csv_rows(text):
    """The rows of CSV text, as dicts from its header."""
    return list(csv.DictReader(io.StringIO(text)))


class TestConditionEstimate:
    def test_diagonal_matrix(self):
        d = np.array([1.0, 10.0, 100.0])
        kappa = condition_estimate(lambda x: d * x, 3)
        assert kappa == pytest.approx(100.0)

    def test_identity(self):
        assert condition_estimate(lambda x: x, 4) == pytest.approx(1.0)

    def test_singular_reports_inf(self):
        d = np.array([1.0, 0.0])
        assert condition_estimate(lambda x: d * x, 2) == np.inf


def test_materialize_applies_the_identity_as_one_block():
    a = np.random.default_rng(4).standard_normal((5, 5))
    shapes = []

    def op(x):
        shapes.append(x.shape)
        return a @ x
    np.testing.assert_array_equal(materialize(op, 5), a)
    assert shapes == [(5, 5)]


class TestRandomInstance:
    def test_spd_and_deterministic(self):
        a = random_spd_matrix(30, 0.1, 7)
        b = random_spd_matrix(30, 0.1, 7)
        np.testing.assert_array_equal(a.to_dense(), b.to_dense())
        assert np.linalg.eigvalsh(a.to_dense()).min() > 0.0

    def test_seed_changes_instance(self):
        a = random_spd_matrix(10, 0.2, 0)
        b = random_spd_matrix(10, 0.2, 1)
        assert not np.array_equal(a.to_dense(), b.to_dense())

    @pytest.mark.parametrize("kind", ["spectral", "linsys"])
    def test_a_random_run_takes_one_eigenvalue(self, kind, monkeypatch):
        # random_spd_matrix places lambda_min at 1e-3; the run does not
        # compute it again, and reports spd_shift 0.
        calls = []
        eigenvalue = SparseSymmetricMatrix.min_eigenvalue
        monkeypatch.setattr(SparseSymmetricMatrix, "min_eigenvalue",
                            lambda m: calls.append(m.n) or eigenvalue(m))
        rows = run_experiment(ExperimentConfig(kind=kind, n=20, m=2, seed=5,
                                               rho_list=(1.0, 100.0)))
        assert calls == [20]
        assert [row["spd_shift"] for row in rows] == [0.0, 0.0]

    def test_a_loaded_indefinite_matrix_is_shifted(self, tmp_path):
        path = tmp_path / "m.mtx"
        write_matrix_market(SparseSymmetricMatrix.from_dense(
            np.diag([2.0, -1.0, 3.0])), path)
        rows = run_linsys_experiment(ExperimentConfig(
            kind="linsys", matrix=str(path), m=1, rho_list=(10.0,)))
        assert rows[0]["spd_shift"] == 1.0 + 1e-6


class TestSpectralExperiment:
    def test_rows_and_residual_column(self):
        cfg = ExperimentConfig(kind="spectral", n=16, m=1, seed=3,
                               rho_list=(1.0, 100.0),
                               drop_tol_list=(0.2,))
        rows = run_spectral_experiment(cfg)
        assert len(rows) == 2
        for row in rows:
            assert row["kappa_H"] > 0 and row["kappa_PH"] > 0
            assert "spectrum_identity_residual" in row

    def test_exact_aux_keeps_preconditioned_kappa_one(self):
        cfg = ExperimentConfig(kind="spectral", n=12, m=3, seed=0,
                               rho_list=(1.0, 1e4),
                               aux_kind="exact")
        rows = run_spectral_experiment(cfg)
        for row in rows:
            assert row["kappa_PH"] == pytest.approx(1.0, rel=1e-6)


class TestLinsysExperiment:
    def test_pcg_beats_cg(self):
        cfg = ExperimentConfig(kind="linsys", n=40, m=5, seed=1,
                               rho_list=(100.0,), drop_tol_list=(0.05,))
        row = run_linsys_experiment(cfg)[0]
        assert row["PCG"] != "n/c" and row["CG"] != "n/c"
        assert row["PCG"] <= row["CG"]
        assert 0 < row["nnz_Z/n^2"] <= 1.0


class TestAlmExperiment:
    def test_grid_rows(self):
        cfg = ExperimentConfig(kind="solve", problems=("EQ-QP",),
                               solvers=("truncated-newton", "spg"),
                               hessian_modes=("NW",),
                               policies=("auto",))
        rows = run_alm_experiment(cfg)
        assert len(rows) == 2
        for row in rows:
            assert row["status"] == "converged"
            assert row["ItL"] <= 50
            assert row["time_s"] >= 0.0


class TestOutput:
    def test_csv_format(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": 1.0 / 3.0}]
        text = rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "a,b"
        assert lines[2] == "2,0.33333333333333331"

    def test_table_alignment_derived_from_csv(self):
        text = rows_to_csv([{"col": "x", "n": 100}, {"col": "yy", "n": 7}])
        table = csv_to_table(text)
        lines = table.splitlines()
        assert lines[0].startswith("col")
        assert all(len(line.split()) == 2 for line in lines)

    def test_time_column_zeroed_when_stable(self):
        rows = [{"a": 1, "time_s": 1.23}]
        text = rows_to_csv(rows, time_column_stable=True)
        assert text.splitlines()[1] == "1,0"

    def test_determinism_of_experiment_csv(self):
        cfg = ExperimentConfig(kind="linsys", n=20, m=3, seed=5,
                               rho_list=(1.0, 10.0))
        a = rows_to_csv(run_linsys_experiment(cfg))
        b = rows_to_csv(run_linsys_experiment(cfg))
        assert a == b


class TestConfigParsing:
    def test_key_value_lines(self):
        pairs = parse_config_text("n = 10\n# comment\nm=3\n")
        assert pairs == {"n": "10", "m": "3"}

    def test_bad_line_reports_location(self):
        with pytest.raises(ConfigError, match=":2"):
            parse_config_text("n = 1\nbogus\n", source="f")

    def test_build_config_types(self):
        cfg = build_experiment_config("linsys", {
            "n": "25", "density": "0.2", "rho_list": "1.0,10.0",
            "problems": "EQ-QP,HS48", "alm.max_outer": "7",
        })
        assert cfg.n == 25 and cfg.density == 0.2
        assert cfg.rho_list == (1.0, 10.0)
        assert cfg.problems == ("EQ-QP", "HS48")
        assert cfg.alm.max_outer == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_experiment_config("linsys", {"wat": "1"})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            build_experiment_config("linsys", {"n": "many"})

    def test_bad_value_reports_key_and_line(self):
        pairs = parse_config_text("n = 10\nn = many\n", source="f")
        with pytest.raises(ConfigError, match="^f:2: bad value for 'n'"):
            build_experiment_config("linsys", pairs)

    def test_rejected_alm_set_blames_the_key_at_fault(self):
        pairs = parse_config_text("alm.eps_opt = 1e-8\nalm.eps_feas = 1e-8\n"
                                  "alm.drop_tol = -1\n", source="f")
        with pytest.raises(ConfigError,
                           match="^f:3: bad value for 'alm.drop_tol': "
                                 "drop tolerance"):
            build_experiment_config("solve", pairs)

    def test_rejected_alm_pair_blames_the_key_that_was_set(self):
        pairs = parse_config_text("alm.max_outer = 3\nalm.eps_opt = inf\n",
                                  source="f")
        with pytest.raises(ConfigError,
                           match="^f:2: bad value for 'alm.eps_opt': "
                                 "eps_opt must be positive and finite, "
                                 "got inf$"):
            build_experiment_config("solve", pairs)

    @pytest.mark.parametrize("line, message", [
        ("n = 0", "n must be at least 1"),
        ("m = -1", "m must be nonnegative"),
        ("density = 1.5", "density must lie in \\[0, 1\\]"),
        ("density = -0.1", "density must lie in \\[0, 1\\]"),
        ("tol = 0", "tol must be positive"),
        ("tol = inf", "tol must be positive and finite"),
        ("rho_list =", "rho_list must not be empty"),
        ("drop_tol_list = ,", "drop_tol_list must not be empty"),
        ("problems =", "problems must not be empty"),
        ("solvers =", "solvers must not be empty"),
        ("hessian_modes =", "hessian_modes must not be empty"),
        ("policies =", "policies must not be empty"),
        ("rho_list = 1.0, 0.0", "rho must be positive"),
        ("drop_tol_list = 0.1, -1e-3", "drop tolerance must be nonnegative"),
        ("aux_kind = cholesky", "unknown auxiliary preconditioner kind"),
        ("solvers = spg, foo", "unknown solvers entry 'foo'"),
        ("hessian_modes = XX", "unknown hessian_modes entry 'XX'"),
        ("policies = never", "unknown policies entry 'never'"),
        ("problems = NOPE", "unknown problems entry 'NOPE'"),
        ("seed = -1", "seed must be nonnegative"),
        ("rho_list = 1.0, inf", "rho must be positive and finite"),
    ])
    def test_experiment_value_rejected_at_its_line(self, line, message):
        key = line.split("=")[0].strip()
        pairs = parse_config_text("seed = 1\n%s\n" % line, source="f")
        with pytest.raises(ConfigError,
                           match="^f:2: bad value for '%s': %s"
                                 % (key, message)):
            build_experiment_config("linsys", pairs)

    @pytest.mark.parametrize("name, value", [
        ("n", True), ("m", True), ("seed", True), ("n", 2.5), ("m", 1.0),
        ("seed", "1")])
    def test_count_that_is_not_an_integer_rejected(self, name, value):
        with pytest.raises(ValueError, match="^%s must be an integer, got %r$"
                                             % (name, value)):
            ExperimentConfig(**{name: value})

    def test_unknown_experiment_kind_rejected(self):
        with pytest.raises(ValueError,
                           match="unknown experiment kind 'nope'"):
            ExperimentConfig(kind="nope")

    def test_every_alm_field_has_a_parser(self):
        hints = typing.get_type_hints(AlmConfig)
        assert [name for name, hint in hints.items()
                if hint not in cli._PARSERS] == []

    @pytest.mark.parametrize("name", ["rho1", "gamma", "tau", "lam_min",
                                      "lam_max", "mu_max", "sigma_min",
                                      "inner_tol"])
    def test_outer_loop_constants_are_not_config_keys(self, name):
        pairs = parse_config_text("alm.%s = 0.1\n" % name, source="f")
        with pytest.raises(ConfigError, match="^f:1: unknown config key "
                                              "'alm.%s'$" % name):
            build_experiment_config("solve", pairs)

    @pytest.mark.parametrize("key", ["kind", "alm"])
    def test_kind_and_alm_are_not_config_keys(self, key):
        with pytest.raises(ConfigError, match="unknown config key '%s'"
                                              % key):
            build_experiment_config("linsys", {key: "solve"})


class TestCli:
    def test_solve_csv_to_file(self, tmp_path):
        out = tmp_path / "out.csv"
        conf = tmp_path / "bench.conf"
        conf.write_text("problems = EQ-QP\nsolvers = truncated-newton\n")
        rc = main(["solve", "--config", str(conf), "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("problem,")
        assert "converged" in text

    def test_table_format(self, tmp_path, capsys):
        conf = tmp_path / "bench.conf"
        conf.write_text("n = 12\nm = 2\nrho_list = 10.0\n")
        rc = main(["linsys", "--config", str(conf), "--format", "table"])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "kappa_H" in captured and "," not in captured.splitlines()[0]

    def test_seed_override(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        conf = tmp_path / "bench.conf"
        conf.write_text("n = 10\nm = 2\nrho_list = 10.0\n")
        main(["linsys", "--config", str(conf), "--seed", "3",
              "--out", str(out1)])
        main(["linsys", "--config", str(conf), "--seed", "4",
              "--out", str(out2)])
        assert out1.read_text() != out2.read_text()

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        conf = tmp_path / "bench.conf"
        conf.write_text("n = 10\nm = 2\nrho_list = 10.0\n")
        out = tmp_path / "missing" / "x.csv"
        rc = main(["linsys", "--config", str(conf), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: cannot write %s: " % out)

    def test_a_comma_in_a_matrix_path_is_quoted(self, tmp_path, capsys):
        # The row's `name` is the path: one field, however many commas.
        folder = tmp_path / "a,b"
        folder.mkdir()
        path = folder / "m.mtx"
        write_matrix_market(random_spd_matrix(8, 0.3, 0), path)
        conf = tmp_path / "bench.conf"
        conf.write_text("matrix = %s\nm = 2\nrho_list = 10.0\n" % path)
        assert main(["linsys", "--config", str(conf)]) == 0
        text = capsys.readouterr().out
        header, *rows = csv.reader(io.StringIO(text))
        assert rows and all(len(row) == len(header) for row in rows)
        assert {row["name"] for row in _csv_rows(text)} == {str(path)}
        table = csv_to_table(text).splitlines()
        assert all(line.startswith(str(path) + " ") for line in table[1:])

    def test_missing_config_exits_nonzero(self, capsys):
        rc = main(["linsys", "--config", "/does/not/exist"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["spectral", "linsys"])
    def test_unfactorable_spd_block_builds_on_the_last_rung(
            self, kind, tmp_path, capsys):
        """This SPD M (diagonal 2.9-3.8, lambda_min 1e-3) fails IC(0.1)
        on the first two rungs and at |lambda_min| + 0.1; the Gershgorin
        rung builds, so the run exits 0 and its row reports the shift."""
        conf = tmp_path / "bench.conf"
        conf.write_text("n = 20\ndensity = 0.1\nm = 2\nrho_list = 10.0\n")
        rc = main([kind, "--config", str(conf), "--seed", "32"])
        assert rc == 0
        [row] = _csv_rows(capsys.readouterr().out)
        assert float(row["aux_shift"]) > 0.0

    @pytest.mark.parametrize("kind", ["spectral", "linsys"])
    def test_shifted_auxiliary_is_reported(self, kind, tmp_path, capsys):
        """IC(0.1) of this SPD M has a nonpositive pivot, and so has IC
        of M + 1e-3 ||diag M||_inf I: the rows come from the auxiliary
        of M + beta_3 I, beta_3 the Gershgorin-bound shift of
        `build_aux`'s last rung, and say so in `aux_shift`."""
        conf = tmp_path / "bench.conf"
        conf.write_text("n = 40\nm = 3\ndrop_tol_list = 0.1\n")
        rc = main([kind, "--config", str(conf), "--seed", "0"])
        assert rc == 0
        rows = _csv_rows(capsys.readouterr().out)
        assert len(rows) == 5
        assert all(float(row["aux_shift"]) > 0.0 for row in rows)

    @pytest.mark.parametrize("kind", ["spectral", "linsys"])
    def test_unshifted_rows_report_aux_shift_0(self, kind, tmp_path, capsys):
        conf = tmp_path / "bench.conf"
        conf.write_text("n = 12\nm = 2\nrho_list = 1.0, 100.0\n")
        rc = main([kind, "--config", str(conf), "--seed", "0"])
        assert rc == 0
        rows = _csv_rows(capsys.readouterr().out)
        assert list(rows[0])[6:8] == ["spd_shift", "aux_shift"]
        assert [row["aux_shift"] for row in rows] == ["0", "0"]

    def test_bad_config_key_exits_nonzero(self, tmp_path, capsys):
        conf = tmp_path / "bench.conf"
        conf.write_text("nonsense = 1\n")
        rc = main(["spectral", "--config", str(conf)])
        assert rc == 2

    @pytest.mark.parametrize("key", ["alm.thresholds", "alm.inner"])
    def test_non_scalar_alm_key_exits_nonzero(self, tmp_path, capsys, key):
        conf = tmp_path / "bench.conf"
        conf.write_text("problems = EQ-QP\n%s = 0.1\n" % key)
        rc = main(["solve", "--config", str(conf)])
        assert rc == 2
        assert "unknown config key %r" % key in capsys.readouterr().err

    def test_rejected_alm_value_names_key_and_line(self, tmp_path, capsys):
        conf = tmp_path / "bench.conf"
        conf.write_text("problems = EQ-QP\nalm.drop_tol = -1\n")
        rc = main(["solve", "--config", str(conf)])
        assert rc == 2
        err = capsys.readouterr().err
        assert ("%s:2: bad value for 'alm.drop_tol': drop tolerance must be "
                "nonnegative" % conf) in err

    def test_zero_max_outer_names_key_and_line(self, tmp_path, capsys):
        conf = tmp_path / "bench.conf"
        conf.write_text("problems = EQ-QP\nalm.max_outer = 0\n")
        rc = main(["solve", "--config", str(conf)])
        assert rc == 2
        assert ("%s:2: bad value for 'alm.max_outer': max_outer must be at "
                "least 1" % conf) in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("eps_opt", "nan"), ("eps_feas", "-1"), ("eps_feas", "inf")])
    def test_bad_tolerance_names_key_and_line(self, tmp_path, capsys, key,
                                              value):
        conf = tmp_path / "bench.conf"
        conf.write_text("problems = HS48\nalm.%s = %s\n" % (key, value))
        rc = main(["solve", "--config", str(conf)])
        assert rc == 2
        assert ("%s:2: bad value for 'alm.%s': %s must be positive"
                % (conf, key, key)) in capsys.readouterr().err

    def test_nan_setting_names_key_and_line(self, tmp_path, capsys):
        conf = tmp_path / "bench.conf"
        conf.write_text("problems = HS48\nalm.drop_tol = nan\n")
        rc = main(["solve", "--config", str(conf)])
        assert rc == 2
        assert ("%s:2: bad value for 'alm.drop_tol': drop tolerance must be "
                "nonnegative, got nan" % conf) in capsys.readouterr().err

    @pytest.mark.parametrize("kind, line", [
        ("linsys", "m = -1"), ("solve", "rho_list ="),
        ("linsys", "aux_kind = exact-dense"),
        ("solve", "alm.aux_kind = exact-dense")])
    def test_rejected_experiment_value_exits_2(self, tmp_path, capsys,
                                               kind, line):
        conf = tmp_path / "bench.conf"
        conf.write_text("n = 10\n%s\n" % line)
        rc = main([kind, "--config", str(conf), "--out",
                   str(tmp_path / "out.csv")])
        assert rc == 2
        assert ("%s:2: bad value for '%s'" % (conf, line.split()[0])
                in capsys.readouterr().err)
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("kind, line, by", [
        ("solve", "alm.inner_solver = spg", "solvers"),
        ("solve", "alm.hessian_mode = QN", "hessian_modes"),
        ("solve", "alm.precond_policy = once", "policies"),
        ("linsys", "alm.aux_kind = jacobi", "aux_kind")])
    def test_overridden_alm_setting_exits_2(self, tmp_path, capsys, kind,
                                            line, by):
        # The experiment's own key would win over a valid value, so the
        # setting is refused at its line instead of being ignored.
        conf = tmp_path / "bench.conf"
        conf.write_text("problems = HS41\n%s\n" % line)
        rc = main([kind, "--config", str(conf), "--out",
                   str(tmp_path / "out.csv")])
        assert rc == 2
        assert ("%s:2: bad value for '%s': the experiment overrides it; "
                "set '%s' instead" % (conf, line.split()[0], by)
                in capsys.readouterr().err)
        assert not (tmp_path / "out.csv").exists()

    def test_same_seed_byte_identical(self, tmp_path):
        conf = tmp_path / "bench.conf"
        conf.write_text("n = 10\nm = 2\nrho_list = 1.0,10.0\n")
        outs = []
        for name in ("x.csv", "y.csv"):
            out = tmp_path / name
            main(["linsys", "--config", str(conf), "--seed", "9",
                  "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
