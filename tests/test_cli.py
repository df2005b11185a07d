import json
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from dlesim import cli, engine, propagator
from dlesim.cli import (
    EXIT_CONFIG,
    EXIT_GUARD,
    EXIT_IO,
    EXIT_OK,
    MAX_ARRAY_ELEMENTS,
    MAX_SWEEP_POINTS,
    ConfigError,
    RunConfig,
    cmd_compare,
    cmd_exact,
    cmd_perturb,
    cmd_sweep,
    load_config,
    main,
    reachable_bound,
)
from dlesim.engine import run_to_order
from dlesim.model import TWO_PI
from dlesim.propagator import propagate

README = Path(__file__).resolve().parent.parent / "README.md"

def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().strip().split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        rows.append(
            [None if cell == "" else float(cell) for cell in line.split(",")]
        )
    return header, rows


def never_runs(*args, **kwargs):
    raise AssertionError("a sweep point was built or run")


def fast_config(**kw):
    base = dict(t_final_ns=1.0, sample_dt_ns=0.05)
    base.update(kw)
    return RunConfig(**base)


class TestRunConfig:
    def test_defaults_are_paper_values(self):
        cfg = RunConfig()
        assert cfg.omega0_ghz == 5.439
        assert cfg.omega_c_ghz == 4.343
        assert cfg.g_eff_ghz == 0.050
        assert cfg.params.omega0 == pytest.approx(TWO_PI * 5.439)

    def test_readme_config_block_lists_the_defaults(self):
        text = README.read_text(encoding="utf-8")
        block = re.search(r"All keys with\s+their defaults:\s+```json\n(.*?)```", text, re.S)
        assert json.loads(block.group(1)) == {f.name: f.default for f in fields(RunConfig)}

    def test_switch_inputs_mutually_exclusive(self):
        with pytest.raises(ConfigError):
            RunConfig(switch_ratio=20.0, switch_freq_ghz=100.0)

    def test_switch_freq_ghz_converts(self):
        cfg = RunConfig(switch_freq_ghz=100.0)
        assert cfg.switching_frequency == pytest.approx(TWO_PI * 100.0)

    def test_validation_names_field(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="t_final_ns"):
            RunConfig(t_final_ns=-1.0)
        with pytest.raises(ConfigError, match="qubit_index"):
            RunConfig(qubit_index=5)
        with pytest.raises(ConfigError, match="order"):
            RunConfig(order=9)
        # one range fault per field, with its whole stderr line
        for field, value, bound in (
            ("omega0_ghz", 0, "> 0"),
            ("omega_c_ghz", 0, "> 0"),
            ("g_eff_ghz", -1, ">= 0"),
            ("switch_ratio", 0, "> 0"),
            ("switch_freq_ghz", 0, "> 0"),
            ("n_qubits", 0, ">= 1"),
            ("n_max", -1, ">= 0"),
            ("order", 9, "in [0, 4]"),
            ("t_final_ns", -1, "> 0"),
            ("sample_dt_ns", 0, "> 0"),
            ("qubit_index", 2, "in [0, 1]"),
        ):
            code, err = run_config(tmp_path, capsys, {field: value})
            assert (code, err) == (
                EXIT_CONFIG,
                f"config error: {field} must be {bound}, got {value}\n",
            )

    def test_nmax_resolution(self):
        # one rule for every command: max(2, order) unless n_max is given
        assert [RunConfig(order=j).params.n_max for j in range(5)] == [2, 2, 2, 3, 4]
        assert RunConfig(order=1, n_max=0).params.n_max == 0
        assert RunConfig(order=3, n_max=4).params.n_max == 4


class TestLoadConfig:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"omega0_ghz": 5.0, "bogus_key": 1}))
        with pytest.raises(ConfigError, match="bogus_key"):
            load_config(str(path))

    def test_roundtrip_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"switch_ratio": 12.5, "order": 1}))
        cfg = load_config(str(path))
        assert cfg.switch_ratio == 12.5
        assert cfg.order == 1

    def test_override_replaces_file_value(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"switch_freq_ghz": 30.0}))
        cfg = load_config(str(path), {"switch_ratio": 10.0})
        assert cfg.switch_ratio == 10.0
        assert cfg.switch_freq_ghz is None

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError) as excinfo:
            load_config(None, {"bogus": 1})
        assert str(excinfo.value) == "unknown config keys: bogus"

    def test_non_string_override_key_rejected(self):
        with pytest.raises(ConfigError, match="^unknown config keys: 1$"):
            load_config(None, {1: 2})

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))


def run_config(tmp_path, capsys, data):
    """Exit code and stderr of `dlesim perturb` on a config document."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    code = main(["perturb", "--config", str(path), "--out", str(tmp_path / "o.csv")])
    return code, capsys.readouterr().err


REAL_FIELDS = (
    "omega0_ghz",
    "omega_c_ghz",
    "g_eff_ghz",
    "switch_ratio",
    "switch_freq_ghz",
    "t_final_ns",
    "sample_dt_ns",
)


class TestConfigProbes:
    @pytest.mark.parametrize("field", REAL_FIELDS)
    def test_nan_rejected(self, tmp_path, capsys, field):
        code, err = run_config(tmp_path, capsys, {field: float("nan")})
        assert code == EXIT_CONFIG
        assert f"config error: {field} must be a finite number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", REAL_FIELDS)
    def test_infinity_rejected(self, tmp_path, capsys, field, value):
        code, err = run_config(tmp_path, capsys, {field: value})
        assert code == EXIT_CONFIG
        assert f"config error: {field} must be a finite number" in err

    @pytest.mark.parametrize("field", REAL_FIELDS)
    def test_integer_past_float_range_rejected(self, tmp_path, capsys, field):
        code, err = run_config(tmp_path, capsys, {field: 10**400})
        assert code == EXIT_CONFIG
        # a value past 40 characters is named by its length, not echoed
        assert err == f"config error: {field} must be a finite number, got a 401-digit integer\n"

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"order": 10**400}, "order must be in [0, 4], got a 401-digit integer"),
            ({"n_qubits": -(10**400)}, "n_qubits must be >= 1, got a 401-digit integer"),
            ({"omega_c_ghz": 10**308}, "omega_c_ghz = a 309-digit integer GHz is not finite"),
            ({"order": "2" * 100}, "order must be an integer, got a 102-character value"),
        ],
        ids=["range", "negative-range", "ghz", "string"],
    )
    def test_long_value_named_by_its_length(self, tmp_path, capsys, data, message):
        code, err = run_config(tmp_path, capsys, data)
        assert code == EXIT_CONFIG
        assert err.startswith(f"config error: {message}")
        assert err.count("\n") == 1 and len(err) <= 120

    def test_value_of_40_characters_echoed(self, tmp_path, capsys):
        code, err = run_config(tmp_path, capsys, {"order": 10**39})
        assert code == EXIT_CONFIG
        assert err == f"config error: order must be in [0, 4], got {10**39}\n"

    @pytest.mark.parametrize("field", ["n_qubits", "n_max", "order", "qubit_index"])
    def test_bool_for_integer_rejected(self, tmp_path, capsys, field):
        code, err = run_config(tmp_path, capsys, {field: True})
        assert code == EXIT_CONFIG
        assert f"config error: {field} must be an integer, got True" in err

    def test_bool_for_number_rejected(self, tmp_path, capsys):
        code, err = run_config(tmp_path, capsys, {"t_final_ns": False})
        assert code == EXIT_CONFIG
        assert "config error: t_final_ns must be a finite number" in err

    @pytest.mark.parametrize("field", ["n_qubits", "n_max", "order", "qubit_index"])
    def test_non_integral_rejected(self, tmp_path, capsys, field):
        code, err = run_config(tmp_path, capsys, {field: 2.5})
        assert code == EXIT_CONFIG
        assert f"config error: {field} must be an integer, got 2.5" in err

    def test_string_order_rejected(self, tmp_path, capsys):
        code, err = run_config(tmp_path, capsys, {"order": "2"})
        assert code == EXIT_CONFIG
        assert "config error: order must be an integer, got '2'" in err

    def test_null_required_field_rejected(self, tmp_path, capsys):
        code, err = run_config(tmp_path, capsys, {"omega0_ghz": None})
        assert code == EXIT_CONFIG
        assert "config error: omega0_ghz must be a finite number, got None" in err

    @pytest.mark.parametrize("value", [4.4, 6.0])
    def test_coupling_above_a_frequency_rejected(self, tmp_path, capsys, value):
        # 4.4 GHz exceeds omega_c_ghz only, 6.0 GHz both frequencies
        code, err = run_config(tmp_path, capsys, {"g_eff_ghz": value})
        assert code == EXIT_CONFIG
        assert "config error: g_eff_ghz must be < min(omega0_ghz, omega_c_ghz)" in err
        assert "Traceback" not in err

    def test_nan_override_rejected(self, tmp_path, capsys):
        code = main(["exact", "--out", str(tmp_path / "o.csv"), "--switch-ratio", "nan"])
        assert code == EXIT_CONFIG
        assert "switch_ratio must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [
            b'{"order": 2, "note": "\xff\xfe"}',
            b"[" * 200_000 + b"]" * 200_000,
            b'{"order": ' + b"1" * 5000 + b"}",
        ],
        ids=["not-utf8", "nested-past-recursion-limit", "integer-past-digit-limit"],
    )
    def test_unreadable_file_rejected(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        code = main(["perturb", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"config error: config file {path} is not valid JSON" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("content", ["[1, 2]", "3", '"x"', "null"])
    def test_config_that_is_not_an_object_rejected(self, tmp_path, capsys, content):
        path, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        path.write_text(content)
        assert main(["exact", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert "config file must contain a flat JSON object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["exact", "perturb", "compare", "sweep"])
    @pytest.mark.parametrize(
        "data, args, field",
        [
            ({}, ["--switch-ratio", "1e-320"], "switch_ratio"),
            ({"switch_freq_ghz": 1e-320}, [], "switch_freq_ghz"),
            ({"omega0_ghz": 1e-320, "g_eff_ghz": 0.0}, [], "omega0_ghz"),
            ({"omega0_ghz": 1e-5, "g_eff_ghz": 0.0}, ["--switch-ratio", "5e-324"], "switch_ratio"),
        ],
    )
    def test_overflowing_period_rejected(self, tmp_path, capsys, command, data, args, field):
        # 2*pi/varpi overflows (or varpi underflows to 0): no row is computed
        path, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        path.write_text(json.dumps(data))
        code = main([command, "--config", str(path), "--out", str(out), *args])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: ") and field in err and "period" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["exact", "perturb", "compare", "sweep"])
    @pytest.mark.parametrize(
        "data, field",
        [
            ({"omega0_ghz": 1e308}, "omega0_ghz"),
            ({"omega0_ghz": 1e308, "switch_freq_ghz": 1.0}, "omega0_ghz"),
            ({"omega_c_ghz": 1e308}, "omega_c_ghz"),
            ({"switch_freq_ghz": 1e308}, "switch_freq_ghz"),
            ({"switch_ratio": 1e308}, "switch_ratio"),
        ],
    )
    def test_overflowing_angular_frequency_rejected(
        self, tmp_path, capsys, command, data, field
    ):
        # finite in GHz, but 2*pi times it (or the ratio times omega0) is inf
        path, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        path.write_text(json.dumps(data))
        code = main([command, "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith(f"config error: {field}")
        assert "Traceback" not in err
        assert not out.exists()

    def test_overflowing_sweep_period_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_sweep_point", never_runs)
        out = tmp_path / "s.csv"
        span = ["--ratio-min", "1e-320", "--ratio-max", "1e-310"]
        code = main(["sweep", "--out", str(out), *span])
        assert code == EXIT_CONFIG
        assert "config error: switch_ratio" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, span",
        [
            ("ratio_max", ["--ratio-max=inf", "--points", "3"]),
            ("ratio_max", ["--ratio-max=nan"]),
            ("ratio_min", ["--ratio-min=-inf"]),
            ("ratio_min", ["--ratio-min=nan"]),
        ],
    )
    def test_non_finite_sweep_ratio_rejected(self, tmp_path, capsys, monkeypatch, field, span):
        monkeypatch.setattr(cli, "_sweep_point", never_runs)
        out = tmp_path / "s.csv"
        code = main(["sweep", "--out", str(out), *span])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        value = span[0].split("=")[1]
        assert err.startswith(f"config error: {field} must be a finite number, got {value}")
        assert "switch_ratio" not in err
        assert not out.exists()


# Within the budget for exact, but not for the engine's arrays, which only
# perturb, compare and sweep allocate.
ENGINE_OVERSIZED = [
    # the engine's on map: ((order + 1) * dim / 2)^2 = 5.9e7 elements
    pytest.param({"n_qubits": 10, "n_max": 2, "order": 4}, "order", id="on_map"),
    # the engine's response coefficients: 2 * 12 * 2048^2 = 1.0e8 elements
    pytest.param(
        {"n_qubits": 11, "n_max": 1, "order": 1, "t_final_ns": 0.1},
        "n_qubits, n_max and order",
        id="response_n11",
    ),
    # the engine's response coefficients: 5 * 23 * 640^2 = 4.7e7 elements
    pytest.param(
        {"n_qubits": 8, "n_max": 4, "order": 4}, "n_qubits, n_max and order", id="response_n8"
    ),
    # at the default order 2: 3 * 17 * 1536^2 = 1.2e8 elements
    pytest.param({"n_qubits": 10, "n_max": 2}, "n_qubits, n_max and order", id="response_n10"),
]


class TestSizeBudget:
    """Checked from the config alone: none of these runs is ever started."""

    @pytest.mark.parametrize(
        "data, field",
        [
            ({"n_qubits": 40}, "n_qubits"),
            ({"n_qubits": 10**100}, "n_qubits"),
            ({"n_max": 10**400}, "n_max"),
            ({"t_final_ns": 1e9}, "t_final_ns"),
            ({"switch_ratio": 1e12}, "switch_ratio"),
            ({"switch_freq_ghz": 1e14}, "switch_freq_ghz"),
            ({"sample_dt_ns": 1e-9}, "sample_dt_ns"),
            ({"t_final_ns": 1e300, "sample_dt_ns": 1e-300}, "t_final_ns"),
            ({"t_final_ns": 1e300, "switch_freq_ghz": 1e300}, "switch_freq_ghz"),
        ],
    )
    def test_oversized_run_rejected(self, tmp_path, data, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=field) as info:
            load_config(str(path))
        assert f"budget of {MAX_ARRAY_ELEMENTS}" in str(info.value)

    @pytest.mark.parametrize("command", ["perturb", "compare", "sweep"])
    @pytest.mark.parametrize("data, field", ENGINE_OVERSIZED)
    def test_oversized_engine_rejected(self, tmp_path, monkeypatch, capsys, command, data, field):
        monkeypatch.setattr(cli, "propagate", never_runs)
        monkeypatch.setattr(cli, "run_to_order", never_runs)
        path, out = tmp_path / "cfg.json", tmp_path / "s.csv"
        path.write_text(json.dumps(data))
        assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert re.search(field, err)
        assert f"budget of {MAX_ARRAY_ELEMENTS}" in err
        assert not out.exists()

    @pytest.mark.parametrize("data, field", ENGINE_OVERSIZED)
    def test_exact_not_budgeted_for_the_engine(self, tmp_path, monkeypatch, data, field):
        class Propagated(Exception):
            pass

        def propagate(*args):
            raise Propagated  # the run got past every size check

        monkeypatch.setattr(cli, "propagate", propagate)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(Propagated):
            main(["exact", "--config", str(path), "--out", str(tmp_path / "s.csv")])

    def test_override_checked(self):
        with pytest.raises(ConfigError, match="t_final_ns"):
            load_config(None, {"t_final_ns": 1e9})

    def test_long_run_accepted(self):
        # ten times the segments and samples of the longest benchmark run
        RunConfig(
            switch_ratio=2.0, n_max=3, order=2, t_final_ns=20000.0, sample_dt_ns=0.05
        )

    def test_long_high_order_run_accepted(self):
        # 5e5 segments at order 4: the engine's period starts hold 1.25e7
        RunConfig(
            order=4, n_max=4, t_final_ns=2300.0, sample_dt_ns=1.0, switch_ratio=20.0
        )

    # N=2, n_max=3: dim = 16 and a sector of R = 8; ratio 20 gives 1.09e5
    # periods per 1000 ns
    SECTOR_RUN = dict(n_max=3, switch_ratio=20.0, sample_dt_ns=100.0)

    def test_exact_period_starts_budgeted_at_the_sectors_width(
        self, tmp_path, monkeypatch, capsys
    ):
        # 3.26e6 periods x R = 8: 2.6e7 elements, within the budget
        load_config(None, dict(self.SECTOR_RUN, t_final_ns=30000.0))
        with pytest.raises(ConfigError, match="^t_final_ns and switch_ratio need 3.48e"):
            load_config(None, dict(self.SECTOR_RUN, t_final_ns=40000.0))
        # compare's engine walks (order + 1) R = 24 wide rows
        monkeypatch.setattr(cli, "propagate", never_runs)
        monkeypatch.setattr(cli, "run_to_order", never_runs)
        path, out = tmp_path / "cfg.json", tmp_path / "c.csv"
        path.write_text(json.dumps(dict(self.SECTOR_RUN, t_final_ns=30000.0)))
        assert main(["compare", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert "t_final_ns, switch_ratio and order need 7.83e+07" in capsys.readouterr().err
        assert not out.exists()

    def test_exact_walk_holds_the_budgeted_period_starts(self, tmp_path, monkeypatch):
        shapes = {}
        hamiltonian_matrix = propagator.hamiltonian_matrix

        def hamiltonian(*args):
            h = hamiltonian_matrix(*args)
            shapes["hamiltonian"] = h.shape
            return h

        class Walk(propagator.SegmentWalk):
            def __init__(self, *args):
                super().__init__(*args)
                shapes["starts"] = self.starts.shape

        monkeypatch.setattr(propagator, "hamiltonian_matrix", hamiltonian)
        monkeypatch.setattr(propagator, "SegmentWalk", Walk)
        config = fast_config(n_max=3)
        assert cmd_exact(config, str(tmp_path / "e.csv")) == EXIT_OK
        reachable = reachable_bound(config.n_qubits, config.params.n_max)[0]
        periods = np.ceil(config.t_final_ns * config.switching_frequency / np.pi / 2)
        assert shapes["starts"] == (periods, reachable)
        assert shapes["hamiltonian"] == (reachable, reachable)

    # N=11, n_max=2: dim = 6,144 and a sector of R = 3,072, so its R x R
    # Hamiltonian holds 9.4e6 elements, where dim x dim would be 3.77e7
    def test_exact_budgeted_at_the_sectors_square(self, tmp_path, monkeypatch):
        class Propagated(Exception):
            pass

        def propagate(*args):
            raise Propagated  # the run got past every size check

        monkeypatch.setattr(cli, "propagate", propagate)
        monkeypatch.setattr(cli, "run_to_order", never_runs)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_qubits": 11, "n_max": 2}))
        with pytest.raises(Propagated):
            main(["exact", "--config", str(path), "--out", str(tmp_path / "s.csv")])

    @pytest.mark.parametrize(
        "command, n_qubits, message",
        [
            # the engine's (order + 1) R = 9,216 wide on map
            ("compare", 11, "n_qubits, n_max and order need 8.49e+07"),
            # R = 6,144: the sector Hamiltonian itself
            ("exact", 12, "n_qubits and n_max need 3.77e+07"),
        ],
    )
    def test_sector_square_refused_past_the_budget(
        self, tmp_path, monkeypatch, capsys, command, n_qubits, message
    ):
        monkeypatch.setattr(cli, "propagate", never_runs)
        monkeypatch.setattr(cli, "run_to_order", never_runs)
        path, out = tmp_path / "cfg.json", tmp_path / "s.csv"
        path.write_text(json.dumps({"n_qubits": n_qubits, "n_max": 2}))
        assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert f"{message} complex numbers in one array" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_checks_every_point_before_running(self, monkeypatch, tmp_path):
        def never(point):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(cli, "_sweep_point", never)
        cfg = fast_config(t_final_ns=100.0)
        with pytest.raises(ConfigError, match="switch_ratio"):
            cmd_sweep(cfg, str(tmp_path / "s.csv"), 1.0, 1e9, 3)

    def test_sweep_checks_every_point_for_the_engine_before_building_it(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(cli, "_sweep_point", never_runs)
        monkeypatch.setattr(cli, "run_to_order", never_runs)
        # at ratio 2000 the engine's 5.4e7 period starts pass the budget,
        # while the exact side's 2.2e7 stay within it
        cfg = fast_config(order=4, n_max=4, t_final_ns=100.0, sample_dt_ns=1.0)
        with pytest.raises(ConfigError, match="t_final_ns, switch_ratio and order"):
            cmd_sweep(cfg, str(tmp_path / "s.csv"), 1.0, 2000.0, 3)

    def test_sweep_budgets_each_point_once_for_one_engine(self, monkeypatch, tmp_path):
        checks, builds = [], []
        check_size, build = cli._check_size, cli.run_to_order

        def counted_check(config, engine=False):
            checks.append(engine)
            check_size(config, engine)

        def counted_build(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(cli, "_check_size", counted_check)
        monkeypatch.setattr(cli, "run_to_order", counted_build)
        cmd_sweep(fast_config(), str(tmp_path / "s.csv"), 5.0, 20.0, 3)
        # one engine-mode check per point and one build; a point past the
        # budget is refused before the build (the test above)
        assert checks.count(True) == 3
        assert len(builds) == 1

    def test_sweep_points_checked_before_any_point_is_built(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cli, "_sweep_point", never_runs)
        monkeypatch.setattr(cli, "replace", never_runs)
        out = tmp_path / "s.csv"
        # one past the cap, so that a missing check fails at the first config
        code = main(["sweep", "--out", str(out), "--points", str(MAX_SWEEP_POINTS + 1)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: points must be in [2, {MAX_SWEEP_POINTS}]" in err
        assert not out.exists()


class TestCmdExact:
    def test_default_run_structure(self, tmp_path):
        out = tmp_path / "exact.csv"
        assert cmd_exact(fast_config(), str(out)) == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["t_ns", "p_excite", "photon_exp", "norm"]
        assert rows[0][0] == 0.0
        assert rows[-1][0] == 1.0
        assert all(row[1] >= 0.0 for row in rows)
        assert all(abs(row[3] - 1.0) <= 1e-9 for row in rows)

    def test_zero_coupling_all_zero(self, tmp_path):
        out = tmp_path / "exact.csv"
        cmd_exact(fast_config(g_eff_ghz=0.0), str(out))
        _, rows = read_csv(out)
        assert all(row[1] == 0.0 and row[2] == 0.0 for row in rows)

    def test_csv_roundtrips_full_precision(self, tmp_path):
        out = tmp_path / "exact.csv"
        cfg = fast_config()
        cmd_exact(cfg, str(out))
        _, rows = read_csv(out)
        from dlesim.propagator import propagate

        traj = propagate(
            cfg.params,
            cfg.schedule,
            cfg.t_final_ns,
            cfg.sample_dt_ns,
        )
        p = traj.excitation_probabilities(cfg.qubit_index)
        for row, t, value in zip(rows, traj.times, p):
            assert row[0] == float(t)
            assert row[1] == float(value)


class TestCmdPerturb:
    def test_order_zero_all_zero(self, tmp_path):
        out = tmp_path / "pert.csv"
        assert cmd_perturb(fast_config(order=0), str(out)) == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["t_ns", "p_excite", "norm_truncated"]
        assert all(row[1] == 0.0 for row in rows)
        assert all(row[2] == 1.0 for row in rows)

    def test_deterministic_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cmd_perturb(fast_config(), str(out1))
        cmd_perturb(fast_config(), str(out2))
        assert out1.read_bytes() == out2.read_bytes()


class TestCmdCompare:
    def test_columns_and_agreement(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert cmd_compare(fast_config(), str(out)) == EXIT_OK
        header, rows = read_csv(out)
        assert header == [
            "t_ns",
            "p_exact",
            "p_pert",
            "p_closedform",
            "abs_diff_pert",
            "abs_diff_cf",
        ]
        assert all(row[3] is not None for row in rows)
        assert all(row[4] <= 1e-4 for row in rows)

    def test_zero_coupling_all_probability_columns_zero(self, tmp_path):
        out = tmp_path / "cmp.csv"
        cmd_compare(fast_config(g_eff_ghz=0.0), str(out))
        _, rows = read_csv(out)
        for row in rows:
            assert row[1] == 0.0 and row[2] == 0.0 and row[3] == 0.0

    def test_resonant_ratio_flags_closedform_column(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = cmd_compare(fast_config(switch_ratio=2.0), str(out))
        assert code == EXIT_GUARD
        _, rows = read_csv(out)
        assert all(row[3] is None and row[5] is None for row in rows)
        # the other pipelines still produced output
        assert all(row[1] is not None and row[2] is not None for row in rows)

    def test_closedform_column_empty_when_not_applicable(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = cmd_compare(fast_config(order=1), str(out))
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert all(row[3] is None for row in rows)

    def test_closedform_column_filled_at_four_qubits(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert cmd_compare(fast_config(n_qubits=4), str(out)) == EXIT_OK
        _, rows = read_csv(out)
        assert all(row[3] is not None and row[5] <= 1e-4 for row in rows)

    def test_resonant_ratio_flags_closedform_column_at_four_qubits(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert cmd_compare(fast_config(n_qubits=4, switch_ratio=2.0), str(out)) == EXIT_GUARD
        _, rows = read_csv(out)
        assert all(row[3] is None and row[5] is None for row in rows)
        assert all(row[1] is not None and row[2] is not None for row in rows)

    def test_one_qubit_at_degenerate_frequencies_fills_closedform(self, tmp_path):
        # alpha2_ee0's singularity needs a pair of qubits
        out = tmp_path / "cmp.csv"
        config = fast_config(n_qubits=1, omega_c_ghz=5.439)
        assert cmd_compare(config, str(out)) == EXIT_OK
        _, rows = read_csv(out)
        assert all(row[3] is not None for row in rows)

    def test_closedform_column_same_for_every_qubit(self, tmp_path):
        columns = []
        for qubit in range(3):
            out = tmp_path / f"cmp{qubit}.csv"
            assert cmd_compare(fast_config(n_qubits=3, qubit_index=qubit), str(out)) == EXIT_OK
            columns.append([row[3] for row in read_csv(out)[1]])
        assert None not in columns[0]
        assert columns[0] == columns[1] == columns[2]


class TestCmdSweep:
    def test_rows_sorted_and_deterministic(self, tmp_path):
        # --workers is accepted and ignored: the CSV bytes do not depend on it
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"t_final_ns": 0.5, "sample_dt_ns": 0.05}))
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        span = ["--ratio-min", "10", "--ratio-max", "20", "--points", "3"]
        args = ["sweep", "--config", str(path), *span]
        assert main([*args, "--out", str(out1), "--workers", "2"]) == EXIT_OK
        assert main([*args, "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        header, rows = read_csv(out1)
        assert header == ["switch_ratio", "sup_abs_diff", "max_p_pert"]
        ratios = [row[0] for row in rows]
        assert ratios == sorted(ratios)
        assert len(rows) == 3

    def test_rows_equal_fresh_engine_per_ratio(self, tmp_path):
        # the path that built one engine per point, kept as the oracle
        out = tmp_path / "s.csv"
        cfg = fast_config(t_final_ns=2.0, order=3)
        assert cmd_sweep(cfg, str(out), 2.5, 20.0, 4) == EXIT_OK
        _, rows = read_csv(out)
        params = cfg.params
        for row in rows:
            point = replace(cfg, switch_ratio=row[0])
            schedule = point.schedule
            traj = propagate(params, schedule, point.t_final_ns, point.sample_dt_ns)
            p_exact = traj.excitation_probabilities(point.qubit_index)
            fresh = run_to_order(params, schedule, point.order, point.t_final_ns)
            p_pert = fresh.excitation_probability(point.qubit_index, traj.times)
            sup = float(np.abs(p_exact - p_pert).max())
            assert row[1:] == [sup, float(p_pert.max())]

    def test_engine_built_once(self, tmp_path, monkeypatch):
        calls = [0]
        original = engine._next_response

        def counting(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "_next_response", counting)
        counts = []
        for points in (2, 5):
            calls[0] = 0
            cmd_sweep(fast_config(), str(tmp_path / "s.csv"), 5.0, 20.0, points)
            counts.append(calls[0])
        assert counts[0] == counts[1] > 0

    def test_one_reachable_subsystem_per_sweep(self, tmp_path, monkeypatch):
        # the engine's Levels is built once and shared by every order and
        # by each point's retimed copy
        calls = [0]
        original = engine.Levels.__init__

        def counting(self, *args, **kwargs):
            calls[0] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(engine.Levels, "__init__", counting)
        cmd_sweep(fast_config(order=4), str(tmp_path / "s.csv"), 4.0, 24.0, 21)
        assert calls[0] == 1

    def test_invalid_range_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            cmd_sweep(fast_config(), str(tmp_path / "s.csv"), 20.0, 10.0, 3)
        with pytest.raises(ConfigError):
            cmd_sweep(fast_config(), str(tmp_path / "s.csv"), 5.0, 10.0, 1)

    def test_agreement_improves_with_ratio(self, tmp_path):
        out = tmp_path / "s.csv"
        cmd_sweep(fast_config(), str(out), 5.0, 20.0, 2)
        _, rows = read_csv(out)
        assert rows[1][1] < rows[0][1]

    def test_perturbative_spike_at_breakdown_ratio(self, tmp_path):
        # the secular second-order response makes max p_pert spike when the
        # sweep range includes the twice-qubit-frequency resonance; the low
        # neighbor still rides the wing of the sum resonance at 1.7986, so
        # the sharp contrast is against the high side
        out = tmp_path / "s.csv"
        cfg = fast_config(t_final_ns=20.0, sample_dt_ns=0.05)
        cmd_sweep(cfg, str(out), 1.9, 2.1, 3)
        _, rows = read_csv(out)
        by_ratio = {row[0]: row[2] for row in rows}
        assert by_ratio[2.0] > by_ratio[1.9]
        assert by_ratio[2.0] > 10 * by_ratio[2.1]


class TestMain:
    def test_exact_end_to_end(self, tmp_path):
        out = tmp_path / "out.csv"
        code = main(
            ["exact", "--out", str(out), "--t-final-ns", "0.5", "--switch-ratio", "15"]
        )
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header[0] == "t_ns"
        assert rows[-1][0] == 0.5

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"order": 99}))
        code = main(
            ["perturb", "--config", str(path), "--out", str(tmp_path / "o.csv")]
        )
        assert code == EXIT_CONFIG

    def test_io_error_exit_code(self, tmp_path):
        code = main(
            [
                "exact",
                "--out",
                str(tmp_path / "no_such_dir" / "o.csv"),
                "--t-final-ns",
                "0.2",
            ]
        )
        assert code == EXIT_IO

    @pytest.mark.parametrize("command", ["exact", "perturb", "compare"])
    def test_window_shorter_than_grid_tolerance(self, tmp_path, command):
        # below ~1e-12 ns the window still has one segment
        out = tmp_path / "o.csv"
        code = main([command, "--out", str(out), "--t-final-ns", "1e-13"])
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert [row[0] for row in rows] == [0.0, 1e-13]

    def test_degenerate_frequencies_skip_closedform(self, tmp_path, capsys):
        # alpha2_ee0 is singular at omega0 = omega_c: guard path, not a crash
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"omega0_ghz": 5.439, "omega_c_ghz": 5.439, "t_final_ns": 0.5})
        )
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--config", str(path), "--out", str(out)])
        assert code == EXIT_GUARD
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1
        assert "omega0_ghz" in err[0] and "omega_c_ghz" in err[0]
        _, rows = read_csv(out)
        assert all(row[3] is None and row[5] is None for row in rows)
        assert all(row[1] is not None and row[2] is not None for row in rows)

    def test_guard_exit_code(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main(
            [
                "compare",
                "--out",
                str(out),
                "--switch-ratio",
                "2.0",
                "--t-final-ns",
                "0.5",
            ]
        )
        assert code == EXIT_GUARD
        assert out.exists()
