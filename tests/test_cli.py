"""CLI surface: thin adapters, serialization, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import robustlab
from robustlab import audit as audit_mod
from robustlab.cli import main
from robustlab.engines import (
    discord_levelset_grid,
    discord_robustness_axis_opt,
    discord_robustness_bds,
    discord_robustness_bounds,
    robustness_along_ray,
)
from robustlab.free_sets import is_unfaithful, oracle_by_name, singlet_fraction
from robustlab.qstates import (
    BellDiagonalParams,
    bell_diagonal,
    bell_states,
    maximally_mixed,
    random_density,
    state_from_json,
    state_to_json,
)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args)
    assert code == 0, err
    return json.loads(out)


def run_python(*args, timeout=30.0):
    """Run a fresh interpreter that imports this checkout's robustlab."""
    env = dict(os.environ)
    src = str(Path(robustlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env,
    )


def run_subprocess(*args, timeout=30.0):
    """Run the CLI in a fresh interpreter, so a hang hits the timeout and an
    escaping exception shows up as a traceback on stderr."""
    return run_python("-m", "robustlab.cli", *args, timeout=timeout)


def assert_rejected(proc, word):
    """Exit 2 with a single error line naming the bad parameter."""
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert proc.stderr.count("\n") == 1
    assert word in proc.stderr
    assert "Traceback" not in proc.stderr


def run_csv(capsys, *args):
    code, out, err = run_cli(capsys, *args)
    assert code == 0, err
    return list(csv.reader(io.StringIO(out)))


class TestDiscord:
    def test_closed_form_matches_library(self, capsys):
        payload = run_json(capsys, "discord", "--bds", "0.5,0.3,0.1")
        assert payload == {
            "v": 1,
            "value": discord_robustness_bds((0.5, 0.3, 0.1)),
            "method": "closed-form",
        }

    def test_axis_opt_matches_library(self, capsys):
        payload = run_json(
            capsys, "discord", "--bds", "0.5,0.3,0.1", "--method", "axis-opt",
            "--grid", "16",
        )
        res = discord_robustness_axis_opt(BellDiagonalParams(0.5, 0.3, 0.1), grid=16)
        assert payload["value"] == res.value
        assert payload["method"] == res.method
        assert payload["iterations"] == res.iterations

    def test_deterministic_output(self, capsys):
        a = run_cli(capsys, "discord", "--bds", "0.2,-0.4,0.1", "--method", "axis-opt")
        b = run_cli(capsys, "discord", "--bds", "0.2,-0.4,0.1", "--method", "axis-opt")
        assert a == b

    @pytest.mark.parametrize("grid", ["1", "0", "-4"])
    def test_bad_grid_exits_two(self, grid):
        proc = run_subprocess(
            "discord", "--bds", "0.5,0.3,0", "--method", "axis-opt", "--grid", grid
        )
        assert_rejected(proc, "grid")

    def test_axis_opt_leaves_scipy_optimize_unimported(self):
        script = (
            "import sys\n"
            "from robustlab.cli import main\n"
            "code = main(['discord', '--bds', '0.5,0.3,0.1', '--method', 'axis-opt'])\n"
            "print(code, sorted(m for m in sys.modules if m.startswith('scipy.optimize')),"
            " file=sys.stderr)\n"
        )
        proc = run_python("-c", script)
        assert proc.stderr.strip() == "0 []"
        assert json.loads(proc.stdout)["value"] == pytest.approx(0.3, abs=1e-6)

    def test_state_file_input(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_to_json(bell_diagonal((0.5, 0.3, 0.1)))))
        payload = run_json(capsys, "discord", "--state", str(path))
        assert payload["value"] == pytest.approx(0.3, abs=1e-12)

    def test_non_bds_state_rejected(self, capsys, tmp_path):
        from robustlab.qstates import random_density

        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_to_json(random_density(4, seed=3))))
        code, _, err = run_cli(capsys, "discord", "--state", str(path))
        assert code == 2
        assert "discord-bounds" in err

    def test_missing_state(self, capsys):
        code, _, err = run_cli(capsys, "discord")
        assert code == 2


class TestDiscordBounds:
    def test_matches_library(self, capsys):
        payload = run_json(capsys, "discord-bounds", "--bds", "0.5,0.3,0.1")
        lo, hi = discord_robustness_bounds(bell_diagonal((0.5, 0.3, 0.1)))
        assert payload == {"v": 1, "lo": lo, "hi": hi}


class TestEntRay:
    def test_matches_library(self, capsys):
        payload = run_json(capsys, "ent-ray", "--bds", "-1,-1,-1")
        res = robustness_along_ray(
            bell_diagonal((-1.0, -1.0, -1.0)), maximally_mixed(), oracle_by_name("ppt")
        )
        assert payload["value"] == res.value
        assert payload["free_set"] == "ppt"
        assert payload["iterations"] == res.iterations
        assert payload["free_witness"] == json.loads(
            json.dumps(state_to_json(res.free_witness))
        )

    def test_infinite_value_serialized(self, capsys):
        # the axis family is never reached along the white-noise ray
        payload = run_json(
            capsys, "ent-ray", "--bds", "0.5,0.3,0.1", "--free-set", "bds-axes"
        )
        assert payload["value"] == "inf"
        assert "free_witness" not in payload

    def test_noise_file(self, capsys, tmp_path):
        path = tmp_path / "noise.json"
        path.write_text(json.dumps(state_to_json(maximally_mixed())))
        payload = run_json(
            capsys, "ent-ray", "--bds", "-1,-1,-1", "--noise", f"state:{path}"
        )
        assert payload["value"] == pytest.approx(2.0, abs=1e-6)

    def test_bad_noise_spec(self, capsys):
        code, _, err = run_cli(capsys, "ent-ray", "--bds", "0,0,0", "--noise", "foo")
        assert code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--tol", "0"), ("--tol", "-1"), ("--s-max", "-1"), ("--s-max", "inf"),
    ])
    def test_bad_bisection_parameters_exit_two(self, flag, value):
        proc = run_subprocess("ent-ray", "--bds=-1,-1,-1", f"{flag}={value}")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert flag.lstrip("-").replace("-", "_") in proc.stderr


class TestTelCheck:
    def test_matches_library(self, capsys, tmp_path):
        rho = random_density(4, rank=2, seed=5)  # not Bell diagonal
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(state_to_json(rho)))
        payload = run_json(capsys, "tel-check", "--state", str(path))
        rho = state_from_json(path.read_text())
        assert payload["singlet_fraction"] == singlet_fraction(rho)
        assert payload["threshold"] == 0.5
        assert payload["unfaithful"] == is_unfaithful(rho)

    def test_restart_flags_removed(self, capsys):
        for flag in ("--samples", "--seed"):
            with pytest.raises(SystemExit) as exc:
                main(["tel-check", "--bds", "0,0,0", flag, "2"])
            assert exc.value.code == 2


class TestCounterexample:
    def test_sweep_semantics(self, capsys):
        rows = run_csv(capsys, "counterexample", "--id", "1", "--sweep", "0:0.5:0.1")
        assert rows[0] == ["t", "exact", "numeric"]
        ts = [float(r[0]) for r in rows[1:]]
        assert ts == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])  # stop is exclusive

    def test_negative_sweep_start(self, capsys):
        rows = run_csv(capsys, "counterexample", "--id", "1", "--sweep", "-0.2:0.3:0.1")
        assert len(rows) == 1 + 5

    def test_values_match_library(self, capsys):
        from robustlab.geometry2d import (
            absolute_robustness_2d,
            counterexample1_exact,
            counterexample1_point,
            scene_counterexample1,
        )

        rows = run_csv(capsys, "counterexample", "--id", "1", "--t", "-0.5")
        t, exact, numeric = (float(v) for v in rows[1])
        scene = scene_counterexample1(0.2)
        assert exact == counterexample1_exact(-0.5, 0.2)
        assert numeric == absolute_robustness_2d(counterexample1_point(-0.5), scene)

    def test_branch_required_for_second(self, capsys):
        code, _, err = run_cli(capsys, "counterexample", "--id", "2", "--t", "0.1")
        assert code == 2
        assert "--branch" in err

    def test_branch_values(self, capsys):
        rows = run_csv(
            capsys, "counterexample", "--id", "2", "--branch", "b", "--t", "0.5"
        )
        assert float(rows[1][1]) == pytest.approx(1.5)
        assert float(rows[1][2]) == pytest.approx(1.5, abs=1e-6)

    def test_json_format(self, capsys):
        payload = run_json(
            capsys, "counterexample", "--id", "1", "--t", "0.3", "--format", "json"
        )
        assert payload["columns"] == ["t", "exact", "numeric"]
        assert len(payload["rows"]) == 1

    @pytest.mark.parametrize("args", [
        ("--id", "1", "--t", "0.1", "--resolution", "0"),
        ("--id", "2", "--branch", "a", "--t", "0.1", "--resolution", "-1"),
    ])
    def test_bad_resolution_exits_two(self, args):
        assert_rejected(run_subprocess("counterexample", *args), "resolution")

    def test_requires_t_or_sweep(self, capsys):
        code, _, _ = run_cli(capsys, "counterexample", "--id", "1")
        assert code == 2

    def test_bad_sweep(self, capsys):
        code, _, _ = run_cli(capsys, "counterexample", "--id", "1", "--sweep", "0:1")
        assert code == 2
        code, _, _ = run_cli(capsys, "counterexample", "--id", "1", "--sweep", "0:1:-0.1")
        assert code == 2


class TestLevelset:
    def test_matches_library(self, capsys):
        rows = run_csv(capsys, "levelset", "--r", "0.3", "--grid", "5")
        data = discord_levelset_grid(0.3, 5)
        assert len(rows) == 1 + data.shape[0]
        for row, ref in zip(rows[1:], data):
            assert float(row[3]) == pytest.approx(ref[3], abs=1e-12)
            assert int(row[4]) == int(ref[4])


class TestAudit:
    def test_lipschitz_payload(self, capsys):
        payload = run_json(
            capsys, "audit", "--check", "lipschitz", "--measure", "discord-filtered",
            "--samples", "20", "--seed", "3",
        )
        from robustlab.engines import lipschitz_from_kappa_ball

        ppt = oracle_by_name("ppt")
        rep = audit_mod.audit_lipschitz(
            audit_mod.discord_filtered_measure,
            lipschitz_from_kappa_ball(ppt.star_center, ppt.kappa).L,
            audit_mod.AuditConfig(samples=20, seed=3),
        )
        assert payload["passed"] is True
        assert payload["max_ratio"] == rep.max_ratio
        assert payload["L"] == rep.L_claimed
        assert payload["v"] == 1

    def test_failing_audit_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "--check", "lipschitz", "--measure", "discord-filtered",
            "--samples", "10", "--L", "0.001",
        )
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_faithfulness(self, capsys):
        payload = run_json(
            capsys, "audit", "--check", "faithfulness", "--measure", "ppt-ray",
            "--free-set", "ppt", "--samples", "10",
        )
        assert payload["passed"] is True
        assert payload["free_checked"] == 10

    def test_convexity(self, capsys):
        payload = run_json(
            capsys, "audit", "--check", "convexity", "--measure", "ppt-ray",
            "--samples", "6",
        )
        assert payload["passed"] is True

    @pytest.mark.parametrize("check,samples", [("lipschitz", "0"), ("convexity", "-3")])
    def test_empty_batch_exits_two(self, check, samples):
        proc = run_subprocess("audit", "--check", check, "--samples", samples)
        assert_rejected(proc, "--samples")

    def test_ball_free_set_without_kappa_needs_L(self, capsys):
        code, _, err = run_cli(
            capsys, "audit", "--check", "lipschitz", "--measure", "discord-filtered",
            "--free-set", "zero-discord", "--samples", "5",
        )
        assert code == 2
        assert "--L" in err


class TestSerialization:
    def test_out_file_matches_stdout(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "discord", "--bds", "0.5,0.3,0.1")
        path = tmp_path / "result.json"
        code, empty, _ = run_cli(
            capsys, "discord", "--bds", "0.5,0.3,0.1", "--out", str(path)
        )
        assert code == 0
        assert empty == ""
        assert path.read_text() == out

    def test_csv_unavailable_for_scalar_payloads(self, capsys):
        code, _, err = run_cli(
            capsys, "discord", "--bds", "0.5,0.3,0.1", "--format", "csv"
        )
        assert code == 2
        assert "tabular" in err


class TestExitCodes:
    def test_positivity_is_three(self, capsys):
        code, _, err = run_cli(capsys, "discord", "--bds", "1,1,1")
        assert code == 3
        assert "violated" in err

    def test_invalid_json_is_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "discord", "--state", str(path))
        assert code == 2
        assert "JSON" in err

    def test_missing_file_is_two(self, capsys):
        code, _, _ = run_cli(capsys, "discord", "--state", "/nonexistent/state.json")
        assert code == 2

    def test_malformed_bds_is_two(self, capsys):
        code, _, _ = run_cli(capsys, "discord", "--bds", "0.5,0.3")
        assert code == 2
        code, _, _ = run_cli(capsys, "discord", "--bds", "a,b,c")
        assert code == 2

    def test_numerical_failure_is_four(self, tmp_path):
        # phi+ noise leaves the PPT set again after entering it: not star-convex
        path = tmp_path / "phi_plus.json"
        path.write_text(json.dumps(state_to_json(bell_states()[0])))
        proc = run_subprocess("ent-ray", "--bds=-1,-1,-1", "--noise", f"state:{path}")
        assert proc.returncode == 4
        assert proc.stderr.startswith("error: numerical failure")
        assert "Traceback" not in proc.stderr

    def test_positive_state_file_with_bad_trace(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dims": [2, 2], "re": (2.0 * __import__("numpy").eye(4) / 4.0).tolist()}))
        code, _, _ = run_cli(capsys, "discord", "--state", str(path))
        assert code == 2
