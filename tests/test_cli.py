"""CLI surface: thin adapters, serialization, exit codes."""

import ast
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import robustlab
from robustlab import audit as audit_mod
from robustlab.bds import MAX_AXIS_GRID, MAX_LEVELSET_GRID
from robustlab.cli import main
from robustlab.errors import ValidationError
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
    random_bell_diagonal,
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


@functools.lru_cache(maxsize=None)
def bare_modules() -> frozenset:
    """The modules a bare ``python -c pass`` has loaded."""
    proc = run_python("-c", "import sys; print(sorted(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    return frozenset(ast.literal_eval(proc.stdout))


# the modules that the numpy-free paths must not load: numpy's, and
# dataclasses with the inspect it imports (about 12 ms of a start)
HEAVY = "m.startswith('numpy') or m in ('dataclasses', 'inspect')"


def run_listing_heavy(*argv):
    """Run the CLI through its ``__main__`` entry point in a fresh interpreter;
    its stderr ends with a line "<exit code> <heavy modules loaded>", the
    modules that match HEAVY and that a bare interpreter has not loaded."""
    script = (
        "import runpy, sys\n"
        f"bare = {sorted(bare_modules())!r}\n"
        f"sys.argv = ['robustlab', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('robustlab.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        f"    print(exc.code, sorted(m for m in sys.modules if m not in bare and ({HEAVY})),"
        " file=sys.stderr)\n"
    )
    return run_python("-c", script)


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

    @pytest.mark.parametrize("grid", ["1", "0", "-4", str(MAX_AXIS_GRID + 1), "10000000000"])
    def test_bad_grid_exits_two(self, grid):
        proc = run_subprocess(
            "discord", "--bds", "0.5,0.3,0", "--method", "axis-opt", "--grid", grid
        )
        assert_rejected(proc, "grid")

    @pytest.mark.parametrize("method", ["closed-form", "axis-opt"])
    def test_nan_correlation_exits_two(self, method):
        # closed-form printed 0.0 with exit 0, axis-opt a LinAlgError traceback
        proc = run_subprocess("discord", "--bds", "0.5,nan,0.1", "--method", method)
        assert_rejected(proc, "finite")

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

    @pytest.mark.parametrize("c", [(0.5, 0.3, 0.1), (-0.2, 0.6, -0.1), (1.0, -1.0, 1.0),
                                   (0.5, 1e-11, 0.0), (0.8, 0.0, 0.0)])
    @pytest.mark.parametrize("grid", [(), ("--grid", "2"), ("--grid", "16")])
    def test_state_file_axis_opt_matches_bds(self, capsys, tmp_path, c, grid):
        # one state, one answer: a {"bds": c} file is read as the triple c,
        # not read back from its matrix (where 0.3 became 0.30000000000000004)
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"bds": list(c)}))
        by_bds = run_cli(capsys, "discord", "--bds", ",".join(map(repr, c)),
                         "--method", "axis-opt", *grid)
        by_state = run_cli(capsys, "discord", "--state", str(path), "--method", "axis-opt", *grid)
        assert by_bds[0] == 0, by_bds
        assert by_state == by_bds

    def test_state_file_input(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_to_json(bell_diagonal((0.5, 0.3, 0.1)))))
        payload = run_json(capsys, "discord", "--state", str(path))
        assert payload["value"] == pytest.approx(0.3, abs=1e-12)

    def test_state_with_a_weight_just_below_zero(self, capsys, tmp_path):
        # the least eigenvalue, and Bell weight, is -5e-11: DensityMatrix accepts
        # it, and discord refused it with "1+c1+c2-c3 >= 0 violated (got -2e-10)"
        q = 0.25000000005
        re = [[0.25, 0, 0, 0.25], [0, 0.25, -q, 0], [0, -q, 0.25, 0], [0.25, 0, 0, 0.25]]
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dims": [2, 2], "re": re, "im": [[0] * 4] * 4}))
        payload = run_json(capsys, "discord", "--state", str(path))
        bounds = run_json(capsys, "discord-bounds", "--state", str(path))
        assert payload["value"] == bounds["hi"] == 1.000000082740371e-10

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

    @pytest.mark.parametrize("bds, free_set, value, iterations", [
        ("0.5,1e-4,0", "zero-discord", "inf", 0), ("0.5,5e-9,0", "bds-axes", 0.0, 0),
    ])
    def test_zero_discord_sets_are_zero_or_inf(self, capsys, bds, free_set, value, iterations):
        # bisection on an absolute defect threshold printed 2.162 and 4.0;
        # the matrix path took 9 probes to the zero-discord inf, bds's rule none
        payload = run_json(capsys, "ent-ray", "--bds", bds, "--free-set", free_set)
        assert (payload["value"], payload["iterations"]) == (value, iterations)

    @pytest.mark.parametrize("bds", ["0.5,1e-4,0", "0.5,5e-9,0"])
    def test_zero_discord_ray_is_closed_form(self, capsys, bds):
        # only zero-discord answers from bds's rule; bds-axes, whose ray has
        # the same value, keeps the matrix path
        argv = ["ent-ray", "--bds", bds, "--free-set"]
        payload = run_json(capsys, *argv, "zero-discord")
        assert (payload["method"], payload["iterations"], payload["bracket_width"]) == (
            "closed-form", 0, 0.0)
        matrix = run_json(capsys, *argv, "bds-axes")
        assert matrix["method"] == "ray-bisection"
        assert matrix["value"] == payload["value"]

    @pytest.mark.parametrize("c", [
        (0.5, 0.0, 0.0), (0.0, -0.7, 0.0), (-0.0, 0.0, 0.0), (0.0, -0.0, 1.0),
        (-0.9, 5e-9, -0.0), (1 / 3, 1e-300, -0.0), (0.0, 0.0, 0.0),
    ])
    def test_free_witness_is_the_matrix_paths(self, capsys, c):
        argv = ["ent-ray", f"--bds={','.join(map(repr, c))}", "--free-set", "zero-discord"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        rho = bell_diagonal(c)
        res = robustness_along_ray(rho, maximally_mixed(), oracle_by_name("zero-discord"))
        assert res.value == 0.0 and res.free_witness is rho
        witness = json.dumps(state_to_json(rho), indent=2).replace("\n", "\n  ")
        assert f'"free_witness": {witness}\n}}\n' in out

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "0"), ("--tol", "nan"), ("--s-max", "-1"), ("--s-max", "inf"),
    ])
    def test_closed_form_checks_the_ray_parameters(self, capsys, flag, value):
        # the same check, message and exit code as robustness_along_ray's
        argv = ["ent-ray", "--bds", "0.5,0,0", "--free-set", "zero-discord", f"{flag}={value}"]
        code, out, err = run_cli(capsys, *argv)
        name = flag.lstrip("-").replace("-", "_")
        with pytest.raises(ValidationError) as exc:
            robustness_along_ray(bell_diagonal((0.5, 0, 0)), maximally_mixed(),
                                 oracle_by_name("zero-discord"), **{name: float(value)})
        assert (code, out, err) == (2, "", f"error: {exc.value}\n")

    def test_noise_file_keeps_the_matrix_path(self, capsys, tmp_path):
        path = tmp_path / "noise.json"
        path.write_text(json.dumps(state_to_json(maximally_mixed())))
        argv = ["ent-ray", "--bds", "0.5,1e-4,0", "--free-set", "zero-discord"]
        payload = run_json(capsys, *argv, "--noise", f"state:{path}")
        assert (payload["value"], payload["method"], payload["iterations"]) == (
            "inf", "ray-bisection", 9)

    def test_noise_file(self, capsys, tmp_path):
        path = tmp_path / "noise.json"
        path.write_text(json.dumps(state_to_json(maximally_mixed())))
        payload = run_json(
            capsys, "ent-ray", "--bds", "-1,-1,-1", "--noise", f"state:{path}"
        )
        assert payload["value"] == pytest.approx(2.0, abs=1e-6)

    def test_noisy_singlet_answers_at_default_s_max(self, capsys, tmp_path):
        # the noisy singlet reaches the PPT set at s = 20, past the default
        # s_max = 8; the noise is PPT, so Weyl's bound brackets the value
        path = tmp_path / "noise.json"
        path.write_text(json.dumps({"bds": [-0.3, -0.3, -0.3]}))
        argv = ["ent-ray", "--bds=-1,-1,-1", "--noise", f"state:{path}"]
        payload = run_json(capsys, *argv)
        assert abs(payload["value"] - 20.0) <= min(payload["bracket_width"], 1e-6)
        witness = state_from_json(json.dumps(payload["free_witness"]))
        assert oracle_by_name("ppt").member(witness)
        assert run_json(capsys, *argv, "--s-max", "32")["value"] == 20.0

    def test_phi_plus_noise_on_the_singlet(self, capsys, tmp_path):
        # the noise phi+ gives the weights (s, 1)/(1 + s) on phi+ and the
        # singlet, so the mixture is free only at s = 1: the convex sets
        # answer 1, the zero-discord sets refuse the scan pattern
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({"bds": [1, -1, 1]}))
        argv = ["ent-ray", "--bds=-1,-1,-1", "--noise", f"state:{path}", "--free-set"]
        for free_set in ("ppt", "unfaithful"):
            payload = run_json(capsys, *argv, free_set)
            assert (payload["value"], payload["iterations"]) == (1.0, 29)
        for free_set in ("zero-discord", "bds-axes"):
            code, out, err = run_cli(capsys, *argv, free_set)
            assert (code, out) == (4, "")
            assert "pattern FTFFFFFFF" in err

    @pytest.mark.parametrize("noisy, value", [(True, 1.8), (False, 0.0)])
    def test_default_noise_has_the_state_dims(self, capsys, tmp_path, noisy, value):
        # 0.7 psi + 0.3/6 with psi = (|00> + |11>)/sqrt(2) on a qubit-qutrit
        # pair is PPT from 0.7/(1 + s) = 1/4 on, s = 1.8; the default noise
        # used to be the two-qubit 1/4, which exited 2 on dims (2, 3)
        psi = np.zeros(6)
        psi[[0, 4]] = 1.0 / math.sqrt(2.0)
        rho = np.eye(6) / 6.0
        if noisy:
            rho = 0.7 * np.outer(psi, psi) + 0.3 * rho
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({"dims": [2, 3], "re": rho.tolist(), "im": [[0.0] * 6] * 6}))
        payload = run_json(capsys, "ent-ray", "--state", str(path))
        assert payload["value"] == pytest.approx(value, abs=1e-6)
        assert payload["free_witness"]["dims"] == [2, 3]

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


# 150 random Bell-diagonal triples, edge triples on faces, edges and
# vertices of the tetrahedron and near an axis, and one outside it (exit 3)
_RNG7 = np.random.default_rng(7)
ONE_ANSWER_TRIPLES = [random_bell_diagonal(_RNG7).as_tuple() for _ in range(150)] + [
    (0.5, 0.3, 0.1), (0.8, 0.0, 0.0), (1.0, -1.0, 1.0), (-1.0, -1.0, -1.0),
    (0.3, 2e-5, 0.0), (0.5, 1e-11, 0.0), (-0.4, -0.7, -0.1), (0.9, 0.6, 0.6),
]


@pytest.fixture(scope="module")
def bds_files(tmp_path_factory):
    """A {"bds": c} state file per triple of ONE_ANSWER_TRIPLES."""
    root = tmp_path_factory.mktemp("bds-files")
    paths = []
    for i, c in enumerate(ONE_ANSWER_TRIPLES):
        paths.append(root / f"bds-{i}.json")
        paths[-1].write_text(json.dumps({"bds": list(c)}))
    return paths


class TestOneTripleOneAnswer:
    """A {"bds": c} state file is the --bds input c: same bytes, same exit."""

    @pytest.mark.parametrize("cmd", [
        ["discord"], ["discord", "--method", "axis-opt"],
        ["discord", "--method", "axis-opt", "--grid", "16"], ["discord-bounds"], ["tel-check"],
        *(["ent-ray", "--free-set", f] for f in ("ppt", "unfaithful", "zero-discord", "bds-axes")),
    ], ids=lambda cmd: "_".join(cmd).replace("--", ""))
    def test_state_file_prints_what_bds_prints(self, capsys, bds_files, cmd):
        differ = []
        for c, path in zip(ONE_ANSWER_TRIPLES, bds_files):
            by_bds = run_cli(capsys, *cmd, f"--bds={','.join(map(repr, c))}")
            by_state = run_cli(capsys, *cmd, "--state", str(path))
            if by_state != by_bds:
                differ.append((c, by_bds, by_state))
        assert not differ, f"{len(differ)} of {len(bds_files)} differ, first {differ[0]}"
        assert by_bds[0] == 3  # the last triple is no state

    @pytest.mark.parametrize("noise", [{"bds": [0.0, 0.0, 0.0]}, state_to_json(maximally_mixed())])
    def test_bds_noise_file_is_a_matrix(self, capsys, tmp_path, noise):
        # only the default noise has the closed form; a noise file, whatever
        # its shape, is a matrix on the ray's bisection path
        path = tmp_path / "noise.json"
        path.write_text(json.dumps(noise))
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"bds": [0.5, 1e-4, 0.0]}))
        argv = ["ent-ray", "--free-set", "zero-discord", "--noise", f"state:{path}"]
        by_bds = run_cli(capsys, *argv, "--bds", "0.5,1e-4,0")
        assert run_cli(capsys, *argv, "--state", str(state)) == by_bds
        payload = json.loads(by_bds[1])
        assert (payload["value"], payload["method"], payload["iterations"]) == (
            "inf", "ray-bisection", 9)

    @pytest.mark.parametrize("state, noise, free_set, code, word", [
        ({"bds": [0.5, 0.3, 0.1]}, "state:missing.json", "nope", 2, "missing.json"),
        ({"bds": [0.5, 0.3, 0.1]}, "foo", "nope", 2, "--noise"),
        ({"bds": [0.9, 0.6, 0.6]}, "state:missing.json", "nope", 3, "violated"),
        ({"bds": [0.9, 0.6, 0.6]}, "maxmixed", "zero-discord", 3, "violated"),
        ({"bds": [0.5, 0.3, 0.1]}, "maxmixed", "nope", 2, "unknown free set"),
    ])
    def test_refusal_order(self, capsys, tmp_path, monkeypatch, state, noise, free_set, code,
                           word):
        # state, then noise, then free set, then the ray's own --tol
        monkeypatch.chdir(tmp_path)
        Path("state.json").write_text(json.dumps(state))
        out = run_cli(capsys, "ent-ray", "--state", "state.json", "--noise", noise,
                      "--free-set", free_set, "--tol", "0")
        assert out[:2] == (code, "")
        assert out[2].startswith("error:") and word in out[2]


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

    @pytest.mark.parametrize("resolution", ["64", "0", "-1", "10001", "10000000", str(10**18)])
    def test_resolution_flag_removed(self, resolution):
        # vertex samples are exact on both scenes, so the flag changed only
        # the cost; the CLI solves at the library default
        proc = run_subprocess("counterexample", "--id", "1", "--t", "-0.5",
                              "--resolution", resolution, timeout=10.0)
        assert proc.returncode == 2
        assert "unrecognized arguments: --resolution" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_requires_t_or_sweep(self, capsys):
        code, _, _ = run_cli(capsys, "counterexample", "--id", "1")
        assert code == 2

    def test_bad_sweep(self, capsys):
        code, _, _ = run_cli(capsys, "counterexample", "--id", "1", "--sweep", "0:1")
        assert code == 2
        code, _, _ = run_cli(capsys, "counterexample", "--id", "1", "--sweep", "0:1:-0.1")
        assert code == 2
        # a sweep with no points tests nothing; it printed only the header, exit 0
        for sweep in ("1:0:0.1", "0.5:0.5:0.1"):
            code, out, err = run_cli(capsys, "counterexample", "--id", "1", "--sweep", sweep)
            assert (code, out) == (2, "")
            assert err == f"error: --sweep {sweep!r} has no points; stop must exceed start\n"

    @pytest.mark.parametrize("sweep, word", [
        ("0:inf:0.1", "finite"),     # never ended, with memory growing
        ("nan:1:0.1", "finite"),     # printed only the header, exit 0
        ("0:1:nan", "finite"),
        ("-inf:0:0.1", "finite"),
        ("-1:1:1e-9", "points"),
        ("0:1e300:1", "points"),
    ])
    def test_unbounded_sweep_exits_two(self, sweep, word):
        proc = run_subprocess("counterexample", "--id", "1", "--sweep", sweep, timeout=10.0)
        assert_rejected(proc, word)

    def test_sweep_point_cap(self):
        from robustlab.cli import MAX_SWEEP_POINTS, _parse_sweep

        assert MAX_SWEEP_POINTS == 10_000
        assert len(_parse_sweep("0:1:0.0001")) == MAX_SWEEP_POINTS
        with pytest.raises(ValidationError, match="points"):
            _parse_sweep("0:1.00005:0.0001")

    def test_counterexample_leaves_numpy_unimported(self):
        proc = run_listing_heavy("counterexample", "--id", "1", "--t", "0.1")
        assert proc.stderr.strip() == "0 []"
        assert proc.stdout.splitlines() == ["t,exact,numeric", "0.1,0.1,0.1"]


_NUMBER = st.one_of(
    st.floats(0.0, 0.5), st.floats(-1.5, 1.5), st.floats(allow_nan=True, allow_infinity=True)
).map(repr)
# steps below 0.05 are drawn only where the sweep is rejected or leaves the
# families' range at once, so every run does at most ~60 solves
_STEP = st.one_of(
    st.floats(0.05, 1.0), st.sampled_from([0.0, -0.1, 1e-9, math.inf, math.nan])
).map(repr)
_SWEEP = st.tuples(_NUMBER, _NUMBER, _STEP).map(":".join)


@st.composite
def counterexample_argv(draw):
    argv = ["counterexample", "--id", draw(st.sampled_from(["1", "2"]))]
    branch = draw(st.sampled_from([None, "a", "b"]))
    if branch is not None:
        argv += ["--branch", branch]
    points = draw(st.sampled_from([("--t",), ("--sweep",), ("--t", "--sweep"), ()]))
    for flag, values in (("--t", _NUMBER), ("--sweep", _SWEEP), ("--delta", _NUMBER)):
        if flag in points or (flag not in ("--t", "--sweep") and draw(st.booleans())):
            argv.append(f"{flag}={draw(values)}")
    return argv


def run_checked(argv, codes):
    """Run the CLI within 20 s and check that it exits with one of ``codes``
    and prints no traceback; a rejection is one "error:" or argparse
    "usage:" message."""
    proc = run_subprocess(*argv, timeout=20.0)
    assert proc.returncode in codes, (argv, proc.stderr)
    assert "Traceback" not in proc.stderr, argv
    if proc.returncode != 0:
        assert proc.stderr.startswith(("error:", "usage:")), (argv, proc.stderr)
    return proc


class TestCounterexampleArguments:
    """Every counterexample invocation exits 0 or 2, in bounded time, with
    no traceback."""

    @settings(max_examples=30, deadline=None)
    @given(argv=counterexample_argv())
    def test_exit_codes(self, argv):
        proc = run_checked(argv, (0, 2))
        if proc.returncode == 0:
            assert proc.stdout.startswith("t,exact,numeric\n"), argv


_CORRELATION = st.one_of(
    st.floats(-1.0, 1.0), st.sampled_from([math.nan, math.inf, -math.inf]), _NUMBER.map(float)
).map(repr)
_BDS = st.one_of(
    st.lists(_CORRELATION, min_size=3, max_size=3),
    st.lists(_CORRELATION, max_size=5),  # wrong counts
).map(",".join) | st.text("0123456789.,-+eEinfa ", max_size=16)


@st.composite
def discord_argv(draw):
    argv = ["discord", f"--bds={draw(_BDS)}"]
    if draw(st.booleans()):
        argv.append(f"--method={draw(st.sampled_from(['closed-form', 'axis-opt', 'lbfgs']))}")
    if draw(st.booleans()):
        # values past the cap are rejected before the grid is built
        grid = st.integers(-3, 80) | st.integers(MAX_AXIS_GRID + 1, 10**18)
        argv.append(f"--grid={draw(grid)}")
    return argv


@st.composite
def levelset_argv(draw):
    argv = ["levelset"]
    if draw(st.booleans()):
        argv.append(f"--r={draw(_NUMBER)}")
    # grids past the cap are rejected before any point is made; grid**3
    # points below it, so do not draw large grids under the cap
    argv.append(f"--grid={draw(st.integers(-3, 25) | st.integers(MAX_LEVELSET_GRID + 1, 10**18))}")
    return argv


class TestDiscordArguments:
    """Every discord invocation on a correlation triple exits 0, 2 or 3, in
    bounded time, with no traceback."""

    @settings(max_examples=30, deadline=None)
    @given(argv=discord_argv())
    def test_exit_codes(self, argv):
        proc = run_checked(argv, (0, 2, 3))
        if proc.returncode == 0:
            c = [float(v) for v in argv[1].split("=", 1)[1].split(",")]
            assert all(math.isfinite(v) for v in c), argv
            value = json.loads(proc.stdout)["value"]
            assert value == pytest.approx(sorted(abs(v) for v in c)[1], abs=1e-6), argv


class TestLevelsetArguments:
    """Every levelset invocation exits 0 or 2, in bounded time, with no
    traceback."""

    @settings(max_examples=25, deadline=None)
    @given(argv=levelset_argv())
    def test_exit_codes(self, argv):
        proc = run_checked(argv, (0, 2))
        if proc.returncode == 0:
            assert proc.stdout.startswith("c1,c2,c3,value,inside\n"), argv


@st.composite
def audit_argv(draw):
    check = draw(st.sampled_from(["lipschitz", "faithfulness", "monotonicity", "convexity"]))
    argv = ["audit", f"--check={check}", f"--samples={draw(st.integers(-2, 3))}"]
    for flag, values in (("--measure", st.sampled_from(["ray", "discord-filtered"])),
                         ("--free-set", st.sampled_from(
                             ["ppt", "zero-discord", "unfaithful", "bds-axes", "nonesuch"])),
                         ("--L", _NUMBER),
                         ("--seed", st.integers(-3, 2**70).map(str))):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    return argv


def run_in_process(argv, codes):
    """Run cli.main in this process and check that it returns within 20 s
    with one of ``codes``, that no exception escapes it, and that exit
    codes >= 2 print one "error:" line; returns (code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 20.0, argv
    assert code in codes, (argv, err.getvalue())
    if code >= 2:
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
    return code, out.getvalue()


class TestAuditArguments:
    """Every audit invocation exits 0, 1 or 2 within 20 s, and nothing
    escapes cli.main; run in process, since each batch is small."""

    @settings(max_examples=40, deadline=None)
    @given(argv=audit_argv())
    def test_exit_codes(self, argv):
        code, out = run_in_process(argv, (0, 1, 2))
        if code != 2:
            assert json.loads(out)["passed"] is (code == 0), argv


# entries of a state file that are not numbers
_JUNK = st.sampled_from(["abc", None, [0.5], {}, ""])
_ENTRY = st.one_of(st.floats(-0.4, 0.4), _NUMBER.map(float), _JUNK)
_VECTOR = st.one_of(
    st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3), st.lists(_ENTRY, max_size=4), _JUNK
)
_DIMS = st.sampled_from(
    [[2, 2], [2, 2], [2.0, 2.0], [4], [1, 4], 4, "22", [-2, -2], [4.9, 1], [0, 4], ["2", "2"], None]
)


def _matrix_state(seed, rank, dims, damage):
    """A random state in matrix form with its dims replaced and one entry
    or table optionally damaged."""
    obj = state_to_json(random_density(4, rank=rank, seed=seed))
    obj["dims"] = dims
    if damage == "ragged":
        obj["re"][1] = obj["re"][1][:2]
    elif damage == "text":
        obj["re"][0][0] = "abc"
    elif damage == "nan":
        obj["re"][0][0] = math.nan
    elif damage == "im-shape":
        obj["im"] = obj["im"][:3]
    elif damage == "no-im":
        del obj["im"]
    if dims is None:
        del obj["dims"]
    return obj


_STATE_TEXT = st.one_of(
    st.fixed_dictionaries({"bds": st.lists(_ENTRY, min_size=3, max_size=3)
                           | st.lists(_ENTRY, max_size=5) | _JUNK}),
    st.fixed_dictionaries({"bloch": st.fixed_dictionaries(
        {"x": _VECTOR, "y": _VECTOR,
         "T": st.lists(_VECTOR, min_size=3, max_size=3) | st.lists(_VECTOR, max_size=4) | _JUNK}
    ) | _JUNK}),
    st.builds(_matrix_state, st.integers(0, 2**32 - 1), st.integers(1, 4), _DIMS,
              st.sampled_from([None, None, "ragged", "text", "nan", "im-shape", "no-im"])),
).map(json.dumps) | st.sampled_from(["{not json", "[1, 2, 3]", "null", ""])


@pytest.fixture(scope="module")
def state_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("states")


def draw_state_args(data, path):
    """Draw --bds with a correlation string, or --state with a state file
    of any of the three shapes (often malformed), written to ``path``."""
    if data.draw(st.booleans(), label="bds"):
        return [f"--bds={data.draw(_BDS, label='bds value')}"]
    path.write_text(data.draw(_STATE_TEXT, label="state file"))
    return ["--state", str(path)]


class TestStateArguments:
    """discord-bounds and tel-check exit 0, 2 or 3, ent-ray also 4, within
    20 s, and nothing escapes cli.main, for any correlation string and any
    state file; run in process."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), cmd=st.sampled_from(["discord-bounds", "tel-check"]))
    def test_scalar_commands(self, state_dir, data, cmd):
        code, out = run_in_process([cmd, *draw_state_args(data, state_dir / "state.json")],
                                   (0, 2, 3))
        if code == 0:
            assert json.loads(out)["v"] == 1

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_ent_ray(self, state_dir, data):
        argv = ["ent-ray", *draw_state_args(data, state_dir / "state.json")]
        if data.draw(st.booleans(), label="free set"):
            names = ["ppt", "zero-discord", "unfaithful", "bds-axes", "none"]
            argv.append(f"--free-set={data.draw(st.sampled_from(names))}")
        if data.draw(st.booleans(), label="noise"):
            noise = state_dir / "noise.json"
            noise.write_text(data.draw(_STATE_TEXT, label="noise file"))
            argv.append(f"--noise=state:{noise}")
        for flag in ("--tol", "--s-max"):
            if data.draw(st.booleans(), label=flag):
                value = st.one_of(st.floats(1e-9, 10.0), _NUMBER.map(float),
                                  st.sampled_from([5e-324, 1e-300, 1e300]))
                argv.append(f"{flag}={data.draw(value.map(repr), label=flag + ' value')}")
        code, out = run_in_process(argv, (0, 2, 3, 4))
        if code == 0:
            assert float(json.loads(out)["value"]) >= 0.0, argv


class TestLevelset:
    @pytest.mark.parametrize("args, word", [
        (("--r", "nan"), "level"),   # marked every row inside=0 with exit 0
        (("--r", "-0.1"), "level"),
        (("--grid", "1"), "grid"),
        (("--grid", str(MAX_LEVELSET_GRID + 1)), "grid"),  # grid**3 points
    ])
    def test_bad_input_exits_two(self, args, word):
        assert_rejected(run_subprocess("levelset", *args), word)

    @pytest.mark.parametrize("r, grid, word", [
        (math.nan, 5, "level"), (-1.0, 5, "level"),
        (0.3, 2.5, "grid"), (0.3, 1, "grid"), (0.3, math.nan, "grid"), (0.3, math.inf, "grid"),
        (0.3, MAX_LEVELSET_GRID + 1, "grid"), (0.3, 10**18, "grid"),
    ])
    def test_library_rejects_bad_input(self, r, grid, word):
        with pytest.raises(ValidationError, match=word):
            discord_levelset_grid(r, grid)

    def test_matches_library(self, capsys):
        rows = run_csv(capsys, "levelset", "--r", "0.3", "--grid", "5")
        data = np.asarray(discord_levelset_grid(0.3, 5))
        assert len(rows) == 1 + data.shape[0]
        for row, ref in zip(rows[1:], data):
            assert float(row[3]) == pytest.approx(ref[3], abs=1e-12)
            assert int(row[4]) == int(ref[4])


class TestNumpyFree:
    # each loads neither numpy nor dataclasses (and so no inspect); 3 is the
    # positivity rejection, 2 a ray parameter that bds's ray rule checks
    @pytest.mark.parametrize("argv, code", [
        (("discord", "--bds", "0.1,0.2,0.3"), 0),
        (("discord", "--bds", "0.8,0.6,0.6"), 3),
        (("levelset", "--grid", "5"), 0),
        (("ent-ray", "--bds", "0.5,0,0", "--free-set", "zero-discord"), 0),
        (("ent-ray", "--bds", "0.5,1e-4,0", "--free-set", "zero-discord"), 0),
        (("ent-ray", "--bds", "0.8,0.6,0.6", "--free-set", "zero-discord"), 3),
        (("ent-ray", "--bds", "0.5,0,0", "--free-set", "zero-discord", "--tol", "0"), 2),
        (("counterexample", "--id", "2", "--branch", "a", "--t", "0.2"), 0),
        (("discord", "--bds", "0.5,0.3,0.1", "--method", "axis-opt"), 0),
        (("discord", "--bds", "0.5,0.3,0.1", "--method", "axis-opt", "--grid", "16"), 0),
        (("discord", "--bds", "0.5,0.3,0", "--method", "axis-opt", "--grid", "4"), 0),
    ])
    def test_command_leaves_numpy_unimported(self, argv, code):
        proc = run_listing_heavy(*argv)
        assert proc.stderr.splitlines()[-1] == f"{code} []"

    def test_bds_import_leaves_numpy_unimported(self):
        # and so do the other numpy-free modules
        proc = run_python(
            "-c", "import sys, robustlab.bds, robustlab.geometry2d, robustlab.cli\n"
                  f"bare = {sorted(bare_modules())!r}\n"
                  f"print(sorted(m for m in sys.modules if m not in bare and ({HEAVY})))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [
        ("ent-ray", "--bds", "0.5,0,0", "--free-set", "ppt"),
        ("ent-ray", "--bds", "0.5,0,0", "--free-set", "unfaithful"),
        ("ent-ray", "--bds", "0.5,0,0", "--free-set", "bds-axes"),
        ("tel-check", "--bds=-1,-1,-1"),
        ("discord-bounds", "--bds", "0.5,0.3,0.1"),
    ])
    def test_matrix_paths_still_load_numpy(self, argv):
        # these stay on the matrix engines, so the check above would see
        # numpy if they moved
        proc = run_listing_heavy(*argv)
        assert "'numpy'" in proc.stderr.splitlines()[-1]


class TestAudit:
    def test_lipschitz_payload(self, capsys):
        payload = run_json(
            capsys, "audit", "--check", "lipschitz", "--measure", "discord-filtered",
            "--samples", "20", "--seed", "3", "--L", "1",
        )
        rep = audit_mod.audit_lipschitz(
            audit_mod.discord_filtered_measure, 1.0, audit_mod.AuditConfig(samples=20, seed=3),
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
            capsys, "audit", "--check", "faithfulness", "--measure", "ray",
            "--free-set", "ppt", "--samples", "10",
        )
        assert payload["passed"] is True
        assert payload["free_checked"] == 10

    def test_convexity(self, capsys):
        payload = run_json(
            capsys, "audit", "--check", "convexity", "--measure", "ray",
            "--samples", "6",
        )
        assert payload["passed"] is True
        assert (payload["checked"], payload["infinite_skipped"]) == (18, 0)

    def test_convexity_counts_what_it_skips(self, capsys):
        # every zero-discord ray toward 1/4 from a random state is infinite,
        # so all 3 x 3 (pair, lam) checks are skipped and the audit fails
        code, out, _ = run_cli(capsys, "audit", "--check", "convexity",
                               "--free-set", "zero-discord", "--samples", "3")
        payload = json.loads(out)
        assert code == 1 and payload["passed"] is False
        assert (payload["checked"], payload["infinite_skipped"]) == (0, 9)

    @pytest.mark.parametrize("free_set", ["zero-discord", "ppt"])
    def test_discord_filtered_convexity_adds_axis_pairs(self, capsys, free_set):
        # the axis-endpoint pairs break the convexity of discord whatever the
        # free set: 5 random pairs and 3 axis pairs, each at 3 mixing weights
        code, out, _ = run_cli(capsys, "audit", "--check", "convexity",
                               "--measure", "discord-filtered", "--free-set", free_set,
                               "--samples", "5")
        payload = json.loads(out)
        assert code == 1 and payload["passed"] is False
        assert (payload["checked"], payload["violations"], payload["worst_gap"]) == (24, 9, 0.5)

    def test_ray_measures_its_free_set(self, capsys):
        # the ray toward 1/4 of the unfaithful set, against its kappa-ball
        # constant 3; the PPT ray, measured whatever --free-set said, read
        # max_ratio 2.019849 here
        payload = run_json(capsys, "audit", "--check", "lipschitz", "--free-set", "unfaithful",
                           "--samples", "20", "--seed", "0")
        unfaithful = oracle_by_name("unfaithful")
        rep = audit_mod.audit_lipschitz(
            audit_mod.ray_measure(maximally_mixed(), unfaithful), 3.0,
            audit_mod.AuditConfig(samples=20, seed=0),
        )
        assert payload["L"] == rep.L_claimed == 3.0
        assert payload["max_ratio"] == rep.max_ratio
        assert payload["pairs_tested"] == rep.pairs_tested
        assert round(payload["max_ratio"], 6) == 1.970942
        assert payload["passed"] is True
        # the report names what it audited, right after the check
        assert list(payload)[:4] == ["v", "check", "measure", "free_set"]
        assert (payload["measure"], payload["free_set"]) == ("ray", "unfaithful")

    def test_zero_discord_ray_is_faithful(self, capsys):
        # the PPT ray read 0 on 16 of these 50 non-free states, which are
        # PPT but have discord
        payload = run_json(capsys, "audit", "--check", "faithfulness",
                           "--free-set", "zero-discord", "--samples", "50", "--seed", "3")
        assert payload["nonfree_zero"] == 0
        assert payload["passed"] is True

    def test_ppt_ray_measure_removed(self):
        proc = run_subprocess("audit", "--check", "lipschitz", "--measure", "ppt-ray")
        assert proc.returncode == 2
        assert [line for line in proc.stderr.splitlines() if "error:" in line] == [
            "robustlab audit: error: argument --measure: invalid choice: 'ppt-ray' "
            "(choose from 'ray', 'discord-filtered')"
        ]
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("check,samples", [("lipschitz", "0"), ("convexity", "-3")])
    def test_empty_batch_exits_two(self, check, samples):
        proc = run_subprocess("audit", "--check", check, "--samples", samples)
        assert_rejected(proc, "--samples")

    def test_samples_cap_accepted(self):
        # the cheapest check: 1000 free and 1000 non-free states in ~0.3 s
        proc = run_subprocess("audit", "--check", "faithfulness", "--measure",
                              "discord-filtered", "--free-set", "zero-discord",
                              "--samples", str(audit_mod.MAX_AUDIT_SAMPLES), timeout=20.0)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["free_checked"] == audit_mod.MAX_AUDIT_SAMPLES

    @pytest.mark.parametrize("samples", [audit_mod.MAX_AUDIT_SAMPLES + 1, 10**18])
    def test_samples_cap_exits_two(self, samples):
        # 4000 Lipschitz samples took 25 s; rejected before any state is drawn
        proc = run_subprocess("audit", "--check", "lipschitz", "--samples", str(samples),
                              timeout=10.0)
        assert_rejected(proc, "samples")

    @pytest.mark.parametrize("args, word", [
        (("--check", "lipschitz", "--L", "nan"), "L must"),  # passed every pair
        (("--check", "lipschitz", "--L", "-1"), "L must"),   # failed every pair
        (("--check", "lipschitz", "--seed", "-1"), "seed"),  # numpy traceback
    ])
    def test_bad_audit_arguments_exit_two(self, args, word):
        proc = run_subprocess("audit", *args, "--samples", "5")
        assert_rejected(proc, word)

    @pytest.mark.parametrize("free_set", ["ppt", "unfaithful"])
    def test_discord_filtered_needs_L(self, capsys, free_set):
        # the free set's kappa-ball constant bounds its ray, not this measure;
        # on unfaithful it was taken as the claim L = 3
        code, _, err = run_cli(
            capsys, "audit", "--check", "lipschitz", "--measure", "discord-filtered",
            "--free-set", free_set, "--samples", "5",
        )
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "pass --L" in err

    def test_tolerance_flag_removed(self):
        # --tol was a relative slack for lipschitz, an absolute zero for
        # faithfulness and an allowed gap for monotonicity and convexity
        proc = run_subprocess("audit", "--check", "lipschitz", "--samples", "2",
                              "--tol", "1e-3", timeout=10.0)
        assert proc.returncode == 2
        assert "unrecognized arguments: --tol" in proc.stderr
        assert "Traceback" not in proc.stderr

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

    @pytest.mark.parametrize("argv", [
        ("discord", "--bds", "0.5,0.3,0", "--state", "s.json"),
        ("ent-ray", "--state", "s.json", "--bds", "0.5,0.3,0"),
        ("counterexample", "--id", "1", "--sweep", "0:0.2:0.1", "--t", "0.9"),
    ], ids=["discord", "ent-ray", "counterexample"])
    def test_conflicting_flags_are_two(self, capsys, argv):
        # the second flag of each pair used to be dropped without a word
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, refused, accepted", [
        ("--grid", ("discord", "--bds", "0.5,0.3,0", "--grid", "-5"),
         ("discord", "--bds", "0.5,0.3,0", "--method", "axis-opt", "--grid", "5")),
        ("--delta",
         ("counterexample", "--id", "2", "--branch", "a", "--t", "0.1", "--delta", "nan"),
         ("counterexample", "--id", "1", "--t", "0.1", "--delta", "0.5")),
        ("--branch", ("counterexample", "--id", "1", "--branch", "b", "--t", "0.1"),
         ("counterexample", "--id", "2", "--branch", "b", "--t", "0.1")),
        ("--L", ("audit", "--check", "monotonicity", "--samples", "3", "--L", "-5"),
         ("audit", "--check", "lipschitz", "--samples", "3", "--L", "5")),
    ], ids=["grid", "delta", "branch", "L"])
    def test_flag_where_it_does_not_act_is_two(self, capsys, flag, refused, accepted):
        # each refused flag was ignored with exit 0, its value never checked
        code, out, err = run_cli(capsys, *refused)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag} acts only with --")
        assert err.count("\n") == 1
        code, _, err = run_cli(capsys, *accepted)
        assert code == 0, err

    def test_numerical_failure_is_four(self, tmp_path):
        # phi+ noise leaves the zero-discord set again after entering it:
        # not star-convex (the convex PPT set answers 1)
        path = tmp_path / "phi_plus.json"
        path.write_text(json.dumps(state_to_json(bell_states()[0])))
        proc = run_subprocess("ent-ray", "--bds=-1,-1,-1", "--noise", f"state:{path}",
                              "--free-set", "zero-discord")
        assert proc.returncode == 4
        assert proc.stderr.startswith("error: numerical failure")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("cmd", ["discord", "discord-bounds", "ent-ray", "tel-check"])
    def test_malformed_state_file_is_two(self, capsys, tmp_path, cmd, malformed_state):
        # each escaped cli.main as a Python or numpy exception (exit 1)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(malformed_state))
        code, out, err = run_cli(capsys, cmd, "--state", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_deeply_nested_state_file_is_two(self, capsys, tmp_path):
        # json.loads raised RecursionError, a traceback with exit 1
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, _, err = run_cli(capsys, "discord-bounds", "--state", str(path))
        assert code == 2
        assert "nested" in err

    def test_negative_dims_noise_is_two(self, capsys, tmp_path):
        # dims (-2, -2) on both sides reached partial_transpose
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dims": [-2, -2], "re": (np.eye(4) / 4.0).tolist()}))
        code, _, err = run_cli(capsys, "ent-ray", "--state", str(path), "--noise", f"state:{path}")
        assert code == 2
        assert "dimension" in err

    def test_positive_state_file_with_bad_trace(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dims": [2, 2], "re": (2.0 * __import__("numpy").eye(4) / 4.0).tolist()}))
        code, _, _ = run_cli(capsys, "discord", "--state", str(path))
        assert code == 2
