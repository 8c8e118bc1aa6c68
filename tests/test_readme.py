"""The README's examples run as written and state what they print."""

import argparse
import ast
import json
import re
import shlex
from pathlib import Path

import pytest

from robustlab import cli
from robustlab.config import TOLS
from robustlab.qstates import random_density, state_to_json

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first ```lang block after the line ``heading``."""
    rest = README[README.index(f"\n{heading}\n"):]
    start = rest.index(f"```{lang}\n") + len(lang) + 4
    return rest[start:rest.index("```", start)]


# "# 0.3", "# 0.3 up to 1e-6", "# 2.0 up to tol", "# ~4.0", "# sqrt(27/4) ~ 2.598"
_STATED = re.compile(
    r"#\s*(?P<approx>.*~)?\s*(?P<value>[-+]?\d[\d.]*(?:e[-+]?\d+)?)(?:\s+up to (?P<tol>\S+))?\s*$"
)


def _tolerance(match) -> float:
    """Allowed error of a stated value: T for "up to T" ("tol" is the ray's
    default bracket), half a unit in the last digit for "~ X", and rounding
    only for a bare value."""
    if match["tol"] is not None:
        return TOLS.ray_bisection if match["tol"] == "tol" else float(match["tol"])
    if match["approx"] is None:
        return 1e-12
    mantissa, _, exp = match["value"].partition("e")
    digits = len(mantissa.partition(".")[2])
    return 0.5 * 10.0 ** (int(exp or 0) - digits)


def test_quick_tour_prints_its_comments():
    source = _block("## Library quick tour", "python")
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        if isinstance(stmt, ast.Expr) and comment:
            match = _STATED.fullmatch(comment)
            assert match, f"comment states no value: {comment!r}"
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            expected = float(match["value"])
            assert abs(value - expected) <= _tolerance(match), (ast.unparse(stmt), value)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert checked == 9


def _subcommand_lines() -> list[str]:
    return [
        line for line in _block("### Subcommands", "sh").splitlines()
        if line.startswith("robustlab ")
    ]


def test_every_subcommand_has_an_example():
    (subcommands,) = [action.choices for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    assert {shlex.split(line)[1] for line in _subcommand_lines()} == set(subcommands)


@pytest.mark.parametrize("line", _subcommand_lines())
def test_subcommand_line_exits_zero(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    files = {
        "state.json": state_to_json(random_density(4, seed=3)),
        "rho.json": {"bds": [-1.0, -1.0, -1.0]},
        "sigma.json": {"bds": [0.0, 0.0, 0.0]},
    }
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    code = cli.main(shlex.split(line)[1:])
    assert code == 0, capsys.readouterr().err
