"""The README's reference tables, run.

Each row of "Exit codes" runs through cli.main in a directory of named
inputs, each value of "Caps and constants" is compared with its module,
and "Artifacts" with the files a W1 run and step write.  A refusal, cap
or artifact key is stated once, in its README row.
"""
import importlib
import json
import re
import shlex
from pathlib import Path

import pytest

from kamtorus import field as fld
from kamtorus.cli import main
from kamtorus.diophantine import serialize_frequency
from kamtorus.generate import random_field

from conftest import WORKLOADS

README = Path(__file__).resolve().parent.parent / "README.md"


def _table(heading: str) -> list[list[str]]:
    """The body rows of the table under `## heading`, as lists of cells
    (a `\\|` in a cell reads as `|`)."""
    _, found, section = README.read_text().partition(f"\n## {heading}\n")
    rows = [line for line in section.split("\n## ", 1)[0].splitlines()
            if line.startswith("|")]
    if not found or len(rows) < 3:
        raise LookupError(f"README.md has no table under '## {heading}'")
    return [[cell.strip().replace("\\|", "|")
             for cell in re.split(r"(?<!\\)\|", row)[1:-1]]
            for row in rows[2:]]


def _code(cell: str) -> list[str]:
    """The `code` spans of a cell."""
    return re.findall(r"`([^`]*)`", cell)


EXIT_ROWS = [(shlex.split(_code(command)[0])[1:], int(code), _code(err)[0])
             for command, code, err in _table("Exit codes")]


def _row_id(argv: list[str]) -> str:
    """A row's command without the inputs most rows share."""
    line = " ".join(argv)
    for shared in ("--freq golden.freq --pert p.field", "--beta beta.txt",
                   "--out out"):
        line = line.replace(shared, "")
    return " ".join(line.split())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, golden_freq, plastic_freq):
    """The named inputs of the exit-code rows."""
    path = tmp_path_factory.mktemp("inputs")
    for name, alpha in (("golden", golden_freq), ("plastic", plastic_freq)):
        (path / f"{name}.freq").write_text(serialize_frequency(alpha))
    for name, workload in (("p", "W1"), ("p3", "W3")):
        n, s, eps, modes, seed, k_max = WORKLOADS[workload]
        (path / f"{name}.field").write_text(fld.serialize(
            random_field(n, s, eps, modes, seed, k_max=k_max)))
    (path / "beta.txt").write_text("0\n0\n")
    return path


@pytest.mark.parametrize("argv, code, fragment", EXIT_ROWS,
                         ids=[_row_id(argv) for argv, _, _ in EXIT_ROWS])
def test_exit_row(inputs, monkeypatch, capsys, argv, code, fragment):
    names = sorted(p.name for p in inputs.iterdir())
    monkeypatch.chdir(inputs)
    assert main(argv) == code
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert fragment in out.err and not out.out
    # nothing written: no out/, and no file beside the inputs
    assert sorted(p.name for p in inputs.iterdir()) == names


def _value(text: str):
    base, _, power = text.partition("^")
    return int(base) ** int(power) if power else float(text)


def test_caps_and_constants_match_their_modules():
    rows = _table("Caps and constants")
    named = {}
    for name, module, value, _ in rows:
        mod = importlib.import_module(f"kamtorus.{_code(module)[0]}")
        named[_code(name)[0]] = mod
        assert getattr(mod, _code(name)[0]) == _value(_code(value)[0]), name
    # every public cap and default of those modules has its row
    for mod in set(named.values()):
        assert {k for k in vars(mod) if k.startswith(("MAX_", "DEFAULT_"))
                } <= set(named), mod.__name__


def test_artifact_keys_match_a_w1_run_and_step(inputs, tmp_path,
                                               monkeypatch):
    monkeypatch.chdir(inputs)
    for command in ("run", "step"):
        argv = [command, "--freq", "golden.freq", "--pert", "p.field",
                "--out", str(tmp_path / command)]
        assert main(argv + (["--s", "1", "--grid", "8", "--orbit-T", "20"]
                            if command == "run" else [])) == 0
    written = set()
    for command, name, at, keys, _ in _table("Artifacts"):
        path = tmp_path / _code(command)[0] / _code(name)[0]
        written.add(path)
        if path.suffix == ".json":
            record = json.loads(path.read_text())
            for part in re.findall(r"\w+", "".join(_code(at))):
                record = record[int(part) if part.isdigit() else part]
            assert sorted(record) == sorted(_code(keys)), (name, at)
    assert set(tmp_path.glob("*/*")) == written
