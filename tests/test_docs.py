import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import mlsurf
from mlsurf import cli, sweep

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# a dotted name is documented code when it starts with the package, one of its
# modules or a name the package exports (`Family.jets`)
HEADS = ({"mlsurf"} | {m.name for m in pkgutil.iter_modules(mlsurf.__path__)}
         | {n for n in vars(mlsurf) if not n.startswith("_")})


def _documented_names() -> list:
    names = set()
    for span in re.findall(r"`([^`\n]+)`", README):
        for name in re.findall(r"(?<![\w.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span):
            if name.split(".")[0] in HEADS:
                names.add(name)
    return sorted(names)


def _resolve(name: str):
    obj, path = mlsurf, "mlsurf"
    for part in (name if name.startswith("mlsurf.") else f"mlsurf.{name}").split(".")[1:]:
        path = f"{path}.{part}"
        # a module the package does not import is not yet an attribute
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(path)
    return obj


def test_the_scan_finds_names_in_prose_tables_and_assignments():
    names = _documented_names()
    for name in ("sweep.CHUNK", "theta.SYMMETRY_TOL", "diffgeo.gauss_curvature_masked",
                 "mlsurf.baker_akhiezer", "Family.jets"):
        assert name in names


@pytest.mark.parametrize("name", _documented_names())
def test_readme_names_resolve(name):
    _resolve(name)


def test_readme_states_the_shipped_block_size():
    stated = re.findall(r"sweep\.CHUNK = (\d+)", README)
    assert stated and all(int(n) == sweep.CHUNK for n in stated)


def _cli_block_flags() -> list:
    """(command, flag) for each --flag of README's CLI usage block, a
    continuation line counting for the `mlsurf <command>` line above it."""
    block = re.search(r"## CLI\n\n```\n(.*?)```", README, re.S).group(1)
    pairs, command = [], None
    for line in block.splitlines():
        if line.startswith("mlsurf "):
            command = line.split()[1]
        pairs += [(command, flag) for flag in re.findall(r"(?<![\w-])--?[a-z][\w-]*", line)]
    return sorted(set(pairs))


def test_the_cli_block_scan_covers_every_command():
    commands = {command for command, _ in _cli_block_flags()}
    assert commands == set(cli.COMMANDS)
    assert ("verify", "--json-out") in _cli_block_flags()  # from a continuation line


@pytest.mark.parametrize("command, flag", _cli_block_flags())
def test_readme_cli_flags_are_options_of_their_command(command, flag):
    assert flag in {"-h", "--help"} | {f for f, _ in cli.COMMANDS[command][1]}


def test_the_library_layout_table_lists_every_module_once():
    table = re.search(r"## Library layout\n\n(.*?)\n\n", README, re.S).group(1)
    rows = re.findall(r"^\| `mlsurf\.(\w+)` \|", table, re.M)
    assert sorted(rows) == sorted(m.name for m in pkgutil.iter_modules(mlsurf.__path__))
