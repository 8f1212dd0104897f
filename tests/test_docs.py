import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import mlsurf
from mlsurf import cli, report, surface_families, sweep

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()

# a dotted name is documented code when it starts with the package, one of its
# modules or a name the package exports (`Family.jets`)
HEADS = ({"mlsurf"} | {m.name for m in pkgutil.iter_modules(mlsurf.__path__)}
         | {n for n in vars(mlsurf) if not n.startswith("_")})


README_MAX_LINES = 450


def test_readme_stays_within_its_length_bound():
    assert len(README.splitlines()) <= README_MAX_LINES


def _library_exports() -> list:
    """The names of the Library section's "`mlsurf` exports exactly these names" sentence."""
    section = re.search(r"\n## Library\n(.*?)\n## ", README, re.S).group(1)
    listed = re.search(r"`mlsurf` exports exactly these names[^:]*:(.*?)\.\s", section, re.S)
    return re.findall(r"`(\w+)`", listed.group(1))


def test_the_package_exports_the_library_sections_names():
    exported = {n for n, v in vars(mlsurf).items()
                if not n.startswith("_") and not inspect.ismodule(v)}
    listed = _library_exports()
    assert "verify" in listed and len(listed) == len(set(listed))
    assert exported == set(listed)
    assert mlsurf.__version__   # bench/run.py records it


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


def test_readme_states_the_memo_bound():
    stated = re.findall(r"surface_families\.MEMO_SIZE = (\d+)", README)
    assert stated and all(int(n) == surface_families.MEMO_SIZE for n in stated)


def test_readme_states_the_numpy_floor():
    stated = re.findall(r"`numpy>=([\d.]+)`", README)
    required = re.findall(r'"numpy>=([\d.]+)"', (ROOT / "pyproject.toml").read_text())
    assert stated and len(required) == 1 and set(stated) == set(required)


def test_readme_states_the_grid_bound():
    stated = re.findall(r"report\.MAX_GRID_POINTS = (\d+)", README)
    assert stated and all(int(n) == report.MAX_GRID_POINTS for n in stated)
    report.GridSpec(report.MAX_GRID_POINTS, 1)
    with pytest.raises(ValueError):
        report.GridSpec(report.MAX_GRID_POINTS + 1, 1)


def test_every_bench_record_the_readme_names_exists():
    named = set(re.findall(r"BENCH_\d+\.json", README))
    assert named and sorted(n for n in named if not (ROOT / n).is_file()) == []


def _cli_block_lines() -> list:
    """(command, line) for each line of README's CLI usage block, a continuation
    line counting for the `mlsurf <command>` line above it."""
    block = re.search(r"## CLI\n\n```\n(.*?)```", README, re.S).group(1)
    lines, command = [], None
    for line in block.splitlines():
        if line.startswith("mlsurf "):
            command = line.split()[1]
        lines.append((command, line))
    return lines


def _cli_block_flags() -> list:
    """(command, flag) for each --flag of README's CLI usage block."""
    return sorted({(command, flag) for command, line in _cli_block_lines()
                   for flag in re.findall(r"(?<![\w-])--?[a-z][\w-]*", line)})


def _cli_block_choices() -> list:
    """(command, flag, values) for each `--flag a|b` of the usage block whose flag has
    choices, values split on "|": one value is an example, more a choice list."""
    return [(command, flag, values.split("|"))
            for command, line in _cli_block_lines()
            for flag, values in re.findall(r"(?<![\w-])(--[a-z][\w-]*)[ =]([\w|]+)", line)
            if dict(cli.COMMANDS[command][1]).get(flag, {}).get("choices")]


def test_the_cli_block_scan_covers_every_command():
    commands = {command for command, _ in _cli_block_flags()}
    assert commands == set(cli.COMMANDS)
    assert ("verify", "--json-out") in _cli_block_flags()  # from a continuation line


@pytest.mark.parametrize("command, flag", _cli_block_flags())
def test_readme_cli_flags_are_options_of_their_command(command, flag):
    assert flag in {"-h", "--help"} | {f for f, _ in cli.COMMANDS[command][1]}


def test_readme_cli_choice_lists_are_the_parsers_choices():
    found = _cli_block_choices()
    assert ("verify", "--family", ["spectral"]) in found   # the scan reads example values
    assert any(flag == "--tol-profile" for _, flag, _ in found)
    for command, flag, values in found:
        choices = dict(cli.COMMANDS[command][1])[flag]["choices"]
        assert set(values) <= set(choices), (command, flag)
        assert len(values) == 1 or values == list(choices), (command, flag)


def test_the_library_layout_table_lists_every_module_once():
    table = re.search(r"## Library layout\n\n(.*?)\n\n", README, re.S).group(1)
    rows = re.findall(r"^\| `mlsurf\.(\w+)` \|", table, re.M)
    assert sorted(rows) == sorted(m.name for m in pkgutil.iter_modules(mlsurf.__path__))


def _checks_table() -> list:
    """(name, tolerance, kind, points, families) of each row of README's Checks table; a
    tolerance written as `report.NAME` = value must be the value of that constant."""
    table = re.search(r"\n(\| check \|.*?)\n\n", README, re.S).group(1)
    rows = []
    for line in table.splitlines()[2:]:
        name, tolerance, kind, points, families = line.strip("| ").split(" | ")[:5]
        constant, value = re.fullmatch(r"(?:`report\.(\w+)` = )?([\d.e-]+)", tolerance).groups()
        assert constant is None or getattr(report, constant) == float(value), line
        rows.append((name.strip("`"), float(value), kind, points, tuple(families.split(", "))))
    return rows


def test_the_readme_checks_table_is_the_catalogue():
    rows = _checks_table()
    assert len(rows) == 39 and ("tube_G_bound", 1e-3, "upper", "tube", ("spectral",)) in rows
    assert rows == [(name, tolerance, kind, points, families)
                    for names, tolerance, kind, points, families in report.CHECKS for name in names]
