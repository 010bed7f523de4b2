"""The README's design map, the package docstring's submodule list and the
README's command examples name what the code holds, so that neither can
drift from it."""

import argparse
import re
from pathlib import Path

import sgdnet
from sgdnet.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def modules():
    """The package's submodules: every sgdnet/*.py but `__init__.py`."""
    package = Path(sgdnet.__file__).resolve().parent
    return sorted(path.stem for path in package.glob("*.py") if path.stem != "__init__")


def section(title):
    """The lines of the README section headed `## title`."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(f"## {title}") + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("## ")), len(lines))
    return lines[start:end]


def test_design_map_names_each_module_once():
    lines = section("Design map")
    named = [match[1] for line in lines if (match := re.match(r"- `sgdnet\.(\w+)`", line))]
    assert sorted(named) == modules()
    assert len(lines) <= 25


def test_package_docstring_lists_each_module_once():
    listing = sgdnet.__doc__.split("Submodules:", 1)[1]
    named = [line.split()[0] for line in listing.splitlines() if line.strip()]
    assert sorted(named) == modules()


def test_command_line_section_shows_each_subcommand():
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    shown = {line.split()[1] for line in section("Command line") if line.startswith("sgdnet ")}
    assert shown == set(subs.choices)


def test_readme_names_no_private_name():
    spans = re.findall(r"`[^`\n]+`", README.read_text(encoding="utf-8"))
    assert [span for span in spans if re.search(r"(?<!\w)_[A-Za-z]", span)] == []
