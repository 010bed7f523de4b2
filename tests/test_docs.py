"""The README's design map, the package docstring's submodule list, the
README's command examples and the CI workflow's console-script step name
what the code holds, so that none can drift from it."""

import argparse
import re
from pathlib import Path

import sgdnet
from sgdnet.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
WORKFLOW = README.parent / ".github" / "workflows" / "tests.yml"


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


def subcommands():
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return set(subs.choices)


def private_names(texts):
    """The texts that name a private `_name`."""
    return [text for text in texts if re.search(r"(?<!\w)_[A-Za-z]", text)]


def test_command_line_section_shows_each_subcommand():
    shown = {line.split()[1] for line in section("Command line") if line.startswith("sgdnet ")}
    assert shown == subcommands()


def test_readme_names_no_private_name():
    assert private_names(re.findall(r"`[^`\n]+`", README.read_text(encoding="utf-8"))) == []


def test_workflow_comments_name_no_private_name():
    assert private_names(re.findall(r"^\s*#.*$", WORKFLOW.read_text(encoding="utf-8"), re.M)) == []


def test_console_script_step_runs_each_subcommand():
    text = WORKFLOW.read_text(encoding="utf-8")
    step = re.search(r"- name: Console script end to end\n(.*?)(?=\n\s*- name: |\Z)", text, re.S)
    assert set(re.findall(r"^\s*sgdnet (\w+)", step[1], re.M)) == subcommands()
