"""The README's library session runs against the current API."""

import argparse
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_session_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("WorstCaseResult(value=")


def _subcommand_flags():
    from rampdro import cli

    (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {flag for parser in sub.choices.values() for flag in parser._option_string_actions}


def _readme_flags():
    return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README.read_text(encoding="utf-8")))


def test_readme_names_only_flags_the_cli_accepts():
    # a flag the README documents must parse under some subcommand; pip's
    # own flag in the install line is the one exception
    stale = _readme_flags() - _subcommand_flags() - {"--no-build-isolation"}
    assert not stale, f"README names flags no subcommand accepts: {sorted(stale)}"


def test_readme_names_every_flag_the_cli_accepts():
    missing = _subcommand_flags() - _readme_flags() - {"-h", "--help"}
    assert not missing, f"README never names these flags: {sorted(missing)}"


def test_readme_layout_table_has_one_row_per_module():
    section = README.read_text(encoding="utf-8").split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]*)`", section, re.M)
    package = README.parent / "src" / "rampdro"
    modules = [f"rampdro.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__"]
    assert sorted(rows) == sorted(modules)
