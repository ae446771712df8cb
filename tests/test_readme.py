"""The README's examples run as written and give the values it prints."""

import re
import shlex
from pathlib import Path

import pytest

from sagnac_qfi.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _blocks(title: str, language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", _section(title), re.S)


def _commands() -> list[str]:
    (block,) = _blocks("CLI", "sh")
    return [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_library_examples_give_the_printed_values():
    first, second = _blocks("Library", "python")
    namespace = {}
    exec(first, namespace)
    f_closed, f_oracle = namespace["f_closed"], namespace["f_oracle"]
    assert f"{f_closed:.16g}" == "150.5645446148913"
    assert f"{f_oracle:.16g}".startswith("150.5645446144")
    assert f_oracle == pytest.approx(f_closed, rel=4.1e-12, abs=0)
    exec(second, namespace)
    f_general, f_oracle = namespace["f_general"], namespace["f_oracle"]
    assert f"{f_general:.16g}".startswith("192260.5802")
    assert f"{f_oracle:.16g}".startswith("192260.5802")
    assert f_oracle == pytest.approx(f_general, rel=4.1e-12, abs=0)


@pytest.mark.parametrize("command", _commands(), ids=lambda c: shlex.split(c)[1])
def test_cli_examples_exit_0(command, tmp_path, monkeypatch):
    program, *argv = shlex.split(command)
    assert program == "sagnac-qfi"
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
