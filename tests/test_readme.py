"""The README's library section agrees with the package."""

import re
from pathlib import Path

import shiftkit

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    start = README.index(f"## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end != -1 else None]


def test_library_quickstart_runs(capsys):
    block = re.search(r"```python\n(.*?)```", _section("Library quickstart"), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    # K is three simplices glued in a path, so contractible: every rank is 0
    assert capsys.readouterr().out == "(0, 0, 0, 0)\n"


def test_readme_lists_exactly_the_package_exports():
    section = _section("Library quickstart")
    # the paragraph after the sentence that introduces the list
    listing = section[section.index("exports exactly these names:") :].split("\n\n")[1]
    names = re.findall(r"`(\w+)`", listing)
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(shiftkit.__all__)
