"""DESIGN.md §3 is a map of ``src/repro/``: it may only name files that exist,
and it names every module."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def mapped_paths():
    """Paths of the ``*.py`` names in §3's block, each relative to the directory
    that opens its block (``  mem/  ...``); ``src/repro/`` itself before any."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## 3. System inventory", 1)[1].split("\n## ", 1)[0]
    block = section.split("```")[1]
    directory, paths = "", set()
    for line in block.splitlines():
        opened = re.match(r"  (\w+)/ ", line)
        if opened:
            directory = opened.group(1) + "/"
        paths.update(directory + name for name in re.findall(r"(?:\w+/)*\w+\.py\b", line))
    return paths


def test_module_map_matches_the_tree():
    tree = {
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py") if path.name != "__init__.py"
    }
    mapped = mapped_paths()
    assert mapped - tree == set(), "DESIGN.md §3 names files that do not exist"
    assert tree - mapped == set(), "DESIGN.md §3 omits modules"
