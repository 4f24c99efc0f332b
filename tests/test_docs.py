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


#: The living design documents; CHANGES.md and docs/host_trajectory.md are
#: historical records and may name code as it was.
LIVING_DOCS = ("DESIGN.md", "docs/PROTOCOL.md", "docs/SIMULATION.md")


def _package_classes():
    """Every class defined under ``src/repro``, by name."""
    import importlib
    import inspect
    import pkgutil

    import repro

    classes: dict[str, list[type]] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                classes.setdefault(name, []).append(cls)
    return classes


def _has_attr(cls: type, attr: str) -> bool:
    """A class attribute, a declared field, or a ``self.attr`` assignment in
    the source of the class or one of its bases."""
    import inspect

    if hasattr(cls, attr):
        return True
    assigned = re.compile(rf"\bself\.{attr}\b\s*(?::[^=\n]+)?=(?!=)")
    for base in cls.__mro__:
        if attr in getattr(base, "__annotations__", {}):
            return True
        if base.__module__.startswith("repro") and assigned.search(inspect.getsource(base)):
            return True
    return False


def test_code_references_in_docs_resolve():
    """Every `Class.attr` a living doc names, for a class under src/repro,
    still exists."""
    classes = _package_classes()
    stale = []
    for doc in LIVING_DOCS:
        text = (ROOT / doc).read_text()
        for lineno, line in enumerate(text.splitlines(), 1):
            for name, attr in re.findall(r"`([A-Z]\w*)\.([A-Za-z_]\w*)", line):
                if name in classes and not any(_has_attr(c, attr) for c in classes[name]):
                    stale.append(f"{doc}:{lineno} {name}.{attr}")
    assert stale == []


def test_cost_table_names_every_cost_with_its_default():
    """docs/SIMULATION.md "Where virtual time comes from" has one row per
    ``CostModel`` field, whose last cell opens with the field's default."""
    import ast
    from dataclasses import fields

    from repro.cost import CostModel

    text = (ROOT / "docs" / "SIMULATION.md").read_text()
    section = text.split("## Where virtual time comes from", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 3:
            continue
        named, default = re.search(r"`(\w+)`", cells[1]), re.match(r"`([^`]+)`", cells[2])
        if named and default:
            rows[named.group(1)] = ast.literal_eval(default.group(1))
    assert rows == {f.name: f.default for f in fields(CostModel)}
