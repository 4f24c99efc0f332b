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
