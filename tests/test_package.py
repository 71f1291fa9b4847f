"""The package keeps in src/ only what src/ runs."""

import ast
import pathlib

import orbihom

SRC = pathlib.Path(orbihom.__file__).parent
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def _imported(path: pathlib.Path, module: str) -> set[str]:
    """Names of the sibling module that the file at path imports by name
    or reads as module.name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module == module):
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == module):
            names.add(node.attr)
    return names


def test_src_holds_no_test_only_function():
    """Every public module-level function of every module under src/
    has a caller there outside its own definition, or is exported in
    __all__; references that only the tests need live in
    tests/oracles.py."""
    unused, checked = [], 0
    for module in MODULES:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        elsewhere = set().union(*(_imported(path, module)
                                  for path in SRC.glob("*.py")
                                  if path.stem != module))
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            checked += 1
            own = {id(node) for node in ast.walk(fn)}
            here = any(isinstance(node, ast.Name) and node.id == fn.name
                       and id(node) not in own for node in ast.walk(tree))
            if not (here or fn.name in elsewhere or fn.name in orbihom.__all__):
                unused.append(f"{module}.{fn.name}")
    assert unused == []
    assert checked > 20
