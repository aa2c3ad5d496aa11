"""Rules on the source tree itself: src/ holds only code that the program runs."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stripgaps"

# Public names with no reference in src/, each kept for a reader outside it.
UNREFERENCED = {
    "scaled_levels_below": "the benchmark's tracer and its tests read it",
    "BandTable.max_drift": "the benchmark's tracer reads it",
    "assemble": "the seam the tests check band_functions' matrix through",
}


def _public_definitions(tree):
    """(label, name, node) of each public top-level function or class and of
    each public method or property of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub.name, sub


def test_every_public_name_in_src_is_referenced_in_src():
    # a reference is a name or an attribute in the code; docstrings and
    # __all__ are strings, so they do not count, nor do the lines of the
    # name's own definition
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    references = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                references.setdefault(name, []).append((module, node.lineno))
    unreferenced = {
        label
        for module, tree in trees.items()
        for label, name, node in _public_definitions(tree)
        if all(where == module and node.lineno <= line <= node.end_lineno
               for where, line in references.get(name, []))
    }
    assert unreferenced == set(UNREFERENCED)


# Modules whose public functions read the geometry only through xi = T/d:
# they take xi and scaled energies, and the last of them imports nothing of
# the geometry at all.
UNIT_FREE = ("spectrum.py", "fourier.py", "oscillation.py")


def test_the_unit_free_kernels_take_no_geometry():
    trees = {module: ast.parse((SRC / module).read_text()) for module in UNIT_FREE}
    taking_geometry = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if arg.annotation is not None and "StripGeometry" in ast.unparse(arg.annotation)
    ]
    assert taking_geometry == []
    geometry_imports = [
        node.lineno for node in ast.walk(trees["oscillation.py"])
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("geometry")
    ]
    assert geometry_imports == []
