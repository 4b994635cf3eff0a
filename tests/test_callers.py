"""Every public name of the package has a caller inside the package.

A public module-level function or class, or a public method, that nothing in
src/ refers to serves only the tests; such references belong in tests/.
"""

import ast
from pathlib import Path

import hypexpand

SOURCES = sorted(Path(hypexpand.__file__).parent.glob("*.py"))


def public_definitions(tree):
    """(name, node) of a module's public functions and classes and of their public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def referenced_names(tree, skip):
    """Names read and attributes taken anywhere in tree outside the node skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_public_name_has_a_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    uncalled = [f"{module}.{name}"
                for module, tree in trees.items()
                for name, node in public_definitions(tree)
                if not any(name.rpartition(".")[2] in referenced_names(t, node)
                           for t in trees.values())]
    assert uncalled == []
