"""Every public name of the package has a caller inside the package, and every default
parameter a setter there.

A public module-level function or class, or a public method, that nothing in
src/ refers to serves only the tests; such references belong in tests/.  So
does a parameter with a default that no call in src/ passes: it is a knob only
the tests turn.
"""

import ast
from collections import defaultdict
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


# the console script calls main() with no argv; the tests pass one
UNSET_BY_DESIGN = {("cli", "main", "argv")}


def defaulted_parameters(tree):
    """(function, parameter, position) of every parameter with a default of a function or
    method in tree; the position counts the positional arguments a call passes (a method's
    first is bound), and is None for a keyword-only parameter."""
    bound = {item for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for item in node.body}  # src/ has no staticmethod
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        shift = node in bound
        for i in range(len(positional) - len(args.defaults), len(positional)):
            yield node.name, positional[i].arg, i - shift
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def passes(call, parameter, position):
    """Whether call passes parameter, by keyword or position; *args or **kwargs pass them all."""
    if any(isinstance(a, ast.Starred) for a in call.args) \
            or any(k.arg in (None, parameter) for k in call.keywords):
        return True
    return position is not None and position < len(call.args)


def test_every_default_is_set_by_a_caller_in_src():
    """A call matches a function by the last component of the name it calls, f(...) or
    x.f(...), as the public-name test above matches: a call of another function of the same
    name, or a method of another class, counts too."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    calls = defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                calls[getattr(func, "id", None) or getattr(func, "attr", None)].append(node)
    unset = [f"{module}.{function}({parameter}=)"
             for module, tree in trees.items()
             for function, parameter, position in defaulted_parameters(tree)
             if (module, function, parameter) not in UNSET_BY_DESIGN
             and not any(passes(call, parameter, position) for call in calls[function])]
    assert unset == []
