"""Every public name of the package has a caller inside the package, every default
parameter a setter there, and every parameter more than one value there.

A public module-level function or class, or a public method, that nothing in
src/ refers to serves only the tests; such references belong in tests/.  So
does a parameter with a default that no call in src/ passes: it is a knob only
the tests turn.  A parameter that every call in src/ passes the same value is a
constant.
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


def parameters(tree):
    """(function, parameter, position, default) of every parameter of a function or method in
    tree but a method's bound first one; the position counts the positional arguments a call
    passes, and is None for a keyword-only parameter; default is the default's expression, or
    None."""
    bound = {item for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for item in node.body}  # src/ has no staticmethod
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        shift = node in bound
        defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
        for i in range(shift, len(positional)):
            yield node.name, positional[i].arg, i - shift, defaults[i]
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            yield node.name, arg.arg, None, default


def calls_by_name(trees):
    """(module, call) of every call in trees, keyed by the last component of the name it
    calls, f(...) or x.f(...)."""
    calls = defaultdict(list)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                calls[getattr(func, "id", None) or getattr(func, "attr", None)].append(
                    (module, node))
    return calls


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
    calls = calls_by_name(trees)
    unset = [f"{module}.{function}({parameter}=)"
             for module, tree in trees.items()
             for function, parameter, position, default in parameters(tree)
             if default is not None and (module, function, parameter) not in UNSET_BY_DESIGN
             and not any(passes(call, parameter, position) for _, call in calls[function])]
    assert unset == []


def module_constants(trees):
    """Each module's UPPER_CASE names: a literal bound at module level (name = value, or a
    tuple of names = a tuple of values), or a name that `from .x import NAME` binds, as
    (module x, NAME)."""
    constants = defaultdict(dict)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    constants[module][alias.asname or alias.name] = (node.module, alias.name)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                pairs = (zip(target.elts, value.elts) if isinstance(target, ast.Tuple)
                         and isinstance(value, ast.Tuple) else [(target, value)])
                for name, expr in pairs:
                    if isinstance(name, ast.Name):
                        try:
                            constants[module][name.id] = repr(ast.literal_eval(expr))
                        except (ValueError, TypeError):
                            pass
    return constants


def value_of(expr, module, constants):
    """repr of the value expr has in module: a literal, or an UPPER_CASE name resolved to its
    module-level literal; None where it is neither."""
    if isinstance(expr, ast.Name):
        value = constants[module].get(expr.id) if expr.id.isupper() else None
        while isinstance(value, tuple):  # imported: resolve it in its own module
            value = constants[value[0]].get(value[1])
        return value
    try:
        return repr(ast.literal_eval(expr))
    except (ValueError, TypeError):
        return None


def test_every_parameter_takes_more_than_one_value_in_src():
    """A parameter that every call in src/ passes one value is a constant.

    Calls match by the last name component, as above.  A call's value for a parameter is
    its literal, or an UPPER_CASE name resolved to its module-level literal (in the calling
    module; a default's in the defining module), following `from .x import NAME`; an omitted
    argument takes its default.  A call with *args or **kwargs passes unknown values, so
    this cannot see a parameter passed after a * argument, as side_ordering's samples were.
    A parameter fails when it has a call, every value is known and all are equal."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    constants = module_constants(trees)
    calls = calls_by_name(trees)

    def values(defining, function, parameter, position, default):
        for module, call in calls[function]:
            keywords = {k.arg: k.value for k in call.keywords}
            if any(isinstance(a, ast.Starred) for a in call.args) or None in keywords:
                yield None
            elif position is not None and position < len(call.args):
                yield value_of(call.args[position], module, constants)
            elif parameter in keywords:
                yield value_of(keywords[parameter], module, constants)
            else:
                yield None if default is None else value_of(default, defining, constants)

    constant = []
    for defining, tree in trees.items():
        for function, parameter, position, default in parameters(tree):
            passed = list(values(defining, function, parameter, position, default))
            if (defining, function, parameter) not in UNSET_BY_DESIGN and passed \
                    and None not in passed and len(set(passed)) == 1:
                constant.append(f"{defining}.{function}({parameter}={passed[0]})")
    assert constant == []
