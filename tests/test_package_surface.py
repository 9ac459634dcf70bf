"""The package holds only what the CLI and the benchmark's tracer reach.

Every public function, class and method defined in `src/ricci_bounds/*.py`
must be referenced somewhere in the package outside its own definition and
outside `__init__.py`, or be a name that `bench/tracing.py` patches.  A
reference made only from inside definitions that are themselves unreached
does not count, so a chain of wrappers around a kept function fails as a
whole.  A method is reached only through an attribute, and an attribute
called with arguments counts only where the call could bind to the
definition's signature: `samples.mean()` on a numpy array does not keep a
one-argument `mean` method alive.  Reference implementations that only
tests compare against live under `tests/`.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import ricci_bounds
from conftest import import_from_bench

(tracing,) = import_from_bench("tracing")

PACKAGE = Path(ricci_bounds.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _definitions(tree):
    """(qualified name, def node, is a method) for public module- and class-level defs."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item, True


def _fits(node, is_method, call):
    """Whether `call`'s arguments could bind to def `node`; a class always fits."""
    if isinstance(node, ast.ClassDef) or call is None:
        return True
    params = [a.arg for a in node.args.args][is_method:]    # a method drops self or cls
    n_pos = len(call.args)
    required = params[n_pos:len(params) - len(node.args.defaults)]
    return ((n_pos <= len(params) or node.args.vararg is not None)
            and set(required) <= {k.arg for k in call.keywords})


def _references(tree):
    """(name, is an attribute, enclosing Call or None, ids of the enclosing defs) per read."""
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    stack = [(tree, frozenset())]
    while stack:
        node, inside = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, False, calls.get(id(node)), inside
        elif isinstance(node, ast.Attribute):
            yield node.attr, True, calls.get(id(node)), inside
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {id(node)}
        stack.extend((child, inside) for child in ast.iter_child_nodes(node))


def unreferenced_names():
    """Qualified names of the public definitions that nothing reached refers to."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]
    refs = [ref for tree in trees for ref in _references(tree)]
    traced = {attr for _, attr, _, _ in tracing.TARGETS}
    defs = [(f"{path.stem}.{qualname}", node, is_method)
            for path, tree in zip(MODULES, trees)
            for qualname, node, is_method in _definitions(tree)
            if node.name not in traced]
    dead = {}
    while True:
        skip = {id(node) for node in dead.values()}
        newly = {name: node for name, node, is_method in defs if name not in dead
                 and not any(ref == node.name and (attr or not is_method)
                             and _fits(node, is_method, call)
                             and not inside & (skip | {id(node)})
                             for ref, attr, call, inside in refs)}
        if not newly:
            return sorted(dead)
        dead.update(newly)


def test_every_public_definition_is_reached_from_the_package_or_the_tracer():
    assert unreferenced_names() == []


def test_every_exported_name_resolves():
    assert len(set(ricci_bounds.__all__)) == len(ricci_bounds.__all__)
    for name in ricci_bounds.__all__:
        assert hasattr(ricci_bounds, name), name


def test_importing_the_cli_loads_no_scipy_optimize():
    # the transport LP imports it when it first solves; line chains never do
    code = "import sys, ricci_bounds.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"
