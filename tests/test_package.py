import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import dynatomic


def test_every_export_resolves():
    missing = [name for name in dynatomic.__all__ if not hasattr(dynatomic, name)]
    assert missing == []
    assert len(set(dynatomic.__all__)) == len(dynatomic.__all__)


def test_benchmark_trace_hooks_resolve(tmp_path):
    # perfbench/inproc.py wraps library callables by name; a rename breaks it
    root = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    calls = json.dumps([["z^2 - 1", ["factor", "z^2 - 1"]]])
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "inproc.py"), "--traced", "1",
         "--spans", str(tmp_path / "spans.jsonl"), "--calls", calls],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["layers"]["factorq.factor_over_q.calls"] == 1


def test_every_public_function_has_a_caller_in_the_package():
    # a public top-level function is named by code in its own module, or in a
    # module that imports it; a re-export (an import never read) and
    # `__init__.py` do not count, nor does a method of the same name
    package = Path(dynatomic.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    public = {(module, node.name) for module, tree in trees.items() for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        origin = {alias.asname or alias.name: (node.module, alias.name)
                  for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
                  for alias in node.names}
        used |= {origin.get(node.id, (module, node.id)) for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    # perfbench/inproc.py wraps `property_a.subfield_degree` for its trace span,
    # so property_a re-exports it though the decision layer no longer calls it
    assert sorted(public - used) == [("numberfield", "subfield_degree")]
    # a public method of a class is read as an attribute somewhere in the
    # package, or overrides a method of a base class from outside it
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for module, tree in trees.items():
        classes = vars(importlib.import_module(f"dynatomic.{module}"))
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            outside = [base for base in classes[cls.name].__mro__[1:]
                       if not base.__module__.startswith("dynatomic")]
            unread += [f"{module}.{cls.name}.{node.name}" for node in cls.body
                       if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                       and node.name not in read
                       and not any(node.name in vars(base) for base in outside)]
    assert unread == []


def test_only_polynomials_packs_slots():
    # the packed-slot format has one owner; a second packer would need struct or
    # int.to_bytes/from_bytes, so either outside polynomials.py fails here
    found = []
    for path in sorted((Path(dynatomic.__file__).parent).glob("*.py")):
        if path.name == "polynomials.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Attribute) and node.attr in ("to_bytes", "from_bytes"):
                names = [node.attr]
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in ("struct", "to_bytes", "from_bytes")]
    assert found == []


def test_only_the_scaled_rings_read_the_stored_form():
    # `_nums`/`_den` are the stored form of `Poly` and `AlgElement`; everything
    # else reads coefficients through `coeffs`, `coefficient` and the like
    found = []
    for path in sorted((Path(dynatomic.__file__).parent).glob("*.py")):
        if path.name in ("polynomials.py", "numberfield.py"):
            continue
        found += [f"{path.name}:{node.lineno} {node.attr}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute) and node.attr in ("_nums", "_den")]
    assert found == []


def test_ring_operations_build_no_fraction(monkeypatch):
    from fractions import Fraction

    from dynatomic import numberfield, polynomials
    from dynatomic.numberfield import QuotientAlgebra
    from dynatomic.polynomials import Poly

    z = Poly.identity()
    f = Fraction(3, 4) * z**3 - Fraction(1, 6) * z + 5
    g = z**2 * Fraction(-7, 10) + Fraction(2, 9)
    a = QuotientAlgebra(z**3 + Fraction(1, 2) * z + Fraction(37, 48))
    x, y = a.element(f), a.element(g) + a.generator()
    built = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return Fraction(*args, **kwargs)

    monkeypatch.setattr(polynomials, "Fraction", Counted)
    monkeypatch.setattr(numberfield, "Fraction", Counted)
    results = [f + g, f - g, f * g, g - f, x + y, x - y, x * y, y * x - x]
    monkeypatch.undo()
    assert built == [] and len(results) == 8


MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove", "discard", "add",
            "update", "clear", "setdefault", "sort", "reverse", "appendleft", "popleft",
            "__setitem__", "__delitem__"}
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "deque", "Counter"}


def _process_wide_state(source):
    """Memo decorators, and module-level containers that the module mutates."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        for deco in getattr(node, "decorator_list", []):
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name in ("lru_cache", "cache"):
                found.append(f"@{name} {node.name}")
    containers = set()
    for node in tree.body:
        value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        literal = isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                                     ast.SetComp))
        built = isinstance(value, ast.Call) and getattr(value.func, "id", "") in CONTAINER_CALLS
        if literal or built:
            containers |= {t.id for t in targets if isinstance(t, ast.Name)}

    def named(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    mutated = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            mutated.add(named(node.value))
        elif isinstance(node, ast.AugAssign):
            mutated.add(named(node.target))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATORS:
            mutated.add(named(node.func.value))
        elif isinstance(node, ast.Global):
            mutated |= set(node.names)
    return found + sorted(containers & mutated)


def test_one_process_wide_memo():
    # iterates, orbits and fields are built per call, and no cache outlives the
    # call that filled it, except factorq's bounded memo of modular results
    assert _process_wide_state("@functools.lru_cache(8)\ndef f(): pass\n"
                               "@cache\ndef g(): pass\n_seen = set()\n_n = [0]\n"
                               "def h(x):\n    _seen.add(x)\n    _n[0] += 1\n") \
        == ["@lru_cache f", "@cache g", "_n", "_seen"]
    found = []
    for path in sorted((Path(dynatomic.__file__).parent).glob("*.py")):
        found += [f"{path.stem}.{name}" for name in _process_wide_state(path.read_text())]
    assert found == ["factorq._modular"]
