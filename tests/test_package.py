import ast
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
