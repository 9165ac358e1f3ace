"""Every function, class and method in src/ has a caller in src/.

A name counts as referenced when some module of the package reads it, as a
bare name or as an attribute, outside import statements; the package's
re-exports in `__init__.py` therefore do not count.  Dunder methods are
called by the language and are skipped.  A helper that only tests call
belongs in tests/oracles.py, not in the package.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spectral_fractal"

ALLOWED = {
    # library entry points that perfbench/workloads.py calls
    "spectra.canonical_tree",
    "spectra.completeness_partial",
    "spectra.orthogonality_check",
    "measure.DiscreteMeasure.fourier",
    "intlat.ConjugationRecord.unapply_frequency_point",
    # zero-set certificates, for `verify` to check instead of replaying
    "zeroset.replay_certificate",
    "zeroset.ZeroCertificate.to_dict",
    "zeroset.ZeroCertificate.from_dict",
}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name) of top-level functions, classes and methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                name = getattr(member, "name", "")
                if isinstance(member, ast.FunctionDef) and not (
                    name.startswith("__") and name.endswith("__")
                ):
                    yield f"{module}.{node.name}.{name}", name


def _references(tree: ast.Module) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _scan() -> tuple[dict[str, str], set[str]]:
    defs, refs = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs.update(_definitions(path.stem, tree))
        refs |= _references(tree)
    return defs, refs


def test_every_src_definition_has_a_src_reference():
    defs, refs = _scan()
    unreferenced = sorted(q for q, name in defs.items() if name not in refs and q not in ALLOWED)
    assert not unreferenced, f"defined in src/ but never referenced there: {unreferenced}"


def test_allowlist_names_real_unreferenced_definitions():
    # an entry whose name gained a caller, or was deleted, must leave the list
    defs, refs = _scan()
    assert ALLOWED <= set(defs)
    assert not {q for q in ALLOWED if defs[q] in refs}
