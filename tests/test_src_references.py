"""Every function, class and method in src/ has a caller in src/, and
every dataclass field in src/ has a reader there.

A name counts as referenced when some module of the package reads it, as a
bare name or as an attribute, outside import statements; the package's
re-exports in `__init__.py` therefore do not count.  Dunder methods are
called by the language and are skipped.  A helper that only tests call
belongs in tests/oracles.py, not in the package.  A dataclass field counts
as read when some module of the package loads an attribute of that name; a
field that nothing reads is work that no report or decision uses.
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


# dataclass fields that src/ never reads, kept for readers outside it
ALLOWED_FIELDS = {
    # perfbench/tracing.py counts them per traced call
    "spectra.SpectrumTree.corrections",
    "spectra.CoverConstants.h",
    "quasiprod.ProductSpectrum.rejected",
    # oracles.delta_lower_bound rescales each level by it to check the cover bound
    "spectra.SpectrumTree.exponents",
    # the oracle atom sum reads it
    "measure.DiscreteMeasure.counts",
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _fields(module: str, tree: ast.Module):
    """(qualified name, bare name) of the annotated fields of top-level dataclasses."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for member in node.body:
                if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id
                    yield f"{module}.{node.name}.{name}", name


def _attribute_loads(tree: ast.Module) -> set[str]:
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _scan_fields() -> tuple[dict[str, str], set[str]]:
    fields, loads = {}, set()
    for module, tree in _modules():
        fields.update(_fields(module, tree))
        loads |= _attribute_loads(tree)
    return fields, loads


def _scan() -> tuple[dict[str, str], set[str]]:
    defs, refs = {}, set()
    for module, tree in _modules():
        defs.update(_definitions(module, tree))
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


def test_every_src_dataclass_field_is_read_in_src():
    fields, loads = _scan_fields()
    unread = sorted(q for q, name in fields.items() if name not in loads and q not in ALLOWED_FIELDS)
    assert not unread, f"dataclass fields that src/ never reads: {unread}"


def test_field_allowlist_names_real_unread_fields():
    # an entry whose field gained a reader in src/, or was deleted, must leave the list
    fields, loads = _scan_fields()
    assert ALLOWED_FIELDS <= set(fields)
    assert not {q for q in ALLOWED_FIELDS if fields[q] in loads}
