"""The option surface: every defaulted parameter of a public function.

Tolerances, grid sizes and windows are module constants, not options.  A new
keyword default has to be added to OPTIONS below on purpose, together with a
caller that needs a value other than the default: a call in src/ or
perfbench/ that passes the parameter, by keyword or by position.  The few
options that only tests set are listed in TEST_ONLY with their reasons.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import spectral_fractal

ROOT = Path(__file__).resolve().parents[1]

OPTIONS = {
    "cli.main": ("argv",),
    "frames.frame_matrix_bounds": ("cap",),
    "frames.select_subset": ("seed", "budget"),
    "intlat.reduce_to_full": ("L",),
    "measure.FourierEval.mu_hat_sq": ("shifts",),
    "measure.discrete_approximant": ("cap",),
    "measure.render_attractor": ("depth", "cap"),
    "quasiprod.product_spectrum": ("betas",),
    "quasiprod.full_spectrum": ("K", "scan_K", "limit", "_depth"),
    "spectra.canonical_tree": ("cap",),
    "spectra.corrected_tree": ("cap", "evidence"),
    "spectra.orthogonality_check": ("seed",),
    "triples.digit_sums": ("cap",),
    "zeroset.certify_zero": ("K", "J"),
    "zeroset.scan_zero_set": ("K",),
    "zeroset.zero_set_empty_evidence": ("K",),
}

# options that no call in src/ or perfbench/ passes, kept for the tests
TEST_ONLY = {
    "frames.frame_matrix_bounds.cap": "a small cap reaches the work refusal on a small input",
    "spectra.canonical_tree.cap": "a small cap reaches the tree-size refusal at a low level",
    "spectra.corrected_tree.cap": "a small cap reaches the tree-size refusal at a low level",
    "measure.render_attractor.depth": "a fixed depth pins the image to one approximant level",
    "quasiprod.product_spectrum.betas": "other denominators show the sweep rejecting non-spectra",
    "zeroset.certify_zero.J": "a one-level budget shows a genuine zero left inconclusive",
}


def _public_functions():
    """(module.qualname, function) for the public functions and the methods
    written in each module (dataclass-generated methods excluded)."""
    for info in pkgutil.iter_modules(spectral_fractal.__path__):
        mod = importlib.import_module(f"spectral_fractal.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)
                    if (
                        inspect.isfunction(fn)
                        and fn.__code__.co_filename == mod.__file__
                        and (attr == "__init__" or not attr.startswith("_"))
                    ):
                        yield f"{info.name}.{name}.{attr}", fn


def test_defaulted_parameters_match_the_list():
    found = {}
    for qual, fn in _public_functions():
        params = inspect.signature(fn).parameters.values()
        defaulted = tuple(p.name for p in params if p.default is not inspect.Parameter.empty)
        if defaulted:
            found[qual] = defaulted
    assert found == OPTIONS


def _calls():
    """(called name, positional count, keyword names) of every call in src/
    and perfbench/, its own tests excluded."""
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                yield name, len(node.args), {k.arg for k in node.keywords}


def _unpassed_options() -> set[str]:
    """module.function.param of each option that no call passes."""
    functions = dict(_public_functions())
    calls = list(_calls())
    out = set()
    for qual, names in OPTIONS.items():
        params = list(inspect.signature(functions[qual]).parameters)
        if params[0] == "self":
            params.pop(0)
        bare = qual.split(".")[-1]
        for p in names:
            i = params.index(p)
            if not any(n == bare and (p in kw or npos > i) for n, npos, kw in calls):
                out.add(f"{qual}.{p}")
    return out


def test_every_option_has_a_caller_that_sets_it():
    assert _unpassed_options() <= set(TEST_ONLY)


def test_test_only_list_names_real_unpassed_options():
    # an entry that gained a caller, or stopped being an option, must leave the list
    assert set(TEST_ONLY) <= _unpassed_options()
