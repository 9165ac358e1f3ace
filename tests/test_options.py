"""The option surface: every defaulted parameter of a public function.

Tolerances, grid sizes and windows are module constants, not options.  A new
keyword default has to be added to OPTIONS below on purpose, together with a
caller that needs a value other than the default.
"""

import importlib
import inspect
import pkgutil

import spectral_fractal

OPTIONS = {
    "cli.main": ("argv",),
    "frames.frame_matrix": ("cap",),
    "frames.frame_matrix_bounds": ("cap",),
    "frames.select_subset": ("seed", "budget", "cap"),
    "intlat.Lattice.from_columns": ("den",),
    "intlat.reduce_to_full": ("L",),
    "measure.discrete_approximant": ("cap",),
    "measure.render_attractor": ("depth", "cap"),
    "quasiprod.product_spectrum": ("betas", "cap"),
    "quasiprod.full_spectrum": ("K", "scan_K", "limit", "_depth"),
    "spectra.canonical_tree": ("cap",),
    "spectra.corrected_tree": ("cap", "evidence"),
    "spectra.orthogonality_check": ("seed",),
    "triples.digit_sums": ("cap",),
    "triples.tower": ("cap",),
    "zeroset.certify_zero": ("K", "J"),
    "zeroset.scan_zero_set": ("K",),
    "zeroset.zero_set_empty_evidence": ("K",),
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
