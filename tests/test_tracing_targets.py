"""The per-layer tracer of perfbench/tracing.py wraps package functions by
name; a rename or deletion in the package must fail here, not in a traced
bench run."""

import importlib
import importlib.util
from pathlib import Path

from spectral_fractal import triples
from spectral_fractal.measure import FourierEval

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_on_every_target_and_uninstalls():
    tracing = _load_tracing()
    missing = []
    for short, names in tracing.TARGETS.items():
        mod = importlib.import_module(f"spectral_fractal.{short}")
        for qual in names:
            owner = mod
            for part in qual.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{short}.{qual}")
    assert not missing, f"tracing targets missing from the package: {missing}"

    validate, mu_hat = triples.validate_triple, FourierEval.mu_hat
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert triples.validate_triple.__wrapped__ is validate
        assert FourierEval.mu_hat.__wrapped__ is mu_hat
    finally:
        tracer.uninstall()
    assert (triples.validate_triple, FourierEval.mu_hat) == (validate, mu_hat)
