"""oqmap: a numerical laboratory for open chaotic maps on the torus.

The package covers the full pipeline from exact classical symbolic
dynamics of D-symbol open baker maps (escape volumes, trapped-set
covers, topological pressure) through their quantizations (standard
Fourier blocks and the Walsh tensor model) to spectral analysis of the
resulting subunitary matrices: resonance counting and fractal Weyl
fits, pressure-based spectral-radius brackets, an exact Schur-complement
effective Hamiltonian on the trapped cover, and Husimi phase-space
localization of metastable eigenmodes.

The exact classical layer uses no numpy, and ``import oqmap`` loads no
module of the package: ``oqmap.<name>`` loads the modules on first
access (PEP 562), so the exact commands of ``oqmap.cli`` start without
numpy.
"""

import importlib

__version__ = "0.1.0"

# the modules whose __all__ the package re-exports, each the one list of
# its public names
_MODULES = ("classical", "errors", "phasespace", "quantize", "spectral")


def __getattr__(name: str):
    """A submodule, or a public name of the five modules, loaded on first
    access; ``__all__`` is their union after ``__version__``."""
    if name.startswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    try:
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    modules = [importlib.import_module(f"{__name__}.{m}") for m in _MODULES]
    public = globals()
    public.setdefault("__all__", ["__version__",
                                  *(n for m in modules for n in m.__all__)])
    for module in modules:
        for attr in module.__all__:
            public.setdefault(attr, getattr(module, attr))
    if name not in public:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return public[name]
