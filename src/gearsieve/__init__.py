"""Deterministic constellation sieve: generation, certification, statistics.

The package splits into a residue-arithmetic core (canonical seeds and
gear sequences), a windowed signal engine with an independent classical
oracle, exact local-survival calculus with moment reports, Fourier-side
verification of the same quantities, and a sweep harness that regenerates
the reference tables and figure data.

Importing the package loads none of its modules: each public name is
imported on first access, so a process that needs one layer loads only
that layer and what it imports.
"""

import importlib
import sys

__version__ = "0.1.0"


def _lazy_attributes(module_name: str, sources: dict[str, tuple[str, ...]]):
    """A module-level __getattr__ and __dir__ (PEP 562) for names imported on first use.

    sources maps a module of this package (".engine") to the names taken
    from it. The first access to a name imports its module and stores the
    value on module_name's module, so every later access is a plain
    attribute read, and a name rebound there (benchmarks/tracing.py
    rebinds several) is the one that later reads see.
    """
    origin = {name: source for source, names in sources.items() for name in names}
    module = sys.modules[module_name]

    def __getattr__(name: str):
        if name not in origin:
            raise AttributeError(f"module {module_name!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(origin[name], __name__), name)
        setattr(module, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(vars(module).keys() | origin.keys())

    return __getattr__, __dir__


_PUBLIC = {
    ".constellations": (
        "COUSINS", "SEXY", "TWINS", "AdmissibilityReport", "Constellation",
        "DensityConstants", "density_product", "goldbach_oscillating_factor",
        "is_admissible", "omega",
    ),
    ".correlation": (
        "AsymptoticReport", "LocalSurvival", "MomentReport", "asymptotic_report",
        "crt_average", "fano_theoretical", "mean_field", "tau", "tau_table",
        "universal_average", "variance_decomposition",
    ),
    ".diophantine": (
        "CanonicalSeed", "Gear", "canonical_seed", "gear_sequence",
        "is_prime_candidate", "structural_is_prime",
    ),
    ".engine": (
        "CertifiedResult", "SieveBasis", "SignalSums", "SignalTrace", "Window",
        "certify", "classical_oracle_count", "composite_signal",
        "first_candidate_above", "goldbach_count", "signal_sums", "signal_values",
        "torus_average",
    ),
    ".errors": ("InvariantError",),
    ".fourier": (
        "EquidistReport", "FitResult", "FourierRow", "TwoPrimeReport", "VarianceStats",
        "fit_decay_exponent", "fit_power_law", "product_variance_constant",
        "tau_fourier", "two_prime_checks", "variance_stats", "weighted_ergodic_sum",
        "weighted_exp_sum",
    ),
    ".harness": (
        "Conventions", "RunConfig", "run_table1", "run_table2", "run_table3",
    ),
}
__all__ = [name for names in _PUBLIC.values() for name in names]
__getattr__, __dir__ = _lazy_attributes(__name__, _PUBLIC)
