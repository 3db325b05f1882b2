"""Exact analysis of carry Markov chains for offset and negative-base numeration systems.

The package imports lazily: a name below loads its module on first access
(PEP 562), so ``import carrychain.cli`` pays only for what a command uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Exported name -> defining module.
_EXPORTS = {
    name: module
    for module, names in (
        ("carries", "ChainSpec chain_stationary find_system p_param "
                    "state_space transition_matrix "
                    "transition_matrix_bruteforce"),
        ("eulerian", "stationary triangle_recurrence v_closed"),
        ("exactmath", "ExactMatrix ExactPolynomial char_poly determinant"),
        ("simulate", "SimConfig SimResult run_chain tv_distance"),
        ("spectral", "ChainReport chain_spectrum eigen_matrix "
                     "verify_diagonalization"),
        ("uniformsum", "interval_prob irwin_hall_cdf"),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
