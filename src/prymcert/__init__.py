"""Exact-arithmetic certification toolkit for signed-permutation Galois groups
and the invariants of Prym varieties of odd superelliptic trinomial families.

Everything here is exact: integer polynomial arithmetic via subresultants,
mod-p linear algebra over residues, exhaustive group enumeration under an
explicit budget, and Frobenius cycle-type sampling whose refutations are
unconditional.  Probabilistic evidence is always labeled as such and never
silently upgraded.

The package itself holds only the constants shared by the CLI and the
certificate engine, the default budgets among them.  Its exports (IntPoly,
parse_poly, certify_prym, certify_wdm_over_Q, cyclotomic_descent) are
resolved on first access (PEP 562), so `import prymcert` compiles none of
the pipeline modules (galoiscert, intpoly, signedperm, fpmodule); a CLI
command imports the ones it runs.  `_resolver` builds that lookup, here and
in each module whose `_MOVED` names live in `reference`.
"""

import json

TOOL_NAME = "prymcert"
TOOL_VERSION = __version__ = "0.1.0"
SCHEMA_VERSION = "prym-cert/1"

DETERMINISTIC = "Deterministic"
PROBABILISTIC = "Probabilistic"
REFUTED = "Refuted"
INCONCLUSIVE = "Inconclusive"

# the smallest m for which the deterministic chain over Q applies
DET_MIN_M = 9
# the defaults of --prime-budget (the witness walk's last prime) and --samples
PRIME_BUDGET = 500
SAMPLES = 2000


def canonical_json(doc) -> str:
    """The canonical text of a JSON document: sorted keys, indent 2, final newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _resolver(module: str, homes: dict[str, str]):
    """The PEP 562 __getattr__ of `module`: each name in homes is read from
    the submodule homes[name] of this package, imported on first access."""

    def __getattr__(name):
        if name not in homes:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{homes[name]}"), name)

    return __getattr__


# export -> the submodule that defines it
_EXPORTS = {
    "IntPoly": "intpoly",
    "parse_poly": "intpoly",
    "certify_prym": "galoiscert",
    "certify_wdm_over_Q": "galoiscert",
    "cyclotomic_descent": "galoiscert",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__ = _resolver(__name__, _EXPORTS)
