"""Exact combinatorial invariants of rational double point surface-curve
pairs, intersection arithmetic on iterated curve blowups of projective
3-space, and degree-pair enumeration for set-theoretic complete
intersections.

The layer modules load on first access (PEP 562), so ``stci.rdp`` works
after a bare ``import stci`` and a command compiles only what it calls.
"""

_LAYERS = ("chow", "degrees", "errors", "exact", "graphs", "rdp", "search", "theorems")


def __getattr__(name: str):
    if name in _LAYERS:
        # the import statement's own path, which -X importtime reports and
        # importlib.import_module bypasses; it binds the module here
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAYERS})
