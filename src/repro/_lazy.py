"""Package re-exports resolved on first use (PEP 562).

A package init that imports its submodules eagerly makes every
``import repro.<pkg>.<leaf>`` pay for the whole package: importing
``repro.core.specs`` would load numpy and the node model.  The inits
of ``repro``, ``repro.core`` and ``repro.analysis`` instead name where
each public name lives and let :func:`exports` import the defining
module the first time the name is read.  ``from repro import
TSeriesMachine``, ``from repro.core import *``, ``dir(repro.core)``
and ``hasattr`` all behave as they did with eager imports.
"""

import importlib


def exports(namespace, modules):
    """The ``(__getattr__, __dir__)`` pair for a package whose globals
    are ``namespace``; ``modules`` maps each defining module to the
    names the package re-exports from it.  A read returns the defining
    module's current binding, so it never goes stale."""
    package = namespace["__name__"]
    owner = {name: module for module, names in modules.items()
             for name in names}

    def __getattr__(name):
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(module), name)

    def __dir__():
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__
