"""The scipy routines pdmpkit calls, each importing scipy on its first call.

Closed-form and constant-rate work never reaches scipy, so importing the
package, the CLI, or running such a model does not load it.  ``flows``,
``models`` and ``stationary`` import these names as module attributes, which
the benchmark's tracer can wrap like any other binding.
"""

from __future__ import annotations

import importlib


def _on_first_call(module: str, name: str):
    real = None

    def call(*args, **kwargs):
        nonlocal real
        if real is None:
            real = getattr(importlib.import_module(module), name)
        return real(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    call.__doc__ = f"``{module}.{name}``, imported on first call."
    return call


solve_ivp = _on_first_call("scipy.integrate", "solve_ivp")
quad = _on_first_call("scipy.integrate", "quad")
brentq = _on_first_call("scipy.optimize", "brentq")
PchipInterpolator = _on_first_call("scipy.interpolate", "PchipInterpolator")
