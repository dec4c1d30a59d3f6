"""The defaulted parameters of the public API.

Each parameter with a default is a setting every caller may vary, and
each one multiplies the cases the tests must cover. The library keeps
only those that a caller outside the tests sets or that define the
quantity computed; every other size cap, step cap and threshold is a
module constant. This list pins them, so a new default fails here first.
"""

import inspect

import channelsim

KEPT = {
    "capacity_ba.tol",
    "tilde_c_ba.tol",
    "rate_region.tol",
    "moderate_deviation_rates.a_n",
}


def _defaulted() -> set:
    """name.param for every defaulted parameter of __all__ and its methods."""
    found = set()
    for name in channelsim.__all__:
        obj = getattr(channelsim, name)
        if not callable(obj):
            continue
        targets = [(name, obj)]
        if inspect.isclass(obj):
            targets += [(f"{name}.{attr}", getattr(obj, attr))
                        for attr in vars(obj) if not attr.startswith("_")]
        for label, target in targets:
            if not callable(target):
                continue
            try:
                params = inspect.signature(target).parameters.values()
            except ValueError:   # builtin signatures, as of exception types
                continue
            found |= {f"{label}.{p.name}" for p in params
                      if p.default is not p.empty}
    return found


def test_defaulted_parameters_are_the_kept_ones():
    assert _defaulted() == KEPT
