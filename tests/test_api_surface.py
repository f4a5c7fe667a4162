"""A guard on the number of user-facing knobs.

Counts the optional parameters (those with a default) of every callable
that ``ergmflow`` exports. A new knob must raise the bound here, so that it
shows up as a deliberate test edit.
"""

import inspect

import ergmflow

MAX_OPTIONAL_PARAMETERS = 31


def test_optional_parameter_count_is_bounded():
    found = []
    for name in ergmflow.__all__:
        obj = getattr(ergmflow, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except (TypeError, ValueError):  # builtins without a signature
            continue
        found += ["%s(%s)" % (name, p.name) for p in params
                  if p.default is not inspect.Parameter.empty]
    assert len(found) <= MAX_OPTIONAL_PARAMETERS, found
