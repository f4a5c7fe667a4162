"""Guards on the number of user-facing knobs and on the size of the source.

Counts the optional parameters (those with a default) of every callable
that ``ergmflow`` exports, and the lines of the package's modules
(``cat src/ergmflow/*.py | wc -l``). A new knob, or growth of the source,
must raise a bound here, so that it shows up as a deliberate test edit.
"""

import inspect
from pathlib import Path

import ergmflow

MAX_OPTIONAL_PARAMETERS = 25
MAX_SOURCE_LINES = 3755


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


def test_source_line_count_is_bounded():
    modules = sorted(Path(ergmflow.__file__).parent.glob("*.py"))
    lines = sum(p.read_bytes().count(b"\n") for p in modules)
    assert lines <= MAX_SOURCE_LINES, lines
