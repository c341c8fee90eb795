"""JSON input files: the files shipped with the package, and the shape
checks each ``*_from_json`` parser runs before it builds anything, so that
a malformed file is an :class:`InputError` that names the bad field.
Imports no numpy and nothing else of the package."""

from __future__ import annotations

import json


class InputError(ValueError):
    """Bad paths, malformed files, or invalid option combinations: every
    fault that input can cause.  A run it stops exits with ``exit_code``."""

    exit_code = 4


def read_data(name: str) -> bytes:
    """The bytes of ``tessella/data/<name>``.  Only a process that reads a
    bundled file imports :mod:`importlib.resources`."""
    from importlib import resources

    return (resources.files("tessella") / "data" / name).read_bytes()


def load_data(name: str) -> dict:
    """Parse ``tessella/data/<name>`` (a JSON file)."""
    return json.loads(read_data(name))


def is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def is_id(x) -> bool:
    """A vertex or arrow id: a string or an integer."""
    return isinstance(x, str) or is_int(x)


def is_letter(x) -> bool:
    """An [arrow id, integer exponent] pair."""
    return isinstance(x, list) and len(x) == 2 and is_id(x[0]) and is_int(x[1])


def list_of(ok):
    return lambda xs: isinstance(xs, list) and all(map(ok, xs))


def object_of(ok):
    return lambda d: isinstance(d, dict) and all(map(ok, d.values()))


def check_object(obj, what: str, spec=(), optional=()) -> None:
    """Checks that a ``what`` file holds a JSON object whose fields pass
    the tests of ``spec`` (key, shape, test); only the keys in ``optional``
    may be left out.  A failure is an input error that names the field."""
    if not isinstance(obj, dict):
        raise InputError(f"a {what} file holds a JSON object, "
                         f"not {type(obj).__name__}")
    for key, shape, ok in spec:
        if key in obj:
            if not ok(obj[key]):
                raise InputError(f"{what} field {key!r} must be {shape}")
        elif key not in optional:
            raise InputError(f"{what} field {key!r} is missing")
