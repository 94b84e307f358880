"""Typed fields of the JSON documents the program reads.

Every JSON loader reads its fields through these readers, so one set of
rules holds for all of them: a document is a JSON object carrying its
schema tag, numbers are finite (``json`` reads ``NaN`` and ``Infinity``
as numbers), a bool is no number, and a missing key or a value of the
wrong type is a SchemaError naming ``where`` in the document and the key
(None when ``where`` names the value itself). ``form``, what the value
must be, is quoted in the error. A reader returns the value it checked.
"""

import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from .errors import InvalidInputError, SchemaError

# how far from 1 a stored rotation quaternion's norm may read
QUAT_UNIT_TOL = 1e-6


def read_json(path):
    """The JSON document in the file ``path``; a file that is not JSON is
    a SchemaError naming the path."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError(f"{path}: not a JSON document ({exc})") from exc


def document(doc, schema):
    """The ``where`` label of ``doc`` if it is a JSON object whose
    ``schema`` is the tag ``schema``."""
    where = f"{schema} document"
    typed(doc, dict, where, None, "an object")
    if doc.get("schema") != schema:
        raise SchemaError(f"expected {schema}, got {doc.get('schema')!r:.40}")
    return where


@contextmanager
def keys_of(where):
    """Turn a key missing inside ``where`` into a SchemaError naming both."""
    try:
        yield
    except KeyError as exc:
        raise SchemaError(f"{where}: missing key {exc}") from None


def require(doc, where, keys):
    """A SchemaError naming the first of ``keys`` that ``doc`` lacks."""
    for key in keys:
        if key not in doc:
            raise SchemaError(f"{where} has no {key!r}")


def _refused(value, where, key, form):
    name = where if key is None else f"{where}: {key!r}"
    return SchemaError(f"{name} must be {form}, got {value!r:.40}")


def typed(value, kind, where, key, form):
    """``value`` if it is a ``kind`` (a type or a tuple of them)."""
    if not isinstance(value, kind) or kind is int and isinstance(value, bool):
        raise _refused(value, where, key, form)
    return value


def list_of(value, kind, n, where, key, form):
    """``value`` if it is a list of ``n`` items (any number for ``n``
    None), each a ``kind`` and none a bool."""
    if not (isinstance(value, list) and n in (None, len(value)) and all(
            isinstance(item, kind) and not isinstance(item, bool)
            for item in value)):
        raise _refused(value, where, key, form)
    return value


def number(value, where, key, form):
    """``value`` if it is a finite number; a NaN or infinity is refused as
    not ``form`` if ``form`` says finite, else as not finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _refused(value, where, key, form)
    # written so that a NaN, and an int past any float, fails it too
    if not abs(value) <= sys.float_info.max:
        raise _refused(value, where, key,
                       form if "finite" in form else "finite")
    return value


def vector(value, n, where, key, form=None):
    """``value`` as a float array if it is a list of ``n`` finite numbers
    (any number for ``n`` None), refused as ``number`` refuses one."""
    if not (isinstance(value, list) and n in (None, len(value)) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in value)):
        raise _refused(value, where, key, form or f"{n} numbers")
    # written so that a NaN, and an int past any float, fails it too
    if not all(abs(v) <= sys.float_info.max for v in value):
        raise _refused(value, where, key,
                       form if form and "finite" in form else "finite")
    return np.asarray(value, float)


def quaternion(value, where, key, form):
    """``value`` as a float array if it is a list of 4 finite numbers
    (refused as not ``form`` otherwise) whose norm is within
    ``QUAT_UNIT_TOL`` of 1; another norm is an InvalidInputError."""
    q = vector(value, 4, where, key, form)
    norm = math.hypot(*q)   # no overflow, however large a component
    if abs(norm - 1.0) > QUAT_UNIT_TOL:
        raise InvalidInputError(f"{where}: {key!r} must be a unit "
                                f"quaternion, got norm {norm:.6g}")
    return q


def rows(value, n, where, key):
    """``value`` as an (n, 3) float array if it is a list of ``n`` lists
    of 3 finite numbers (any number of them for ``n`` None)."""
    if not (isinstance(value, list) and n in (None, len(value))
            and all(isinstance(row, list) and len(row) == 3
                    for row in value)):
        shape = "a list" if n is None else f"{n} rows"
        raise _refused(value, where, key, f"{shape} of [x, y, z]")
    return vector([v for row in value for v in row], None, where, key,
                  "rows of 3 numbers").reshape(-1, 3)


def indices(value, n, where, key):
    """``value`` as an int64 array if it is a list of integers in
    ``[0, n)``; an index out of range is an InvalidInputError."""
    list_of(value, int, None, where, key, "a list of indices")
    if not all(0 <= i < n for i in value):
        raise InvalidInputError(f"{where}: {key!r} has an index outside "
                                f"[0, {n})")
    return np.asarray(value, np.int64)
