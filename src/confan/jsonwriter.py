"""`--output json` text, equal to json.dumps(obj, indent=2,
ensure_ascii=False) byte for byte, made piece by piece as it is written.
With an indent, json encodes in pure Python, one value at a time.

A scalar, or a list, tuple or dict whose members are all scalars, is one
piece, joined in one call; only a container that holds a container is
walked, as a generator.  Payloads hold str, int, bool, None and containers
of them: any other value (a float, a Fraction) raises TypeError.
"""

from itertools import repeat
from json.encoder import encode_basestring

_NESTED = (list, tuple, dict)
_SCALARS = {str, int, bool, type(None)}


def _scalar(o):
    if isinstance(o, str):
        return encode_basestring(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    raise TypeError("Object of type %s is not JSON serializable" % type(o).__name__)


def _key(k):
    if isinstance(k, str):
        return encode_basestring(k) + ": "
    if k is None or isinstance(k, int):
        return '"%s": ' % _scalar(k)
    raise TypeError("keys must be str, int, bool or None, not %s" % type(k).__name__)


def _flat(o, ind, inner):
    """The text of o as one string, its members after inner and its closing
    bracket after ind (each a newline and spaces); None if o holds a list,
    tuple or dict."""
    if isinstance(o, dict):
        values, ends = o.values(), "{}"
    elif isinstance(o, (list, tuple)):
        values, ends = o, "[]"
    else:
        return _scalar(o)
    if not o:
        return ends
    kinds = set(map(type, values))
    if kinds == {int}:
        texts = map(int.__repr__, values)
    elif kinds == {str}:
        texts = map(encode_basestring, values)
    elif kinds <= _SCALARS or not any(issubclass(t, _NESTED) for t in kinds):
        texts = map(_scalar, values)
    else:
        return None
    if values is not o:
        texts = map(str.__add__, map(_key, o), texts)
    return ends[0] + inner + ("," + inner).join(texts) + ind + ends[1]


def _nested(o, ind):
    """The text of a list, tuple or dict o that holds one, in pieces."""
    inner = ind + "  "
    deeper = inner + "  "
    if isinstance(o, dict):
        yield "{"
        items, end = zip(map(_key, o), o.values()), "}"
    else:
        yield "["
        items, end = zip(repeat(""), o), "]"
    sep = inner
    for key, v in items:
        text = _flat(v, inner, deeper)
        if text is None:
            yield sep + key
            yield from _nested(v, inner)
        else:
            yield sep + key + text
        sep = "," + inner
    yield ind + end


def iterencode(obj):
    """The JSON text of obj, indented by 2, in pieces."""
    text = _flat(obj, "\n", "\n  ")
    return iter((text,)) if text is not None else _nested(obj, "\n")
