"""Input parsing: matrix JSON, edge-list graph files and basis-list JSON.

Formats:
  *.graph       one edge per line, "u v"; '#' starts a comment
  *.bases.json  {"n": int, "bases": [[1-based elements], ...]}
  *.json        {"rows": [["1", "0", "3/4", ...], ...],
                 "field": "Q" | "Fp", "p": prime}   (field defaults to Q;
                 "p" is given with Fp only)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import ParseError

# Graph and basis inputs never need exact arithmetic or configurations, and
# configurations never need a matroid: each route imports arith, config,
# fractions, json or matroid itself.
if TYPE_CHECKING:
    from .arith import Matrix
    from .config import Configuration
    from .matroid import Matroid


# CPython's default bound on int <-> str digits, whose conversion takes
# quadratic time: a longer literal is refused before it is converted
_LITERAL_MAX = 4300


def parse_scalar(text, field: str = "Q", p: int | None = None):
    """A JSON integer, or a string holding an integer, "p/q" or a decimal.
    A JSON non-integer number is refused, since a float has lost digits
    already; so is a string in exponent notation, so that no string gives a
    value longer than itself."""
    from fractions import Fraction

    from .arith import Fp, _residue

    if isinstance(text, float):
        raise ParseError(
            "entry %r is not an integer: write it as a string, as \"0.1\" or \"1/10\""
            % text
        )
    literal = _bounded(str(text))
    try:
        if isinstance(text, str) and "e" in literal.lower():
            raise ValueError
        fr = Fraction(literal)
    except (ValueError, ZeroDivisionError):
        raise ParseError("bad scalar %s" % _cut(literal, repr)) from None
    if field == "Q":
        return int(fr) if fr.denominator == 1 else fr
    try:
        return Fp(_residue(fr, p), p)
    except ZeroDivisionError:
        raise ParseError("scalar %s undefined mod %d" % (_cut(literal, repr), p)) from None


def _cut(text: str, form=str) -> str:
    """The text cut to 40 characters, in form; "..." marks a cut."""
    return form(text[:40]) + ("..." if len(text) > 40 else "")


def _bounded(literal: str) -> str:
    """The literal, unless it is longer than _LITERAL_MAX characters."""
    if len(literal) > _LITERAL_MAX:
        raise ParseError(
            "literal %s is longer than %d characters" % (_cut(literal, repr), _LITERAL_MAX)
        )
    return literal


def matrix_from_json(data, max_n: int | None = None) -> Matrix:
    """The matrix of a JSON object.  Its width is checked against the cap
    before any entry is parsed."""
    from .arith import Matrix, _is_prime

    if not isinstance(data, dict) or "rows" not in data:
        raise ParseError("matrix JSON needs a 'rows' key")
    field = data.get("field", "Q")
    p = data.get("p")
    if field == "Fp":
        try:
            prime = isinstance(p, int) and _is_prime(p)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        if not prime:
            raise ParseError("field Fp needs a prime 'p'")
    elif field != "Q":
        raise ParseError("field must be 'Q' or 'Fp'")
    elif "p" in data:
        raise ParseError("'p' needs field 'Fp'")
    rows = data["rows"]
    if not rows or not all(isinstance(r, (list, tuple)) for r in rows):
        raise ParseError("'rows' must be a nonempty list of lists")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ParseError("ragged matrix rows")
    (ncols,) = widths
    _check_cap(ncols, max_n)
    parsed = [[parse_scalar(x, field, p) for x in row] for row in rows]
    return Matrix(parsed, ncols=ncols)


def parse_graph_text(text: str):
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        if len(tokens) != 2:
            raise ParseError("line %d: expected 'u v', got %s" % (lineno, _cut(line, repr)))
        edges.append((tokens[0], tokens[1]))
    if not edges:
        raise ParseError("graph file has no edges")
    return edges


def _integers(values):
    """The values as a tuple, each an int: JSON's 0.5, "1" and true are not,
    though int() would read them (TypeError)."""
    values = tuple(values)
    for x in values:
        if type(x) is not int:
            raise TypeError("%r is not an integer" % (x,))
    return values


def bases_from_json(data, max_n: int | None = None) -> Matroid:
    """Matroid of a basis list.  The cap is checked after the basis sizes and
    before the masks, which take n bits each, and the rank table, which takes
    2^n steps and validates the bases."""
    from .matroid import matroid_from_bases

    try:
        (n,) = _integers([data["n"]])
        bases = [_integers(b) for b in data["bases"]]
    except (KeyError, TypeError) as exc:
        raise ParseError("bases JSON needs an integer 'n' and integer 'bases': %s" % exc) from None
    if not bases:
        raise ParseError("empty basis list")
    if any(not 1 <= e <= n for b in bases for e in b):
        raise ParseError("basis element out of range")
    if any(len(set(b)) != len(b) for b in bases):
        raise ParseError("basis repeats an element")
    if len({len(b) for b in bases}) != 1:
        raise ParseError("not a matroid: bases of unequal size")
    _check_cap(n, max_n)
    try:
        return matroid_from_bases(n, bases)
    except ValueError as exc:
        raise ParseError("not a matroid: %s" % exc) from None


def detect_format(path: str) -> str:
    if path.endswith(".graph"):
        return "graph"
    if path.endswith(".bases.json"):
        return "bases"
    if path.endswith(".json"):
        return "matrix"
    raise ParseError("cannot infer format of %r (.graph/.json/.bases.json)" % path)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from None


def _load_json(path: str):
    import json

    try:
        return json.loads(_read(path), parse_int=lambda s: int(_bounded(s)))
    except json.JSONDecodeError as exc:
        raise ParseError("bad JSON in %s: %s" % (path, exc)) from None


def load_matroid(path: str, fmt: str | None = None, max_n: int | None = None) -> Matroid:
    from .matroid import matroid_from_graph, matroid_from_matrix

    fmt = fmt or detect_format(path)
    if fmt == "graph":
        edges = parse_graph_text(_read(path))
        _check_cap(len(edges), max_n)
        return matroid_from_graph(edges)
    if fmt == "bases":
        return bases_from_json(_load_json(path), max_n)
    if fmt == "matrix":
        return matroid_from_matrix(matrix_from_json(_load_json(path), max_n))
    raise ParseError("unknown format %r" % fmt)


def load_configuration(
    path: str, fmt: str | None = None, max_n: int | None = None
) -> Configuration:
    from .config import config_from_graph, config_new

    fmt = fmt or detect_format(path)
    if fmt == "graph":
        edges = parse_graph_text(_read(path))
        _check_cap(len(edges), max_n)
        return config_from_graph(edges)
    if fmt == "matrix":
        return config_new(matrix_from_json(_load_json(path), max_n))
    if fmt == "bases":
        raise ParseError("a basis list carries no realization; give a matrix or graph")
    raise ParseError("unknown format %r" % fmt)


def _check_cap(n: int, max_n: int | None):
    if max_n is not None and n > max_n:
        raise ParseError(
            "ground set size %s exceeds the cap %d (CONFIG_RESOLVE_MAX_N)"
            % (_cut(str(n)), max_n)
        )
