r"""Reports: a machine-readable JSON section plus a human rendering.

Machine reports carry no timing or environment data, so a given instance
always produces byte-identical output. ``Report.to_machine_text`` writes
the text of ``json.dumps(doc, indent=2, sort_keys=True) + "\n"`` itself,
in one pass (with an indent set, the stdlib encoder runs in pure Python):
- each item of a non-empty dict or list on its own line, indented two
  spaces per level, every item but the last followed by ``,``; an empty
  dict or list is ``{}`` or ``[]``;
- dict keys in sorted order, each followed by ``": "``;
- ints as ``int.__repr__`` writes them, and ``true``, ``false`` and
  ``null``;
- strings in ASCII, escaped as ``json`` escapes them: ``\"``, ``\\``,
  ``\n`` and the other short escapes, ``\uXXXX`` for every other control
  and non-ASCII character (a surrogate pair beyond U+FFFF);
- the text ends in a line break.

A machine report holds only these types, matched exactly (``type(x) is``):
``dict`` with ``str`` keys, ``list`` and ``tuple`` (both JSON lists),
``str``, ``int``, ``bool`` and ``None``. Exact scalars are strings, so a
float is refused like any other type: with ``TypeError``.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

# the item types of the leaf lists written in one join
_INT = frozenset({int})
_STR = frozenset({str})
# the text of the small ints that reports are made of (vertices, edges,
# degrees, permutation entries), looked up in place of int.__repr__
_INT_TEXT = {i: int.__repr__(i) for i in range(256)}


class Report:
    """A command's outcome: its machine section, human lines and exit code."""

    __slots__ = ("command", "machine", "human_lines", "exit_code")
    command: str
    machine: dict
    human_lines: list
    exit_code: int

    def __init__(self, command: str, machine: dict, human_lines=None, exit_code: int = 0):
        self.command = command
        self.machine = machine
        self.human_lines = [] if human_lines is None else human_lines
        self.exit_code = exit_code

    def _key(self) -> tuple:
        return (self.command, self.machine, self.human_lines, self.exit_code)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is Report else NotImplemented

    def __repr__(self):
        return "Report(command={!r}, machine={!r}, human_lines={!r}, exit_code={!r})".format(
            *self._key()
        )

    def to_machine_text(self) -> str:
        """The machine section with its command, in the format the module
        docstring states: ``json.dumps(doc, indent=2, sort_keys=True)`` and a
        line break, byte for byte. A value of a type outside those listed
        there raises ``TypeError``."""
        parts = []
        _write({"command": self.command, **self.machine}, parts, "\n")
        parts.append("\n")
        return "".join(parts)

    def to_human_text(self) -> str:
        return "\n".join(self.human_lines) + "\n"


def _write(x, parts, newline) -> None:
    """Append the JSON text of ``x`` to ``parts``; ``newline`` is a line
    break followed by the indent of the line ``x`` starts on."""
    t = type(x)
    if t is str:
        parts.append(_quote(x))
    elif t is int:
        parts.append(_INT_TEXT.get(x) or int.__repr__(x))
    elif t is dict:
        if not x:
            parts.append("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(x):
            if type(key) is not str:
                raise TypeError(f"a machine report key must be a str, not {type(key).__name__}")
            parts.append(sep + _quote(key) + ": ")
            _write(x[key], parts, inner)
            sep = comma
        parts.append(newline + "}")
    elif t is list or t is tuple:
        if not x:
            parts.append("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        # a list of ints or of strs, such as a sigma, a block or a matrix
        # row, is written in one join
        types = set(map(type, x))
        if types == _INT:
            try:
                text = comma.join(map(_INT_TEXT.__getitem__, x))
            except KeyError:
                text = comma.join(map(int.__repr__, x))
            parts.append(f"{sep}{text}{newline}]")
        elif types == _STR:
            parts.append(f"{sep}{comma.join(map(_quote, x))}{newline}]")
        else:
            for v in x:
                parts.append(sep)
                _write(v, parts, inner)
                sep = comma
            parts.append(newline + "]")
    elif x is None:
        parts.append("null")
    elif x is True:
        parts.append("true")
    elif x is False:
        parts.append("false")
    else:
        raise TypeError(f"a machine report cannot hold a {t.__name__}")


def render_matrix(m) -> list:
    """The entries of a matrix as report and instance-file strings, row by
    row, written from its canonical integer form over its ``field``."""
    return [m.field.render_ints(r, m.den) for r in m.ints]


def matrix_oneline(m) -> str:
    return "[" + "; ".join(" ".join(row) for row in render_matrix(m)) + "]"


def render_filtration(filtration) -> list:
    return [{"weight": str(w), "jump": j} for w, j in filtration.jumps]


def filtration_oneline(filtration) -> str:
    return ", ".join(f"({w}, {j})" for w, j in filtration.jumps)


def perm_to_json(perm) -> list:
    return [x + 1 for x in perm]
