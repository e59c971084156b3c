"""Reports: a machine-readable JSON section plus a human rendering.

Machine reports contain only JSON-native values (strings for exact
scalars), are key-sorted, and carry no timing or environment data, so a
given instance always produces byte-identical output.
"""

from __future__ import annotations

import json


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
        doc = {"command": self.command, **self.machine}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def to_human_text(self) -> str:
        return "\n".join(self.human_lines) + "\n"


def render_matrix(field_obj, m) -> list:
    """The entries of a matrix as report and instance-file strings, row by
    row, written from its canonical integer form."""
    return [field_obj.render_ints(r, m.den) for r in m.ints]


def render_vector(field_obj, v) -> list:
    return [field_obj.render(x) for x in v]


def matrix_oneline(field_obj, m) -> str:
    return "[" + "; ".join(" ".join(row) for row in render_matrix(field_obj, m)) + "]"


def render_filtration(filtration) -> list:
    return [{"weight": str(w), "jump": j} for w, j in filtration.jumps]


def filtration_oneline(filtration) -> str:
    return ", ".join(f"({w}, {j})" for w, j in filtration.jumps)


def perm_to_json(perm) -> list:
    return [x + 1 for x in perm]
