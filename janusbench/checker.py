"""Independent answer checker for the benchmark.

Everything here works from the documented wire forms alone and imports
nothing from the program under test (``repro``):

* a truth-table target carries ``on`` / ``dc`` as hex strings, the bits
  packed little-endian by minterm index, and bit ``i`` of a minterm
  index is the value of input ``i``;
* a response's ``assignment`` lists the ``rows * cols`` cells row-major,
  each ``[var, positive]`` — ``var`` an input index (``null`` for a
  constant) and ``positive`` its polarity.

A lattice realizes, between its top and bottom plates, the function
that is 1 exactly when the cells whose literal is 1 contain a
four-connected path from the top row to the bottom row.  The checker
evaluates that per minterm by a flood fill and compares the result
with the request: every on-set minterm must conduct and every minterm
outside ``on | dc`` must not.

Functions are held as Python ints (bit ``m`` = value at minterm ``m``).
"""

from __future__ import annotations

import json
from typing import Optional

__all__ = [
    "decode_bits",
    "lattice_function",
    "strip_volatile",
    "Checker",
]

# Per-request fields that legitimately differ between two answers for
# the same function: timings and the per-request work accounting.
_VOLATILE = ("wall_time", "stats")


def decode_bits(hexbits: str, num_vars: int) -> int:
    """The function a wire ``on``/``dc`` hex string describes."""
    value = int.from_bytes(bytes.fromhex(hexbits), "little")
    return value & ((1 << (1 << num_vars)) - 1)


def _cell_on(cell, minterm: int) -> bool:
    var, positive = cell
    if var is None:
        return bool(positive)
    return bool((minterm >> var) & 1) == bool(positive)


def _conducts(rows: int, cols: int, on: list) -> bool:
    """Top-to-bottom four-connected path through the ``on`` cells."""
    seen = [False] * (rows * cols)
    stack = [c for c in range(cols) if on[c]]
    for c in stack:
        seen[c] = True
    while stack:
        cell = stack.pop()
        r, c = divmod(cell, cols)
        if r == rows - 1:
            return True
        for nr, nc in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if 0 <= nr < rows and 0 <= nc < cols:
                nxt = nr * cols + nc
                if on[nxt] and not seen[nxt]:
                    seen[nxt] = True
                    stack.append(nxt)
    return False


def lattice_function(rows: int, cols: int, entries: list, num_vars: int) -> int:
    """The function a lattice realizes over ``num_vars`` inputs."""
    if len(entries) != rows * cols:
        raise ValueError(
            f"{rows}x{cols} lattice with {len(entries)} entries"
        )
    for var, _ in entries:
        if var is not None and not 0 <= var < num_vars:
            raise ValueError(f"entry names input {var} of {num_vars}")
    value = 0
    for m in range(1 << num_vars):
        if _conducts(rows, cols, [_cell_on(e, m) for e in entries]):
            value |= 1 << m
    return value


def strip_volatile(response: dict, deep: bool = False) -> dict:
    """``response`` without its volatile fields.  ``deep`` also drops
    the per-probe ``wall_time`` of every attempt, for comparing two
    answers that were each computed cold."""
    out = {k: v for k, v in response.items() if k not in _VOLATILE}
    if deep:
        out["attempts"] = [
            {k: v for k, v in a.items() if k != "wall_time"}
            for a in response.get("attempts", [])
        ]
    return out


class Checker:
    """Checks responses against their requests and against each other.

    ``check(request_text, response_text)`` returns a list of failure
    messages (empty when the answer is right).  The first answer seen
    for a function is checked in full: lattice evaluation plus the
    properties below.  A later answer for the same function must equal
    the first apart from the volatile fields, which makes it correct by
    the same evidence (a repeat of a rejected answer is rejected the same
    way); its lattice is evaluated again only if it differs.

    Properties of every answer:

    * ``size == rows * cols`` and the assignment has that shape;
    * ``initial_lower_bound <= lower_bound <= size <= initial_upper_bound``;
    * ``provably_minimum`` holds exactly when ``size == lower_bound``.
    """

    def __init__(self, deep_compare: bool = False) -> None:
        self.deep_compare = deep_compare
        # function key -> (first answer without volatile fields, its failures)
        self._first: dict[str, tuple[dict, list]] = {}
        self._requests: dict[str, tuple[int, int, int, str]] = {}
        self.switches: dict[str, int] = {}  # function key -> lattice size

    def _target(self, request_text: str) -> tuple[str, tuple]:
        cached = self._requests.get(request_text)
        if cached is None:
            wire = json.loads(request_text)
            target = wire["target"]
            if target.get("form") != "truthtable":
                raise ValueError("checker needs truth-table targets")
            n = target["num_vars"]
            on = decode_bits(target["on"], n)
            dc = decode_bits(target["dc"], n) if target.get("dc") else 0
            key = f"{n}:{target['on']}:{target.get('dc')}"
            cached = (key, (n, on, dc, wire.get("name", "f")))
            self._requests[request_text] = cached
        return cached

    def check(self, request_text: str, response_text: str) -> list[str]:
        try:
            key, (n, on, dc, name) = self._target(request_text)
            response = json.loads(response_text)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"undecodable request/response: {exc!r}"]
        stable = strip_volatile(response, self.deep_compare)
        first = self._first.get(key)
        if first is not None and stable == first[0]:
            return list(first[1])
        failures = self._properties(response, name)
        if failures:
            return failures
        if first is not None:
            failures.append(f"{name}: answer differs from the first answer")
        failures.extend(self._realizes(response, n, on, dc, name))
        if first is None:
            self._first[key] = (stable, failures)
            if not failures:
                self.switches[key] = response["size"]
        return failures

    @staticmethod
    def _properties(response: dict, name: str) -> list[str]:
        try:
            if response.get("kind") != "synthesis_response":
                return [f"{name}: not a synthesis_response"]
            rows, cols, size = response["rows"], response["cols"], response["size"]
            lb = response["lower_bound"]
            ilb = response["initial_lower_bound"]
            iub = response["initial_upper_bound"]
            proven = response["provably_minimum"]
            assignment = response["assignment"]
        except (KeyError, TypeError) as exc:
            return [f"{name}: malformed response: {exc!r}"]
        failures = []
        if response.get("name") != name:
            failures.append(f"{name}: answer names {response.get('name')!r}")
        if size != rows * cols:
            failures.append(f"{name}: size {size} != {rows}x{cols}")
        if not isinstance(assignment, dict) or (
            assignment.get("rows"), assignment.get("cols")
        ) != (rows, cols):
            failures.append(f"{name}: assignment shape != {rows}x{cols}")
        if not ilb <= lb <= size <= iub:
            failures.append(
                f"{name}: bounds out of order: initial_lb={ilb} lb={lb} "
                f"size={size} initial_ub={iub}"
            )
        if bool(proven) != (size == lb):
            failures.append(
                f"{name}: provably_minimum={proven} with size={size} lb={lb}"
            )
        return failures

    @staticmethod
    def _realizes(
        response: dict, n: int, on: int, dc: int, name: str
    ) -> list[str]:
        a = response["assignment"]
        try:
            realized = lattice_function(a["rows"], a["cols"], a["entries"], n)
        except (ValueError, TypeError, KeyError) as exc:
            return [f"{name}: malformed lattice: {exc!r}"]
        failures = []
        if on & ~realized:
            failures.append(f"{name}: lattice misses on-set minterms")
        if realized & ~(on | dc):
            failures.append(f"{name}: lattice covers off-set minterms")
        return failures

    def switches_total(self, keys: Optional[list] = None) -> int:
        """Sum of lattice sizes over the distinct functions answered
        correctly (or over those of ``keys``)."""
        if keys is None:
            return sum(self.switches.values())
        return sum(self.switches.get(k, 0) for k in keys)

    def key(self, request_text: str) -> str:
        return self._target(request_text)[0]
