"""Hand-worked cases for the independent checker.

Run directly (``python3 janusbench/checker_selftest.py``) or through
``run.py``, which runs it before every benchmark run and refuses to
measure if any case fails.  Each case states its expected answer by
hand, not by re-running the checker's own evaluation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checker import Checker, decode_bits, lattice_function  # noqa: E402


def _func(num_vars: int, predicate) -> int:
    """Function as an int from a per-minterm predicate over input bits."""
    value = 0
    for m in range(1 << num_vars):
        x = [(m >> i) & 1 for i in range(num_vars)]
        if predicate(x):
            value |= 1 << m
    return value


def _lit(var: int, positive: bool = True) -> list:
    return [var, positive]


def _request(num_vars: int, on: int, dc: int = 0, name: str = "f") -> str:
    nbytes = max(1, (1 << num_vars) // 8)
    return json.dumps({
        "api": 1,
        "kind": "synthesis_request",
        "name": name,
        "backend": "janus",
        "target": {
            "form": "truthtable",
            "num_vars": num_vars,
            "on": on.to_bytes(nbytes, "little").hex(),
            "dc": dc.to_bytes(nbytes, "little").hex() if dc else None,
        },
    })


def _response(rows, cols, entries, lb, proven=None, name="f", **extra) -> dict:
    size = rows * cols
    payload = {
        "api": 1,
        "kind": "synthesis_response",
        "name": name,
        "backend": "janus",
        "rows": rows,
        "cols": cols,
        "size": size,
        "lower_bound": lb,
        "initial_lower_bound": lb,
        "initial_upper_bound": size,
        "provably_minimum": size == lb if proven is None else proven,
        "method": "janus",
        "upper_bounds": {},
        "assignment": {"rows": rows, "cols": cols, "entries": entries},
        "attempts": [],
        "wall_time": 0.01,
        "stats": {"solver_calls": 0},
    }
    payload.update(extra)
    return payload


def case_hex_decoding() -> None:
    # ab over two inputs is on at minterm 3 only: byte 0b00001000.
    assert decode_bits("08", 2) == 1 << 3
    # x0 over three inputs: minterms 1, 3, 5, 7 -> 0b10101010.
    assert decode_bits("aa", 3) == 0b10101010
    # Four inputs pack into two bytes, low minterms first.
    assert decode_bits("0100", 4) == 1
    assert decode_bits("0080", 4) == 1 << 15


def case_two_by_two() -> None:
    # x1 x2 / x3 x4 (inputs 0..3): the columns give x1x3 and x2x4; the
    # sideways paths (x1x2x4, x1x3x4, ...) are covered by them.
    entries = [_lit(0), _lit(1), _lit(2), _lit(3)]
    expected = _func(4, lambda x: (x[0] and x[2]) or (x[1] and x[3]))
    assert lattice_function(2, 2, entries, 4) == expected


def case_three_by_three() -> None:
    # f_3x3 from the lattice literature: nine products, each a top-to-
    # bottom path that moves sideways only in the middle row.
    products = [
        (1, 4, 7), (1, 4, 5, 8), (1, 4, 5, 6, 9),
        (2, 5, 4, 7), (2, 5, 8), (2, 5, 6, 9),
        (3, 6, 5, 4, 7), (3, 6, 5, 8), (3, 6, 9),
    ]
    expected = _func(
        9, lambda x: any(all(x[i - 1] for i in p) for p in products)
    )
    entries = [_lit(i) for i in range(9)]
    assert lattice_function(3, 3, entries, 9) == expected


def case_series_parallel_constants() -> None:
    # A column is a series connection, a row a parallel one.
    assert lattice_function(2, 1, [_lit(0), _lit(1)], 2) == 1 << 3
    assert lattice_function(1, 2, [_lit(0), _lit(1)], 2) == 0b1110
    # Complemented literal and constants.
    assert lattice_function(1, 1, [_lit(1, False)], 2) == 0b0011
    assert lattice_function(1, 1, [[None, True]], 2) == 0b1111
    assert lattice_function(1, 1, [[None, False]], 2) == 0
    # A constant-0 cell cuts the only path.
    assert lattice_function(2, 1, [_lit(0), [None, False]], 1) == 0


def case_accepts_right_answers() -> None:
    on = _func(4, lambda x: (x[0] and x[2]) or (x[1] and x[3]))
    request = _request(4, on)
    entries = [_lit(0), _lit(1), _lit(2), _lit(3)]
    checker = Checker()
    assert checker.check(request, json.dumps(_response(2, 2, entries, 4))) == []
    # A repeat that differs only in timing and stats is accepted.
    again = _response(2, 2, entries, 4, wall_time=9.0, stats={"x": 1})
    assert checker.check(request, json.dumps(again)) == []
    assert checker.switches_total() == 4
    # Don't-cares may go either way: x0 with minterm 2 don't-care is
    # met by the constant-free lattice x0 + x1.
    request = _request(2, on=0b1010, dc=0b0100)
    answer = _response(1, 2, [_lit(0), _lit(1)], 2)
    assert Checker().check(request, json.dumps(answer)) == []


def case_rejects_corrupted_answers() -> None:
    on = _func(4, lambda x: (x[0] and x[2]) or (x[1] and x[3]))
    request = _request(4, on)
    good = _response(2, 2, [_lit(0), _lit(1), _lit(2), _lit(3)], 4)

    def rejected(mutate, first=None) -> bool:
        checker = Checker()
        if first is not None:
            assert checker.check(request, json.dumps(first)) == []
        bad = json.loads(json.dumps(good))
        mutate(bad)
        return bool(checker.check(request, json.dumps(bad)))

    def flip_polarity(r):
        r["assignment"]["entries"][3] = _lit(3, False)

    def wrong_input(r):
        r["assignment"]["entries"][0] = _lit(1)

    def wrong_size(r):
        r["size"] = 5

    def unproven_minimum(r):
        r["provably_minimum"] = False

    def bound_above_size(r):
        r["lower_bound"] = 5

    def shape_mismatch(r):
        r["assignment"]["rows"] = 1

    def other_name(r):
        r["name"] = "g"

    for mutate in (flip_polarity, wrong_input, wrong_size, unproven_minimum,
                   bound_above_size, shape_mismatch, other_name):
        assert rejected(mutate), mutate.__name__
    # A later answer that changes the (still valid) method is not the
    # first answer any more.
    assert rejected(lambda r: r.update(method="other"), first=good)
    # Off-set minterms may not conduct: x0 + x1 for x0 x1.
    assert Checker().check(
        _request(2, on=0b1000),
        json.dumps(_response(1, 2, [_lit(0), _lit(1)], 2)),
    )


CASES = [
    case_hex_decoding,
    case_two_by_two,
    case_three_by_three,
    case_series_parallel_constants,
    case_accepts_right_answers,
    case_rejects_corrupted_answers,
]


def run() -> list[str]:
    """Names (and messages) of the cases that failed."""
    if not __debug__:
        return ["assertions are disabled (-O); run without -O"]
    failed = []
    for case in CASES:
        try:
            case()
        except AssertionError as exc:
            failed.append(f"{case.__name__}: {exc}")
    return failed


if __name__ == "__main__":
    failures = run()
    for line in failures:
        print(f"FAIL {line}")
    print(f"{len(CASES) - len(failures)}/{len(CASES)} checker cases passed")
    sys.exit(1 if failures else 0)
