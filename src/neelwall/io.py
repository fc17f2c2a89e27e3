"""JSON and CSV serialization for solve results and sweep tables.

Every file is written by the standard library's json module and every value
in it is a JSON scalar: floats in Python's shortest round-trip form, so each
loads back bit-exactly, and null for NaN and the infinities, which strict
JSON cannot hold.  A CSV cell is the JSON text of its scalar.  Output is
deterministic: identical inputs produce byte-identical files.

A solve result's profile lies in the symmetric class theta(-x) = pi -
theta(x), exactly as grid.mirror_left_half leaves it, so its file holds only
the right half, the n_points/2 + 1 samples at x = 0, ..., half_length, and
the reader rebuilds the left half with that same function.  The writer
refuses, with no file written, a profile whose center is not pi/2 or whose
left half is not exactly what the mirror rebuilds from its right half.
Files that hold the whole profile, as written before, still load.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from typing import List, Union

import numpy as np

from .analysis import SweepRow
from .energy import EnergyBreakdown
from .grid import ModelParams, Profile, make_grid, mirror_left_half
from .minimize import SolveResult

_ENERGY_PARTS = tuple(f.name for f in fields(EnergyBreakdown))
_COLUMNS = tuple(f.name for f in fields(SweepRow))
# the solver's diagnostics, stored after the profile and its energy
_RESULT_SCALARS = tuple(f.name for f in fields(SolveResult)
                        if f.name not in ("profile", "energy"))


def _finite_or_none(x):
    """A field as its JSON scalar: null stands for every non-finite float."""
    return x if math.isfinite(x) else None


def _right_half(values: np.ndarray) -> np.ndarray:
    """The samples at x >= 0 of a profile that mirror_left_half rebuilds
    exactly from them; any other profile is a ValueError."""
    c = values.size // 2
    if values[c] != np.pi / 2 or not np.array_equal(values[:c],
                                                    np.pi - values[c + 1:][::-1]):
        raise ValueError("a solve result's profile must lie exactly in the "
                         "symmetric class theta(-x) = pi - theta(x)")
    return values[c:]


def result_to_dict(result: SolveResult) -> dict:
    p = result.profile
    return {
        "kind": "solve_result",
        "params": {"nu": p.params.nu, "h": p.params.h},
        "grid": {"half_length": p.grid.half_length, "n_points": p.grid.n_points},
        "profile_right_half": _right_half(p.values).tolist(),
        "energy": {k: _finite_or_none(getattr(result.energy, k))
                   for k in _ENERGY_PARTS},
        **{k: _finite_or_none(getattr(result, k)) for k in _RESULT_SCALARS},
    }


def _row_to_dict(row: SweepRow) -> dict:
    return {col: _finite_or_none(getattr(row, col)) for col in _COLUMNS}


def table_to_csv(rows: List[SweepRow]) -> str:
    lines = [",".join(_COLUMNS)]
    for r in rows:
        lines.append(",".join(json.dumps(cell, allow_nan=False)
                              for cell in _row_to_dict(r).values()))
    return "\n".join(lines) + "\n"


def table_to_dict(rows: List[SweepRow]) -> dict:
    return {"kind": "sweep_table", "rows": [_row_to_dict(r) for r in rows]}


def emit(obj: Union[SolveResult, List[SweepRow]], format: str, path: str) -> None:
    """Write a solve result or a sweep's list of rows to `path`.

    Solve results serialize to JSON only; sweep rows to JSON or CSV, where
    an empty list is a table with a header and no rows.

    Raises:
        ValueError: unsupported (object, format) combination, a list that
            holds anything but SweepRows, or a solve result whose profile is
            not exactly symmetric; no file is written.
        OSError: unwritable destination, message names the path.
    """
    if format not in ("json", "csv"):
        raise ValueError(f"format must be 'json' or 'csv', got {format!r}")
    if isinstance(obj, SolveResult):
        if format != "json":
            raise ValueError("solve results serialize to JSON only")
        text = json.dumps(result_to_dict(obj), allow_nan=False) + "\n"
    elif isinstance(obj, list) and all(isinstance(r, SweepRow) for r in obj):
        text = (table_to_csv(obj) if format == "csv"
                else json.dumps(table_to_dict(obj), allow_nan=False) + "\n")
    else:
        raise ValueError(f"cannot emit object of type {type(obj).__name__}")
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        raise OSError(f"cannot write to {path!r}: {exc}") from exc


def load_result(path: str) -> SolveResult:
    """Reconstruct a SolveResult from its JSON form; bit-exact round trip.

    The file holds either profile_right_half, whose first sample must be
    pi/2 and whose left half is rebuilt by mirror_left_half, or the whole
    profile as older files do; a file with both keys or neither is rejected.
    The sample count is checked against n_points before any grid is built.
    Every profile sample must be a JSON number: a string, boolean or null
    sample is rejected, not converted.  Keys other than those result_to_dict
    writes are ignored, so older files that carry a tail amplitude load.

    Raises:
        OSError: unreadable file, message names the path.
        ValueError: not a well-formed solve result, message names the path.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise OSError(f"cannot read from {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path!r} is not JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("kind") != "solve_result":
        raise ValueError(f"{path!r} does not contain a solve result")
    try:
        half_length, n_points = (_load_cell(k, doc["grid"][k])
                                 for k in ("half_length", "n_points"))
        params = ModelParams(*(_load_cell(k, doc["params"][k]) for k in ("nu", "h")))
        half = "profile_right_half" in doc
        if half == ("profile" in doc):
            raise ValueError("a solve result holds exactly one of "
                             "profile_right_half and profile")
        key = "profile_right_half" if half else "profile"
        samples = doc[key]
        c = n_points // 2 if half else 0
        # checked before make_grid, which allocates n_points + 1 positions
        if len(samples) != n_points + 1 - c:
            raise ValueError(f"{key} holds {len(samples)} samples, expected "
                             f"{n_points + 1 - c} for n_points = {n_points}")
        grid = make_grid(half_length, n_points)
        if not set(map(type, samples)) <= {int, float}:
            i = next(i for i, s in enumerate(samples) if type(s) not in (int, float))
            raise ValueError(f"{key}[{i}] cannot hold {samples[i]!r}")
        if half and samples[0] != np.pi / 2:
            raise ValueError(f"{key}[0] is {samples[0]!r}, not pi/2")
        values = np.empty(grid.n_samples)
        values[c:] = samples
        if half:
            mirror_left_half(values)
        profile = Profile(grid, values, params)
        e = doc["energy"]
        energy = EnergyBreakdown(*(_load_cell(k, e[k]) for k in _ENERGY_PARTS))
        return SolveResult(profile, energy,
                           **{k: _load_cell(k, doc[k]) for k in _RESULT_SCALARS})
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path!r} holds a malformed solve result: {exc!r}") from exc


def load_table(path: str) -> List[SweepRow]:
    """Read a sweep's rows back from CSV or JSON, as the list sweep returned.

    Raises:
        OSError: unreadable file, message names the path.
        ValueError: not a well-formed sweep table, message names the path.
    """
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise OSError(f"cannot read from {path!r}: {exc}") from exc
    try:
        if text.lstrip().startswith("{"):
            doc = json.loads(text)
            if doc.get("kind") != "sweep_table":
                raise ValueError("no sweep table")
            parsed = doc["rows"]
        else:
            lines = [ln for ln in text.splitlines() if ln]
            header = lines[0].split(",") if lines else []
            if tuple(header) != _COLUMNS:
                raise ValueError(f"unexpected CSV header {header}")
            parsed = []
            for ln in lines[1:]:
                cells = ln.split(",")
                if len(cells) != len(header):
                    raise ValueError(f"a CSV row of {len(cells)} cells, "
                                     f"expected {len(header)}")
                parsed.append({col: json.loads(cell)
                               for col, cell in zip(header, cells)})
        return [SweepRow(**{col: _load_cell(col, row[col]) for col in _COLUMNS})
                for row in parsed]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path!r} holds a malformed sweep table: {exc!r}") from exc


def _load_cell(col: str, value):
    """A parsed JSON scalar under its field's policy: converged is a boolean,
    iterations and n_points integers, and every other field a number, where
    null loads as NaN except in nu, h and half_length."""
    kinds = {"converged": (bool,), "iterations": (int,),
             "n_points": (int,)}.get(col, (int, float))
    if value is None and float in kinds and col not in ("nu", "h", "half_length"):
        return math.nan
    if type(value) not in kinds:
        raise ValueError(f"{col} cannot hold {value!r}")
    return float(value) if float in kinds else value
