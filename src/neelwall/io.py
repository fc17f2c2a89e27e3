"""JSON and CSV serialization for solve results and sweep tables.

Floats are written with 17 significant digits, so every value round-trips
bit-exactly through the loader.  Output is deterministic: identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from typing import Union

import numpy as np

from .analysis import SweepRow, SweepTable
from .energy import EnergyBreakdown
from .grid import ModelParams, Profile, make_grid
from .minimize import SolveResult


def _fmt(x: float) -> str:
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        return "null"
    return format(float(x), ".17g")


def _encode(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  "{key}": {_encode(val, indent + 1).lstrip()}'
            for key, val in obj.items()
        )
        return f"{pad}{{\n{items}\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        parts = ", ".join(_encode(v, 0) for v in obj)
        return f"{pad}[{parts}]"
    if isinstance(obj, (bool, np.bool_)):
        return pad + ("true" if obj else "false")
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return pad + _fmt(float(obj))
    if obj is None:
        return pad + "null"
    return pad + json.dumps(obj)


def result_to_dict(result: SolveResult) -> dict:
    p = result.profile
    return {
        "kind": "solve_result",
        "params": {"nu": p.params.nu, "h": p.params.h},
        "grid": {"half_length": p.grid.half_length, "n_points": p.grid.n_points},
        "profile": list(p.values),
        "energy": {
            "exchange": result.energy.exchange,
            "anisotropy": result.energy.anisotropy,
            "stray": result.energy.stray,
            "total": result.energy.total,
        },
        "residual_sup": result.residual_sup,
        "iterations": result.iterations,
        "converged": result.converged,
        "tail_amplitude": result.tail_amplitude,
    }


def table_to_csv(table: SweepTable) -> str:
    lines = [",".join(SweepTable.COLUMNS)]
    for r in table.rows:
        lines.append(",".join(_csv_cell(col, getattr(r, col))
                              for col in SweepTable.COLUMNS))
    return "\n".join(lines) + "\n"


def _csv_cell(col: str, value) -> str:
    if col == "converged":
        return "true" if value else "false"
    return _fmt(value)


def table_to_dict(table: SweepTable) -> dict:
    return {
        "kind": "sweep_table",
        "rows": [
            {col: getattr(r, col) for col in SweepTable.COLUMNS}
            for r in table.rows
        ],
    }


def emit(obj: Union[SolveResult, SweepTable], format: str, path: str) -> None:
    """Write a solve result or sweep table to `path`.

    Solve results serialize to JSON only; sweep tables to JSON or CSV.

    Raises:
        ValueError: unsupported (object, format) combination.
        OSError: unwritable destination, message names the path.
    """
    if format not in ("json", "csv"):
        raise ValueError(f"format must be 'json' or 'csv', got {format!r}")
    if isinstance(obj, SolveResult):
        if format != "json":
            raise ValueError("solve results serialize to JSON only")
        text = _encode(result_to_dict(obj)) + "\n"
    elif isinstance(obj, SweepTable):
        text = (table_to_csv(obj) if format == "csv"
                else _encode(table_to_dict(obj)) + "\n")
    else:
        raise ValueError(f"cannot emit object of type {type(obj).__name__}")
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        raise OSError(f"cannot write to {path!r}: {exc}") from exc


def load_result(path: str) -> SolveResult:
    """Reconstruct a SolveResult from its JSON form; bit-exact round trip."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise OSError(f"cannot read from {path!r}: {exc}") from exc
    if doc.get("kind") != "solve_result":
        raise ValueError(f"{path!r} does not contain a solve result")
    grid = make_grid(doc["grid"]["half_length"], doc["grid"]["n_points"])
    params = ModelParams(doc["params"]["nu"], doc["params"]["h"])
    profile = Profile(grid, np.array(doc["profile"], dtype=float), params)
    e = doc["energy"]
    energy = EnergyBreakdown(e["exchange"], e["anisotropy"], e["stray"], e["total"])
    return SolveResult(
        profile=profile,
        energy=energy,
        residual_sup=doc["residual_sup"],
        iterations=doc["iterations"],
        converged=doc["converged"],
        tail_amplitude=_load_cell("tail_amplitude", doc["tail_amplitude"]),
    )


def load_table(path: str) -> SweepTable:
    """Read a sweep table back from CSV or JSON."""
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise OSError(f"cannot read from {path!r}: {exc}") from exc
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        if doc.get("kind") != "sweep_table":
            raise ValueError(f"{path!r} does not contain a sweep table")
        parsed = doc["rows"]
    else:
        lines = [ln for ln in text.splitlines() if ln]
        header = lines[0].split(",")
        if tuple(header) != SweepTable.COLUMNS:
            raise ValueError(f"{path!r} has unexpected CSV header {header}")
        parsed = []
        for ln in lines[1:]:
            cells = ln.split(",")
            if len(cells) != len(header):
                raise ValueError(f"{path!r} has a CSV row of {len(cells)} cells, "
                                 f"expected {len(header)}")
            parsed.append({col: _CSV_LITERALS.get(cell, cell)
                           for col, cell in zip(header, cells)})
    return SweepTable(rows=[
        SweepRow(**{col: _load_cell(col, row[col]) for col in SweepTable.COLUMNS})
        for row in parsed])


_CSV_LITERALS = {"null": None, "true": True, "false": False}


def _load_cell(col: str, value):
    """A parsed JSON or CSV value under its field's policy: nu and h are never
    null, a null metric loads as NaN, and converged is a boolean."""
    is_flag = col == "converged"
    if is_flag != isinstance(value, bool) or (value is None and col in ("nu", "h")):
        raise ValueError(f"{col} cannot hold {value!r}")
    if is_flag:
        return value
    return math.nan if value is None else float(value)
