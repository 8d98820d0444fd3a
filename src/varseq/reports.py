"""Deterministic rendering and atomic writing of result records.

JSON is emitted with sorted keys and floats at 17 significant digits so that
identical runs produce byte-identical files; json.dumps has no float-format
hook, hence the hand-rolled walker.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from typing import Any

import numpy as np

from .lattice import ZInterval

__all__ = ["render_json", "render_csv", "write_text"]


def _render_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float in report")
    return format(x, ".17g")


def _render(obj: Any, indent: int, out: list[str]) -> None:
    """Append obj as JSON: an interval is [lo, hi], a record its public
    fields, numpy data plain Python values, a tuple a list."""
    if isinstance(obj, ZInterval):
        obj = [obj.lo, obj.hi]
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = dataclasses.fields(obj)
        obj = {f.name: getattr(obj, f.name) for f in fields if not f.name.startswith("_")}
    elif isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, float):
        out.append(_render_float(obj))
        return
    if obj is None or isinstance(obj, (bool, int, str)):
        out.append(json.dumps(obj))
        return
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("report keys must be strings")
        brackets, items = "{}", [(json.dumps(k) + ": ", obj[k]) for k in sorted(obj)]
    elif isinstance(obj, (list, tuple)):
        brackets, items = "[]", [("", v) for v in obj]
    else:
        raise TypeError(f"cannot render {type(obj).__name__}")
    if not items:
        out.append(brackets)
        return
    pad = "  " * indent
    out.append(brackets[0] + "\n")
    for i, (head, v) in enumerate(items):
        out.append(pad + "  " + head)
        _render(v, indent + 1, out)
        out.append(",\n" if i < len(items) - 1 else "\n")
    out.append(pad + brackets[1])


def render_json(obj: Any) -> str:
    """Canonical JSON text: sorted keys, 17-significant-digit floats."""
    out: list[str] = []
    _render(obj, 0, out)
    out.append("\n")
    return "".join(out)


def render_csv(header: list[str], rows: list[list[Any]]) -> str:
    """Small deterministic CSV: floats at 17 significant digits, no quoting."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(_render_float(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_text(path: str | None, text: str) -> None:
    """Write atomically via a sibling temp file; None writes to stdout."""
    if path is None:
        print(text, end="")
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".varseq-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
