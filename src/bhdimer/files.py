"""Series and summary files: the CSV/JSON format, its writer and its reader.

Output is deterministic: rerunning a scenario reproduces the files byte for
byte. CSV carries the series only (12 significant digits, LF endings) with
the spec and summary in a ".summary.json" sidecar; JSON files bundle spec,
summary and series together. Every file is exactly what `f"{v:.11e}"` rows
and `json.dumps(..., indent=2)` would give, but the long lists (series rows
and the collapse/revival envelope) are streamed to the file ROW_CHUNK rows
at a time through one C-level %-format of a repeated row template: "%.11e"
is the routine behind f"{v:.11e}", and "%r" of a finite float is what json
writes for it. A series or envelope value that is not finite is refused
before any file is opened.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

from .observables import ObservableSeries

__all__ = ["CSV_HEADER", "ROW_CHUNK", "read_series", "write_json", "write_output"]

CSV_HEADER = ",".join(ObservableSeries.COLUMNS)
CSV_ROW = ",".join(["%.11e"] * len(ObservableSeries.COLUMNS)) + "\n"

# Rows per %-format call of the writer: bounds the text and the float
# objects alive at once, whatever the number of steps.
ROW_CHUNK = 1024

# Stand-ins for the streamed lists in the json.dumps text, with the
# brackets and fields of one list item.
_SERIES = "@series@"
_ENVELOPE = "@envelope@"
_ITEMS = {
    _SERIES: ("{}", [f"{json.dumps(name)}: %r" for name in ObservableSeries.COLUMNS]),
    _ENVELOPE: ("[]", ["%r", "%r"]),
}


def _write_rows(f, rows: np.ndarray, template: str, skip: int) -> None:
    """Write template % row for every row of `rows`, ROW_CHUNK rows per
    %-format call, leaving out the first `skip` characters."""
    for start in range(0, rows.shape[0], ROW_CHUNK):
        chunk = rows[start : start + ROW_CHUNK]
        text = (template * chunk.shape[0]) % tuple(chunk.ravel().tolist())
        f.write(text[skip:] if start == 0 else text)


def _json_parts(payload: dict, lists: dict) -> list:
    """json.dumps(payload, indent=2) + "\n" as writer parts.

    `lists` maps each placeholder string in the payload, in text order, to
    the rows of the non-empty list it stands for. Each list becomes a
    (rows, template, skip) part whose template copies indent=2's layout of
    one item at the placeholder's depth, led by its "," separator (skipped
    for the first item).
    """
    text = json.dumps(payload, indent=2) + "\n"
    parts = []
    for name in lists:
        head, text = text.split(json.dumps(name), 1)
        line = head[head.rfind("\n") + 1 :]
        indent = len(line) - len(line.lstrip(" "))
        (open_, close), fields = _ITEMS[name]
        item = "\n" + " " * (indent + 2)
        field = "\n" + " " * (indent + 4)
        template = "," + item + open_ + ",".join(field + f for f in fields) + item + close
        parts += [head + "[", (lists[name], template, 1), "\n" + " " * indent + "]"]
    parts.append(text)
    return parts


def _write_parts(path: Path, parts) -> None:
    """Write text parts and streamed (rows, template, skip) parts in order."""
    with open(path, "w", newline="\n") as f:
        for part in parts:
            if isinstance(part, str):
                f.write(part)
            else:
                _write_rows(f, *part)


def write_json(path: Path, payload: dict) -> None:
    """Write json.dumps(payload, indent=2) and a newline, LF endings."""
    _write_parts(path, _json_parts(payload, {}))


def write_output(
    out: Path, fmt: str, spec: dict, series: ObservableSeries, summary: dict, envelope
) -> None:
    """Write one run as a CSV series plus a ".summary.json" sidecar, or as one
    JSON file; `envelope`, the (points, 2) collapse/revival envelope or None,
    becomes the last member of summary["collapse_revival"]. A non-finite
    value is a ValueError before anything is made."""
    rows = np.column_stack([getattr(series, name) for name in ObservableSeries.COLUMNS])
    lists = {}
    if envelope is not None:
        lists[_ENVELOPE] = envelope
        cr = dict(summary["collapse_revival"], envelope=_ENVELOPE)
        summary = dict(summary, collapse_revival=cr)
    if not all(np.isfinite(a).all() for a in (rows, *lists.values())):
        raise ValueError(f"{out}: the series or the envelope holds a non-finite value")
    payload = {"spec": spec, "summary": summary}
    out.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        _write_parts(out, [CSV_HEADER + "\n", (rows, CSV_ROW, 0)])
        out = out.with_name(out.stem + ".summary.json")
    else:
        payload["series"] = _SERIES
        lists[_SERIES] = rows
    _write_parts(out, _json_parts(payload, lists))


def read_series(path) -> ObservableSeries:
    """Read back a series file written by this module (CSV or JSON).

    A CSV file must hold the header and at least one row of 7 values per
    line. A JSON file must have the indent=2 layout the writer produces, with
    "series" as its last top-level member: only that list is decoded, not
    the spec and summary before it. Any other layout is a ValueError.
    """
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return _read_json_series(path, text)
    header, _, body = text.partition("\n")
    if header != CSV_HEADER:
        raise ValueError(f"{path} does not carry the expected CSV header")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if data.shape[1] != 7:
        raise ValueError(f"{path}: the CSV body does not hold rows of 7 values")
    return ObservableSeries(*data.T)


# In an indent=2 file only a top-level key follows a raw newline and exactly
# two spaces, and no JSON string holds a raw newline.
_SERIES_MEMBER = '\n  "series": '


def _read_json_series(path, text: str) -> ObservableSeries:
    start = text.rfind(_SERIES_MEMBER)
    if start < 0:
        raise ValueError(f"{path} has no top-level series in the indent=2 layout")
    try:
        rows, end = json.JSONDecoder().raw_decode(text, start + len(_SERIES_MEMBER))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: the series is not valid JSON: {exc}") from exc
    if text[end:] != "\n}\n":
        raise ValueError(f"{path}: the series is not the last member of the file")
    try:
        cols = {
            name: np.array([row[name] for row in rows], dtype=np.float64)
            for name in ObservableSeries.COLUMNS
        }
    except (KeyError, TypeError) as exc:
        raise ValueError(
            f"{path}: a series row is not an object holding every column ({exc!r})"
        ) from exc
    return ObservableSeries(**cols)
