"""Series and summary files: the CSV/JSON format, its writer and its reader.

Output is deterministic: rerunning a scenario reproduces the files byte for
byte. CSV carries the series only (12 significant digits, LF endings) with
the spec and summary in a ".summary.json" sidecar; JSON files bundle spec,
summary and series together. Every file is exactly what `f"{v:.11e}"` rows
and `json.dumps(..., indent=2)` would give, but the long lists (series rows
and the collapse/revival envelope) are streamed to the file ROW_CHUNK rows
at a time. A CSV chunk is rendered in numpy (see _Scientific), a JSON chunk
by one C-level %-format of a repeated item template: "%r" of a finite float
is what json writes for it. A series or envelope value that is not finite
is refused before any file is opened.
"""

from __future__ import annotations

import functools
import io
import json
import threading
from pathlib import Path

import numpy as np

from .observables import ObservableSeries

__all__ = ["CSV_HEADER", "ROW_CHUNK", "read_series", "write_json", "write_output"]

CSV_HEADER = ",".join(ObservableSeries.COLUMNS)

# Rows per rendered chunk of the writer: bounds the text and the
# temporaries alive at once, whatever the number of steps.
ROW_CHUNK = 1024

# Stand-ins for the streamed lists in the json.dumps text, with the
# brackets and fields of one list item.
_SERIES = "@series@"
_ENVELOPE = "@envelope@"
_ITEMS = {
    _SERIES: ("{}", [f"{json.dumps(name)}: %r" for name in ObservableSeries.COLUMNS]),
    _ENVELOPE: ("[]", ["%r", "%r"]),
}


# One CSV value as 20 bytes: sign, "d.dd", 4 + 4 digits, the last digit and
# "e", the exponent's sign, hundreds, tens and ones, then "," or "\n". A 0
# byte stands for an absent sign or hundreds digit and is dropped.
_LAYOUT = np.dtype(
    [("sign", "u1"), ("lead", "<u4"), ("mid", "<u4"), ("low", "<u4"), ("last", "<u2"),
     ("exp", "<u4"), ("sep", "u1")]
)
_EXPONENTS = range(-324, 309)  # of f"{v:.11e}" for a finite double v
_SCALES = range(-300, 341)  # 11 - exponent, with up to 3 corrections


def _table(texts, dtype) -> np.ndarray:
    return np.frombuffer("".join(texts).encode(), dtype)


class _Scientific:
    """Rows of doubles as CSV bytes: f"{v:.11e}" for each value, "," between
    the values of a row and "\n" after it.

    The mantissa is |v| * 10**k rounded to an integer, with 10**k correctly
    rounded in `work` and k corrected until the product lies in [1e11, 1e12),
    where it is off by at most 1e12 * eps of `work`. Python formats each value
    whose product lies within `band` (twice that) of a half-integer, or whose
    k does not settle within three corrections (a non-finite product never
    does), so the bytes are exact for any `work`. `fallbacks` counts them.
    """

    def __init__(self, work=np.longdouble):
        self.work = work
        self.powers = np.array([f"1e{k}" for k in _SCALES]).astype(work)
        self.band = 2e12 * float(np.finfo(work).eps)
        self.lead = _table((f"{i // 100}.{i % 100:02d}" for i in range(1000)), "<u4")
        self.four = _table((f"{i:04d}" for i in range(10000)), "<u4")
        self.last = _table((f"{i}e" for i in range(10)), "<u2")
        self.exps = _table(
            ("-+"[e >= 0] + f"{abs(e):02d}".rjust(3, "\0") for e in _EXPONENTS), "<u4"
        )
        self.fallbacks = 0
        self._lock = threading.Lock()

    def __call__(self, rows: np.ndarray) -> bytes:
        v = rows.ravel()
        zero = v == 0  # scaled as 1.0, then given mantissa 0
        a = np.where(zero, 1.0, np.abs(v))
        k = (11 - np.floor(np.log10(a))).astype(np.intp)
        a = a.astype(self.work)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(4):
                s = a * self.powers[k - _SCALES.start]
                m = s.astype(np.int64)  # floor(s) for a finite s
                off = (m < 10**11).astype(np.intp) - (m >= 10**12)
                if not off.any():
                    break
                k += off
            frac = (s - m).astype(np.float64)  # s - m is exact in `work`
        slow = (off != 0) | (abs(frac - 0.5) <= self.band)
        m += frac > 0.5
        m[slow | zero], k[slow] = 0, 11
        carry = m == 10**12  # rounded up to the next power of ten
        m[carry] = 10**11
        k -= carry
        out = np.empty(v.size, _LAYOUT)
        out["sign"] = np.signbit(v) * ord("-")
        q = m // 10
        out["last"] = self.last[m - 10 * q]
        m = q // 10000
        out["low"] = self.four[q - 10000 * m]
        q = m // 10000
        out["mid"] = self.four[m - 10000 * q]
        out["lead"] = self.lead[q]
        out["exp"] = self.exps[11 - k - _EXPONENTS.start]
        sep = out["sep"].reshape(rows.shape)
        sep[:, :-1], sep[:, -1] = ord(","), ord("\n")
        text = out.view(np.uint8).reshape(v.size, _LAYOUT.itemsize)
        slow = np.flatnonzero(slow)
        if slow.size:
            with self._lock:
                self.fallbacks += slow.size
            for i in slow:
                text[i, :-1] = np.frombuffer(f"{v[i]:.11e}".encode().ljust(19, b"\0"), np.uint8)
        return text[text != 0].tobytes()


@functools.cache
def _csv_renderer() -> _Scientific:
    """The long-double renderer, its tables built on first use."""
    return _Scientific()


def _percent(template: str, chunk: np.ndarray) -> bytes:
    return ((template * chunk.shape[0]) % tuple(chunk.ravel().tolist())).encode()


def _write_rows(f, rows: np.ndarray, render, skip: int) -> None:
    """Write render(chunk) for every ROW_CHUNK rows of `rows`, leaving out
    the first `skip` bytes."""
    for start in range(0, rows.shape[0], ROW_CHUNK):
        text = render(rows[start : start + ROW_CHUNK])
        f.write(text[skip:] if start == 0 else text)


def _json_parts(payload: dict, lists: dict) -> list:
    """json.dumps(payload, indent=2) + "\n" as writer parts.

    `lists` maps each placeholder string in the payload, in text order, to
    the rows of the non-empty list it stands for. Each list becomes a
    (rows, render, skip) part whose %-format template copies indent=2's
    layout of one item at the placeholder's depth, led by its ","
    separator (skipped for the first item).
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
        render = functools.partial(_percent, template)
        parts += [head + "[", (lists[name], render, 1), "\n" + " " * indent + "]"]
    parts.append(text)
    return parts


def _write_parts(path: Path, parts) -> None:
    """Write text parts and streamed (rows, render, skip) parts in order."""
    with open(path, "wb") as f:
        for part in parts:
            if isinstance(part, str):
                f.write(part.encode())
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
        _write_parts(out, [CSV_HEADER + "\n", (rows, _csv_renderer(), 0)])
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
