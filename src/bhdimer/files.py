"""Series and summary files: the CSV/JSON format, its writer and its reader.

Output is deterministic: rerunning a scenario reproduces the files byte for
byte. CSV carries the series only (12 significant digits, LF endings) with
the spec and summary in a ".summary.json" sidecar; JSON files bundle spec,
summary and series, the series as one list per column. Every file is exactly
what `f"{v:.11e}"` rows and `json.dumps(..., indent=2)` would give, but the
long lists (CSV rows, the JSON series columns and the envelope's "t" and
"amplitude") are streamed from their columns ROW_CHUNK rows at a time. A
CSV chunk is rendered in numpy by _Scientific, which leaves a 0 byte for
each absent character (_squeeze drops them) and the few values it cannot
settle exactly to Python's own formatting, which _python alone does. A JSON
list chunk is written by orjson, imported and checked on the first list
written, in the digits of repr(float(v)); _repr_notation puts the few
numbers whose notation differs into repr's, and indent=2's separator joins
the items. Threads share both writers. A series or envelope value that is
not finite is refused before any file is opened.
The reader streams too, READ_CHUNK bytes of text at a time, and decodes each
JSON column after the first straight into an array of the first's length.
orjson, imported on the first JSON read, decodes a column a piece at a time
from its bytes; a piece it refuses or could read otherwise than json (the
token -0) goes to json, which thus names each refusal. One scan of a piece's
bytes for the letters of true, false and null, not a pass over its values,
tells that every value is a number.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from .observables import ObservableSeries

__all__ = [
    "CSV_HEADER", "FORMATS", "READ_CHUNK", "ROW_CHUNK", "NonFiniteOutputError", "read_series",
    "write_json", "write_output",
]

# The series formats write_output takes; read_series tells them apart by content.
FORMATS = ("csv", "json")

CSV_HEADER = ",".join(ObservableSeries.COLUMNS)

# Series rows per rendered chunk of the writer (a streamed 1-D list takes as
# many values as that many rows hold): bounds the text and the temporaries
# alive at once, whatever the number of steps.
ROW_CHUNK = 1024

# Bytes of file text the reader takes at a time: bounds the text alive at once.
READ_CHUNK = 1 << 16


class NonFiniteOutputError(ValueError):
    """A series or envelope value to write is not finite."""


# Rendered text stands a 0 byte for each absent character; _squeeze drops them.
_EXPONENTS = range(-324, 309)  # decimal exponents of the finite doubles
_SCALES = range(-300, 339)  # 11 minus an exponent, with up to 3 corrections


def _table(texts, dtype) -> np.ndarray:
    return np.frombuffer("".join(texts).encode(), dtype)


def _squeeze(text: np.ndarray) -> bytes:
    return text.tobytes().translate(None, b"\0")


def _python(values: np.ndarray, form, width: int) -> np.ndarray:
    """form(v) for each of `values` as a row of `width` bytes, padded with 0
    bytes: the one place a value is formatted in Python."""
    text = np.array([form(v) for v in values.tolist()], f"S{width}")
    return text.view(np.uint8).reshape(-1, width)


@functools.cache
def _four_digits() -> np.ndarray:
    """The ASCII digits of 0000 to 9999 as little-endian 4-byte words."""
    four = np.empty((10, 10, 10, 10, 4), np.uint8)
    for i in range(4):
        four[..., i] = np.arange(48, 58).reshape((10,) + (1,) * (3 - i))
    return four.view("<u4").ravel()


@functools.cache
def _powers(work) -> np.ndarray:
    """10**k correctly rounded in `work`, for k in _SCALES."""
    return np.array([f"1e{k}" for k in _SCALES]).astype(work)


def _scaled(v: np.ndarray, powers: np.ndarray, digits: int):
    """|v| * 10**k in the dtype of `powers` (0 is taken as 1), k corrected at
    most three times until the product's floor m has `digits` digits.

    Returns |v|, k, the product s, m, s - m (exact, then rounded to float64)
    and where k did not settle; a non-finite product never does.
    """
    a = np.abs(v)
    a[a == 0] = 1.0
    k = (digits - 1 - np.floor(np.log10(a))).astype(np.intp)
    w = a.astype(powers.dtype)
    s, m, redo = np.empty_like(w), np.empty(a.shape, np.int64), slice(None)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(4):
            s[redo] = w[redo] * powers[k[redo] - _SCALES.start]
            m[redo] = s[redo].astype(np.int64)  # floor(s) for a finite s
            off = (m < 10 ** (digits - 1)).astype(np.intp) - (m >= 10**digits)
            redo = np.flatnonzero(off)
            if not redo.size:
                break
            k[redo] += off[redo]
        frac = (s - m).astype(np.float64)
    return a, k, s, m, frac, off != 0


# One CSV value as 20 bytes: sign, "d.dd", 4 + 4 digits, the last digit and
# "e", the exponent's sign, hundreds, tens and ones, then "," or "\n". A 0
# byte stands for an absent sign or hundreds digit and is dropped.
_LAYOUT = np.dtype(
    [("sign", "u1"), ("lead", "<u4"), ("mid", "<u4"), ("low", "<u4"), ("last", "<u2"),
     ("exp", "<u4"), ("sep", "u1")]
)


class _Scientific:
    """Columns of doubles as CSV bytes: f"{v:.11e}" for each value, "," between
    the values of a row and "\n" after it.

    The mantissa is |v| * 10**k rounded to an integer, with 10**k correctly
    rounded in `work` and k corrected until the product lies in [1e11, 1e12),
    where it is off by at most 1e12 * eps of `work`. Python formats each value
    whose product lies within `band` (twice that) of a half-integer, or whose
    k does not settle within three corrections (a non-finite product never
    does), so the bytes are exact for any `work`.
    """

    def __init__(self, work=np.longdouble):
        self.powers = _powers(work)
        self.band = 2e12 * float(np.finfo(work).eps)
        self.lead = _table((f"{i // 100}.{i % 100:02d}" for i in range(1000)), "<u4")
        self.four = _four_digits()
        self.last = _table((f"{i}e" for i in range(10)), "<u2")
        self.exps = _table(
            ("-+"[e >= 0] + f"{abs(e):02d}".rjust(3, "\0") for e in _EXPONENTS), "<u4"
        )

    def __call__(self, *columns: np.ndarray) -> bytes:
        rows = np.column_stack(columns)  # one chunk's rows, never the series'
        v = rows.ravel()
        zero = v == 0  # scaled as 1.0, then given mantissa 0
        _, k, _, m, frac, slow = _scaled(v, self.powers, 12)
        slow |= abs(frac - 0.5) <= self.band
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
        text[slow, :-1] = _python(v[slow], "{:.11e}".format, _LAYOUT.itemsize - 1)
        return _squeeze(text)


# The CSV value renderer, its tables built on first use.
_csv_renderer = functools.cache(_Scientific)

_DIGIT = np.isin(np.arange(256), list(b"0123456789"))  # whether a byte is a digit


def _repr_notation(text: bytes) -> bytes:
    """orjson's list `text` with each number in repr's notation. orjson
    writes repr's shortest digits, in another notation in three cases: a
    decimal exponent of -5 ("0.0000123" for 1.23e-05), a one-digit negative
    exponent ("1e-7" for 1e-07) and a positive one ("1e16" for 1e+16). An
    exponent -5 number is found by its text, a "." after a lone "0" and
    before "0000": its "0.0000" becomes 0 bytes, dropped at the end, with
    a "." put back after its first digit (if it has more) and "e-05" after
    its last."""
    chars = np.frombuffer(text, np.uint8)
    e = np.flatnonzero(chars == ord("e"))
    minus = chars[e + 1] == ord("-")
    short, plus = minus & ~_DIGIT[np.take(chars, e + 3, mode="clip")], ~minus
    at, put = [e[short] + 2, e[plus] + 1], [b"0" * short.sum(), b"+" * plus.sum()]
    dots = np.flatnonzero(chars == ord("."))
    dots = dots[np.take(chars, dots + 4, mode="clip") == ord("0")]  # a first cut
    # From the byte before the "0" to the byte after 17 digits.
    window = np.take(chars, dots[:, None] + np.arange(-2, 23), mode="clip")
    five = ~_DIGIT[window[:, 0]] & (window[:, 1:7] == np.frombuffer(b"0.0000", np.uint8)).all(1)
    dots = dots[five]
    if dots.size:
        digits = np.argmin(_DIGIT[window[five, 7:]], axis=1)
        chars = chars.copy()
        chars[dots[:, None] + np.arange(-1, 5)] = 0
        at += [dots[digits > 1] + 6, np.repeat(dots + 5 + digits, 4)]
        put += [b"." * (digits > 1).sum(), b"e-05" * dots.size]
    text = np.insert(chars, np.concatenate(at), np.frombuffer(b"".join(put), np.uint8)).tobytes()
    return text.replace(b"\0", b"") if dots.size else text


def _render_list(dumps, separator: bytes, values: np.ndarray) -> bytes:
    """`values` as list items, each led by `separator`: repr's text of each,
    from dumps, orjson's dumps of a float64 array. Only a value with a
    decimal exponent from -9 to -5 or above 15 needs _repr_notation."""
    values = np.ascontiguousarray(values, np.float64)
    text = dumps(values)
    magnitude = np.abs(values)
    if ((magnitude >= 1e-9) & (magnitude < 1e-4) | (magnitude >= 1e16)).any():
        text = _repr_notation(text)
    return separator + text[1:-1].replace(b",", separator) if values.size else b""


# A value per case of notation: zeros, fixed (exponents -4 to 15), each one
# _repr_notation rewrites, first, inside and last, and scientific beyond.
_CANARY = np.array([
    -1.5e-05, 0.0, -0.0, 1.0, 0.0001, 1.2345e-4, 123456789012345.6, 1e15, 2.0**53, 1e-05,
    -9.999999999999999e-05, 1e-06, -2.5e-07, 1.2345678901234567e-09, 1e-10, 5e-324,
    2.2250738585072014e-308, 1e16, -1.2345678901234568e16, 1.7976931348623157e308, 3e-07,
])


@functools.cache
def _list_writer():
    """orjson's dumps of a float64 array, imported on the first list written
    and checked then: _render_list must give repr's text of _CANARY."""
    import orjson  # here, so that a run that writes no list never loads it

    dumps = functools.partial(orjson.dumps, option=orjson.OPT_SERIALIZE_NUMPY)
    if _render_list(dumps, b",", _CANARY) != "".join(f",{v!r}" for v in _CANARY.tolist()).encode():
        raise RuntimeError(
            f"orjson {orjson.__version__} writes numbers in a notation that "
            "files._repr_notation does not turn into repr's"
        )
    return dumps


def _json_parts(payload: dict, lists: dict) -> list:
    """json.dumps(payload, indent=2) + "\n" as writer parts: `lists` maps each
    placeholder string in the payload, in text order, to the values of the
    non-empty list it stands for, streamed as a ((values,), render, 1) part:
    each item led by indent=2's "," and line break, the first "," skipped."""
    text = json.dumps(payload, indent=2) + "\n"
    parts = []
    for name, values in lists.items():
        head, text = text.split(json.dumps(name), 1)
        line = head[head.rfind("\n") + 1 :]
        indent = len(line) - len(line.lstrip(" "))
        separator = f",\n{' ' * (indent + 2)}".encode()
        render = functools.partial(_render_list, _list_writer(), separator)
        parts += [head + "[", ((values,), render, 1), "\n" + " " * indent + "]"]
    parts.append(text)
    return parts


def _write_parts(path: Path, parts) -> None:
    """Write text parts and streamed (columns, render, skip) parts in order,
    the latter as render(*slices) per ROW_CHUNK series rows' worth of values
    (7 * ROW_CHUNK of one column), less its first `skip` bytes."""
    with open(path, "wb") as f:
        for part in parts:
            if isinstance(part, str):
                f.write(part.encode())
                continue
            columns, render, skip = part
            step = ROW_CHUNK * len(ObservableSeries.COLUMNS) // len(columns)
            for start in range(0, len(columns[0]), step):
                text = render(*(column[start : start + step] for column in columns))
                f.write(text[skip:] if start == 0 else text)


def _stand_in(member: str, columns: dict, lists: dict) -> dict:
    """Placeholders for the columns of `member`, each filed in `lists`."""
    names = {name: f"@{member}.{name}@" for name in columns}
    lists.update(zip(names.values(), columns.values()))
    return names


def write_json(path: Path, payload: dict) -> None:
    """Write json.dumps(payload, indent=2) and a newline, LF endings."""
    _write_parts(path, _json_parts(payload, {}))


def write_output(
    out: Path, fmt: str, spec: dict, series: ObservableSeries, summary: dict, envelope
) -> None:
    """Write one run as a CSV series plus a ".summary.json" sidecar, or as one
    JSON file; `envelope`, the (points, 2) collapse/revival envelope or None,
    becomes the last member of summary["collapse_revival"] as the columns
    "t" and "amplitude". A non-finite value is a ValueError before anything
    is made, and so is a list writer that fails its check."""
    columns = {name: getattr(series, name) for name in ObservableSeries.COLUMNS}
    lists = {}
    if envelope is not None:
        envelope = {"t": envelope[:, 0], "amplitude": envelope[:, 1]}
        cr = dict(summary["collapse_revival"], envelope=_stand_in("envelope", envelope, lists))
        summary = dict(summary, collapse_revival=cr)
    if not all(np.isfinite(a).all() for a in (*columns.values(), *lists.values())):
        raise NonFiniteOutputError(f"{out}: the series or the envelope holds a non-finite value")
    payload = {"spec": spec, "summary": summary}
    if fmt == "json":
        payload["series"] = _stand_in("series", columns, lists)
    parts = _json_parts(payload, lists)  # checks the list writer on first use
    out.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        _write_parts(out, [CSV_HEADER + "\n", (list(columns.values()), _csv_renderer(), 0)])
        out = out.with_name(out.stem + ".summary.json")
    _write_parts(out, parts)


def read_series(path) -> ObservableSeries:
    """Read back a series file written by this module (CSV or JSON).

    A CSV file must hold the header and at least one row of 7 finite values
    per line. A JSON file must have the indent=2 layout the writer produces,
    with "series" as its last top-level member: one non-empty list of finite
    numbers per column, ObservableSeries.COLUMNS in order, of equal length.
    Only that member is decoded, not the spec and summary before it. Any
    other layout (the pre-columnar list of rows too) is a ValueError.

    The file is read READ_CHUNK bytes at a time and a JSON column decoded a
    piece at a time, each column after the first straight into an array of
    the first's length, so beside the columns returned a read holds a few
    READ_CHUNK of text and one piece's values, no more.
    """
    with open(path, "rb") as f:
        head = bytearray(f.read(len(CSV_HEADER) + 1))
        if head.lstrip().startswith(b"{"):
            return _read_json_series(path, f, head)
        if head != (CSV_HEADER + "\n").encode():
            raise ValueError(f"{path} does not carry the expected CSV header")
        width = len(ObservableSeries.COLUMNS)
        refusal = f"{path}: the CSV body does not hold rows of {width} finite values"
        # Given at least as many rows as the body holds, loadtxt allocates
        # them once instead of growing its array a quarter at a time. A body
        # of white space only is refused here, before loadtxt warns of it.
        lines, blank = 0, True
        for chunk in iter(lambda: f.read(READ_CHUNK), b""):
            lines += chunk.count(b"\n")
            blank = blank and chunk.isspace()
        if blank:
            raise ValueError(refusal)
        f.seek(len(head))
        try:
            data = np.loadtxt(f, delimiter=",", ndmin=2, max_rows=lines + 1)
        except ValueError as exc:  # a value that is no number, a row of another width
            raise ValueError(refusal) from exc
    # min and max reduce without a temporary the size of the body; NaN propagates.
    if data.shape[1] != width or not np.isfinite([data.min(), data.max()]).all():
        raise ValueError(refusal)
    return ObservableSeries(*data.T)


# In an indent=2 file only a top-level key follows a raw newline and exactly
# two spaces, and no JSON string holds a raw newline: the first such "series"
# key met is the member the writer puts last.
_SERIES_MEMBER = b'\n  "series": '
_SERIES_END = b"\n  }\n}\n"


def _fill(f, buf: bytearray, size: int) -> bool:
    """Read chunks of `f` onto `buf` until it holds `size` bytes; False if
    the file ends first."""
    while len(buf) < size and (chunk := f.read(READ_CHUNK)):
        buf += chunk
    return len(buf) >= size


def _read_json_series(path, f, buf: bytearray) -> ObservableSeries:
    while (at := buf.find(_SERIES_MEMBER)) < 0:
        del buf[: len(buf) - len(_SERIES_MEMBER) + 1]
        if not _fill(f, buf, len(buf) + 1):
            raise ValueError(f"{path} has no top-level series in the indent=2 layout")
    del buf[: at + len(_SERIES_MEMBER)]
    if _fill(f, buf, 1) and buf[0] == ord("["):
        raise ValueError(f"{path} is in the pre-columnar row layout: its series is a list of rows")
    columns = {}
    for i, name in enumerate(ObservableSeries.COLUMNS):
        key = (("," if i else "{") + f'\n    "{name}": ').encode()
        _fill(f, buf, len(key) + 1)  # and the head of the column
        if not buf.startswith(key):
            raise ValueError(f"{path}: the series does not hold column {name} where written")
        del buf[: len(key)]
        out = np.empty(columns["t"].size) if columns else None
        columns[name] = _read_column(f"{path}: series column {name}", f, buf, out)
        if columns[name] is None:
            raise ValueError(f"{path}: the series columns differ in length")
    _fill(f, buf, len(_SERIES_END) + 1)
    if buf != _SERIES_END:
        raise ValueError(f"{path}: the series has more than its columns or is not the last member")
    return ObservableSeries(**columns)


def _read_column(column: str, f, buf: bytearray, out: np.ndarray | None):
    """Decode the list at the head of `buf`, reading on from `f`, into `out`
    if given, else into one array joined from its pieces; leave in `buf` what
    follows the list. None if the list is not `out`'s length, as soon as a
    piece runs past it.

    A piece runs from the "[" to the "]", or to the last "," buffered before
    any string, list or object (which alone could hold a ","; one is refused
    where it starts). The first piece's text is decoded as "[" + text + "]",
    a later one's as "[0," + text + "]", its 0 dropped, so a blank one fails.

    orjson decodes each piece's bytes. A piece it refuses (NaN, Infinity, a
    number beyond the doubles, bad UTF-8, any syntax error) goes to json, as
    does one where its values could differ from json's with parse_int=float:
    orjson reads the token -0 as the integer 0, so a piece holding a zero is
    scanned for that token (_minus_zero). json thus gives every refusal its
    message and byte offset, and every value read is float(token).

    A decoded piece is checked by one scan of its own bytes, not of each
    value: with strings, lists and objects refused, both decoders can return
    only numbers (json's NaN and Infinity too), True, False and None, and
    true, false and null are the only tokens with a "u" or an "l" (a number
    is digits and "+-.eE"). So a piece with neither letter is all numbers.
    """
    import orjson  # here, so that a run that reads no JSON never loads it

    if not buf.startswith(b"["):
        raise ValueError(f"{column} is not a list of numbers")
    pieces, head, skip, size = [], b"[", 0, 0
    del buf[:1]
    while True:
        stop = min((i for c in b'"[]{' if (i := buf.find(c)) >= 0), default=len(buf))
        last = stop < len(buf) and buf[stop] == ord("]")
        cut = stop if last else buf.rfind(b",", 0, stop)
        if cut < 0 and stop < len(buf):
            raise ValueError(f"{column} is not a list of numbers")
        if cut < 0 and _fill(f, buf, len(buf) + 1):
            continue
        # A blank first piece keeps its "," to fail as the whole list would; a
        # list the file ends inside is left open, which fails to decode too.
        end = cut + (not last and skip == 0 and not buf[:cut].strip())
        text = head + buf[:end] + b"]" if cut >= 0 else head + buf
        try:
            piece = np.array(orjson.loads(text), np.float64)[skip:]
        except orjson.JSONDecodeError:
            piece = None
        if piece is None or (piece == 0).any() and _minus_zero(text):
            piece = _json_decode(column, text, f.tell() - len(buf) - len(head))[skip:]
        if not piece.size or buf.find(b"u", 0, end) >= 0 or buf.find(b"l", 0, end) >= 0:
            raise ValueError(f"{column} is not a list of numbers")
        if not np.isfinite(piece).all():
            raise ValueError(f"{column} holds a non-finite value")
        if out is None:
            pieces.append(piece)
        elif size + piece.size > out.size:
            return None
        else:
            out[size : size + piece.size] = piece
        size += piece.size
        del buf[: cut + 1]
        if last:
            break
        head, skip = b"[0,", 1
    if out is None:
        return np.concatenate(pieces)
    return out if size == out.size else None


# The bytes that may follow a number in a list: "," "]" and JSON's white space.
_AFTER_NUMBER = np.zeros(256, bool)
_AFTER_NUMBER[list(b",] \t\n\r")] = True


def _minus_zero(text: bytes) -> bool:
    """Whether the valid JSON `text` may hold the token -0: a "-0" followed
    by a byte that ends a number (an exponent's "-0" too, as in 1e-0)."""
    chars = np.frombuffer(text, np.uint8)
    signs = np.flatnonzero(chars == ord("-"))  # never among the last two bytes
    zeros = signs[chars[signs + 1] == ord("0")]
    return bool(_AFTER_NUMBER[chars[zeros + 2]].any())


def _json_decode(column: str, text: bytes, start: int) -> np.ndarray:
    """json's decode of the list `text`, integers as floats, whose byte i is
    byte start + i of the file; a refusal names the file's byte."""
    try:
        return np.array(json.JSONDecoder(parse_int=float).decode(str(text, "utf-8")), np.float64)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{column} is not valid UTF-8 at byte {start + exc.start}") from exc
    except json.JSONDecodeError as exc:
        at = start + exc.pos
        raise ValueError(f"{column} is not valid JSON: {exc.msg} at byte {at}") from exc
