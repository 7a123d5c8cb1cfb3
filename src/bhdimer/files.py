"""Series and summary files: the CSV/JSON format, its writer and its reader.

Output is deterministic: rerunning a scenario reproduces the files byte for
byte. CSV carries the series only (12 significant digits, LF endings) with
the spec and summary in a ".summary.json" sidecar; JSON files bundle spec,
summary and series, the series as one list per column. Every file is exactly
what `f"{v:.11e}"` rows and `json.dumps(..., indent=2)` would give, but the
long lists (CSV rows, the JSON series columns and the envelope's "t" and
"amplitude") are streamed from their columns ROW_CHUNK rows at a time, each
chunk stacked (CSV) and rendered in numpy: a CSV value by _Scientific, a
JSON value by _Shortest as the bytes of repr(float(v)), which json writes. A
value fills a fixed-size slot, with a 0 byte for each absent character, and
_squeeze deletes the 0 bytes of the chunk; a JSON slot has the exponent's
word only in a chunk that has a value in scientific notation. Each renderer
hands the few values it cannot settle exactly to Python's own formatting,
which _python alone does; the renderers hold only tables, so threads share
them. A series or envelope value that is not finite is refused before any
file is opened. The reader streams too, READ_CHUNK bytes of text at a time,
and decodes each JSON column after the first straight into an array of the
first's length; json decodes a column a piece at a time, and one scan of a
piece's bytes for the letters of true, false and null, not a pass over its
values, tells that every value is a number.
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
_SCALES = range(-300, 344)  # 16 or 11 minus an exponent, with up to 3 corrections
_POW10 = 10 ** np.arange(18, dtype=np.int64)


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


# One JSON value as _WORDS little-endian 8-byte words: the head (sign, "0."
# and zeros for a fixed-notation exponent below 0, first digit) and the other
# 16 digits in 4 groups, one of which may hold the point; then, only in a
# chunk that has a value in scientific notation, the exponent. repr's longest
# text, 24 bytes, fits the _WORDS words.
_WORDS = 5
_POW5 = 5 ** np.arange(28, dtype=np.int64)  # the powers of five below 2**63


@functools.cache
def _group_words() -> np.ndarray:
    """The words of 0000 to 9999 in 11 forms of 10000 words: as they are (0),
    without trailing zeros (1), with a point before digit q (2 + q), the same
    without the trailing zeros after the point but one (6 + q), and with a
    point in front, no trailing zeros and no bare point (10, scientific)."""
    i = np.arange(10000)
    plain = _four_digits().astype(np.uint64)
    last = 3 - (i % 10 == 0) - (i % 100 == 0) - (i % 1000 == 0) - (i == 0)  # nonzero digit
    keep = np.array([0, 0xFF, 0xFFFF, 0xFFFFFF, 0xFFFFFFFF], np.uint64)  # first 0 to 4 bytes

    def point(w, q):
        low = np.uint64((1 << 8 * q) - 1)
        return (w & low) | (w & ~low) << np.uint64(8) | np.uint64(ord(".") << 8 * q)

    bare = plain & keep[last + 1]
    forms = [plain, bare] + [point(plain, q) for q in range(4)]
    forms += [point(plain & keep[np.maximum(last, q) + 1], q) for q in range(4)]
    return np.concatenate(forms + [np.where(i == 0, 0, point(bare, 0))])


class _Shortest:
    """Doubles as the bytes of repr(float(v)): the fewest digits that read
    back as v, in fixed notation for a decimal exponent from -4 to 15 and in
    scientific notation (at least two exponent digits) otherwise.

    |v| is scaled into [1e16, 1e17) as in _Scientific, and so is its rounding
    interval (half the gap to each neighbouring double). repr picks the
    multiple of the highest power of ten in that interval nearest to |v|.
    The scaled values are off by at most 1e17 * eps of `work`, plus float64
    rounding of the small offsets, so the multiples are sought in the
    interval widened by `band` (twice that), and Python formats each value
    whose result could move within `band`: a near-tie, a chosen multiple
    outside the interval narrowed by `band`, or a k that does not settle.
    A near-tie at 17 digits is instead settled exactly in integers where
    0 <= k < 28 and band < 1/3; only an exact tie goes on to Python. The
    bytes are thus exact for any `work`.
    """

    def __init__(self, work=np.longdouble):
        self.powers = _powers(work)
        self.band = 2e17 * float(np.finfo(work).eps)
        self.groups = _group_words()
        e = np.arange(_EXPONENTS.start, _EXPONENTS.stop)
        fixed = (e >= -4) & (e <= 15)
        heads = (
            (sign + ("0." + "0" * (z - 1) if z else "") + str(d)).ljust(8, "\0")
            for z in range(5) for sign in ("", "-") for d in range(10)
        )
        self.heads = _table(heads, "<u8").reshape(5, 20)[np.where(fixed, -e, 0).clip(0)].ravel()
        exps = ("" if f else f"e{x:+03d}" for x, f in zip(e.tolist(), fixed))
        self.exps = _table((x.ljust(8, "\0") for x in exps), "<u8")
        # The point stands before digit p: 0 (nowhere, the head holds "0."), 1
        # to 16 (fixed notation) or 17 (scientific: before digit 1, and gone
        # with a bare zero tail). Group g holds digits 4g + 1 to 4g + 4; its
        # form follows from p and from whether all digits after it are zero.
        self.points = 2 * np.where(fixed, np.maximum(e + 1, 0), 17)
        g, p, zeros_after = np.ogrid[:4, :18, :2]
        q = np.where(p == 17, 1, p) - 4 * g - 1  # the point's place in the group
        strip = zeros_after & (q < 4)
        form = np.where((p > 0) & (q >= 0) & (q < 4), 2 + q + 4 * strip, strip)
        self.forms = 10000 * np.where((p == 17) & (q == 0) & strip, 10, form).reshape(4, 36)

    def __call__(self, rows: np.ndarray, lead: np.ndarray = np.empty(0, "<u8")) -> np.ndarray:
        """A row of words per value of `rows`: the words of `lead`, the
        value's _WORDS words, and its exponent's if any value of `rows` is in
        scientific notation."""
        v = rows.ravel()
        zero = v == 0  # scaled as 1.0, then given the digits of 0
        a, k, s, m, frac, slow = _scaled(v, self.powers, 17)
        band = self.band
        with np.errstate(over="ignore", invalid="ignore"):
            half = 0.5 * s.astype(np.float64)
            bits = a.view(np.int64)
            # The ends of the rounding interval, less m.
            low = frac - (a - (bits - 1).view(np.float64)) / a * half
            high = frac + ((bits + 1).view(np.float64) - a) / a * half
            slow |= zero | ~np.isfinite(high)
            x = m + np.floor(low - band).astype(np.int64)
            y = m + np.floor(high + band).astype(np.int64)
        width = np.where(slow, 0, y - x)
        # j, the largest with a multiple of 10**j in (x, y]: the levels above
        # 2 are tested only where level 2 holds.
        j = (y - y // 10 * 10 < width).astype(np.intp)
        deep = np.flatnonzero(y - y // 100 * 100 < width)
        j[deep] = 2
        deep_y, deep_width = y[deep], width[deep]
        for p in _POW10[3:]:
            hit = deep_y - deep_y // p * p < deep_width
            if not hit.any():
                break
            j[deep] += hit
        step = _POW10[j]
        q = m // step
        twice = (2 * (m - q * step) - step).astype(np.float64) + 2 * frac  # 2 (s - midpoint)
        d = (q + (twice > 0)) * step  # the nearest multiple
        near = abs(twice) <= 2 * band
        # A near-tie at 17 digits (j = 0) with 0 <= k < 28 is settled exactly.
        # While band < 1/3 its exact |v| * 10**k lies within 1.5 band of
        # m + 1/2, so d is m or m + 1. With |v| = M * 2**E, that is X / 2**p
        # for X = M * 5**k (under 2**116) and p = -(E + k), from 1 to 62: d is
        # m + 1 where the low p bits of X exceed 2**(p - 1), which the int64
        # product keeps though it wraps. An exact tie is left to Python.
        tie = near & ~slow & (j == 0) & (k >= 0) & (k < _POW5.size)
        tie = np.flatnonzero(tie & (band < 1 / 3))
        p = 1075 - (bits[tie] >> 52) - k[tie]
        tail = (bits[tie] & (1 << 52) - 1 | 1 << 52) * _POW5[k[tie]] & (1 << p) - 1
        midway = 1 << p - 1
        d[tie], near[tie] = m[tie] + (tail > midway), tail == midway
        off = (d - m).astype(np.float64)
        slow |= near | (off - low <= band) | (high - off < band)
        carry = d == 10**17  # rounded up to the next power of ten
        d[carry] = 10**16
        e = 16 - k + carry - _EXPONENTS.start  # the row of the decimal exponent
        d[slow], e[slow] = 0, -_EXPONENTS.start
        first = d // 10**16
        rest = d - first * 10**16
        exps = self.exps[e]
        words = np.empty((v.size, lead.size + _WORDS + exps.any()), "<u8")
        words[:, : lead.size] = lead
        words[:, lead.size] = self.heads[20 * e + 10 * np.signbit(v) + first]
        words[:, lead.size + _WORDS :] = exps[:, None]  # no column if all are fixed
        point = self.points[e]
        zeros_after = np.ones(v.size, np.intp)
        for g in range(3, -1, -1):
            q = rest // 10000
            group = rest - 10000 * q
            words[:, lead.size + g + 1] = self.groups[self.forms[g][point + zeros_after] + group]
            zeros_after &= group == 0
            rest = q
        slow &= ~zero
        words[slow, lead.size : lead.size + _WORDS] = _python(v[slow], repr, 8 * _WORDS).view("<u8")
        return words


# The long-double CSV and JSON value renderers, their tables built on first use.
_csv_renderer = functools.cache(_Scientific)
_json_renderer = functools.cache(_Shortest)


def _render_list(separator: np.ndarray, values: np.ndarray) -> bytes:
    """`values` as list items, each led by the words of `separator`. Each run
    of equal values is rendered once, equal by their bits, so that 0.0 and
    -0.0 differ, and its words are copied to the rest of the run."""
    bits = values.view(np.int64)
    starts = np.concatenate(([True], bits[1:] != bits[:-1]))
    firsts = np.flatnonzero(starts)
    text = _json_renderer()(values[firsts], separator)
    if firsts.size < values.size:
        text = text[np.cumsum(starts) - 1]
    return _squeeze(text.view(np.uint8))


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
        separator += bytes(-len(separator) % 8)
        render = functools.partial(_render_list, np.frombuffer(separator, "<u8"))
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
    is made."""
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
    out.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        _write_parts(out, [CSV_HEADER + "\n", (list(columns.values()), _csv_renderer(), 0)])
        out = out.with_name(out.stem + ".summary.json")
    _write_parts(out, _json_parts(payload, lists))


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
        # Given at least as many rows as the body holds, loadtxt allocates
        # them once instead of growing its array a quarter at a time.
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: f.read(READ_CHUNK), b""))
        f.seek(len(head))
        width = len(ObservableSeries.COLUMNS)
        refusal = f"{path}: the CSV body does not hold rows of {width} finite values"
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
    decode = json.JSONDecoder(parse_int=float).decode
    columns = {}
    for i, name in enumerate(ObservableSeries.COLUMNS):
        key = (("," if i else "{") + f'\n    "{name}": ').encode()
        _fill(f, buf, len(key) + 1)  # and the head of the column
        if not buf.startswith(key):
            raise ValueError(f"{path}: the series does not hold column {name} where written")
        del buf[: len(key)]
        out = np.empty(columns["t"].size) if columns else None
        columns[name] = _read_column(f"{path}: series column {name}", f, buf, decode, out)
        if columns[name] is None:
            raise ValueError(f"{path}: the series columns differ in length")
    _fill(f, buf, len(_SERIES_END) + 1)
    if buf != _SERIES_END:
        raise ValueError(f"{path}: the series has more than its columns or is not the last member")
    return ObservableSeries(**columns)


def _read_column(column: str, f, buf: bytearray, decode, out: np.ndarray | None):
    """Decode the list at the head of `buf`, reading on from `f`, into `out`
    if given, else into one array joined from its pieces; leave in `buf` what
    follows the list. None if the list is not `out`'s length, as soon as a
    piece runs past it.

    A piece runs from the "[" to the "]", or to the last "," buffered before
    any string, list or object (which alone could hold a ","; one is refused
    where it starts). The first piece's text is decoded as "[" + text + "]",
    a later one's as "[0," + text + "]", its 0 dropped, so a blank one fails.

    A decoded piece is checked by one scan of its own bytes, not of each
    value: with strings, lists and objects refused and parse_int=float, json
    can return only floats (NaN and Infinity too), True, False and None, and
    true, false and null are the only tokens with a "u" or an "l" (a number
    is digits and "+-.eE"). So a piece with neither letter is all floats.
    """
    if not buf.startswith(b"["):
        raise ValueError(f"{column} is not a list of numbers")
    pieces, head, skip, size = [], "[", 0, 0
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
        try:
            piece = decode(head + str(buf[:end] + b"]" if cut >= 0 else buf, "utf-8"))[skip:]
        except UnicodeDecodeError as exc:
            at = f.tell() - len(buf) + exc.start
            raise ValueError(f"{column} is not valid UTF-8 at byte {at}") from exc
        except json.JSONDecodeError as exc:
            at = f.tell() - len(buf) + exc.pos - len(head)
            raise ValueError(f"{column} is not valid JSON: {exc.msg} at byte {at}") from exc
        if not piece or buf.find(b"u", 0, end) >= 0 or buf.find(b"l", 0, end) >= 0:
            raise ValueError(f"{column} is not a list of numbers")
        if not np.isfinite(piece := np.array(piece, np.float64)).all():
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
        head, skip = "[0,", 1
    if out is None:
        return np.concatenate(pieces)
    return out if size == out.size else None
