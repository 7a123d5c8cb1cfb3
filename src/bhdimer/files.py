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
CSV value fills a fixed-size slot with a 0 byte for each absent character,
a JSON value's text fills three 8-byte words from their first byte with 0
bytes after it, and _squeeze deletes the 0 bytes of the chunk. A JSON chunk
renders each of its distinct values once. Each renderer hands the few
values it cannot settle exactly to Python's own formatting, which _python
alone does; the renderers hold only tables, so threads share them. A series
or envelope value that is not finite is refused before any file is opened.
The reader streams too, READ_CHUNK bytes of text at a time, and decodes each
JSON column after the first straight into an array of the first's length;
json decodes a column a piece at a time, and one scan of a piece's bytes for
the letters of true, false and null, not a pass over its values, tells that
every value is a number.
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


# One JSON value as _WORDS little-endian 8-byte words that hold its text
# from the first byte on, 0 bytes after it: repr's longest text, 24 bytes
# ("-1.2345678901234567e-310"), fills them.
_WORDS = 3
_POW5 = 5 ** np.arange(28, dtype=np.int64)  # the powers of five below 2**63
_DIGITS = 17  # the most significant digits repr writes


def _exact(at: np.ndarray, bits: np.ndarray, k: np.ndarray, band: float):
    """For the values at `at`: where |v| * 10**k can be compared exactly with
    a number within 1.5 band of it, and p + 1, 4M and 5**k as uint64. With
    |v| = M * 2**E, |v| * 10**k is 4M * 5**k / 2**(p + 2) for p = -(E + k);
    the comparison takes band < 1/3, 0 <= k < 28 (5**k below 2**63) and p
    from -1 to 62."""
    bits, k = bits[at], k[at]
    shift = (1076 - (bits >> 52) - k).view(np.uint64)
    four_m = ((bits & (1 << 52) - 1 | 1 << 52) << 2).view(np.uint64)
    exact = (k.view(np.uint64) < _POW5.size) & (shift < 64) & (band < 1 / 3)
    return exact, shift, four_m, _POW5.take(k, mode="clip").view(np.uint64)


def _sign(twice: np.ndarray, shift: np.ndarray, numerator: np.ndarray, five: np.ndarray):
    """The sign of twice / 2 - numerator * five / 2**(shift + 1), from that
    difference times 2**(shift + 1) in uint64 arithmetic, which wraps: it is
    exact where the difference is under 1/2 in size, as under 2**63 then."""
    difference = (twice.view(np.uint64) << shift) - numerator * five
    return np.sign(difference.view(np.int64))


class _Shortest:
    """Doubles as the bytes of repr(float(v)): the fewest digits that read
    back as v, in fixed notation for a decimal exponent from -4 to 15 and in
    scientific notation (at least two exponent digits) otherwise.

    |v| is scaled into [1e16, 1e17) as in _Scientific, and so is its rounding
    interval (half the gap to each neighbouring double). repr picks the
    multiple of the highest power of ten in that interval nearest to |v|.
    The scaled values are off by at most 1e17 * eps of `work`, plus float64
    rounding of the small offsets, so the multiples are sought in the
    interval widened by `band` (twice that). Each value whose result could
    move within `band`, a near-tie or a chosen multiple near an end of the
    interval, is settled exactly in integers where 0 <= k < 28 and band <
    1/3, and every value the packed path cannot settle goes to _python's
    repr: an exact tie, a multiple on or outside an end, any other near-tie
    or multiple near an end, and a k that does not settle. The bytes are
    thus exact for any `work`.

    A value's text fills its _WORDS words from the first byte: the sign (or
    a 0 byte), 18 digit places at bytes 1 to 18 and 4 more at bytes 19 to
    22. The places hold the multiple's 17 digits with a 0 put in where the
    point goes, after the digits before it (fixed notation from exponent 0,
    and scientific) or after the leading 0 of "0.00..." (fixed notation
    below exponent 0, whose last |e| digits go to the 4 more places). That 0
    becomes the point, scientific notation puts its exponent at bytes 19 to
    23, and the places after the last significant digit, and after the one
    digit that fixed notation keeps past its point, stay 0 bytes.
    """

    def __init__(self, work=np.longdouble):
        self.powers = _powers(work)
        self.band = 2e17 * float(np.finfo(work).eps)
        # A group of four places as the word of its digit values (0 to 9) at
        # bytes 3 to 6, its first at byte 7 and its last three at bytes 0 to 2.
        digits = (_four_digits() ^ np.uint32(0x30303030)).astype(np.uint64)
        self.groups = [digits << np.uint64(24), digits << np.uint64(56), digits >> np.uint64(8)]
        heads = (sign + chr(i // 10) + chr(i % 10) for sign in "\0-" for i in range(100))
        self.heads = _table((head.ljust(8, "\0") for head in heads), "<u8")  # bytes 0 to 2
        e = np.arange(_EXPONENTS.start, _EXPONENTS.stop)
        fixed = (e >= -4) & (e <= 15)
        below = fixed & (e < 0)
        # The 18 places are t * scale + u * keep, for t and u the digits of the
        # multiple before and from a cut. From exponent 0 the cut is 10**(16 -
        # e) in fixed notation and 10**16 in scientific, with scale = 10 * cut
        # and keep = 1: a 0 after t. Below exponent 0 it is 10**|e|, with scale
        # = 1 and keep = 0: |e| + 1 leading 0 places, and u * more (10**(4 -
        # |e|)) in the 4 more places.
        cut = 10 ** np.where(below, -e, np.where(fixed, 16 - e, 16)).astype(np.int64)
        more = below * 10 ** np.where(below, 4 + e, 0)
        self.splits = np.column_stack([cut, np.where(below, 1, 10 * cut), ~below, more])
        # The characters by exponent and j, for a multiple of 10**j but not of
        # 10**(j + 1) (n = 17 - j significant digits, 1 for 10**17 at j = 17):
        # four words (the fourth 0) that the digit values are ORed into, "0"
        # in the places up to the last one kept (byte `last`), the point in
        # its place and in scientific notation the exponent at byte 19.
        e, n = e[:, None], np.maximum(_DIGITS - np.arange(_DIGITS + 1), 1)
        fixed = fixed[:, None]
        last = np.where(fixed, np.where(e < 0, n + 1 - e, np.maximum(n + 1, e + 3)), n + (n > 1))
        point = np.where(fixed & (e >= 0), e + 2, 2)
        dot = np.uint64(ord("0") ^ ord(".")) << (8 * (point % 8)).astype(np.uint64)
        dot = (point <= last) * dot
        zeros = np.array([0x3030303030303030 >> 8 * (8 - i) for i in range(9)], np.uint64)
        chars = np.zeros(last.shape + (_WORDS + 1,), np.uint64)
        for i in range(_WORDS):
            chars[..., i] = zeros[np.clip(last + 1 - 8 * i, 0, 8)] ^ (point // 8 == i) * dot
        chars[..., 0] &= ~np.uint64(0xFF)  # the sign's byte
        exps = ("" if f else f"\0\0\0e{x:+03d}" for x, f in zip(e.ravel().tolist(), fixed.ravel()))
        chars[..., 2] |= _table((x.ljust(8, "\0") for x in exps), "<u8")[:, None]
        self.chars = chars.reshape(-1, _WORDS + 1)

    def __call__(self, rows: np.ndarray, lead: np.ndarray = np.empty(0, "<u8")) -> np.ndarray:
        """A row of words per value of `rows`: the words of `lead`, then the
        value's _WORDS words."""
        v = rows.ravel()
        d, e, j, slow = self._select(v)
        cut, scale, keep, more = np.take(self.splits, e, axis=0).T
        t = d // cut
        u = d - t * cut
        places = t * scale + u * keep
        first = places // 10**16  # places 1 and 2; then four groups of four
        places -= first * 10**16
        halves = np.empty((2, v.size), np.int64)
        np.floor_divide(places, 10**8, out=halves[0])
        np.subtract(places, halves[0] * 10**8, out=halves[1])
        g0, g2 = tops = halves // 10000
        g1, g3 = halves - 10000 * tops
        at3, at7, to2 = self.groups
        chars = np.take(self.chars, (_DIGITS + 1) * e + j, axis=0)
        words = np.empty((v.size, lead.size + _WORDS), "<u8")
        words[:, : lead.size] = lead
        word = np.take(self.heads, first + 100 * np.signbit(v))
        word |= np.take(at3, g0)
        word |= np.take(at7, g1)
        np.bitwise_or(word, chars[:, 0], out=words[:, lead.size])
        word = np.take(to2, g1)
        word |= np.take(at3, g2)
        word |= np.take(at7, g3)
        np.bitwise_or(word, chars[:, 1], out=words[:, lead.size + 1])
        word = np.take(to2, g3)
        word |= np.take(at3, u * more)  # the 4 more places
        np.bitwise_or(word, chars[:, 2], out=words[:, lead.size + 2])
        words[slow, lead.size :] = _python(v[slow], repr, 8 * _WORDS).view("<u8")
        return words

    def _select(self, v: np.ndarray):
        """For each of `v`: repr's multiple d of 10**j in |v| * 10**k, the row
        e of its decimal exponent, and j; and the indices of the values left
        to Python, given d = 0 and j = 16 in the row of exponent 0, as a zero
        is ("0.0")."""
        zero = v == 0  # scaled as 1.0, then given the digits of 0
        a, k, s, m, frac, slow = _scaled(v, self.powers, _DIGITS)
        band = self.band
        with np.errstate(over="ignore", invalid="ignore"):
            half = 0.5 * s.astype(np.float64) / a  # a gap times it is half the scaled gap
            bits = a.view(np.int64)
            # The ends of the rounding interval, less m.
            low = frac - (a - (bits - 1).view(np.float64)) * half
            high = frac + ((bits + 1).view(np.float64) - a) * half
            slow |= zero | ~np.isfinite(high)
            x = m + np.floor(low - band).astype(np.int64)
            y = m + (high + band).astype(np.int64)  # high > 0: truncation is floor
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
        # A near-tie: d is the multiple above the midpoint c = (2q + 1) step / 2
        # where |v| * 10**k exceeds c. An exact tie is left to Python.
        tie = np.flatnonzero(near)
        exact, shift, four_m, five = _exact(tie, bits, k, band)
        side = _sign((2 * q[tie] + 1) * step[tie], shift, four_m, five)  # of c - |v| * 10**k
        d[tie], near[tie] = (q[tie] + (side < 0)) * step[tie], ~exact | (side == 0)
        # A multiple near an end of the interval is kept where it lies strictly
        # inside each end it is near, or else left to Python. The ends are (4M
        # -+ 2) * 5**k / 2**(p + 2), the lower (4M - 1) * 5**k / 2**(p + 2) for
        # a power of two with a smaller double below.
        off = (d - m).astype(np.float64)
        ends = (off - low <= band) | (high - off < band)
        end = np.flatnonzero(ends)
        end = end[~(slow[end] | near[end])]
        slow |= near | ends
        exact, shift, four_m, five = _exact(end, bits, k, band)
        doubled, lower = 2 * d[end], four_m - 2 + ((four_m == 1 << 54) & (bits[end] >> 52 > 1))
        slow[end] = ~exact | (
            (off[end] - low[end] <= band) & (_sign(doubled, shift, lower, five) <= 0)
            | (high[end] - off[end] < band) & (_sign(doubled, shift, four_m + 2, five) >= 0)
        )
        # d / 10**j is no multiple of 10 where it is not slow, or j would be
        # higher: j tells the number of significant digits.
        carry = d == 10**17  # rounded up to the next power of ten
        d[carry] = 10**16
        e = 16 - k + carry - _EXPONENTS.start  # the row of the decimal exponent
        d[slow], e[slow], j[slow] = 0, -_EXPONENTS.start, _DIGITS - 1
        return d, e, j, np.flatnonzero(slow & ~zero)


# The long-double CSV and JSON value renderers, their tables built on first use.
_csv_renderer = functools.cache(_Scientific)
_json_renderer = functools.cache(_Shortest)


def _render_list(separator: np.ndarray, values: np.ndarray) -> bytes:
    """`values` as list items, each led by the words of `separator`. Each
    distinct value is rendered once, distinct by its bits so that 0.0 and
    -0.0 differ: the sorted bits give the distinct values, and a search
    among them gives each item's words. Where none repeats, the values are
    rendered in place."""
    bits = np.sort(values.view(np.int64))
    firsts = np.concatenate(([True], bits[1:] != bits[:-1]))
    if firsts.all():
        text = _json_renderer()(values, separator)
    else:
        distinct = bits[firsts]
        text = _json_renderer()(distinct.view(np.float64), separator)
        text = np.take(text, np.searchsorted(distinct, values.view(np.int64)), axis=0)
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
