"""File formats: CSV matrices and label files, binary PPM images, manifests.

Matrices are written one feature per row, comma-separated, with 17 significant
digits so float64 values round-trip exactly.  They are read block by block,
each block by one of two exact converters: int64 mantissas and exponents
scaled by a power of ten when every field has a ``.``, ``np.loadtxt`` for the
rest.  Each converter checks the block's row widths as it reads; a block that
fails is scanned row by row only to name its first bad line.  Images are
binary PPM ("P6", maxval 255) only.  Every command drops a JSON manifest next
to its outputs so a result can be regenerated from the manifest alone.
"""

import json
from pathlib import Path

import numpy as np

from . import linalg
from .classify import LabelPartition


def write_matrix_csv(path, m) -> None:
    m = linalg.as_matrix(m, "matrix")
    row = ",".join(["%.17g"] * m.shape[1])
    Path(path).write_text("\n".join([row % tuple(r) for r in m.tolist()]) + "\n")


def _parse_rows(rows) -> np.ndarray:
    """float64 values of comma-separated text rows, converted in one C pass."""
    return np.loadtxt(rows, dtype=np.float64, delimiter=",", comments=None, ndmin=2)


def _is_number(field: str) -> bool:
    try:
        return bool(field.strip()) and _parse_rows([field]).size == 1
    except ValueError:
        return False


def _bad_value(path, linenos, rows, width) -> str:
    """Error message naming the first row, in file order, whose field count
    is not ``width`` or that holds a field that is not a number."""
    for lineno, row in zip(linenos, rows):
        fields = row.count(",") + 1
        if fields != width:
            return f"{path}:{lineno}: expected {width} fields, got {fields}"
        try:
            _parse_rows([row])
        except ValueError:
            for col, field in enumerate(row.split(","), start=1):
                if not _is_number(field):
                    return f"{path}:{lineno}: field {col} is not a number: {field!r}"
            return f"{path}:{lineno}: not a row of numbers"
    return f"{path}: values could not be parsed"


# The mantissa path needs x86-64's long double: x87 extended precision,
# a 64-bit significand with an explicit leading bit in the first 8 bytes of a
# 16-byte item.
_X87_LONG_DOUBLE = (
    np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16
)
_BLOCK_CHARS = 1 << 16
_SMALLEST_NORMAL = np.finfo(np.float64).tiny
# 10**k is exact at 64 significand bits up to k = 27 (5**27 < 2**64), and a
# mantissa below 10**18 is exact in int64 and at 64 bits.
_MAX_SCALE = 27
_MAX_MANTISSA = 10**18
_POWERS_OF_TEN = np.array([10**k for k in range(_MAX_SCALE + 1)], np.longdouble)


def _read_whole(text: bytes, count: int):
    """The ``count`` int64 values of the comma-separated fields in ``text``
    by ``np.fromstring``, or None unless every field parses whole.

    numpy 2 raises at a field that does not; numpy 1.x stops there with a
    warning and keeps the field's numeric prefix.  So a good field is put
    after the last one and must be read too: a parse that stops anywhere in
    ``text`` comes up short of ``count + 1`` values.
    """
    try:
        values = np.fromstring(text + b",1", dtype=np.int64, sep=",")
    except ValueError:
        return None
    return values[:count] if values.size == count + 1 else None


def _fixed_point(text: bytes, width: int, ends: list):
    """x87 long doubles of the rows of ``width`` comma-separated fields
    joined in ``text``, row ``i`` ending at offset ``ends[i]``, each field
    a sign, digits, one ``.``, digits and an optional exponent (``e`` or
    ``E``, a sign, digits), each rounded to nearest at 64 significand
    bits, or None for any other block.

    Each field is read as ``M / 10**s``, or ``M * 10**-s`` when ``s < 0``:
    numpy's C integer parser reads the mantissa ``M`` from the field's
    digits with the ``.`` removed, and the exponent ``E`` as a field of its
    own, its ``e`` made a ``,``; ``s`` is the number of digits after the
    ``.``, less ``E``.  With ``|M| < 10**18`` and ``|s| <= 27`` both
    operands are exact at 64 significand bits, so the one correctly rounded
    operation rounds the field's exact value (Clinger's fast path).
    A block with a field without ``.``, with an ``e`` before it or a second
    ``e``, a zero mantissa or an exponent that is a sign alone (the parser
    reads a sign alone as 0), 19 or more mantissa digits or a larger
    ``|s|`` gets None.

    The block holds ``len(ends) * width - 1`` commas, and the one that ends
    row ``i``'s ``width`` fields sits at ``ends[i]``, where the join put
    it: so every row has ``width`` fields.

    Reads on two threads overlap only where numpy releases the GIL, and
    each numpy call on a block is a point where a thread may wait for it,
    so the block is read in few calls.  Any byte but a sign or a digit left
    in a field fails ``_read_whole``, so only the bytes below ``+``
    (whitespace, which the parser skips) are looked for before it.
    """
    exponents = b"e" in text or b"E" in text
    buf = np.frombuffer(text, dtype=np.uint8)
    if buf.min() < ord("+"):
        return None
    count = len(ends) * width
    # ',' and '.' differ only in bit 1; clearing it maps no other byte to ','
    marks = np.flatnonzero((buf & 0xFD) == ord(","))
    # with count - 1 commas, count dots at the even marks alternate with them
    if (
        marks.size != 2 * count - 1
        or buf[marks[::2]].min() != ord(".")
        or marks[2 * width - 1 :: 2 * width].tolist() != ends[:-1]
    ):
        return None
    stop = np.append(marks[1::2], buf.size)
    if exponents:
        e = np.flatnonzero((buf | 0x20) == ord("e"))
        # an odd number of marks before an e puts it after its field's dot,
        # two in one field share that number, and an exponent field must
        # end in a digit
        after = marks.searchsorted(e)
        field = after >> 1
        if (
            not (after & 1).all()
            or (np.diff(after) == 0).any()
            or buf[stop[field] - 1].min() < ord("0")
        ):
            return None
        digits = text.replace(b".", b"").replace(b"e", b",").replace(b"E", b",")
        mantissas = _read_whole(digits, count + e.size)
        if mantissas is None:
            return None
        # the exponent of the r-th field with one follows its mantissa
        at = field + np.arange(1, e.size + 1)
        exps = mantissas[at]
        mantissas = np.delete(mantissas, at)
        stop[field] = e
    else:
        mantissas = _read_whole(text.replace(b".", b""), count)
    # numpy's parser saturates an overflow of either sign at the int64
    # maximum; C's strtoll, at the extreme of the field's sign.
    if (
        mantissas is None
        or not mantissas.all()
        or mantissas.max() >= _MAX_MANTISSA
        or mantissas.min() <= -_MAX_MANTISSA
    ):
        return None
    scale = stop - marks[::2] - 1
    low = 0
    if exponents:
        # a saturated exponent leaves s far above 27, or wraps k - E below -27
        scale[field] -= exps
        low = scale.min()
    if low < -_MAX_SCALE or scale.max() > _MAX_SCALE:
        return None
    if low < 0:
        down, up = np.maximum(scale, 0), np.maximum(-scale, 0)
        return mantissas / _POWERS_OF_TEN[down] * _POWERS_OF_TEN[up]
    return mantissas / _POWERS_OF_TEN[scale]


def _to_float64(wide, text: bytes) -> np.ndarray:
    """float64 values of the long doubles ``wide`` read from the
    comma-separated fields of ``text``, each correctly rounded.

    ``_fixed_point`` rounds each field to nearest at 64 significand bits,
    and casting to float64 rounds again, to 53.  Every double and every
    midpoint between two doubles is representable at 64 bits, so rounding
    twice can differ from rounding once only for a value that lands exactly
    on a midpoint: low 11 significand bits ``0b10000000000``.  Those fields are converted again by ``float``, and
    so are those whose double is subnormal or the smallest normal, where the
    cast keeps fewer than 53 bits or rounded up from below the normal range.
    """
    # A value beyond float64's range casts to inf, which the caller refuses.
    with np.errstate(over="ignore"):
        values = wide.astype(np.float64)
    significand = wide.view(np.uint64)[::2]
    redo = np.flatnonzero(
        ((significand & 0x7FF) == 0x400)
        | ((np.abs(values) <= _SMALLEST_NORMAL) & (significand != 0))
    )
    if redo.size:
        fields = text.split(b",")
        for k in redo.tolist():
            values[k] = float(fields[k])
    return values


def _convert_block(path, rows, linenos, ends, width) -> np.ndarray:
    """The ``(len(rows), width)`` values of a block of rows, or
    ``ValueError`` naming its first bad line.

    ``_fixed_point`` reads the block and checks its widths when it can (on
    x87), any other block ``np.loadtxt``, which refuses rows of differing
    widths; rows that all share one wrong width fail the ``reshape``.  Only
    a block that fails is scanned row by row, by ``_bad_value``.
    """
    text = ",".join(rows).encode(errors="surrogateescape")
    wide = _fixed_point(text, width, ends) if _X87_LONG_DOUBLE else None
    if wide is not None:
        return _to_float64(wide, text).reshape(len(rows), width)
    try:
        return _parse_rows(rows).reshape(len(rows), width)
    except ValueError:
        raise ValueError(_bad_value(path, linenos, rows, width)) from None


def read_matrix_csv(path) -> np.ndarray:
    """Parse a matrix CSV; one optional leading '#' header line is skipped.

    Blank and whitespace-only lines are skipped.  Every other line is a row
    of comma-separated fields, all rows with the same field count.  A field
    is a decimal number with optional sign, fraction and exponent, or
    ``nan``/``inf``/``infinity`` in any case, with optional whitespace
    around it (numpy's ``loadtxt`` syntax; Python-only spellings such as
    ``1_0`` or non-ASCII digits are rejected).  Every value must be finite.
    Errors name ``path:line``, the first bad line in file order: a ``#``
    line after the first, a row whose field count is not the first row's,
    or a bad value.  A byte that is not UTF-8 is read as a lone surrogate
    (``errors="surrogateescape"``), so the field that holds it is refused
    as not a number.

    The file is read as a stream of text lines, never whole.  Its rows are
    gathered into blocks of about ``_BLOCK_CHARS`` (64 KiB) of text, and
    each block is converted as soon as it fills, so a read holds the values,
    one block of text and, as the blocks are joined, a second copy of the
    values.  A read shares no state with another, and most of a block's
    conversion runs in numpy's C parsers and array passes, which release
    the GIL, so two files read on two threads overlap (``match`` reads X and
    Y so).

    Each value is correctly rounded as by ``float``.  A block is read by
    one of two converters.  When every field is a sign, digits, one ``.``,
    digits and an optional exponent ``E`` (not zero, at most 18 significant
    digits, ``|k - E| <= 27`` for ``k`` digits after the ``.``), each is
    read as an int64 mantissa scaled by a power of ten into an x87 long
    double, then cast to float64 and checked for double rounding (see
    ``_fixed_point`` and ``_to_float64``); that path checks the rows'
    widths from the block's commas.  Every other block, and every block on
    a platform whose ``long double`` is not x87 extended precision, goes
    through ``np.loadtxt``, which checks the widths as it parses.  Only a
    block that fails both is scanned row by row, to name its first bad line.
    """
    path = Path(path)
    blocks = []
    rows, linenos, ends, size = [], [], [], 0
    fault = None
    width = None
    with path.open(encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or (lineno == 1 and line.startswith("#")):
                continue
            if line.startswith("#"):
                fault = f"{path}:{lineno}: '#' lines only allowed as header"
                break
            if width is None:
                width = line.count(",") + 1
            if size and size + len(line) > _BLOCK_CHARS:
                blocks.append(_convert_block(path, rows, linenos, ends, width))
                rows, linenos, ends, size = [], [], [], 0
            rows.append(line)
            linenos.append(lineno)
            size += len(line) + 1
            ends.append(size - 1)
    # The rows before a structural fault are converted first, so that a bad
    # value on an earlier line is the one reported.
    if rows:
        blocks.append(_convert_block(path, rows, linenos, ends, width))
    if fault is not None:
        raise ValueError(fault)
    if not blocks:
        raise ValueError(f"{path}: no data rows")
    m = np.concatenate(blocks)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{path}: non-finite values")
    return m


def write_labels(path, indices) -> None:
    """Write ground-truth inlier indices, 0-based, sorted, one per line."""
    idx = np.unique(np.asarray(indices, dtype=np.intp))
    Path(path).write_text("".join(f"{i}\n" for i in idx))


def _index(text: str | bytes) -> int:
    """An index field's value: ASCII decimal digits only, unlike ``int``."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)


def read_labels(path) -> np.ndarray:
    path = Path(path)
    values = []
    text = path.read_text(encoding="utf-8", errors="surrogateescape")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            value = _index(line)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not an integer: {line!r}") from None
        if value > np.iinfo(np.intp).max:
            raise ValueError(f"{path}:{lineno}: index out of range: {line!r}")
        values.append(value)
    idx = np.asarray(sorted(values), dtype=np.intp)
    if np.unique(idx).size != idx.size:
        raise ValueError(f"{path}: duplicate indices")
    return idx


def write_partition_csv(path, partition: LabelPartition) -> None:
    """Write one 'index,label' line per point, label G (inlier) or B.

    The lines of indices with the same number of digits are built as one
    byte array, a row per line: the digits, ',', the label and a newline.
    """
    labels = np.where(partition.inlier_mask(), ord("G"), ord("B"))
    n = labels.size
    blocks = []
    lo, width = 0, 1
    while lo < n:
        hi = min(10**width, n)
        lines = np.empty((hi - lo, width + 3), dtype=np.uint8)
        idx = np.arange(lo, hi)
        for col in range(width - 1, -1, -1):
            lines[:, col] = idx % 10 + 48
            idx //= 10
        lines[:, width] = ord(",")
        lines[:, width + 1] = labels[lo:hi]
        lines[:, width + 2] = ord("\n")
        blocks.append(lines.tobytes())
        lo, width = hi, width + 1
    # no points: the file is one empty line
    Path(path).write_bytes(b"".join(blocks) or b"\n")


def read_partition_csv(path) -> LabelPartition:
    path = Path(path)
    entries = {}
    text = path.read_text(encoding="utf-8", errors="surrogateescape")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2 or parts[1] not in ("G", "B"):
            raise ValueError(f"{path}:{lineno}: expected 'index,G|B', got {line!r}")
        try:
            i = _index(parts[0])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad index {parts[0]!r}") from None
        if i in entries:
            raise ValueError(f"{path}:{lineno}: duplicate index {i}")
        entries[i] = parts[1]
    n = len(entries)
    if n == 0:
        raise ValueError(f"{path}: empty partition")
    if sorted(entries) != list(range(n)):
        raise ValueError(f"{path}: indices must cover 0..{n - 1} exactly once")
    mask = np.array([entries[i] == "G" for i in range(n)])
    return LabelPartition(mask)


# --- binary PPM (P6, maxval 255) ---


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # Skip whitespace and '#' comment lines between header tokens.
    while pos < len(data):
        c = data[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < len(data) and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ValueError("unexpected end of PPM header")
    return data[start:pos], pos


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM into a (height, width, 3) uint8 array."""
    path = Path(path)
    data = path.read_bytes()
    try:
        magic, pos = _next_token(data, 0)
        if magic != b"P6":
            raise ValueError(f"bad magic {magic!r}, expected b'P6'")
        fields = []
        for _ in range(3):
            token, pos = _next_token(data, pos)
            try:
                fields.append(_index(token))
            except ValueError:
                raise ValueError(f"bad header field {token!r}") from None
        width, height, maxval = fields
        if width < 1 or height < 1:
            raise ValueError(f"bad dimensions {width}x{height}")
        if maxval != 255:
            raise ValueError(f"maxval must be 255, got {maxval}")
        # Exactly one whitespace byte separates the header from the payload.
        if pos >= len(data) or not data[pos : pos + 1].isspace():
            raise ValueError("missing whitespace after maxval")
        payload = data[pos + 1 :]
        expected = 3 * width * height
        if len(payload) != expected:
            raise ValueError(
                f"payload is {len(payload)} bytes, expected {expected}"
            )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)


def write_ppm(path, img: np.ndarray) -> None:
    img = np.asarray(img, dtype=np.uint8)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"image must have shape (h, w, 3), got {img.shape}")
    height, width = img.shape[:2]
    header = f"P6\n{width} {height}\n255\n".encode()
    Path(path).write_bytes(header + img.tobytes())


def image_to_points(img: np.ndarray) -> np.ndarray:
    """Pixels as a 3-by-(w*h) float matrix, one RGB column per pixel (row-major)."""
    img = np.asarray(img)
    return img.reshape(-1, 3).T.astype(np.float64)


def luminance(img: np.ndarray) -> np.ndarray:
    """Rec. 601 luma of an RGB image as uint8, shape (h, w)."""
    rgb = np.asarray(img, dtype=np.float64)
    luma = 0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2]
    return np.clip(np.rint(luma), 0, 255).astype(np.uint8)


def write_manifest(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
