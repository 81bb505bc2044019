"""File formats: CSV matrices and label files, binary PPM images, manifests.

Matrices are written one feature per row, comma-separated, with 17 significant
digits so float64 values round-trip exactly.  Images are binary PPM ("P6",
maxval 255) only.  Every command drops a JSON manifest next to its outputs so
a result can be regenerated from the manifest alone.
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


def _bad_value(path, linenos, rows) -> str:
    """Error message naming the first row and field that is not a number."""
    for lineno, row in zip(linenos, rows):
        try:
            _parse_rows([row])
        except ValueError:
            for col, field in enumerate(row.split(","), start=1):
                if not _is_number(field):
                    return f"{path}:{lineno}: field {col} is not a number: {field!r}"
            return f"{path}:{lineno}: not a row of numbers"
    return f"{path}: values could not be parsed"


# The plain-decimal path needs x86-64's long double: x87 extended precision,
# a 64-bit significand with an explicit leading bit in the first 8 bytes of a
# 16-byte item.
_X87_LONG_DOUBLE = (
    np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16
)
_PLAIN_BYTES = b"0123456789.eE+-,"
_BLOCK_CHARS = 1 << 16
_SMALLEST_NORMAL = np.finfo(np.float64).tiny


def _plain_decimals(text: bytes, count: int):
    """float64 values of ``count`` comma-separated plain decimal fields, or
    None when the text must go through ``_parse_rows``.

    glibc's ``strtold`` rounds each field to nearest at 64 significand bits,
    and casting to float64 rounds again, to 53.  Every double and every
    midpoint between two doubles is representable at 64 bits, so rounding
    twice can differ from rounding once only for a value that lands exactly
    on a midpoint: low 11 significand bits ``0b10000000000``.  Those fields
    are converted again by ``float``, and so are those whose double is
    subnormal or the smallest normal, where the cast keeps fewer than 53
    bits or rounded up from below the normal range.
    """
    if not _X87_LONG_DOUBLE or text.translate(None, _PLAIN_BYTES):
        return None
    try:
        wide = np.fromstring(text, dtype=np.longdouble, sep=",")
    except ValueError:
        return None
    # numpy 1.x stops at a malformed field with a warning instead of raising,
    # so only the count tells a short parse from a good one.
    if wide.size != count:
        return None
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


def _convert_block(path, rows, linenos, width) -> np.ndarray:
    """The ``(len(rows), width)`` values of a block of checked rows, or
    ``ValueError`` naming its first bad value."""
    text = ",".join(rows).encode(errors="surrogateescape")
    values = _plain_decimals(text, len(rows) * width)
    if values is None:
        try:
            values = _parse_rows(rows)
        except ValueError:
            raise ValueError(_bad_value(path, linenos, rows)) from None
    return values.reshape(len(rows), width)


def read_matrix_csv(path) -> np.ndarray:
    """Parse a matrix CSV; one optional leading '#' header line is skipped.

    Blank and whitespace-only lines are skipped.  Every other line is a row
    of comma-separated fields, all rows with the same field count.  A field
    is a decimal number with optional sign, fraction and exponent, or
    ``nan``/``inf``/``infinity`` in any case, with optional whitespace
    around it (numpy's ``loadtxt`` syntax; Python-only spellings such as
    ``1_0`` or non-ASCII digits are rejected).  Every value must be finite.
    Line structure is checked line by line; errors name ``path:line``, the
    first bad line in file order.  A byte that is not UTF-8 is read as a
    lone surrogate (``errors="surrogateescape"``), so the field that holds
    it is refused as not a number.

    The file is read as a stream of text lines, never whole.  Its rows are
    gathered into blocks of about ``_BLOCK_CHARS`` (64 KiB) of text, and
    each block is converted as soon as it fills, so a read holds the values,
    one block of text and, as the blocks are joined, a second copy of the
    values.  A read shares no state with another, and ``np.fromstring``
    releases the GIL, so two files read on two threads overlap (``match``
    reads X and Y so).

    Each value is correctly rounded as by ``float``.  A block of plain
    decimals (only the bytes ``0-9.eE+-,``) is read as x87 long doubles
    with ``np.fromstring``, cast to float64 and checked for double rounding
    (see ``_plain_decimals``).  A block goes
    through ``np.loadtxt`` instead when it holds whitespace,
    ``nan``/``inf``, hex or non-ASCII text, when its value count is off (an
    empty field, a trailing comma, a malformed number), and on every
    platform whose ``long double`` is not x87 extended precision.
    ``np.loadtxt`` is also the only path that reports a bad value.
    """
    path = Path(path)
    blocks = []
    rows, linenos, size = [], [], 0
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
            fields = line.count(",") + 1
            if width is None:
                width = fields
            elif fields != width:
                fault = f"{path}:{lineno}: expected {width} fields, got {fields}"
                break
            if size and size + len(line) > _BLOCK_CHARS:
                blocks.append(_convert_block(path, rows, linenos, width))
                rows, linenos, size = [], [], 0
            rows.append(line)
            linenos.append(lineno)
            size += len(line) + 1
    # The rows before a structural fault are converted first, so that a bad
    # value on an earlier line is the one reported.
    if rows:
        blocks.append(_convert_block(path, rows, linenos, width))
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
