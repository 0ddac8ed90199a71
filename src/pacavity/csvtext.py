"""Exact decimal CSV text for float64 rows, made with numpy array operations.

Every value is written as ``'%.16e' % v`` would write it: 17 significant
digits, which reload bit for bit.  Rows are formatted a block at a time,
so the memory taken does not grow with the number of rows.
"""

from __future__ import annotations

import sys
from functools import cache

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1: Dekker's splitter for 53-bit doubles
_K_MIN, _K_MAX = -270, 300  # the powers 10**k the fast path can ask for
_FAST_MIN, _FAST_MAX = 1e-280, 1e280  # |x| in this range takes the fast path
_TIE_TOL = 1e-9  # far above the 2**-47 error of the double-double product
_P16 = 10 ** 16
_BLOCK_VALUES = 1 << 15  # values formatted per block; bounds the memory


def _word(text: bytes) -> int:
    """Four bytes as the uint32 that holds them in memory, in this machine's
    byte order."""
    return int.from_bytes(text, sys.byteorder)


_LEAD = _word(b"\0" + b"0" + b".\0")  # sign, leading digit, point, pad
_MINUS, _DIGIT = _word(b"-\0\0\0"), _word(b"\0\1\0\0")
_E_PLUS, _E_MINUS = _word(b"e+\0\0"), _word(b"e-\0\0")
_NEWLINE = _word(b"\0\0\0" + bytes([ord("\n") ^ ord(",")]))  # a value's ',' to '\n'


def _split(a):
    """Dekker's split: hi + lo == a, each half with at most 26 bits."""
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


@cache
def _format_tables():
    """10**k for k in [_K_MIN, _K_MAX] as double-doubles (hi, lo and the
    halves of hi), each part rounded from the exact ratio of integers; every
    4-digit group and every exponent with its ',' as uint32 words of text
    (no hundreds digit below 100: a 0 byte, which the writer drops)."""
    hi = np.empty(_K_MAX - _K_MIN + 1)
    lo = np.empty_like(hi)
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi[i] = h = num / den  # int / int is correctly rounded
        n, d = h.as_integer_ratio()
        lo[i] = (num * d - n * den) / (den * d)
    i = np.arange(10000)
    text = (np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1)
            + ord("0")).astype(np.uint8)
    exp_text = np.empty((1000, 4), np.uint8)
    exp_text[:, :3] = text[:1000, 1:]
    exp_text[:, 3] = ord(",")
    exp_text[:100, 0] = 0
    digits, exps = text.view(np.uint32).ravel(), exp_text.view(np.uint32).ravel()
    pow10 = (hi, lo, *_split(hi))
    for table in (*pow10, digits, exps):
        table.flags.writeable = False  # shared by every caller of the cache
    return pow10, digits, exps


def _scaled(a, E, pow10):
    """a * 10**(16 - E) as a normalized double-double (y, r): Dekker's
    TwoProduct with the table's hi, plus a times its lo."""
    hi, lo, hh, hl = (t[16 - E - _K_MIN] for t in pow10)
    p = a * hi
    ah, al = _split(a)
    r = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo
    y = p + r
    return y, r - (y - p)


def _csv_bytes(block: np.ndarray) -> np.ndarray:
    """The rows of a 2-D float64 block as CSV text bytes, each value exactly
    as ``'%.16e' % v`` writes it.

    For |x| in [_FAST_MIN, _FAST_MAX], the 17 digits are d = round(|x| *
    10**(16 - E)), with the decimal exponent E first guessed by log10 and
    then corrected from the product, which must lie in [1e16, 1e17).  A
    d that rounds up to 1e17 is 1e16 at E + 1.  Zeros take the same path
    with d = 0 and E = 0.  Anything else, and a product within _TIE_TOL of
    a rounding tie, is formatted by Python one value at a time.  Each value
    is a record of seven uint32 words (sign, digit and point; four 4-digit
    groups; 'e' and sign; exponent and separator), whose 0 pad bytes are
    then dropped.
    """
    pow10, digits, exps = _format_tables()
    rows, cols = block.shape
    x = np.asarray(block, dtype=np.float64).ravel()
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    zero = a == 0
    a[~fast] = 1.0
    E = np.floor(np.log10(a)).astype(np.int64)
    y, r = _scaled(a, E, pow10)
    low = (y < 1e16) | ((y == 1e16) & (r < 0))
    high = (y > 1e17) | ((y == 1e17) & (r >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:  # log10 is off by one next to a power of ten
        E[fix] += np.where(high[fix], 1, -1)
        y[fix], r[fix] = _scaled(a[fix], E[fix], pow10)
    rr = np.rint(r)
    d = y.astype(np.int64) + rr.astype(np.int64)  # y >= 1e16 > 2**53 is an integer
    fast &= np.abs(r - rr) < 0.5 - _TIE_TOL
    top = d == 10 * _P16
    d[top] = _P16
    E += top
    d[zero] = 0
    E[zero] = 0

    rec = np.empty((x.size, 7), np.uint32)
    lead = d // _P16
    rest = d - lead * _P16
    rec[:, 0] = lead * _DIGIT + np.signbit(x) * _MINUS + _LEAD
    for j, scale in enumerate((10 ** 12, 10 ** 8, 10 ** 4)):
        q = rest // scale
        rest -= q * scale
        rec[:, 1 + j] = digits[q]
    rec[:, 4] = digits[rest]
    rec[:, 5] = np.where(E < 0, _E_MINUS, _E_PLUS)
    rec[:, 6] = exps[np.abs(E)]
    rec.reshape(rows, cols, 7)[:, -1, 6] ^= _NEWLINE
    text = rec.view(np.uint8)
    for i in np.flatnonzero(~(fast | zero)):
        value = b"%.16e" % x[i]  # at most 24 bytes; byte 27 holds the separator
        text[i, :27] = 0
        text[i, :len(value)] = np.frombuffer(value, np.uint8)
    text = text.ravel()
    return text[text != 0]


def write_rows(fh, *columns: np.ndarray) -> None:
    """Write the 2-D float arrays ``columns``, side by side, to the binary
    file ``fh`` as CSV rows of ``'%.16e'`` values, a block of rows at a time."""
    width = sum(c.shape[1] for c in columns)
    step = max(1, _BLOCK_VALUES // width)
    for i in range(0, columns[0].shape[0], step):
        fh.write(_csv_bytes(np.hstack([c[i:i + step] for c in columns])))
