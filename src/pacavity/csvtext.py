"""Exact decimal CSV text for float64 rows, written and read with numpy
array operations.

Every value is written as ``'%.16e' % v`` would write it: 17 significant
digits, which reload bit for bit.  ``read_rows`` parses that grammar back,
correctly rounded, and returns None for any other text, which the caller
then reads with a general parser.  The writer works a block of values at a
time and the reader a chunk of text at a time, so the memory taken beyond
the rows themselves does not grow with their number.
"""

from __future__ import annotations

import sys
from functools import cache, partial

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1: Dekker's splitter for 53-bit doubles
_K_MIN, _K_MAX = -270, 300  # the powers 10**k the fast path can ask for
_FAST_MIN, _FAST_MAX = 1e-280, 1e280  # |x| in this range takes the fast path
_TIE_TOL = 1e-9  # far above the 2**-47 error of the double-double product
_P16 = 10 ** 16
_BLOCK_VALUES = 1 << 15  # values formatted per block; bounds the memory
_E_MIN, _E_MAX = _K_MIN + 16, 280  # exponents E whose d * 10**(E - 16) the reader forms
_READ_CHUNK = 1 << 18  # text bytes read and parsed at once; bounds the memory


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


def _scaled(a, k, pow10, a_lo=0.0):
    """(a + a_lo) * 10**k as a normalized double-double (y, r): Dekker's
    TwoProduct of a with the table's hi, plus a times its lo and a_lo
    (|a_lo| <= ulp(a) / 2) times its hi."""
    hi, lo, hh, hl = (t[k - _K_MIN] for t in pow10)
    p = a * hi
    ah, al = _split(a)
    r = ((ah * hh - p) + ah * hl + al * hh) + al * hl + (a * lo + a_lo * hi)
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
    then dropped.  The block is only read: ``write_rows`` passes views of
    the caller's array.
    """
    pow10, digits, exps = _format_tables()
    rows, cols = block.shape
    x = np.asarray(block, dtype=np.float64).ravel()
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    zero = a == 0
    a[~fast] = 1.0
    E = np.floor(np.log10(a)).astype(np.int64)
    y, r = _scaled(a, 16 - E, pow10)
    low = (y < 1e16) | ((y == 1e16) & (r < 0))
    high = (y > 1e17) | ((y == 1e17) & (r >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:  # log10 is off by one next to a power of ten
        E[fix] += np.where(high[fix], 1, -1)
        y[fix], r[fix] = _scaled(a[fix], 16 - E[fix], pow10)
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


def write_rows(fh, rows: np.ndarray) -> None:
    """Write the 2-D float array ``rows`` to the binary file ``fh`` as CSV
    rows of ``'%.16e'`` values, a block of rows at a time."""
    step = max(1, _BLOCK_VALUES // rows.shape[1])
    for i in range(0, rows.shape[0], step):
        fh.write(_csv_bytes(rows[i:i + step]))


# SWAR (SIMD within a register) constants for 8 ASCII digits in a uint64,
# the first digit in the low byte.  They are numpy scalars, so the arithmetic
# stays in uint64 whatever numpy's rules for mixing in Python ints.
_U64 = np.uint64
_ZEROS, _SIXES = _U64(0x3030303030303030), _U64(0x4646464646464646)
_HIGH = _U64(0x8080808080808080)
_PAIRS = _U64(0x000000FF000000FF)
_MUL1, _MUL2 = _U64(100 + (1000000 << 32)), _U64(1 + (10000 << 32))
_TEN, _SHIFT8, _SHIFT16, _SHIFT32 = _U64(10), _U64(8), _U64(16), _U64(32)
_E8, _E16 = _U64(10 ** 8), _U64(10 ** 16)
_EXPONENT_BITS = _U64(0x7FF0000000000000)  # of a float64
_PAD = bytes(8)  # room for a token's record to run past either end of the text


def _eight_digits(words):
    """The values of uint64 words of 8 ASCII digits (Lemire 2021)."""
    v = words - _ZEROS
    v = v * _TEN + (v >> _SHIFT8)
    return ((v & _PAIRS) * _MUL1 + ((v >> _SHIFT16) & _PAIRS) * _MUL2) >> _SHIFT32


def _parse_block(text, start, end, out) -> bool:
    """Parse the tokens text[start:end] into ``out``, correctly rounded;
    False, with ``out`` unspecified, when one is not '%.16e' text.

    Each token is gathered as a record of four little-endian uint64 words:
    six bytes before its leading digit, that digit and '.'; digits 2-9;
    digits 10-17; 'e', the exponent's sign, its 2 or 3 digits and what
    follows.  The 17 digits d give the value d * 10**(E - 16),
    a double-double product against the format tables.  Python's ``float``
    reads a token with E outside [_E_MIN, _E_MAX], where the product could
    leave the normal range, and one whose product lies within _TIE_TOL of a
    rounding midpoint; the gap below a power of two is half the gap above
    it, so the midpoint is taken on the residual's side.
    """
    raw = np.frombuffer(text, np.uint8)
    neg = raw[start] == ord("-")
    q = start + neg
    long_exp = end - q == 23
    if not (long_exp | (end - q == 22)).all():
        return False
    records = np.ndarray((raw.size - 31,), "V32", text, 0, (1,))
    words = records[q - 6].view("<u8").reshape(-1, 4)
    b = words.view(np.uint8)
    digits = np.ascontiguousarray(words[:, 1:3].T)  # digits 2-9 and 10-17
    lead = b[:, 6] - np.uint8(ord("0"))
    x = [b[:, i] - np.uint8(ord("0")) for i in (26, 27, 28)]
    minus = b[:, 25] == ord("-")
    ok = ((lead <= 9) & (b[:, 7] == ord("."))
          & (b[:, 24] == ord("e")) & (minus | (b[:, 25] == ord("+")))
          & (x[0] <= 9) & (x[1] <= 9) & ((x[2] <= 9) | ~long_exp))
    if not ok.all() or np.bitwise_or.reduce((digits + _SIXES) | (digits - _ZEROS), None) & _HIGH:
        return False
    x = [c.astype(np.int64) for c in x]
    E = x[0] * 10 + x[1]
    E = np.where(long_exp, E * 10 + x[2], E)
    E = np.where(minus, -E, E)
    v = _eight_digits(digits)
    d = (lead.astype(np.uint64) * _E16 + v[0] * _E8 + v[1]).astype(np.int64)
    a = d.astype(np.float64)
    a_lo = (d - a.astype(np.int64)).astype(np.float64)  # d < 10**17: exact
    fast = (E >= _E_MIN) & (E <= _E_MAX)
    y, r = _scaled(a, np.where(fast, E - 16, 0), _format_tables()[0], a_lo)
    # 2**floor(log2 y) from y's exponent bits; y's gap above is that / 2**52
    scale = (y.view(np.uint64) & _EXPONENT_BITS).view(np.float64)
    limit = scale * ((0.5 - _TIE_TOL) * 2.0 ** -52)
    limit[(r < 0) & (y == scale)] *= 0.5
    fast &= (np.abs(r) < limit) | (d == 0)
    out[:] = np.where(neg, -y, y)
    for i in np.flatnonzero(~fast):
        out[i] = float(text[start[i]:end[i]])
    return True


def read_rows(fh):
    """Read the rest of the binary file ``fh`` as CSV rows of ``'%.16e'``
    values, as ``write_rows`` writes them, into a 2-D float64 array: every
    value is the double nearest its decimal text, so the values written come
    back bit for bit.

    Returns None for text outside that grammar: no rows, other number
    syntax, comments, blank lines, CRLF line endings or ragged rows.  The
    rows are counted first, so the array is filled in place: each chunk of
    text is parsed as it is read, up to its last newline, and the rest of it
    is carried into the next chunk.
    """
    origin = fh.tell()
    width = fh.readline().count(b",") + 1
    fh.seek(origin)
    chunks = partial(fh.read, _READ_CHUNK)
    rows = sum(chunk.count(b"\n") for chunk in iter(chunks, b""))
    if not rows:
        return None
    fh.seek(origin)
    out = np.empty((rows, width))
    flat = out.reshape(-1)
    done, pending = 0, b""
    for chunk in iter(chunks, b""):
        text = b"".join((_PAD, pending, chunk, _PAD))
        del chunk  # one copy of the text at a time
        cut = text.rfind(b"\n") + 1
        # without a newline the whole chunk is carried, not its leading pad
        pending = text[max(cut, len(_PAD)):-len(_PAD)]
        if not cut:
            continue
        head = np.frombuffer(text, np.uint8, cut)
        sep = head == ord(",")
        sep |= head == ord("\n")
        end = np.flatnonzero(sep)
        newline = head[end] == ord("\n")
        count = end.size
        if count != newline.sum() * width or not newline[width - 1::width].all():
            return None
        start = np.empty_like(end)
        start[0] = len(_PAD)
        start[1:] = end[:-1] + 1
        if not _parse_block(text, start, end, flat[done:done + count]):
            return None
        done += count
    return None if pending else out
