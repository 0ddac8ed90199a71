"""File formats and run configuration.

Fields and traces are stored as plain-text CSV in one grammar: comment
lines of ``# key = value`` entries, the grid size n among them, then rows
of values and nothing else.  A field has n rows of n values; a trace has
one row of samples at Gamma's nodes per time level, row j at t = j*dt, so
neither the times nor the node numbers are stored: the header's gamma
entry lists the nodes, and with it the row width.  Both readers check n
once, as Grid2D checks it, and know the row width from the header before
they read a row.  Each value is written as ``'%.16e' % v`` would write it,
17 significant digits in scientific notation, which reload bit for bit;
``csvtext.write_rows`` makes those bytes from whole row blocks, and
``csvtext.read_rows`` parses them back into rows of the header's width,
correctly rounded.  Data in any other syntax are read a line at a time,
each value converted by Python's ``float``, and a bad row is named by its
line.
Fields can additionally be written as 16-bit binary portable graymaps
(PGM) for viewing; the affine value mapping is recorded in a comment so
the image is deterministic but not meant to be re-read.

Run configuration is a flat ``key = value`` text file with ``#`` comments.
Each key is declared once, as a RunConfig field that carries its parser;
CONFIG_KEYS is derived from those fields.  Unknown keys are rejected rather
than ignored, every key has a documented default, and all values are
range-checked with the offending key named in the error message.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .core import (
    MAX_N,
    BoundarySpec,
    BoundaryTrace,
    ConfigError,
    Grid2D,
    ScalarField,
    boundary_count,
    num_steps,
    snap_duration,
)
from .csvtext import read_rows, write_rows
from .phantom import PAPER_SIX, BumpSpec, render_phantom


class ParseError(ValueError):
    """A file could not be parsed; the message carries the line number."""


def _fmt(x: float) -> str:
    return repr(float(x))


@contextmanager
def _decoding(path, error=ParseError):
    """Raise a text decoding error in the block as error, naming the file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from None


def _read_header(fh):
    """The ``# key = value`` entries above the data of the binary file
    ``fh`` (several per comment line, separated by ';'), and the line number
    of the first data row, at which ``fh`` is left.  The lines are decoded as
    UTF-8, and a line ends at LF (so CRLF ends one too, but a lone CR does
    not)."""
    meta, lineno = {}, 0
    for lineno, raw in enumerate(fh, start=1):
        line = raw.decode("utf-8").strip()
        if line.startswith("#"):
            for part in line[1:].split(";"):
                m = re.match(r"\s*(\w+)\s*=(.*)$", part)
                if m:
                    meta[m.group(1)] = m.group(2).strip()
        elif line:
            fh.seek(-len(raw), 1)  # back to the first data row
            lineno -= 1
            break
    return meta, lineno + 1


def _read_rows(path, fh, first: int, width: int) -> np.ndarray:
    """The rest of ``fh``, from its line ``first`` on, as rows of ``width``
    values.

    Data as ``csvtext.write_rows`` writes them are parsed by
    ``csvtext.read_rows``.  Any other text (comments or blank lines among
    the rows, CRLF endings, other number syntax, rows of another width) is
    read again from ``first``, a line at a time, each value converted as
    Python's ``float`` converts it; the array has one row per line with at
    least width - 1 commas, so its size is bounded by the text's.  The
    first line that is not ``width`` numbers is an error that names it, and
    says so when a CR inside it, not part of a CRLF ending, is the likely
    cause.
    """
    pos = fh.tell()
    data = read_rows(fh, width)
    if data is not None:
        return data
    fh.seek(pos)
    data = np.empty((sum(raw.count(b",") >= width - 1 for raw in fh), width))
    fh.seek(pos)
    rows = 0
    for lineno, raw in enumerate(fh, start=first):
        line = raw.decode("utf-8").split("#", 1)[0].strip()
        if not line:
            continue
        if line.count(",") != width - 1:
            raise _row_error(path, lineno, raw, f"expected {width} values per row, "
                                                f"got {line.count(',') + 1}")
        try:
            data[rows] = line.split(",")
        except ValueError as exc:
            raise _row_error(path, lineno, raw, str(exc)) from None
        rows += 1
    return data[:rows]


def _row_error(path, lineno: int, raw: bytes, message: str) -> ParseError:
    """The error for the bad row ``raw`` at line ``lineno``: a CR within the
    line, not part of its CRLF ending, means that the rows end in lone CRs,
    so the line holds all the rows that follow."""
    if b"\r" in raw.removesuffix(b"\n").removesuffix(b"\r"):
        message += " (the line holds a lone CR: rows must end in LF or CRLF)"
    return ParseError(f"{path}:{lineno}: {message}")


def _header_grid(path, meta: dict) -> Grid2D:
    """The grid of the header entry n, with the default dt."""
    if "n" not in meta:
        raise ParseError(f"{path}: missing '# n = ...' header")
    try:
        return Grid2D(int(meta["n"]))
    except ConfigError as exc:
        raise ParseError(f"{path}: header 'n': {exc}") from None
    except ValueError:
        raise ParseError(f"{path}: header 'n' is not an integer: {meta['n']!r}") from None


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def write_field_csv(path, f: ScalarField) -> None:
    """Row-major CSV of raw values, full double precision."""
    with open(path, "wb") as fh:
        fh.write(f"# pacavity field v1\n# n = {f.grid.n}\n".encode("ascii"))
        write_rows(fh, f.values)


def read_field(path) -> ScalarField:
    """Reload a field CSV; bit-identical to what was written.  Only .csv
    reloads exactly, so any other suffix is refused."""
    suffix = Path(path).suffix.lower()
    if suffix != ".csv":
        raise ConfigError(f"cannot read field format {suffix!r}; only .csv reloads exactly")
    with _decoding(path), open(path, "rb") as fh:
        meta, first = _read_header(fh)
        grid = _header_grid(path, meta)
        data = _read_rows(path, fh, first, grid.n)
    if data.shape[0] != grid.n:
        raise ParseError(f"{path}: expected {grid.n} data rows, got {data.shape[0]}")
    try:
        return ScalarField(grid, data)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def write_field_pgm(path, f: ScalarField) -> None:
    """16-bit binary graymap for viewing; top image row is y = +1."""
    v = f.values
    lo, hi = float(v.min()), float(v.max())
    if hi > lo:
        pix = np.round((v - lo) / (hi - lo) * 65535.0).astype(">u2")
    else:
        pix = np.zeros_like(v, dtype=">u2")
    img = pix.T[::-1, :]  # rows run from y = +1 down to y = -1
    header = (f"P5\n# pacavity field v1 min={_fmt(lo)} max={_fmt(hi)}\n"
              f"{f.grid.n} {f.grid.n}\n65535\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(img.tobytes())


def write_field(path, f: ScalarField) -> None:
    """Dispatch on extension: .csv for exact storage, .pgm for viewing."""
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        write_field_csv(path, f)
    elif suffix == ".pgm":
        write_field_pgm(path, f)
    else:
        raise ConfigError(f"unsupported field format {suffix!r} (use .csv or .pgm)")


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def write_trace(path, g: BoundaryTrace) -> None:
    """CSV with one row of Gamma's node values per time level, row j at
    t = j*dt.

    The comment line above the rows records the grid size n and the
    trace's boundary spec: the time step, the measured set Gamma ('full' or
    its node indices, which are the rows' columns) and lambda (one value
    when uniform on Gamma, else one per Gamma node).
    """
    bs = g.bspec
    lam = bs.lam[bs.gamma]
    lam = lam[:1] if np.all(lam == lam[:1]) else lam
    meta = ["pacavity trace v4", f"n = {g.grid.n}", f"dt = {_fmt(g.dt)}",
            "gamma = " + ("full" if bs.gamma.size == bs.lam.size
                          else ",".join(str(b) for b in bs.gamma)),
            "lambda = " + ",".join(_fmt(v) for v in lam)]
    with open(path, "wb") as fh:
        fh.write(("# " + "; ".join(meta) + "\n").encode("ascii"))
        write_rows(fh, g.samples)


def _trace_spec(path, meta: dict, grid: Grid2D) -> BoundarySpec:
    """The boundary spec on the header's grid from the header entries dt,
    gamma and lambda."""
    for key in ("dt", "gamma", "lambda"):
        if key not in meta:
            raise ParseError(f"{path}: header entry '{key}' is missing")
    try:
        grid = Grid2D(grid.n, float(meta["dt"]))  # n is checked: this fails only on dt
    except ValueError as exc:
        raise ParseError(f"{path}: header 'dt': {exc}") from None
    nb = boundary_count(grid.n)
    text = meta["gamma"]
    try:
        nodes = (np.arange(nb) if text == "full"
                 else np.array([int(tok) for tok in text.split(",")]))
        if nodes.min() < 0 or nodes.max() >= nb or np.any(np.diff(nodes) <= 0):
            raise ValueError
    except ValueError:
        raise ParseError(f"{path}: header 'gamma' is not 'full' or an increasing node "
                         f"list in [0, {nb - 1}]: {text!r}") from None
    lam = np.zeros(nb)
    try:
        lam[nodes] = [float(tok) for tok in meta["lambda"].split(",")]
        if not np.all(lam[nodes] > 0):
            raise ValueError
        return BoundarySpec(grid, lam)
    except ValueError:
        raise ParseError(f"{path}: header 'lambda' must hold one positive value or one "
                         f"per Gamma node ({nodes.size}): {meta['lambda']!r}") from None


def read_trace(path) -> BoundaryTrace:
    """Reload a trace CSV; sample values are bit-identical.

    The header must carry the grid size n and the boundary spec: the time
    step, the Gamma nodes and lambda.  The spec is read first, since each
    row holds one value per Gamma node.
    """
    with _decoding(path), open(path, "rb") as fh:
        meta, first = _read_header(fh)
        bspec = _trace_spec(path, meta, _header_grid(path, meta))
        data = _read_rows(path, fh, first, bspec.gamma.size)
    try:
        return BoundaryTrace(bspec, data)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

_BOOL = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_number(key, text, kind=float, lo=-np.inf, hi=np.inf, strict=False):
    """The text as a kind (int or float) in [lo, hi], or in (lo, hi] when
    strict; a float must also be finite.  A failure names the key."""
    try:
        val = kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"key '{key}': expected {expected}, got {text!r}") from None
    if kind is float and not np.isfinite(val):
        raise ConfigError(f"key '{key}': value must be finite")
    if (val <= lo if strict else val < lo) or val > hi:
        raise ConfigError(f"key '{key}': value {val} out of range")
    return val


def _parse_gamma(key, text):
    if text in ("full", "left_bottom"):
        return text
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(
            f"key '{key}': expected 'full', 'left_bottom' or a comma-separated "
            f"node list, got {text!r}"
        ) from None


def _parse_bumps(key, text):
    if not text.strip():
        return PAPER_SIX
    specs = []
    for i, chunk in enumerate(part for part in text.split(";") if part.strip()):
        toks = chunk.split(",")
        if len(toks) != 4:
            raise ConfigError(
                f"key '{key}': bump {i} must be 'cx,cy,radius,amplitude', got {chunk.strip()!r}"
            )
        try:
            cx, cy, r, a = (float(t) for t in toks)
        except ValueError:
            raise ConfigError(f"key '{key}': bump {i} has a non-numeric entry") from None
        try:
            specs.append(BumpSpec((cx, cy), r, a))
        except ConfigError as exc:
            raise ConfigError(f"key '{key}': bump {i}: {exc}") from None
    if not specs:
        raise ConfigError(f"key '{key}': no bumps given")
    return tuple(specs)


def _parse_bool(key, text):
    if text.lower() not in _BOOL:
        raise ConfigError(f"key '{key}': expected true or false, got {text!r}")
    return _BOOL[text.lower()]


def _key(default, parse):
    """A RunConfig field, set by the configuration key of the same name;
    parse(key, text) validates the text and names the key on error."""
    return field(default=default, metadata={"parse": parse})


@dataclass
class RunConfig:
    """Validated experiment description; defaults reproduce the T=5 full-data run."""

    n: int = _key(257, partial(_parse_number, kind=int, lo=4, hi=MAX_N))
    dt_factor: float = _key(0.5, partial(_parse_number, lo=0.0, strict=True,
                                         hi=1.0 / np.sqrt(2.0) + 1e-12))
    T: float = _key(5.0, partial(_parse_number, lo=0.0, strict=True))
    gamma: object = _key("full", _parse_gamma)  # "full" | "left_bottom" | node indices
    bumps: tuple = _key(PAPER_SIX, _parse_bumps)  # BumpSpec tuple
    noise: float = _key(0.0, partial(_parse_number, lo=0.0))
    seed: int = _key(0, partial(_parse_number, kind=int, lo=0))
    iterations: int = _key(1, partial(_parse_number, kind=int, lo=0))
    out: str = _key("out", lambda key, text: text)
    snap_time: bool = _key(False, _parse_bool)

    def make_grid(self) -> Grid2D:
        grid = Grid2D(self.n)
        return Grid2D(self.n, self.dt_factor * grid.dx)

    def make_bspec(self, grid: Grid2D) -> BoundarySpec:
        """Gamma on the grid, with lambda = 1 (the impedance match 1/c for the
        unit sound speed) on all of it."""
        if self.gamma == "full":
            return BoundarySpec.full(grid)
        if self.gamma == "left_bottom":
            return BoundarySpec.left_bottom(grid)
        try:
            return BoundarySpec.from_node_list(grid, self.gamma)
        except ConfigError as exc:
            raise ConfigError(f"key 'gamma': {exc}") from None

    def make_phantom(self, grid: Grid2D) -> ScalarField:
        return render_phantom(self.bumps, grid)

    def resolve_T(self, dt: float) -> float:
        """Snap T to the time grid when snap_time is set, else require an
        exact multiple of dt."""
        try:
            if self.snap_time:
                return snap_duration(self.T, dt)
            num_steps(self.T, dt)
        except ConfigError as exc:
            raise ConfigError(f"key 'T' (at dt_factor = {self.dt_factor!r}): {exc}") from None
        return self.T


# Every configuration key, the name of the RunConfig field it sets, with
# that field's parser.  The config file, the demo presets and the
# command-line flags all go through this one table.
CONFIG_KEYS = {f.name: f.metadata["parse"] for f in fields(RunConfig)}


def apply_config_entry(cfg: RunConfig, key: str, text: str) -> None:
    """Set one key = value pair on a RunConfig, validating both."""
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown key {key!r}")
    setattr(cfg, key, CONFIG_KEYS[key](key, text))


def parse_config(path) -> RunConfig:
    """Parse a flat key = value file; unknown keys are an error."""
    cfg = RunConfig()
    path = Path(path)
    seen = set()
    with _decoding(path, ConfigError):
        lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, text = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            apply_config_entry(cfg, key, text)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return cfg
