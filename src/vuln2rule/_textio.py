"""File access and the shared artifact codec.

Every file the package reads or writes goes through ``read_text``,
``read_data`` (files packaged under ``vuln2rule/data``), ``write_text`` or
``read_model``/``write_model``, which raise only Vuln2RuleError subclasses.
An artifact starts with UTF-8 text lines: a format marker, then ``# key
value`` metadata.  Each matrix follows as a ``matrix <name> <rows> <cols>``
line and exactly rows*cols*8 bytes of little-endian float64 in row order, so
load(save(x)) is bit-exact.  Config dataclasses declare each setting's default
and range once, with ``setting``, and check them with ``check_settings``."""

from __future__ import annotations

import io
import math
from dataclasses import field, fields
from importlib import resources
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from .errors import FormatVersionMismatch, MalformedRecord, UnreadableFile, UnwritableFile

T = TypeVar("T")


def read_text(path: str | Path) -> str:
    """The file's UTF-8 text; a missing, unreadable or non-UTF-8 file raises
    UnreadableFile."""
    try:
        return Path(path).read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UnreadableFile(f"{path}: {exc}") from exc


def read_data(name: str) -> str:
    """The text of a file packaged under ``vuln2rule/data``."""
    return read_text(resources.files("vuln2rule") / "data" / name)


def write_text(path: str | Path, text: str | bytes) -> None:
    """Write ``text`` (as UTF-8 if a str); a missing directory or any other
    failure raises UnwritableFile."""
    try:
        Path(path).write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    except (OSError, UnicodeEncodeError) as exc:
        raise UnwritableFile(f"{path}: {exc}") from exc


def _path(value: str) -> Path:
    if "\0" in value:
        raise ValueError(f"path {value!r} holds a NUL character")
    return Path(value)


#: parsers from text for the field types of the config dataclasses, as
#: written in their annotations
FIELD_PARSERS: dict[str, Callable[[str], object]] = {
    "int": int, "float": float, "str": str, "Path": _path, "Path | None": _path,
    "tuple[int, ...]": lambda value: tuple(int(v) for v in value.split(",")),
}


#: the ranges a config setting can declare, by the words that its error
#: message uses: "<name> must be <range>, got <value>"
RANGES: dict[str, Callable] = {
    "at least 0": lambda v: v >= 0,
    "at least 1": lambda v: v >= 1,
    "a finite number > 0": lambda v: math.isfinite(v) and v > 0,
    "a finite number at least 0": lambda v: math.isfinite(v) and v >= 0,
    "a number, not NaN": lambda v: not math.isnan(v),
    "CBOW or SG": lambda v: v in ("CBOW", "SG"),
}


def setting(default, within: str):
    """A config dataclass field with its default and its range, a key of
    ``RANGES``; a dict default is copied per instance."""
    if isinstance(default, dict):
        return field(default_factory=lambda: dict(default), metadata={"range": within})
    return field(default=default, metadata={"range": within})


def check_settings(config) -> None:
    """Raise ValueError naming the first setting of ``config`` outside its
    declared range; each item of a tuple is checked, and each value of a
    dict under the name ``<field>.<key>``."""
    for f in fields(config):
        if "range" not in f.metadata:
            continue
        value = getattr(config, f.name)
        if isinstance(value, dict):
            items = [(f"{f.name}.{key}", v) for key, v in value.items()]
        else:
            items = [(f.name, v) for v in (value if isinstance(value, tuple) else (value,))]
        for name, v in items:
            if not RANGES[f.metadata["range"]](v):
                raise ValueError(f"{name} must be {f.metadata['range']}, got {v}")


def config_meta(config) -> dict[str, str]:
    """A config dataclass as metadata, in field order: floats by repr()."""
    values = {f.name: getattr(config, f.name) for f in fields(config)}
    return {name: repr(v) if isinstance(v, float) else str(v) for name, v in values.items()}


def config_from_meta(cls: type[T], meta: dict[str, str]) -> T:
    """Inverse of ``config_meta``; call it inside a ``read_model`` build.
    Keys that are not fields of ``cls`` are ignored."""
    return cls(**{f.name: FIELD_PARSERS[f.type](meta[f.name]) for f in fields(cls)})


def write_model(
    path: str | Path,
    marker: str,
    meta: dict[str, str],
    matrices: dict[str, np.ndarray],
) -> None:
    lines = [marker, *(f"# {key} {value}" for key, value in meta.items())]
    parts = ["".join(line + "\n" for line in lines).encode("utf-8")]
    for name, matrix in matrices.items():
        arr = np.atleast_2d(np.asarray(matrix, dtype="<f8"))
        parts += [f"matrix {name} {arr.shape[0]} {arr.shape[1]}\n".encode("utf-8"), arr.tobytes()]
    write_text(path, b"".join(parts))


def read_model(
    path: str | Path,
    marker: str,
    build: Callable[[dict[str, str], dict[str, np.ndarray]], T],
) -> T:
    """Parse a ``write_model`` file and return ``build(meta, matrices)``.

    Every defect raises a Vuln2RuleError naming the file: non-UTF-8 metadata
    (UnreadableFile), a missing metadata key or matrix (KeyError in ``build``),
    a value that does not convert or a config that rejects it (ValueError), a
    bad matrix header, a block larger than the bytes left or trailing bytes."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise UnreadableFile(f"{path}: {exc}") from exc
    stream = io.BytesIO(data)
    if stream.readline() != f"{marker}\n".encode("utf-8"):
        raise FormatVersionMismatch(f"{path}: expected {marker!r} on the first line")
    meta: dict[str, str] = {}
    matrices: dict[str, np.ndarray] = {}
    try:
        while (line := stream.readline()).startswith(b"#"):
            key, _, value = line[1:].decode("utf-8").strip().partition(" ")
            meta[key] = value
        while line:
            parts = line.split()
            if len(parts) != 4 or parts[0] != b"matrix":
                raise MalformedRecord(f"{path}: bad matrix header {line[:60]!r}")
            name, rows, cols = parts[1].decode("utf-8", "replace"), int(parts[2]), int(parts[3])
            # check the declared size before reading: a damaged one may be huge
            offset, count = stream.tell(), rows * cols
            if min(rows, cols) < 0 or 8 * count > len(data) - offset:
                raise MalformedRecord(f"{path}: matrix {name} {rows}x{cols} does not fit the file")
            matrices[name] = np.frombuffer(data, "<f8", count, offset).reshape(rows, cols).copy()
            stream.seek(offset + 8 * count)
            line = stream.readline()
        return build(meta, matrices)
    except UnicodeDecodeError as exc:
        raise UnreadableFile(f"{path}: {exc}") from exc
    except KeyError as exc:
        raise MalformedRecord(f"{path}: missing {exc}") from exc
    except (ValueError, IndexError) as exc:
        raise MalformedRecord(f"{path}: {exc}") from exc
