"""Text file access and the shared decimal-text artifact format.

Every file the package reads or writes goes through ``read_text``,
``read_data`` (files packaged under ``vuln2rule/data``) or ``write_text``,
which raise only Vuln2RuleError subclasses.  Artifacts are a format marker
line, ``# key value`` metadata, then named matrices; floats are written with
repr() so that load(save(x)) round-trips exactly."""

from __future__ import annotations

from dataclasses import fields
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


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8; a missing directory or any other failure
    raises UnwritableFile."""
    try:
        Path(path).write_text(text, "utf-8")
    except (OSError, UnicodeEncodeError) as exc:
        raise UnwritableFile(f"{path}: {exc}") from exc


#: parsers for the field types of the config dataclasses saved in metadata
_FIELD_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "float | None": lambda value: None if value == "none" else float(value),
}


def config_meta(config) -> dict[str, str]:
    """A config dataclass as metadata, in field order: floats by repr(),
    None as ``none``."""
    values = {f.name: getattr(config, f.name) for f in fields(config)}
    return {
        name: "none" if v is None else repr(v) if isinstance(v, float) else str(v)
        for name, v in values.items()
    }


def config_from_meta(cls: type[T], meta: dict[str, str]) -> T:
    """Inverse of ``config_meta``; call it inside a ``read_model`` build."""
    return cls(**{f.name: _FIELD_PARSERS[f.type](meta[f.name]) for f in fields(cls)})


def write_model(
    path: str | Path,
    marker: str,
    meta: dict[str, str],
    matrices: dict[str, np.ndarray],
) -> None:
    lines = [marker]
    lines += [f"# {key} {value}" for key, value in meta.items()]
    for name, matrix in matrices.items():
        arr = np.atleast_2d(np.asarray(matrix, dtype=float))
        lines.append(f"matrix {name} {arr.shape[0]} {arr.shape[1]}")
        lines += [" ".join(repr(float(v)) for v in row) for row in arr]
    write_text(path, "\n".join(lines) + "\n")


def read_model(
    path: str | Path,
    marker: str,
    build: Callable[[dict[str, str], dict[str, np.ndarray]], T],
) -> T:
    """Parse a ``write_model`` file and return ``build(meta, matrices)``.

    Every defect raises a Vuln2RuleError naming the file: a missing
    metadata key or matrix (KeyError in ``build``), a value that does not
    convert or a config that rejects it (ValueError), or a matrix header,
    row or cell that does not parse."""
    lines = read_text(path).splitlines()
    if not lines or lines[0].strip() != marker:
        raise FormatVersionMismatch(f"{path}: expected {marker!r} on the first line")
    meta: dict[str, str] = {}
    i = 1
    while i < len(lines) and lines[i].startswith("#"):
        key, _, value = lines[i][1:].strip().partition(" ")
        meta[key] = value
        i += 1
    matrices: dict[str, np.ndarray] = {}
    try:
        while i < len(lines):
            header = lines[i].split()
            if len(header) != 4 or header[0] != "matrix":
                raise MalformedRecord(f"{path}: bad matrix header {lines[i]!r}")
            name, rows, cols = header[1], int(header[2]), int(header[3])
            block = lines[i + 1 : i + 1 + rows]
            if len(block) != rows:
                raise MalformedRecord(f"{path}: matrix {name} truncated")
            # allocate by the first row's width: a damaged ``cols`` may be huge
            arr = np.empty((rows, len(block[0].split()) if block else cols))
            for r, line in enumerate(block):
                values = line.split()
                if len(values) != cols:
                    raise MalformedRecord(
                        f"{path}: matrix {name} row {r} has {len(values)} values"
                    )
                arr[r] = [float(v) for v in values]
            matrices[name] = arr
            i += 1 + rows
        return build(meta, matrices)
    except KeyError as exc:
        raise MalformedRecord(f"{path}: missing {exc}") from exc
    except (ValueError, IndexError) as exc:
        raise MalformedRecord(f"{path}: {exc}") from exc
