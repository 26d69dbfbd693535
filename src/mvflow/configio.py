"""Text spec files (key = value, schema versioned) and round-trip CSV I/O.

Floats are serialized with repr, whose shortest-round-trip guarantee makes
write -> read -> write byte-stable; that is what the manifest hashing and
the determinism checks lean on.
"""

from __future__ import annotations

import hashlib
import re

from .errors import DomainError, SpecParseError

SCHEMA_VERSION = 1

_KEY_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def parse_kv(text: str, source: str = "<string>") -> dict[str, str]:
    """Parse 'key = value' lines; '#' lines are comments, blanks ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SpecParseError(
                f"{source} line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not _KEY_RE.match(key or " "):
            raise SpecParseError(
                f"{source} line {lineno}: bad key {key!r}")
        if not value:
            raise SpecParseError(
                f"{source} line {lineno}: field '{key}' has an empty value")
        if key in out:
            raise SpecParseError(
                f"{source} line {lineno}: duplicate field '{key}'")
        out[key] = value
    return out


def read_spec(path: str) -> dict[str, str]:
    """Parse a spec file and enforce the schema version."""
    with open(path) as fh:
        cfg = parse_kv(fh.read(), source=str(path))
    if "schema" not in cfg:
        raise SpecParseError(f"{path}: field 'schema' is required")
    if cfg["schema"] != str(SCHEMA_VERSION):
        raise SpecParseError(
            f"{path}: field 'schema': version {cfg['schema']!r} unsupported "
            f"(this tool reads {SCHEMA_VERSION})")
    return cfg


def format_kv(cfg: dict) -> str:
    lines = []
    for key, value in cfg.items():
        value = str(value)
        if not _KEY_RE.match(str(key)):
            raise DomainError(f"key {key!r} not writable in kv format")
        if "\n" in value or "#" in value:
            raise DomainError(f"value for '{key}' not writable in kv format")
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: dict) -> str:
    """Order-independent content hash of a key/value mapping."""
    canon = "".join(f"{k} = {cfg[k]}\n" for k in sorted(cfg))
    return hashlib.sha256(canon.encode()).hexdigest()


# -- CSV ---------------------------------------------------------------------------

def _format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    s = str(v)
    if "," in s or "\n" in s or '"' in s:
        raise DomainError(f"cell {s!r} not writable in this CSV dialect")
    return s


def format_csv(header: list[str], rows) -> str:
    lines = [",".join(_format_cell(h) for h in header)]
    width = len(header)
    for row in rows:
        if len(row) != width:
            raise DomainError(
                f"row width {len(row)} does not match header width {width}")
        lines.append(",".join(_format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(format_csv(header, rows))

