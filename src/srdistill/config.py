"""Flat key=value text: the one parser and formatter for every manifest."""

from __future__ import annotations


class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key=value` lines; blank lines and # comments are skipped.

    A line without `=`, an empty key or a repeated key is a ConfigError.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: repeated key {key!r}")
        out[key] = value.strip()
    return out


def format_config(cfg: dict[str, str]) -> str:
    """Format `key=value` lines that :func:`parse_config_text` reads back as `cfg`.

    A key or value it would read back differently is a ConfigError: an empty
    key, a key that starts with `#` or holds `=`, surrounding whitespace, or
    a line break anywhere.
    """
    for key, value in cfg.items():
        if not key or key.startswith("#") or "=" in key:
            raise ConfigError(f"key {key!r} cannot be written")
        for part in (key, value):
            if part != part.strip() or len(part.splitlines()) > 1:
                raise ConfigError(f"{key!r}={value!r}: surrounding whitespace "
                                  f"or a line break cannot be written")
    return "".join(f"{k}={v}\n" for k, v in cfg.items())
