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
    return "".join(f"{k}={v}\n" for k, v in cfg.items())
