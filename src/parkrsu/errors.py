"""Shared exception types, and the opener of text inputs that raises them."""

from contextlib import contextmanager


class ConfigurationError(ValueError):
    """Invalid model or run configuration (message names the offending field)."""


class OutOfBoundsError(ValueError):
    """Position or cell outside the grid footprint."""


class MalformedLineError(ValueError):
    """Unparseable line in an external text input (message names the line)."""


@contextmanager
def open_text(path):
    """Open an input file as UTF-8 text, dropping a leading byte-order mark.

    Bytes that do not decode raise MalformedLineError naming the file.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise MalformedLineError(f"{path}: not UTF-8 text") from None
