"""Exception hierarchy shared across the toolkit, and the text-file reader.

Exit-code categories used by the CLI:
  2 - usage / configuration errors
  3 - data / file format errors
  4 - numeric errors
"""

import json
from pathlib import Path


class RelkitError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ConfigError(RelkitError):
    """Bad configuration value or inconsistent run options."""

    exit_code = 2


class FormatError(RelkitError):
    """Malformed input file (JSONL, TSV, embedding text, checkpoint)."""

    exit_code = 3


class InvalidBoxError(RelkitError):
    """Bounding box with non-positive size or non-finite coordinates."""

    exit_code = 3


class NumericError(RelkitError):
    """Non-finite intermediate value or undefined numeric operation."""

    exit_code = 4


class OutOfVocabularyError(RelkitError):
    """Phrase with no embeddable token in strict mode."""

    exit_code = 3


class EmptySceneError(RelkitError):
    """Operation requires at least one object in the scene."""

    exit_code = 3


_PARSE_ERRORS = (ValueError, TypeError, KeyError, IndexError, AttributeError,
                 OverflowError)
_HINTS = {json.JSONDecodeError: "invalid JSON: ", KeyError: "missing field "}
_scan_once = json.JSONDecoder().scan_once  # the scanner json.loads ends in


def json_line(line: str):
    """`json.loads(line)`, value and error alike, but by the scanner alone when
    a value starts the line and JSON whitespace ends it; too deep is invalid."""
    try:
        try:
            value, end = _scan_once(line, 0)
        except StopIteration:  # no value at 0: json.loads says why
            return json.loads(line)
        return json.loads(line) if line[end:].strip(" \t\n\r") else value
    except RecursionError:
        raise json.JSONDecodeError("nested too deep", line, 0) from None


def integer(text: str) -> int:
    """`text` as an int if it is ASCII `-?[0-9]+`, else a ValueError."""
    if text.isascii() and (text.isdecimal() or text[:1] == "-" and text[1:].isdecimal()):
        return int(text)
    raise ValueError(f"{text!r} is not an integer")


class TextFile:
    """A UTF-8 text file, less any leading byte-order mark, read line by line:
    `with TextFile(path) as lines:`. An error raised in the block gets a
    `path:line: ` prefix (`path: ` before the first or after the last line).
    A RelkitError keeps its type, a parse error becomes a FormatError, a byte
    that is not UTF-8 is named by offset. Whitespace-only lines are skipped;
    `lines.lineno`, the current line's number, counts them. `lines.unique`
    refuses a key an earlier line gave."""

    def __init__(self, path):
        self.path, self.lineno, self._first = path, None, {}

    def __enter__(self):
        self._fh = open(self.path, encoding="utf-8-sig")
        self._numbered = enumerate(self._fh, start=1)
        return self

    def __iter__(self):  # every iterator continues where the last one stopped
        for self.lineno, line in self._numbered:
            if not line.isspace():
                yield line
        self.lineno = None

    def unique(self, what: str, key):
        """`key`, or a FormatError naming the line that first gave it. A file
        holds one kind of key, so `what` only names it."""
        first = self._first.setdefault(key, self.lineno)
        if first != self.lineno:
            raise FormatError(f"{what} {key!r} repeats line {first}")
        return key

    def __exit__(self, kind, exc, tb):
        self._fh.close()
        if isinstance(exc, UnicodeDecodeError):
            try:
                Path(self.path).read_bytes().decode("utf-8")
            except UnicodeDecodeError as bad:
                line = bad.object.count(b"\n", 0, bad.start) + 1
                raise FormatError(f"{self.path}:{line}: byte {bad.start}: "
                                  f"not UTF-8") from exc
        if not isinstance(exc, (RelkitError, *_PARSE_ERRORS)):
            return False
        where = self.path if self.lineno is None else f"{self.path}:{self.lineno}"
        error = type(exc) if isinstance(exc, RelkitError) else FormatError
        raise error(f"{where}: {_HINTS.get(type(exc), '')}{exc}") from exc
