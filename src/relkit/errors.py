"""Exception hierarchy shared across the toolkit, and the text-file reader.

Exit-code categories used by the CLI:
  2 - usage / configuration errors
  3 - data / file format errors
  4 - numeric errors
"""


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


def read_lines(path):
    """Yield numbered lines of a UTF-8 text file; bad bytes are FormatErrors."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise FormatError(
                f"{path}:{line}: byte {exc.start}: not UTF-8") from exc
        raise
