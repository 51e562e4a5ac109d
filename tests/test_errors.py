import pytest

from relkit.errors import ConfigError, FormatError, TextFile


def read(path, handle):
    with TextFile(path) as lines:
        for line in lines:
            handle(line)
        handle(None)


def fail_on(word, exc):
    def handle(line):
        if line is None or word in line:
            raise exc
    return handle


@pytest.fixture
def path(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("one\ntwo\nthree\n")
    return path


@pytest.mark.parametrize("exc", [ValueError("bad"), TypeError("bad"),
                                 IndexError("bad"), AttributeError("bad"),
                                 OverflowError("bad")])
def test_parse_error_becomes_located_format_error(path, exc):
    with pytest.raises(FormatError, match=f"^{path}:2: bad$"):
        read(path, fail_on("two", exc))


def test_relkit_error_keeps_its_type(path):
    with pytest.raises(ConfigError, match=f"^{path}:3: bad$"):
        read(path, fail_on("three", ConfigError("bad")))


def test_error_after_the_last_line_names_only_the_file(path):
    with pytest.raises(FormatError, match=f"^{path}: bad$"):
        read(path, fail_on("none of the lines", ValueError("bad")))


def test_other_errors_pass_through(path):
    with pytest.raises(RuntimeError, match="^bad$"):
        read(path, fail_on("one", RuntimeError("bad")))


def test_each_iterator_continues_the_last(path):
    with TextFile(path) as lines:
        assert next(iter(lines)) == "one\n" and lines.lineno == 1
        assert [(line, lines.lineno) for line in lines] == [("two\n", 2),
                                                             ("three\n", 3)]
        assert next(iter(lines), None) is None and lines.lineno is None


def test_whitespace_only_lines_skipped_but_counted(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("\n  \none\n\t\n \t \ntwo\n\n")
    with TextFile(path) as lines:
        assert [(line, lines.lineno) for line in lines] == [("one\n", 3),
                                                             ("two\n", 6)]
        assert lines.lineno is None


def test_non_utf8_byte_named_by_line_and_offset(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"one\nt\xffo\n")
    with pytest.raises(FormatError, match=f"^{path}:2: byte 5: not UTF-8$"):
        read(path, lambda line: None)


def test_unique_returns_the_key_and_names_its_first_line(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("\na\n  \nb\na\n")
    keys = []
    with pytest.raises(FormatError, match=f"^{path}:5: token 'a' repeats "
                                          f"line 2$"):
        with TextFile(path) as lines:
            for line in lines:
                keys.append(lines.unique("token", line.strip()))
    assert keys == ["a", "b"]
