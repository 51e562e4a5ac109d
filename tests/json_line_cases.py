"""Lines that `relkit.errors.json_line` must decode exactly as `json.loads`.

Standard library only, so the table also runs where numpy and pytest are
missing:

    PYTHONPATH=src python tests/json_line_cases.py

prints how many cases agree and exits 1 on the first that does not.
`tests/test_errors.py` runs the same table under pytest.
"""

import json
import sys

BODIES = [
    ("object", '{"subject": "man", "predicate": "on", "object": "horse", '
               '"weight": 2}'),
    ("nested", '{"objects": [{"label": 0, "box": [0.5, -1, 2e-3, 4]}], '
               '"pair_features": {"0,1": [1.25, -0.0]}}'),
    ("array", '[1, 2.5, "x", null, true, false, [], {}]'),
    ("string", '"a \\"quoted\\" \\\\ word"'),
    ("int", "42"),
    ("negative-zero", "-0"),
    ("float", "-3.25e-2"),
    ("true", "true"),
    ("null", "null"),
    ("nan", "NaN"),
    ("infinity", '[Infinity, -Infinity]'),
    ("overflow", '{"weight": 1e400}'),
    ("escapes", '"\\u00e9\\u2028\\ud83d\\ude00\\ud800"'),
    ("repeated-keys", '{"a": 1, "b": 2, "a": 3}'),
    ("long-int", "7" * 4301),
    ("long-int-field", '{"weight": ' + "9" * 5000 + "}"),
    ("bom", '\ufeff{"a": 1}'),
    ("extra-data", '{"a": 1} {"b": 2}'),
    ("extra-word", "1 x"),
    ("extra-form-feed", "[1]\f"),
    ("extra-nbsp", "[1]\u00a0"),
    ("truncated-object", '{"subject": "man", "predicate": '),
    ("truncated-array", "[1, 2"),
    ("truncated-string", '"abc'),
    ("truncated-key", '{"a"'),
    ("truncated-literal", "tru"),
    ("trailing-comma", "[1, ]"),
    ("bad-escape", '"\\uZZZZ"'),
    ("control-character", '"a\tb"'),
    ("single-quotes", "{'a': 1}"),
    ("empty", ""),
]
ENDINGS = [("bare", "", ""), ("lf", "", "\n"), ("crlf", "", "\r\n"),
           ("trailing-blanks", "", " \t \n"), ("trailing-tab", "", "\t"),
           ("leading-blanks", " \t", "\n")]
CASES = [(f"{name}-{ending}", head + body + tail)
         for name, body in BODIES for ending, head, tail in ENDINGS]


def typed(value):
    """`value` with the type of every part spelled out; NaN equals NaN."""
    if isinstance(value, dict):
        return dict, [(key, typed(v)) for key, v in value.items()]
    if isinstance(value, list):
        return list, [typed(v) for v in value]
    return type(value), repr(value) if type(value) is float else value


def outcome(decode, line):
    """What `decode(line)` gives: its typed value, or its error and message."""
    try:
        return "value", typed(decode(line))
    except ValueError as exc:
        return "error", type(exc), str(exc)


if __name__ == "__main__":
    from relkit.errors import json_line

    for name, line in CASES:
        if outcome(json_line, line) != outcome(json.loads, line):
            sys.exit(f"{name}: {outcome(json_line, line)} != "
                     f"{outcome(json.loads, line)}")
    deep = "[" * 100_000 + "]" * 100_000
    for line in (deep, " " + deep + "\n"):
        try:
            json_line(line)
            sys.exit("a line nested 100000 deep decoded")
        except json.JSONDecodeError as exc:
            if not str(exc).startswith("nested too deep"):
                sys.exit(f"deep nesting: {exc}")
    print(f"{len(CASES)} cases agree with json.loads and deep nesting is "
          f"invalid JSON on Python {sys.version.split()[0]}")
