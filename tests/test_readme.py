"""The library example in README.md runs as written, and its table of
layer fields is the parser's."""

import pathlib
import re

from flowcnn.netspec import (_MINIMUM, FIXED, LAYER_FIELDS, MAX_INT,
                             LayerKind)

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_snippet_runs():
    text = README.read_text()
    section = text[text.index("## Library"):]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(snippet, str(README), "exec"), {})


def _cell_value(cell: str):
    """A table cell as the field table writes it: an integer, a flag, or
    the name of the field that it defaults to."""
    cell = cell.strip("`")
    return {"false": False, "required": None}.get(
        cell, int(cell) if cell.isdigit() else cell)


def test_readme_field_table_matches_layer_fields():
    text = README.read_text()
    section = text[text.index("## Network documents"):]
    rows = [[c.strip() for c in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| ")]
    header, ranges, *kinds = rows
    fields = [c.strip("`") for c in header[1:]]
    for key, cell in zip(fields, ranges[1:]):
        expected = ("boolean" if key == "internal_input" else
                    f"{_MINIMUM.get(key, 1)}..{MAX_INT}")
        assert cell == expected, key
    assert [row[0].strip("`") for row in kinds] == \
        [kind.value for kind in LAYER_FIELDS]
    for row in kinds:
        kind = LayerKind(row[0].strip("`"))
        table = {}
        for key, cell in zip(fields, row[1:]):
            if cell:
                fixed = cell.startswith("fixed ")
                table[key] = _cell_value(cell.removeprefix("fixed "))
                assert fixed == (key in FIXED.get(kind, ())), (kind, key)
        assert table == LAYER_FIELDS[kind], kind
