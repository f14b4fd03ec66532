"""The library example in README.md runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_snippet_runs():
    text = README.read_text()
    section = text[text.index("## Library"):]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(snippet, str(README), "exec"), {})
