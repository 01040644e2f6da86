"""README's library example runs as written, and top-level `abmix` exports
exactly the names it imports.  `python tests/test_readme.py` runs the
example alone against whichever `abmix` is importable, e.g. the installed
package."""

import ast
import contextlib
import io
import re
from pathlib import Path

import abmix

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The fenced python block under README's `## Library example`."""
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_shows_opposite_branch_shifts():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(library_example(), {"__name__": "library_example"})
    shift1, shift2 = map(float, printed.getvalue().splitlines()[-1].split())
    assert shift1 * shift2 < 0


def test_top_level_names_are_the_library_examples_imports():
    imported = [alias.name for node in ast.walk(ast.parse(library_example()))
                if isinstance(node, ast.ImportFrom) and node.module == "abmix" for alias in node.names]
    assert sorted(abmix.__all__) == sorted(imported)


if __name__ == "__main__":
    exec(library_example(), {"__name__": "library_example"})
