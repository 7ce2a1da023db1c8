import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_quick_tour_runs_and_finds_scalar_two():
    text = README.read_text()
    section = text[text.index("## Library quick tour"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert "2" in out.getvalue().splitlines()
