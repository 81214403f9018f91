"""The README's Library quick start runs as printed; it uses only the
supported Python API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_prints_what_the_readme_says(capsys):
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(code, {})
    assert capsys.readouterr().out.splitlines() == [
        "1*|0,3,0> - 2*|1,0,1>", "True", "9"]
