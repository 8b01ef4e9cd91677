"""The README's library quick start runs as written against the top-level
package, and every name the package exports resolves."""

import contextlib
import io
import re
from pathlib import Path

import logndiv

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs_as_written():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quick_start(), str(README), "exec"), {})
    p_sc, p_hat, stderr = (float(v) for v in out.getvalue().split())
    assert 0.0 < p_sc < 1.0 and 0.0 <= p_hat <= 1.0 and stderr >= 0.0


def test_every_exported_name_resolves():
    missing = [name for name in logndiv.__all__ if not hasattr(logndiv, name)]
    assert not missing
