"""The README's library example runs as printed."""

from __future__ import annotations

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_quick_start_runs():
    code = quick_start_block()
    assert "bridge_construct" in code
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.k_f == 2 * (report.n - 1) + report.k_e
    assert report.shifted
