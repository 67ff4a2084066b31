"""README's environment-variable table matches the code.

Every ``REPRO_*`` name that ``src/`` mentions must have
a row in README's "Environment variables" table, and every row must name
a variable the code still reads, so a deleted kill switch cannot outlive
its code in the docs.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def _names_in_code() -> set[str]:
    names: set[str] = set()
    for path in (ROOT / "src").rglob("*.py"):
        names.update(NAME.findall(path.read_text(encoding="utf-8")))
    return names


def _names_in_readme_table() -> set[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### Environment variables", 1)[1]
    section = re.split(r"^#{1,3} ", section, maxsplit=1, flags=re.M)[0]
    names: set[str] = set()
    for line in section.splitlines():
        if line.startswith("| `REPRO_"):
            names.update(NAME.findall(line.split("|")[1]))
    return names


def test_readme_env_table_lists_exactly_the_variables_the_code_reads():
    in_code = _names_in_code()
    in_readme = _names_in_readme_table()
    assert in_code, "no REPRO_* names found under src/"
    assert in_readme == in_code, (
        f"missing from README: {sorted(in_code - in_readme)}; "
        f"stale in README: {sorted(in_readme - in_code)}"
    )
