"""README's knob table lists exactly the ``REPRO_*`` names ``src/`` reads."""

import re
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_NAME = re.compile(r"\bREPRO_[A-Z_]+")


def _names_in_src():
    names = set()
    for path in (_ROOT / "src").rglob("*.py"):
        names.update(_NAME.findall(path.read_text()))
    # ``REPRO_DSE_*``-style mentions name a family, not a knob.
    return {name for name in names if not name.endswith("_")}


def _names_in_readme_table():
    rows = re.findall(r"^\| `(REPRO_[A-Z_]+)` \|",
                      (_ROOT / "README.md").read_text(), flags=re.M)
    assert len(rows) == len(set(rows)), "duplicate knob rows"
    return set(rows)


def test_readme_table_matches_src():
    in_src, in_table = _names_in_src(), _names_in_readme_table()
    assert in_src - in_table == set(), "knobs missing from README table"
    assert in_table - in_src == set(), "README lists knobs src/ never reads"
