"""The package as a whole: its size, its public names and the README's example.

``SRC_LINES`` is a ratchet on the physical lines of ``src/kernelkoop/*.py``.
A change that adds or removes lines there sets it to the new count in the
same diff, and CHANGES.md gives the reason, so growth is a visible decision.
"""

import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import kernelkoop

SRC_LINES = 2403

PACKAGE = Path(kernelkoop.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"


def test_src_line_count_equals_the_ratchet():
    lines = {path.name: path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py")}
    assert sum(lines.values()) == SRC_LINES, (
        f"src/kernelkoop/*.py has {sum(lines.values())} lines, the ratchet says {SRC_LINES}: "
        f"set SRC_LINES in this diff and give the reason in CHANGES.md ({lines})"
    )


def test_all_holds_the_public_names_sorted():
    names = kernelkoop.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names)) == 45
    for name in names:
        value = getattr(kernelkoop, name)
        assert not name.startswith("_"), name
        assert not isinstance(value, ModuleType), name
        assert value.__module__.startswith("kernelkoop."), (name, value.__module__)


def test_readme_library_example_runs_as_written(tmp_path):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code + "print(len(centers))\n"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "37"
