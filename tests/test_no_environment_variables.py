"""Import guard over ``src/repro``: no module reads an environment variable.

Behaviour is set by arguments and configuration objects, never by the
process environment, so a run is reproduced from its command line alone.
A stdlib ``ast`` scan of every module fails on any use of
``os.environ``, ``os.environb`` or ``os.getenv`` (as attributes, or
imported by name from ``os``).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

ENVIRONMENT_NAMES = {"environ", "environb", "getenv"}


def environment_reads(path: Path, root: Path = SRC) -> list[str]:
    """``file:line name`` for each environment access in one module, by line."""
    relative = path.relative_to(root).as_posix()
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, a.name) for a in node.names if a.name in ENVIRONMENT_NAMES]
    return [f"{relative}:{line} {name}" for line, name in sorted(found)]


def test_src_repro_reads_no_environment_variable():
    offenders = [read for path in sorted(SRC.rglob("*.py")) for read in environment_reads(path)]
    assert not offenders, f"environment read in src/repro: {offenders}"


def test_the_scan_sees_each_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\nfrom os import getenv\n"
        "a = os.environ.get('X')\nb = os.getenv('Y')\nc = os.environb\n"
    )
    assert environment_reads(module, tmp_path) == [
        "m.py:2 getenv", "m.py:3 environ", "m.py:4 getenv", "m.py:5 environb",
    ]
