"""Import guards over ``src/repro``: no thread, and ``obs`` is a leaf.

A process serves and records on one thread; parallelism is processes
(the loadgen coordinator's ``ProcessPoolExecutor``).  A stdlib ``ast``
scan of every module fails on any import of a thread API, so a lock or
a worker pool cannot come back unnoticed.

``repro.obs`` records and renders; what to do about a reading (when to
rebuild a model, say) is decided above it (``repro.mdbs.lifecycle``).
The same scan fails if anything under ``obs/`` imports another
``repro`` package.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Modules whose import means threads (or the queues and locks of threads).
THREAD_MODULES = {"threading", "queue", "_thread"}
#: The one concurrency import allowed: (module path, module, name).
ALLOWED = {("loadgen/coordinator.py", "concurrent.futures", "ProcessPoolExecutor")}


def thread_imports(path: Path) -> list[str]:
    """The thread-API imports in one module, as source-like strings."""
    relative = path.relative_to(SRC).as_posix()
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.partition(".")[0]
                if top in THREAD_MODULES or top == "concurrent":
                    found.append(f"import {alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            top = node.module.partition(".")[0]
            for alias in node.names:
                if top in THREAD_MODULES or (
                    top == "concurrent"
                    and (relative, node.module, alias.name) not in ALLOWED
                ):
                    found.append(f"from {node.module} import {alias.name}")
    return found


def test_src_repro_imports_no_thread_api():
    offenders = {
        path.relative_to(SRC).with_suffix("").as_posix(): imports
        for path in sorted(SRC.rglob("*.py"))
        if (imports := thread_imports(path))
    }
    assert not offenders, "thread APIs imported in src/repro: " + "; ".join(
        f"{module}: {', '.join(imports)}" for module, imports in offenders.items()
    )


def test_the_process_pool_is_the_one_allowed_import():
    coordinator = SRC / "loadgen" / "coordinator.py"
    assert thread_imports(coordinator) == []
    assert "ProcessPoolExecutor" in coordinator.read_text()


def repro_imports(path: Path) -> list[str]:
    """The ``repro`` packages one module imports, by name."""
    package = path.relative_to(SRC).parts[:-1]
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "repro"]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                if node.module and node.module.split(".")[0] == "repro":
                    found.append(node.module)
            else:
                base = ("repro",) + package[: len(package) - node.level + 1]
                found.append(".".join(base + ((node.module,) if node.module else ())))
    return found


def test_obs_imports_no_other_repro_package():
    offenders = {
        path.relative_to(SRC).as_posix(): outside
        for path in sorted((SRC / "obs").rglob("*.py"))
        if (outside := [
            name for name in repro_imports(path)
            if name != "repro.obs" and not name.startswith("repro.obs.")
        ])
    }
    assert not offenders, f"repro.obs must stay a leaf: {offenders}"
