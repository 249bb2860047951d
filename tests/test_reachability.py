"""Reachability guard: nothing public in ``src/repro`` lives for its own test.

A name-based reference graph (stdlib ``ast``) is closed from the real
entry points — the two ``__main__`` modules, ``bench/`` (with its
``"repro.x.y:Class.method"`` wrap points), ``benchmarks/``, ``examples/``
and the README's ``python`` blocks (parsed, not run).  Package re-export
lists are not references: imports inside ``src/`` never count and
``__all__`` entries are strings.  A collision between two names errs
toward keeping.  Granularity is the top-level function, class and module;
methods ride with their class.

``python tests/test_reachability.py`` prints the summary CI logs: the
symbol line and the method line, both gated by the tests.  The method
line reruns the closure over the same graph with each class body split
into its methods: a method is reached once its class is and some reached
code (or a root) mentions its name; dunders ride with their class.  The
methods it leaves unreached must be exactly :data:`UNREACHED_METHODS`.
"""

import ast
import importlib
import re
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
WRAP_POINT = re.compile(r"repro(\.\w+)+:\w+(\.\w+)*")

#: Reference implementations, each with the test that compares production
#: output against it.  Nothing else may be unreached.
REFERENCES = {
    ("engine.joins", "naive_join"): "tests/engine/test_joins.py",
    ("engine.access", "filter_rows"): "tests/engine/test_access.py",
}

#: The methods no entry point reaches, each kept on purpose for the
#: reason given.  A ratchet: a newly unreached method fails the suite,
#: and one that becomes reached (or is deleted) must leave this list.
UNREACHED_METHODS = {
    "core.variables.Observation.vector": "tested only",
    "engine.btree.BPlusTree._check_node": "invariant check",
    "engine.btree.BPlusTree.check_invariants": "invariant check",
    "engine.btree.BPlusTree.num_keys": "inspection hook",
    "engine.buffer.BufferPool.access": "test seam",
    "engine.buffer.BufferPool.reset_stats": "test seam",
    "engine.buffer.BufferPool.resident_keys": "inspection hook",
    "engine.schema.TableSchema.project": "tested only",
    "env.contention.SlowdownModel.level_for_slowdown": "tested only",
    "env.environment.Environment.concurrent_processes": "tested only",
    "env.loadbuilder.LoadBuilder.idle": "tested only",
    "env.monitor.EnvironmentMonitor.process_table": "tested only",
    "env.stats.SystemStatistics.field_names": "tested only",
    "experiments.config.ExperimentConfig.with_seed": "test seam",
    "obs.metrics.MetricsRegistry.counter_value": "inspection hook",
    "obs.metrics.MetricsRegistry.gauge_value": "unused",
    "serving.plan_cache.PlanCache.entries": "inspection hook",
}


def _names(tree: ast.AST, root: bool = False) -> set[str]:
    """Identifiers *tree* mentions; a root also counts imports and wrap points."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif root and isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif root and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if WRAP_POINT.fullmatch(node.value):
                out.update(re.split(r"[.:]", node.value))
    return out


@cache
def _source_graph(split_classes: bool = False):
    """``{(module, name): names the definition mentions}`` and the public keys.

    ``(module, None)`` holds a module's loose top-level statements.  With
    *split_classes*, each method is its own ``(module, "Class.method")``
    key and the class key keeps only the rest of the class body.
    """
    graph, public = {}, []
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        loose = graph.setdefault((module, None), set())
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                graph[module, node.name] = _names(node)
                if not node.name.startswith("_"):
                    public.append((module, node.name))
                if split_classes and isinstance(node, ast.ClassDef):
                    methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
                    rest = [m for m in node.body if m not in methods]
                    graph[module, node.name] = set().union(
                        *map(_names, rest + node.bases + node.decorator_list)
                    )
                    for method in methods:
                        graph[module, f"{node.name}.{method.name}"] = _names(method)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in set().union(*map(_names, targets)):
                    graph[module, name] = _names(node.value)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                loose |= _names(node)
    return graph, public


def _root_names() -> set[str]:
    files = [SRC / "experiments" / "__main__.py", SRC / "obs" / "__main__.py"]
    for folder in ("bench", "benchmarks", "examples"):
        files += sorted((ROOT / folder).rglob("*.py"))
    trees = [ast.parse(path.read_text()) for path in files]
    readme = (ROOT / "README.md").read_text()
    trees += [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    return set().union(*(_names(tree, root=True) for tree in trees))


def _reached(key, live: set, seen: set[str]) -> bool:
    module, name = key
    owner, _, method = (name or "").rpartition(".")
    if owner:
        return (module, owner) in live and (method in seen or method.startswith("__"))
    return (
        name in seen
        or module.endswith("__main__")
        or (name is None and any(m == module for m, _ in live))
    )


def _closure(graph, seen: set[str]) -> set:
    """Keys of *graph* reachable from the names in *seen*."""
    live, grew = set(), True
    while grew:
        grew = False
        for key, mentions in graph.items():
            if key not in live and _reached(key, live, seen):
                live.add(key)
                seen |= mentions
                grew = True
    return live


@cache
def audit():
    """(public symbols, keys reached from the roots alone, keys reached with the
    references' bodies as roots too, modules with nothing reached)."""
    graph, public = _source_graph()
    roots = _root_names()
    bare = _closure(graph, set(roots))
    live = _closure(graph, roots.union(*(graph.get(key, ()) for key in REFERENCES)))
    modules = {module for module, _ in graph if not module.endswith(("__init__", "__main__"))}
    dead_modules = sorted(modules - {module for module, name in live if name is not None})
    return public, bare, live, dead_modules


def unreached_methods():
    """(method count, ``module.Class.method`` keys unreached) over the split
    graph, from the roots plus the references' bodies; dunders not counted."""
    graph, _ = _source_graph(split_classes=True)
    roots = _root_names()
    live = _closure(graph, roots.union(*(graph.get(key, ()) for key in REFERENCES)))
    methods = [
        key for key in graph
        if key[1] and "." in key[1] and not key[1].rpartition(".")[2].startswith("__")
    ]
    return len(methods), sorted(".".join(key) for key in methods if key not in live)


def test_every_public_symbol_is_reached_or_a_named_reference():
    public, _, live, dead_modules = audit()
    unreached = sorted(
        ".".join(key) for key in public if key not in live and key not in REFERENCES
    )
    assert not unreached and not dead_modules, (
        f"no entry point reaches {unreached} or anything in {dead_modules}: wire it in, delete "
        "it with its test and re-export, or (a reference implementation only) list it in REFERENCES"
    )


def test_references_are_needed_and_named_by_their_test():
    public, bare, _, _ = audit()
    for key, test_file in REFERENCES.items():
        assert key in public, f"{key} is not a public symbol"
        assert key not in bare, f"{key} is reached from an entry point: drop the exemption"
        mentioned = _names(ast.parse((ROOT / test_file).read_text()), root=True)
        assert key[1] in mentioned, f"{test_file} never mentions {key}"


def test_every_all_entry_resolves_and_none_is_an_exemption():
    graph, _ = _source_graph()
    exempt = {name for _, name in REFERENCES}
    for module, name in graph:
        if name != "__all__" or module.endswith("__main__"):
            continue
        dotted = ("repro." + module.removesuffix("__init__")).rstrip(".")
        loaded = importlib.import_module(dotted)
        missing = [entry for entry in loaded.__all__ if not hasattr(loaded, entry)]
        assert not missing, f"{dotted}.__all__ names {missing}, which it does not bind"
        assert not exempt & set(loaded.__all__), f"{dotted}.__all__ re-exports an exemption"


def test_unreached_methods_are_exactly_the_pinned_ones():
    _, unreached = unreached_methods()
    newly = sorted(set(unreached) - UNREACHED_METHODS.keys())
    assert not newly, (
        f"no entry point reaches the methods {newly}: wire them in, delete them with "
        "their tests, or pin them in UNREACHED_METHODS with the reason they stay"
    )
    stale = sorted(UNREACHED_METHODS.keys() - set(unreached))
    assert not stale, f"{stale} are reached now or gone: drop them from UNREACHED_METHODS"


def test_design_inventory_lists_exactly_the_source_tree():
    design = (ROOT / "DESIGN.md").read_text()
    block = design.split("## 3. Package inventory")[1].split("```")[1]
    listed, package = set(), ""
    for line in block.splitlines():
        heading = re.match(r"  (\w+)/", line)
        if heading:
            package = heading.group(1) + "/"
        listed.update(package + name for name in re.findall(r"\b\w+\.py\b", line))
    tree = {path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")}
    assert listed == tree, f"DESIGN.md §3 vs src/repro: {sorted(listed ^ tree)}"


if __name__ == "__main__":
    symbols, _, reached, _ = audit()
    lines = sum(len(path.read_text().splitlines()) for path in SRC.rglob("*.py"))
    print(
        f"reachability: {sum(key in reached for key in symbols)} reached"
        f" + {len(REFERENCES)} reference of {len(symbols)} public symbols;"
        f" src/repro is {lines} lines"
    )
    total, unreached = unreached_methods()
    print(
        f"methods reached {total - len(unreached)} of {total};"
        f" unreached: {', '.join(unreached) or 'none'}"
    )
