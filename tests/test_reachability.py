"""Reachability guard: nothing public in ``src/repro`` lives for its own test.

A name-based reference graph (stdlib ``ast``) is closed from the real
entry points — the three command-line modules (the two ``__main__``
modules and ``experiments/seed_sweep.py``), ``bench/`` (with its
``"repro.x.y:Class.method"`` wrap points), ``benchmarks/``, ``examples/``
and the README's ``python`` blocks (parsed, not run).  Package re-export
lists are not references: imports inside ``src/`` never count and
``__all__`` entries are strings.  A collision between two names errs
toward keeping.  Granularity is the top-level function, class and module;
methods ride with their class.

``python tests/test_reachability.py`` prints the summary CI logs: the
symbol line, the method line and the parameter line, all gated by the
tests.  The method line reruns the closure over the same graph with each
class body split into its methods: a method is reached once its class is
and some reached code (or a root) mentions its name; dunders ride with
their class.  The methods it leaves unreached must be exactly
:data:`UNREACHED_METHODS`.  The parameter line lists the defaulted
parameters of top-level functions and methods that no root and no
reached code passes — by keyword, or by position in a call to a callable
of the same name (a class call counts for its ``__init__``).  Calls with
``*args`` or ``**kwargs`` pass every parameter of that name, so here too
a collision keeps.  The parameters it lists must be exactly
:data:`UNPASSED_PARAMETERS`.
"""

import ast
import importlib
import re
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
WRAP_POINT = re.compile(r"repro(\.\w+)+:\w+(\.\w+)*")

#: The methods no entry point reaches, each kept on purpose for the
#: reason given.  A ratchet: a newly unreached method fails the suite,
#: and one that becomes reached (or is deleted) must leave this list.
UNREACHED_METHODS = {
    "engine.buffer.BufferPool.access": "test seam",
    "engine.buffer.BufferPool.reset_stats": "test seam",
    "engine.buffer.BufferPool.resident_keys": "inspection hook",
    "experiments.config.ExperimentConfig.with_seed": "test seam",
    "obs.metrics.MetricsRegistry.counter_value": "inspection hook",
    "obs.metrics.MetricsRegistry.gauge_value": "unused",
    "serving.plan_cache.PlanCache.entries": "inspection hook",
}

#: Defaulted parameters no root and no reached code passes, each kept on
#: purpose: a *test seam* is set by tests to reach a case; a run function's
#: ``config`` is *called through ARTIFACTS* (the experiments CLI table); an
#: *experiment knob* or *simulator knob* keeps a published setting
#: variable; *unused* marks a candidate for deletion.  A ratchet in both
#: directions, like :data:`UNREACHED_METHODS`.
UNPASSED_PARAMETERS = {
    "core.probing.ProbingCostEstimator.calibrate(interval_seconds=)": "test seam",
    "core.report.derivation_report(test_observations=)": "test seam",
    "engine.buffer.BufferPool(evict_scan=)": "test seam",
    "engine.index.Index(order=)": "test seam",
    "env.clock.SimulationClock(start=)": "test seam",
    "env.environment.Environment(clock=)": "simulator knob",
    "env.environment.Environment(slowdown_model=)": "simulator knob",
    "env.environment.dynamic_clustered_environment(epoch_seconds=)": "simulator knob",
    "env.environment.dynamic_uniform_environment(epoch_seconds=)": "simulator knob",
    "env.loadbuilder.LoadBuilder.clustered(clusters=)": "simulator knob",
    "env.loadbuilder.LoadBuilder.clustered(epoch_seconds=)": "simulator knob",
    "env.loadbuilder.LoadBuilder.random_walk(epoch_seconds=)": "simulator knob",
    "env.monitor.EnvironmentMonitor(seed=)": "simulator knob",
    "env.stats.StatisticsModel(machine=)": "simulator knob",
    "env.stats.StatisticsModel(noise=)": "test seam",
    "experiments.__main__.main(argv=)": "test seam",
    "experiments.figures4_9.run_all_figures(config=)": "called through ARTIFACTS",
    "experiments.harness.cached_class_experiment(algorithm=)": "experiment knob",
    "experiments.harness.cached_class_experiment(environment_kind=)": "experiment knob",
    "experiments.model_forms.run_model_forms(profile=)": "experiment knob",
    "experiments.model_forms.run_model_forms(query_class=)": "experiment knob",
    "experiments.model_race.run_model_race(calm_rounds=)": "test seam",
    "experiments.model_race.run_model_race(config=)": "called through ARTIFACTS",
    "experiments.model_race.run_model_race(gap_seconds=)": "experiment knob",
    "experiments.model_race.run_model_race(queries_per_round=)": "test seam",
    "experiments.model_race.run_model_race(shifted_rounds=)": "test seam",
    "experiments.model_race.score_recovery(floor_pct=)": "experiment knob",
    "experiments.plan_quality.run_plan_quality(gap_seconds=)": "test seam",
    "experiments.plan_quality.run_probe_cache_quality(config=)": "called through ARTIFACTS",
    "experiments.plan_quality.run_probe_cache_quality(gap_seconds=)": "test seam",
    "experiments.plan_quality.run_probe_cache_quality(rounds=)": "test seam",
    "experiments.plan_quality.run_probe_cache_quality(ttl=)": "test seam",
    "experiments.probing_estimation.run_probing_estimation(profile=)": "experiment knob",
    "experiments.probing_estimation.run_probing_estimation(query_class=)": "experiment knob",
    "experiments.report.ascii_histogram(width=)": "test seam",
    "experiments.sample_size_ablation.run_sample_size_ablation(profile=)": "experiment knob",
    "experiments.sample_size_ablation.run_sample_size_ablation(query_class=)": "experiment knob",
    "experiments.sample_size_ablation.run_sample_size_ablation(sizes=)": "test seam",
    "experiments.states_ablation.run_states_ablation(profile=)": "experiment knob",
    "experiments.states_ablation.run_states_ablation(query_class=)": "experiment knob",
    "experiments.table5.run_table5(classes=)": "test seam",
    "experiments.table5.run_table5(profiles=)": "test seam",
    "experiments.table6.run_table6(profile=)": "experiment knob",
    "experiments.table6.run_table6(query_class=)": "experiment knob",
    "mdbs.agent.MDBSAgent(estimator=)": "test seam",
    "mdbs.agent.MDBSAgent(probe=)": "test seam",
    "mdbs.registry.CostModelRegistry.publish(activate=)": "test seam",
    "mdbs.server.MDBSServer(network=)": "simulator knob",
    "obs.__main__.main(argv=)": "test seam",
    "obs.expose.write_snapshot(accuracy=)": "test seam",
    "obs.expose.write_snapshot(registry=)": "test seam",
    "obs.metrics.Histogram(reservoir_size=)": "test seam",
    "obs.metrics.MetricsRegistry.counter_value(default=)": "inspection hook",
    "obs.metrics.MetricsRegistry.gauge_value(default=)": "inspection hook",
    "obs.metrics.MetricsRegistry.histogram(reservoir_size=)": "unused",
    "obs.quality.AccuracyTracker.stats(state=)": "test seam",
    "obs.quality.AccuracyWindow(window_size=)": "test seam",
    "serving.plan_cache.PlanCache(capacity=)": "test seam",
    "workload.scenarios.make_site(workload=)": "test seam",
    "workload.scenarios.make_two_site_universe(environment_kind=)": "experiment knob",
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
    """``{(module, name): names the definition mentions}``, the public keys,
    and ``{(module, name): the definition's AST nodes}``.

    ``(module, None)`` holds a module's loose top-level statements.  With
    *split_classes*, each method is its own ``(module, "Class.method")``
    key and the class key keeps only the rest of the class body.
    """
    graph, public, bodies = {}, [], {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        loose = graph.setdefault((module, None), set())
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                graph[module, node.name] = _names(node)
                bodies[module, node.name] = [node]
                if not node.name.startswith("_"):
                    public.append((module, node.name))
                if split_classes and isinstance(node, ast.ClassDef):
                    methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
                    rest = [m for m in node.body if m not in methods]
                    rest += node.bases + node.decorator_list
                    graph[module, node.name] = set().union(*map(_names, rest))
                    bodies[module, node.name] = rest
                    for method in methods:
                        graph[module, f"{node.name}.{method.name}"] = _names(method)
                        bodies[module, f"{node.name}.{method.name}"] = [method]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in set().union(*map(_names, targets)):
                    graph[module, name] = _names(node.value)
                    bodies[module, name] = [node.value]
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                loose |= _names(node)
                bodies.setdefault((module, None), []).append(node)
    return graph, public, bodies


@cache
def _root_trees() -> tuple:
    files = [SRC / "experiments" / name for name in ("__main__.py", "seed_sweep.py")]
    files.append(SRC / "obs" / "__main__.py")
    for folder in ("bench", "benchmarks", "examples"):
        files += sorted((ROOT / folder).rglob("*.py"))
    trees = [ast.parse(path.read_text()) for path in files]
    readme = (ROOT / "README.md").read_text()
    trees += [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    return tuple(trees)


def _root_names() -> set[str]:
    return set().union(*(_names(tree, root=True) for tree in _root_trees()))


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
    """(public symbols, keys reached from the roots, modules with nothing reached)."""
    graph, public, _ = _source_graph()
    live = _closure(graph, _root_names())
    modules = {module for module, _ in graph if not module.endswith(("__init__", "__main__"))}
    dead_modules = sorted(modules - {module for module, name in live if name is not None})
    return public, live, dead_modules


@cache
def _split_live() -> set:
    """Keys of the split graph reached from the roots."""
    graph, _, _ = _source_graph(split_classes=True)
    return _closure(graph, _root_names())


def unreached_methods():
    """(method count, ``module.Class.method`` keys unreached) over the split
    graph, from the roots; dunders not counted."""
    graph, _, _ = _source_graph(split_classes=True)
    live = _split_live()
    methods = [
        key for key in graph
        if key[1] and "." in key[1] and not key[1].rpartition(".")[2].startswith("__")
    ]
    return len(methods), sorted(".".join(key) for key in methods if key not in live)


def _passed() -> dict[str, tuple[float, set]]:
    """``{callable name: (most positional arguments, keywords)}`` over every
    call in the roots and in reached code; ``*args`` counts as every
    position and ``**kwargs`` as every keyword (``None`` in the set)."""
    _, _, bodies = _source_graph(split_classes=True)
    nodes = list(_root_trees()) + [node for key in _split_live() for node in bodies.get(key, ())]
    passed = {}
    for call in (c for node in nodes for c in ast.walk(node) if isinstance(c, ast.Call)):
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        positions, keywords = passed.get(name, (0, set()))
        starred = any(isinstance(arg, ast.Starred) for arg in call.args)
        positions = max(positions, float("inf") if starred else len(call.args))
        passed[name] = positions, keywords | {kw.arg for kw in call.keywords}
    return passed


def _defaulted_parameters():
    """``(module.qualname(param=), callable name, name, position or None)``
    for every defaulted parameter of a top-level function or method; a
    class is the callable name of its ``__init__``."""
    _, _, bodies = _source_graph(split_classes=True)
    for (module, name), nodes in bodies.items():
        if name is None or not isinstance(nodes[0], ast.FunctionDef):
            continue
        function = nodes[0]
        owner, _, method = name.rpartition(".")
        callee = owner if method == "__init__" else method
        qualname = owner if method == "__init__" else name
        positional = function.args.posonlyargs + function.args.args
        static = any(getattr(d, "id", None) == "staticmethod" for d in function.decorator_list)
        if owner and not static:
            positional = positional[1:]  # self / cls
        first_default = len(positional) - len(function.args.defaults)
        for index, arg in enumerate(positional[first_default:], first_default):
            yield f"{module}.{qualname}({arg.arg}=)", callee, arg.arg, index
        for arg, default in zip(function.args.kwonlyargs, function.args.kw_defaults):
            if default is not None:
                yield f"{module}.{qualname}({arg.arg}=)", callee, arg.arg, None


def unpassed_parameters():
    """(defaulted parameter count, those no root and no reached code passes)."""
    passed = _passed()
    total, unpassed = 0, []
    for label, callee, name, index in _defaulted_parameters():
        total += 1
        positions, keywords = passed.get(callee, (0, set()))
        if not ((index is not None and positions > index) or keywords & {name, None}):
            unpassed.append(label)
    return total, sorted(unpassed)


def test_every_public_symbol_is_reached_or_a_named_reference():
    public, live, dead_modules = audit()
    unreached = sorted(".".join(key) for key in public if key not in live)
    assert not unreached and not dead_modules, (
        f"no entry point reaches {unreached} or anything in {dead_modules}: wire it in, or "
        "delete it with its test and re-export (a reference implementation lives in tests/)"
    )


def test_every_all_entry_resolves_and_none_is_an_exemption():
    graph, _, _ = _source_graph()
    for module, name in graph:
        if name != "__all__" or module.endswith("__main__"):
            continue
        dotted = ("repro." + module.removesuffix("__init__")).rstrip(".")
        loaded = importlib.import_module(dotted)
        missing = [entry for entry in loaded.__all__ if not hasattr(loaded, entry)]
        assert not missing, f"{dotted}.__all__ names {missing}, which it does not bind"


def test_unreached_methods_are_exactly_the_pinned_ones():
    _, unreached = unreached_methods()
    newly = sorted(set(unreached) - UNREACHED_METHODS.keys())
    assert not newly, (
        f"no entry point reaches the methods {newly}: wire them in, delete them with "
        "their tests, or pin them in UNREACHED_METHODS with the reason they stay"
    )
    stale = sorted(UNREACHED_METHODS.keys() - set(unreached))
    assert not stale, f"{stale} are reached now or gone: drop them from UNREACHED_METHODS"


def test_unpassed_parameters_are_exactly_the_pinned_ones():
    _, unpassed = unpassed_parameters()
    newly = sorted(set(unpassed) - UNPASSED_PARAMETERS.keys())
    assert not newly, (
        f"nothing but a test passes the parameters {newly}: make each a constant, or pin "
        "it in UNPASSED_PARAMETERS with the reason it stays"
    )
    stale = sorted(UNPASSED_PARAMETERS.keys() - set(unpassed))
    assert not stale, f"{stale} are passed now or gone: drop them from UNPASSED_PARAMETERS"


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
    symbols, reached, _ = audit()
    lines = sum(len(path.read_text().splitlines()) for path in SRC.rglob("*.py"))
    print(
        f"reachability: {sum(key in reached for key in symbols)} reached"
        f" of {len(symbols)} public symbols; src/repro is {lines} lines"
    )
    total, unreached = unreached_methods()
    print(
        f"methods reached {total - len(unreached)} of {total};"
        f" unreached: {', '.join(unreached) or 'none'}"
    )
    total, unpassed = unpassed_parameters()
    print(
        f"defaulted parameters passed {total - len(unpassed)} of {total};"
        f" never passed: {', '.join(unpassed) or 'none'}"
    )
