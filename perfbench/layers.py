"""Layer map of the ``repro`` package and cProfile grouping by layer.

Every module of ``repro`` maps to exactly one layer, so that a profile of
a serve pass splits into per-layer self time and call counts with nothing
left over. Package rules cover packages that are one layer throughout;
packages whose modules belong to different layers list each module, so a
new module there has no rule and :func:`self_test` fails instead of
letting its time disappear into ``other``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Tuple

#: Layers whose serve-time self time and call counts the traced run reports.
REPORTED_LAYERS = (
    "graph", "landmarks", "embedding", "service", "sim", "routing",
    "processor", "cache", "gather", "storage", "operators", "admission",
    "updates", "topology", "metrics",
)

#: Layers that exist in the map but are not reported: ``placement`` is
#: off (``placement=None``) in every workload, ``inputs`` runs before the
#: timed phases and ``tooling`` is never called while serving.
UNREPORTED_LAYERS = ("placement", "inputs", "tooling")

#: (module or package, layer). A package rule ("repro.sim.*") matches the
#: package and every module below it; a plain rule matches one module.
RULES: Tuple[Tuple[str, str], ...] = (
    ("repro", "tooling"),
    ("repro.analysis.*", "tooling"),
    ("repro.baselines.*", "tooling"),
    ("repro.bench.*", "tooling"),
    ("repro.costs", "sim"),
    ("repro.sim.*", "sim"),
    ("repro.datasets.*", "inputs"),
    ("repro.workloads.*", "inputs"),
    ("repro.graph", "graph"),
    ("repro.graph.csr", "graph"),
    ("repro.graph.digraph", "graph"),
    ("repro.graph.generators", "inputs"),
    ("repro.graph.io", "graph"),
    ("repro.graph.traversal", "graph"),
    ("repro.graph.updates", "updates"),
    ("repro.landmarks.*", "landmarks"),
    ("repro.embedding.*", "embedding"),
    ("repro.storage.*", "storage"),
    ("repro.core", "service"),
    ("repro.core.admission", "admission"),
    ("repro.core.assets", "graph"),
    ("repro.core.cache", "cache"),
    ("repro.core.cluster", "service"),
    ("repro.core.engine", "service"),
    ("repro.core.metrics", "metrics"),
    ("repro.core.placement", "placement"),
    ("repro.core.processor", "processor"),
    ("repro.core.queries", "operators"),
    ("repro.core.router", "routing"),
    ("repro.core.service", "service"),
    ("repro.core.topology", "topology"),
    ("repro.core.updates", "updates"),
    ("repro.core.routing.*", "routing"),
    ("repro.core.operators", "operators"),
    ("repro.core.operators.gather", "gather"),
    ("repro.core.operators.registry", "operators"),
    ("repro.core.operators.sampling", "operators"),
    ("repro.core.operators.traversals", "operators"),
    ("repro.core.operators.walks", "operators"),
)


def _matches(rule: str, module: str) -> bool:
    if rule.endswith(".*"):
        package = rule[:-2]
        return module == package or module.startswith(package + ".")
    return module == rule


def matching_rules(module: str) -> List[Tuple[str, str]]:
    return [(rule, layer) for rule, layer in RULES if _matches(rule, module)]


def layer_of(module: str) -> str:
    """The layer of a ``repro`` module; raises if not exactly one rule."""
    rules = matching_rules(module)
    if len(rules) != 1:
        raise LookupError(
            f"module {module} matches {len(rules)} layer rules "
            f"{[rule for rule, _ in rules]}; it must match exactly one"
        )
    return rules[0][1]


def repro_modules(src_dir: Path) -> List[str]:
    """Every module and package under ``src_dir/repro``, by dotted name."""
    src_dir = src_dir.resolve()
    root = src_dir / "repro"
    return sorted(
        _module_of(str(path), src_dir) for path in root.rglob("*.py")
    )


def self_test(src_dir: Path) -> List[str]:
    """Problems with the layer map (empty when every module maps to one
    known layer and every rule is used)."""
    problems = []
    known = set(REPORTED_LAYERS) | set(UNREPORTED_LAYERS)
    modules = repro_modules(src_dir)
    used = set()
    for module in modules:
        rules = matching_rules(module)
        if len(rules) != 1:
            problems.append(
                f"{module}: matches {len(rules)} rules "
                f"{[rule for rule, _ in rules]}, expected exactly one"
            )
        used.update(rule for rule, _ in rules)
    for rule, layer in RULES:
        if layer not in known:
            problems.append(f"rule {rule}: unknown layer {layer!r}")
        if rule not in used:
            problems.append(f"rule {rule}: matches no module")
    return problems


# -- cProfile grouping ---------------------------------------------------------
def _module_of(filename: str, src_dir: Path) -> str:
    """Dotted ``repro`` module name of a source file, or "" if outside."""
    try:
        rel = Path(filename).resolve().relative_to(src_dir / "repro")
    except ValueError:
        return ""
    parts = ["repro", *rel.with_suffix("").parts]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def group_profile(stats: Dict, src_dir: Path) -> Dict[str, Dict[str, float]]:
    """Per-layer self time and primitive call counts of a profile.

    ``stats`` is ``pstats.Stats(profile).stats``. A ``repro`` function's
    self time goes to its own layer. Time in code outside ``repro`` (numpy,
    builtins, the standard library) goes to the layers that called it, in
    proportion to the time spent under each caller edge, so a layer owns
    the library work it asks for. Time with no ``repro`` caller at all is
    ``other``. Call counts are those of ``repro`` functions only, which
    are a deterministic function of the program and its inputs.
    """
    src_dir = src_dir.resolve()
    layer_cache: Dict[str, str] = {}

    def own_layer(key) -> str:
        filename = key[0]
        if filename not in layer_cache:
            module = _module_of(filename, src_dir)
            layer_cache[filename] = layer_of(module) if module else ""
        return layer_cache[filename]

    shares: Dict[tuple, Dict[str, float]] = {}

    def share(key, visiting: set) -> Dict[str, float]:
        if key in shares:
            return shares[key]
        if key in visiting:  # recursion outside repro: no layer to charge
            return {"other": 1.0}
        layer = own_layer(key)
        if layer:
            result = {layer: 1.0}
        else:
            callers = stats[key][4] if key in stats else {}
            weights = {c: edge[2] for c, edge in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                weights = {c: float(edge[1]) for c, edge in callers.items()}
                total = sum(weights.values())
            result = {}
            if total <= 0:
                result = {"other": 1.0}
            else:
                visiting.add(key)
                for caller, weight in weights.items():
                    for name, frac in share(caller, visiting).items():
                        result[name] = result.get(name, 0.0) + frac * weight / total
                visiting.discard(key)
        shares[key] = result
        return result

    layers: Dict[str, Dict[str, float]] = {}
    for key, (cc, _nc, tt, _ct, _callers) in stats.items():
        layer = own_layer(key)
        if layer:
            entry = layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
            entry["calls"] += cc
        for name, frac in share(key, set()).items():
            entry = layers.setdefault(name, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += tt * frac
    return layers
