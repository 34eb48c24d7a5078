"""determinism: no unseeded randomness, stray wall clocks, or set iteration.

The DP search, the simulator, and plan serialization must be
bit-deterministic: the simulation cache replays results across runs, the
fast simulator is cross-checked bit-for-bit against the reference oracle,
and plan signatures are compared across sweep modes. Three syntactic
hazards undermine that:

* **module-level RNG state** — draws from the process-global ``random`` /
  ``numpy.random`` generators (or unseeded ``Random()`` /
  ``default_rng()`` constructions) depend on hidden mutable state, so two
  runs of one function disagree. Seeded generator objects
  (``random.Random(seed)``, ``np.random.default_rng(seed)``) are the
  sanctioned idiom and pass.
* **wall-clock reads** — ``time.time()`` and friends are nondeterministic
  by definition. They are legitimate only where measuring real elapsed
  time *is the contract*: benchmarks and the measuring profiler (see
  ``WALL_CLOCK_ALLOWED``). Observability timings elsewhere (sweep wall
  clocks, CLI progress) carry inline suppressions with reasons — the rule
  keeps them enumerable instead of invisible.
* **unordered iteration** — iterating a ``set``/``frozenset`` visits
  elements in hash order, which varies across processes for str-keyed
  sets under hash randomisation; any digest, schedule, or printed output
  built from such an iteration is run-dependent. Wrapping the iterable in
  ``sorted()`` is the fix (``dict`` iteration is insertion-ordered and
  deterministic, so it is not flagged).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from repro.analysis.framework import LintContext, Rule, SourceModule, register

#: Drawing functions of the stdlib ``random`` module (module-level state).
RANDOM_DRAWS = frozenset(
    {
        "random", "randint", "randrange", "getrandbits", "randbytes",
        "choice", "choices", "shuffle", "sample", "uniform", "triangular",
        "gauss", "normalvariate", "lognormvariate", "expovariate",
        "betavariate", "gammavariate", "vonmisesvariate", "paretovariate",
        "weibullvariate", "seed",
    }
)

#: ``numpy.random`` attributes that are *not* module-level draws: seeded
#: generator/bit-generator construction and introspection.
NUMPY_NON_DRAWS = frozenset(
    {
        "default_rng", "Generator", "RandomState", "SeedSequence",
        "BitGenerator", "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
        "get_state", "set_state",
    }
)

#: Unseeded-when-argless constructors, by canonical dotted name.
SEEDABLE_CONSTRUCTORS = frozenset(
    {"random.Random", "numpy.random.default_rng", "numpy.random.RandomState"}
)

#: Wall-clock reads, by canonical dotted name.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time", "time.time_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)

#: Path suffixes where wall-clock reads are the module's *contract*, with
#: the reason each is sound. Everything else needs an inline suppression.
WALL_CLOCK_ALLOWED: Dict[str, str] = {
    "benchmarks": "benchmarks exist to measure real elapsed time",
    "profiler/timing.py": "the paper's timing layer is the designated home "
    "for clock access (currently analytic, may calibrate)",
    "profiler/measured.py": "the measured profiler's contract is timing "
    "real kernel executions",
}


def _path_allowed(relpath: str) -> bool:
    parts = relpath.split("/")
    for suffix in WALL_CLOCK_ALLOWED:
        if "/" in suffix:
            if relpath == suffix or relpath.endswith("/" + suffix):
                return True
        elif suffix in parts[:-1]:
            return True
    return False


class _ImportTable(ast.NodeVisitor):
    """Alias -> canonical dotted module/name map for the tracked modules."""

    TRACKED = ("random", "numpy", "numpy.random", "time", "datetime")

    def __init__(self) -> None:
        self.aliases: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name in self.TRACKED:
                self.aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name
                )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module in self.TRACKED and node.level == 0:
            for alias in node.names:
                canonical = f"{node.module}.{alias.name}"
                # ``from datetime import datetime`` must canonicalise to
                # the class, so datetime.now() resolves fully.
                self.aliases[alias.asname or alias.name] = canonical


def _canonical_call_name(
    func: ast.expr, aliases: Dict[str, str]
) -> Optional[str]:
    """Resolve ``np.random.shuffle`` -> ``numpy.random.shuffle`` etc."""
    chain = []
    node = func
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id)
    if base is None:
        return None
    return ".".join([base] + list(reversed(chain)))


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


@register
class DeterminismRule(Rule):
    name = "determinism"
    severity = "error"
    description = (
        "no module-level/unseeded RNG, no wall-clock reads outside the "
        "measurement layers, no iteration over sets without sorted()"
    )

    def check(self, module: SourceModule, ctx: LintContext) -> Iterator:
        del ctx
        table = _ImportTable()
        table.visit(module.tree)
        aliases = table.aliases
        allowed_clock = _path_allowed(module.relpath)

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, aliases, allowed_clock)
            elif isinstance(node, ast.For):
                yield from self._check_iteration(module, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for generator in node.generators:
                    yield from self._check_iteration(module, generator.iter)

    def _check_call(
        self,
        module: SourceModule,
        node: ast.Call,
        aliases: Dict[str, str],
        allowed_clock: bool,
    ) -> Iterator:
        name = _canonical_call_name(node.func, aliases)
        if name is None:
            return
        argless = not node.args and not node.keywords
        if name in SEEDABLE_CONSTRUCTORS:
            if argless:
                yield self.finding_at(
                    module,
                    node,
                    f"{name}() without a seed draws OS entropy; pass an "
                    "explicit seed so runs are reproducible",
                )
            return
        tail = name.rsplit(".", 1)[-1]
        if name == f"random.{tail}" and tail in RANDOM_DRAWS:
            yield self.finding_at(
                module,
                node,
                f"{name}() uses the process-global RNG; construct a seeded "
                "random.Random(seed) instead",
            )
        elif name.startswith("numpy.random.") and name.count(".") == 2:
            if tail not in NUMPY_NON_DRAWS:
                yield self.finding_at(
                    module,
                    node,
                    f"{name}() uses numpy's module-level RNG; use a seeded "
                    "numpy.random.default_rng(seed) generator instead",
                )
        elif name in WALL_CLOCK_CALLS and not allowed_clock:
            yield self.finding_at(
                module,
                node,
                f"{name}() reads the wall clock outside the measurement "
                "layers; deterministic code must not depend on real time "
                "(suppress with a reason if this is observability metadata)",
            )

    def _check_iteration(self, module: SourceModule, iterable: ast.expr) -> Iterator:
        if _is_set_expression(iterable):
            yield self.finding_at(
                module,
                iterable,
                "iterating a set visits elements in hash order, which varies "
                "across runs; wrap the iterable in sorted()",
            )
