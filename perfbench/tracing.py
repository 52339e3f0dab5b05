"""Outside-in instrumentation of the ``posscore`` package.

Nothing here edits the program. Functions are wrapped by rebinding every
name that refers to them: the defining module's attribute, each
``from .x import y`` copy in other modules, and module-level dicts such as
``cli.COMMANDS``. Each wrapper records where it was installed so that
``Patch.restore`` can put the originals back.

Two instruments use this:

* ``SetupHook`` wraps the scoring functions once and records the clock at
  the first call into any of them, then removes itself, so the rest of
  the run executes the original code (the untraced run).
* ``Tracer`` wraps every public function of every layer module and records
  one span (name, start, end, parent) per call in flat arrays kept in
  memory until the run ends (the traced run).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from types import FunctionType, ModuleType

#: Layers are the modules of ``src/posscore``.
LAYERS = ("cli", "ingest", "postag", "embed", "stem", "basemetrics", "posmetrics", "metaeval", "core")

#: Functions whose first call ends set-up: every scorer in the two metric modules.
SCORING_FUNCTIONS = (
    "posmetrics.posscore",
    "posmetrics.pwe",
    "posmetrics.ptlc",
    "basemetrics.bleu_n",
    "basemetrics.meteor",
    "basemetrics.embedding_average",
)

#: Spans whose arguments or results the traced run keeps for its ratios.
KEEP_ARGS = ("stem.porter_stem", "posmetrics.pos_split")
KEEP_RESULT = ("basemetrics.meteor", "embed.load_vec", "postag.load_tagged")


class TraceError(RuntimeError):
    """The instrumentation does not fit the program (a missing name or span)."""


def _package_modules() -> list[ModuleType]:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "posscore" or name.startswith("posscore."))
    ]


def layer_module(layer: str) -> ModuleType:
    module = sys.modules.get(f"posscore.{layer}")
    if module is None:
        raise TraceError(f"module posscore.{layer} is not loaded")
    return module


def public_functions(layer: str) -> dict[str, FunctionType]:
    """Public functions defined in one layer module (not re-exports)."""
    module = layer_module(layer)
    return {
        f"{layer}.{name}": obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def lookup(qualified: str) -> FunctionType:
    layer, _, name = qualified.partition(".")
    obj = vars(layer_module(layer)).get(name)
    if not inspect.isfunction(obj):
        raise TraceError(f"posscore.{qualified} is not a function; was it renamed?")
    return obj


class Patch:
    """Rebinds every reference to some functions inside the package."""

    def __init__(self, replacements: dict[FunctionType, object]) -> None:
        self._saved: list[tuple[dict, str, object]] = []
        for module in _package_modules():
            namespaces = [vars(module)] + [v for v in vars(module).values() if type(v) is dict]
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if isinstance(value, FunctionType) and value in replacements:
                        self._saved.append((ns, key, value))
                        ns[key] = replacements[value]

    def restore(self) -> None:
        while self._saved:
            ns, key, original = self._saved.pop()
            ns[key] = original


class SetupHook:
    """Records ``time.monotonic()`` at the first call into a scoring function.

    The hook removes itself before forwarding that first call, so it costs
    one extra call per run and leaves the scoring loop untouched.
    """

    def __init__(self) -> None:
        self.fired_at: float | None = None
        originals = [lookup(name) for name in SCORING_FUNCTIONS]
        self._patch = Patch({fn: self._one_shot(fn) for fn in originals})

    def _one_shot(self, fn):
        @functools.wraps(fn)
        def first_call(*args, **kwargs):
            if self.fired_at is None:
                self.fired_at = time.monotonic()
                self._patch.restore()
            return fn(*args, **kwargs)

        return first_call

    def restore(self) -> None:
        self._patch.restore()


class Tracer:
    """Span recorder over every public function of every layer."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.kept: dict[str, list] = {name: [] for name in KEEP_ARGS + KEEP_RESULT}
        self._stack = [-1]
        functions: dict[str, FunctionType] = {}
        for layer in LAYERS:
            functions.update(public_functions(layer))
        for name in self.kept:
            if name not in functions:
                raise TraceError(f"posscore.{name} is not a public function; was it renamed?")
        self._patch = Patch({fn: self._wrap(name, fn) for name, fn in functions.items()})

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter
        kept_args = self.kept[name].append if name in KEEP_ARGS else None
        kept_result = self.kept[name].append if name in KEEP_RESULT else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            if kept_args is not None:
                kept_args(args)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if kept_result is not None:
                kept_result(result)
            return result

        return span

    def restore(self) -> None:
        self._patch.restore()
