"""Per-layer timing for the traced run, done from outside the program.

Each layer's public functions are wrapped in a timer while the traced
pass runs, and restored afterwards.  A wrapped call is a span: its self
time is its duration minus the part covered by wrapped calls nested in
it, so the self times of all layers plus the uncovered ``other`` time add
up to the pass's wall time.

A function is replaced wherever a caller looks it up: on its class for a
method, and for a module function in every loaded ``repro`` module that
bound it by name, and in the benchmark's ``workloads`` module
(``perf.approximate`` does ``from repro.markov.solvers import
steady_state``, so patching ``repro.markov.solvers`` alone would miss
those calls).  Function-local imports read the defining module at
call time, which the same patch covers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

#: layer -> public functions as "module:qualname".
LAYERS: dict[str, tuple[str, ...]] = {
    "markov.steady_state": ("repro.markov.solvers:steady_state",),
    "markov.transient": (
        "repro.markov.uniformization:uniformize",
        "repro.markov.uniformization:transient_distribution",
        "repro.markov.uniformization:transient_matrix",
        "repro.markov.fox_glynn:fox_glynn",
    ),
    "perf.interaction": (
        "repro.perf.interaction:transient_outcomes",
        "repro.perf.interaction:conditional_initials",
        "repro.perf.interaction:reduction_matrix",
    ),
    "perf.approximate": (
        "repro.perf.approximate:ApproximateModel.evaluate",
        "repro.perf.approximate:ApproximateModel.evaluate_target",
    ),
    "perf.pooled": ("repro.perf.pooled:PooledModel.evaluate",),
    "market": (
        "repro.market.evaluator:UtilityEvaluator.params",
        "repro.market.evaluator:UtilityEvaluator.params_target",
        "repro.market.evaluator:UtilityEvaluator.utility",
        "repro.market.evaluator:UtilityEvaluator.utilities",
        "repro.market.evaluator:UtilityEvaluator.welfare",
        "repro.market.evaluator:UtilityEvaluator.cost",
    ),
    "game": (
        "repro.game.best_response:BestResponder.respond",
        "repro.game.repeated_game:RepeatedGame.run",
    ),
    "game.social_optimum": ("repro.market.efficiency:social_optimum",),
    "sim": ("repro.sim.federation:FederationSimulator.run",),
    "scenarios.resolve": (
        "repro.scenarios.library:resolve",
        "repro.scenarios.library:library_index",
        "repro.scenarios.library:full_library",
    ),
    "scenarios.runner": (
        "repro.scenarios.runner:solve_spec",
        "repro.scenarios.runner:simulate_spec",
    ),
}


#: Modules whose by-name bindings are patched: the program and the
#: benchmark's own workload definitions.
CALLERS = ("repro", "workloads")


class LayerTimer:
    """Self time, inclusive time and call counts per layer and function."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.fn_calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        #: Time of the outermost call of each layer (nested same-layer
        #: calls are not counted twice).
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self.states = 0
        self.vectors: set[tuple[int, ...]] = set()
        self._stack: list[list[Any]] = []  # [layer, child seconds]

    def wrap(self, layer: str, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if observe is not None:
                observe(self, args, kwargs)
            frame = [layer, 0.0]
            outer = all(f[0] != layer for f in self._stack)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.calls[layer] += 1
                self.fn_calls[name] += 1
                self.self_s[layer] += elapsed - frame[1]
                if outer:
                    self.inclusive_s[layer] += elapsed
                if self._stack:
                    self._stack[-1][1] += elapsed

        return timed


def _observe_states(timer: LayerTimer, args: tuple, kwargs: dict) -> None:
    q = args[0] if args else kwargs["q"]
    timer.states += int(q.shape[0])


def _observe_vector(timer: LayerTimer, args: tuple, kwargs: dict) -> None:
    sharing = args[1] if len(args) > 1 else kwargs["sharing"]
    timer.vectors.add(tuple(int(s) for s in sharing))


_OBSERVERS: dict[str, Callable[[LayerTimer, tuple, dict], None]] = {
    "repro.markov.solvers:steady_state": _observe_states,
    # With a fresh evaluator every distinct queried vector is solved at
    # least once, so the distinct queried vectors are the useful solves.
    "repro.market.evaluator:UtilityEvaluator.params": _observe_vector,
    "repro.market.evaluator:UtilityEvaluator.params_target": _observe_vector,
}


class Patched:
    """Context manager installing a :class:`LayerTimer` on every layer."""

    def __init__(self, timer: LayerTimer) -> None:
        self.timer = timer
        self._undo: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> LayerTimer:
        try:
            for layer, names in LAYERS.items():
                for name in names:
                    self._install(layer, name)
        except BaseException:
            self._restore()
            raise
        return self.timer

    def __exit__(self, *exc: object) -> None:
        self._restore()

    def _install(self, layer: str, name: str) -> None:
        module_name, qualname = name.split(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            self._set(owner, attr, self.timer.wrap(layer, name, original))
            return
        original = getattr(module, qualname)
        wrapped = self.timer.wrap(layer, name, original)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith(CALLERS):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, attr, wrapped)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
