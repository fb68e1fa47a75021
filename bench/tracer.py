"""Per-module timing for the traced benchmark run.

The tracer wraps public functions of the program from outside: it replaces
each target in its defining module and in every other ``duotrader`` module
that imported it by name, so the engine's calls go through the wrapper. A
target that no longer exists is skipped and simply reports zero calls.

Each wrapped call is a span. A group (one function, one class, or one whole
module) is charged only for its outermost spans, so a group's time never
counts a nested call twice, and ``covered_s`` sums only the outermost spans
of all groups, which is what the engine's self time is measured against.
Result hooks read counts off return values with ``getattr`` so a changed
return type drops a count to zero instead of aborting the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import Counter

# (module, attribute) pairs. attribute None wraps every public function the
# module defines; a class wraps every public method it defines.
TARGETS = (
    ("marketdata", "ingest_csv"),
    ("marketdata", "RollingWindow"),
    ("marketdata", "log_returns"),
    ("universe", "select_universe"),
    ("regime_hmm", "fit"),
    ("regime_hmm", "forward_posterior"),
    ("trend_net", "train"),
    ("trend_net", "predict_direction"),
    ("alpha_fusion", "fuse"),
    ("portfolio_bl", None),
    ("risk_controls", "update_and_check"),
    ("engine", "execute"),
    ("metrics", "compute_report"),
)
PACKAGE = "duotrader"


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.covered_s = 0.0
        self.selections: list = []
        self.ll_paths: list = []
        self._depth = 0
        self._groups: dict[str, list] = {}
        self._hooks = {
            "marketdata.ingest_csv": self._on_ingest,
            "universe.select_universe": self._on_select,
            "regime_hmm.fit": self._on_fit,
            "trend_net.train": self._on_train,
            "alpha_fusion.fuse": self._on_fuse,
            "risk_controls.update_and_check": self._on_risk,
            "engine.execute": self._on_execute,
        }

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"{PACKAGE}.{info.name}")
        for module_name, attr in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            if attr is None:
                for name, obj in vars(module).copy().items():
                    if _public_function(obj, module.__name__, name):
                        self._patch(obj, f"{module_name}.{name}", module_name)
                continue
            obj = getattr(module, attr, None)
            if inspect.isclass(obj):
                group = f"{module_name}.{attr}"
                for name, member in vars(obj).copy().items():
                    if _public_function(member, module.__name__, name):
                        setattr(obj, name, self._wrap(member, f"{group}.{name}", group))
            elif callable(obj):
                key = f"{module_name}.{attr}"
                self._patch(obj, key, key)

    def _patch(self, func, key: str, group: str) -> None:
        wrapper = self._wrap(func, key, group)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in vars(module).copy().items():
                if value is func:
                    setattr(module, attr, wrapper)

    def _wrap(self, func, key: str, group: str):
        hook = self._hooks.get(key)
        calls = self.calls
        group_state = self._groups.setdefault(group, [0, 0.0])  # [depth, seconds]
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            outer = self._depth == 0
            group_outer = group_state[0] == 0
            self._depth += 1
            group_state[0] += 1
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._depth -= 1
                group_state[0] -= 1
                calls[key] += 1
                if group_outer:
                    group_state[1] += elapsed
                if outer:
                    self.covered_s += elapsed
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # --- result hooks -----------------------------------------------------

    def _on_ingest(self, args, result) -> None:
        bars = getattr(result, "bars_by_symbol", {}) or {}
        kept = sum(len(series) for series in bars.values())
        self.counters["ingest_rows"] += kept + int(getattr(result, "rejected_rows", 0) or 0)

    def _on_select(self, args, result) -> None:
        as_of = args[2] if len(args) > 2 else None
        if as_of is not None:
            self.selections.append([as_of.isoformat(), list(result)])

    def _on_fit(self, args, result) -> None:
        diagnostics = getattr(result, "diagnostics", {}) or {}
        self.counters["em_iterations"] += int(diagnostics.get("iterations", 0))
        path = getattr(result, "log_likelihood_path", None)
        if path is not None:
            self.ll_paths.append([float(v) for v in path])

    def _on_train(self, args, result) -> None:
        model = result[0] if isinstance(result, tuple) else result
        self.counters["adam_steps"] += int(getattr(model, "step", 0) or 0)

    def _on_fuse(self, args, result) -> None:
        if getattr(result, "direction", "flat") != "flat":
            self.counters["active_insights"] += 1

    def _on_risk(self, args, result) -> None:
        decision = result[1] if isinstance(result, tuple) and len(result) > 1 else None
        if getattr(decision, "action", None) == "liquidate":
            self.counters["liquidations"] += 1

    def _on_execute(self, args, result) -> None:
        fill = result[0] if isinstance(result, tuple) else result
        if fill is not None:
            self.counters["fills"] += 1

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "group_s": {group: state[1] for group, state in self._groups.items()},
            "counters": dict(self.counters),
            "selections": self.selections,
            "ll_paths": self.ll_paths,
        }


def _public_function(obj, module_name: str, name: str) -> bool:
    return (
        inspect.isfunction(obj)
        and not name.startswith("_")
        and obj.__module__ == module_name
    )
