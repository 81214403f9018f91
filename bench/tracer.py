"""Per-layer tracing from outside the engine: wrap every public function of
every z2rep module, count calls, and split wall time into total and self time.

Several modules bind engine functions by name at import (``from .verma
import act`` and the like), so wrapping the defining module alone would miss
those calls.  `Tracer.install` rebinds every alias in every ``z2rep.*``
namespace and asserts that none still points at an original; `remove` puts
every alias back and asserts the same the other way round.
"""

from __future__ import annotations

import functools
import inspect
import sys
from fractions import Fraction
from time import perf_counter


def _engine_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "z2rep" or name.startswith("z2rep.")]


def _bits(x) -> int:
    f = Fraction(x)
    return max(abs(f.numerator).bit_length(), f.denominator.bit_length())


class Tracer:
    """Spans at engine function boundaries, kept in memory.

    stats[name] = [calls, total_s, self_s], name = "<module>.<function>".
    Self time is a span's duration minus the spans of wrapped callees.
    """

    def __init__(self):
        self.originals: dict[int, tuple[str, object]] = {}
        for mod in _engine_modules():
            short = mod.__name__.partition(".")[2]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    self.originals[id(obj)] = (f"{short}.{name}", obj)
        self.hooks = {
            "linalg.rref": self._rref_entries,
            "linalg.rational_roots": self._root_bits,
            "singular_solver.find_singular": self._singular_hit,
            "cartan_modules.classify": self._found,
            "cli.main": self._exit_code,
        }
        self.wrappers = {key: self._wrap(qual, fn)
                         for key, (qual, fn) in self.originals.items()}
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stats = {qual: [0, 0.0, 0.0] for qual, _ in self.originals.values()}
        self.counts = {"linalg.rref.entries": 0, "linalg.rational_roots.max_coeff_bits": 0,
                       "singular_solver.find_singular.hits": 0,
                       "cartan_modules.constituents": 0, "cartan_modules.found": 0,
                       "cli.exit_nonzero": 0}
        self._stack = [0.0]

    def _wrap(self, qual, fn):
        hook = self.hooks.get(qual)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                st = self.stats[qual]
                st[0] += 1
                st[1] += dt
                st[2] += dt - child
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # counters computed at the boundary -------------------------------------

    def _rref_entries(self, args, result):
        rows = args[0]
        if rows:
            self.counts["linalg.rref.entries"] += len(rows) * len(rows[0])

    def _root_bits(self, args, result):
        bits = max((_bits(c) for c in args[0]), default=0)
        key = "linalg.rational_roots.max_coeff_bits"
        self.counts[key] = max(self.counts[key], bits)

    def _singular_hit(self, args, result):
        self.counts["singular_solver.find_singular.hits"] += bool(result.nullspace)

    def _found(self, args, result):
        self.counts["cartan_modules.constituents"] += len(result.constituents)
        self.counts["cartan_modules.found"] += sum(
            p.kind != "unresolved" for p in result.constituents)

    def _exit_code(self, args, result):
        self.counts["cli.exit_nonzero"] += result != 0

    # installation --------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for mod in _engine_modules():
            for name, obj in list(vars(mod).items()):
                wrapper = self.wrappers.get(id(obj))
                if wrapper is not None and self.originals[id(obj)][1] is obj:
                    setattr(mod, name, wrapper)
                    self._patched.append((mod, name, obj))
        self._assert_bound(wrapped=True)

    def remove(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched = []
        self._assert_bound(wrapped=False)

    def _assert_bound(self, wrapped: bool) -> None:
        """No alias of a traced function may point at the other version."""
        if wrapped:
            stale = {k: qual for k, (qual, _) in self.originals.items()}
        else:
            stale = {id(self.wrappers[k]): qual for k, (qual, _) in self.originals.items()}
        for mod in _engine_modules():
            for name, obj in vars(mod).items():
                if id(obj) in stale:
                    state = "unwrapped" if wrapped else "still wrapped"
                    raise RuntimeError(f"{mod.__name__}.{name} is {state}"
                                       f" ({stale[id(obj)]})")
