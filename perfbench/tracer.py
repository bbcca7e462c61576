"""Per-layer tracing applied from outside the program.

`Tracer.install` replaces every public function of the nine `pda_kit`
layers, and every public method of the classes they define, with a
timing wrapper, in every module namespace that holds the name.  It also
shadows the built-in `pow` inside each layer so that modular
exponentiations and inverses are counted by modulus.  `uninstall` puts
the originals back.

Self time is a call's duration less the durations of the wrapped calls
inside it, so the self times of one phase add up to the time spent
inside wrapped calls; what is left of the phase's wall time is the
benchmark's own bookkeeping.
"""

from __future__ import annotations

import builtins
import importlib
import inspect
import time
from collections import Counter

_MISSING = object()

LAYERS = (
    "numtheory",
    "rng",
    "paillier",
    "bus",
    "pda",
    "arith",
    "models",
    "netsim",
    "analytics",
)


def _public_callables(module):
    """(owner, attribute, qualified name, function) for each public callable."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                # properties and class/static methods are accessors, not work
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield obj, attr, f"{name}.{attr}", member


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.modexp: Counter = Counter()  # modulus -> pow(b, e >= 0, modulus) calls
        self.modinv: Counter = Counter()  # modulus -> pow(b, negative e, modulus) calls
        # one accumulator of child time per open wrapped call; the bottom
        # slot collects the durations of top-level calls
        self._stack = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    # --- counters ------------------------------------------------------------

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.modexp.clear()
        self.modinv.clear()
        self._stack[:] = [0.0]

    @property
    def attributed_s(self) -> float:
        """Summed duration of top-level wrapped calls since the last reset."""
        return self._stack[0]

    # --- patching ------------------------------------------------------------

    def _wrap(self, key: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = stack.pop()
                calls[key] += 1
                self_s[key] += elapsed - inner
                stack[-1] += elapsed

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def _counting_pow(self):
        modexp, modinv = self.modexp, self.modinv
        native = builtins.pow

        def pow(base, exp, mod=None):
            if mod is not None:
                (modinv if exp < 0 else modexp)[mod] += 1
            return native(base, exp, mod)

        return pow

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"pda_kit.{name}") for name in LAYERS]
        wrapped = {}  # id(original) -> wrapper
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for owner, attr, qualname, fn in _public_callables(module):
                wrapper = self._wrap(f"{short}.{qualname}", fn)
                wrapped[id(fn)] = wrapper
                self._set(owner, attr, wrapper)
        # names imported with `from .x import f` are bound in other modules too
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._set(module, name, wrapper)
        counting = self._counting_pow()
        for module in modules:
            self._set(module, "pow", counting)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

