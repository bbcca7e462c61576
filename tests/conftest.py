import importlib
import os
import pkgutil
import threading
from collections import Counter
from typing import NamedTuple

import pytest

import pda_kit
from pda_kit import netsim, numtheory
from pda_kit.bus import Bus

MODULES = [
    importlib.import_module(f"pda_kit.{info.name}")
    for info in pkgutil.iter_modules(pda_kit.__path__)
]


class OpCounts:
    """While entered, counts in every `pda_kit` module each fixed-base walk
    by (base, modulus, bound), one per exponent walked (`walks`) and one
    per `fixed_base_pows` call (`walk_calls`), and each modular
    pow(b, e, m) with e >= 0 by m, computed by `numtheory.pow`.

    `numtheory.pows` may call `pow` from several threads at once, so each
    count is taken under a lock: a Counter's first increment of a key
    runs `__missing__` in Python, where another thread can interleave.
    """

    def __init__(self):
        self.walks: Counter = Counter()
        self.walk_calls: Counter = Counter()
        self.pows: Counter = Counter()
        self._lock = threading.Lock()
        self._patch = pytest.MonkeyPatch()

    def __enter__(self) -> "OpCounts":
        walk, inner = numtheory.fixed_base_pows, numtheory.pow

        def counting_walk(base, exponents, modulus, bound):
            with self._lock:
                self.walks[base, modulus, bound] += len(exponents)
                self.walk_calls[base, modulus, bound] += 1
            return walk(base, exponents, modulus, bound)

        def counting_pow(base, exp, mod=None):
            if mod is not None and exp >= 0:
                with self._lock:
                    self.pows[mod] += 1
            return inner(base, exp, mod)

        for module in MODULES:
            if getattr(module, "fixed_base_pows", None) is walk:
                self._patch.setattr(module, "fixed_base_pows", counting_walk)
            self._patch.setattr(module, "pow", counting_pow, raising=False)
        return self

    def __exit__(self, *exc) -> None:
        self._patch.undo()


@pytest.fixture
def op_counts():
    """Fixed-base walks and modexps of the code run inside `with op_counts:`."""
    return OpCounts()


def fork_every_ceremony(patch: pytest.MonkeyPatch) -> list[int]:
    """Through `patch`, every `numtheory.share_exchange`,
    `analytics.run_plan` and prime search forks its workers whatever its
    size: the key ceremony's and both searches' fork floors are 0 and the
    process sees two cores.
    Returns the list of the `evaluate_packed` calls made in this process,
    one entry each, so that a degree computed here and not in a worker
    shows."""
    here = []
    evaluate = numtheory.evaluate_packed

    def recorded(polys, xs, modulus):
        here.append(len(polys))
        return evaluate(polys, xs, modulus)

    patch.setattr(numtheory, "_FORK_FLOOR", 0)
    patch.setattr(numtheory, "_SAFE_SEARCH_FLOOR", 0)
    patch.setattr(numtheory, "_PRIME_SEARCH_FLOOR", 0)
    patch.setattr(numtheory, "_cores", lambda: 2)
    patch.setattr(numtheory, "evaluate_packed", recorded)
    return here


def assert_no_child() -> None:
    """This process has no child: none running, and none exited and not
    reaped.  Raises AssertionError, which a pool's worker hands back."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError("a child process is running, or exited and not reaped")


def one_core_and_pows(patch: pytest.MonkeyPatch) -> None:
    """Through `patch`, the process sees one core, so that every key
    ceremony and plan runs in it and `pows` starts no thread, and the
    vector walk's ceiling is 0, so that every fixed-base batch is one
    `pows` call."""
    patch.setattr(numtheory, "_cores", lambda: 1)
    patch.setattr(numtheory, "_VECTOR_CEILING", 0)


@pytest.fixture
def forked(monkeypatch):
    """`fork_every_ceremony` until the test ends."""
    return fork_every_ceremony(monkeypatch)


# name: (how a route is forced, what this process must not do on it), the
# second among "library" (a libcrypto call), "walk" (a vector walk),
# "fork" (a forked worker), "degree" (a key degree evaluated) and "item"
# (an item of a `numtheory._forked` call, a key degree, a plan step or a
# block of a prime search, computed here)
ROUTES = {
    "shipped": (lambda patch: None, set()),
    "builtin": (lambda patch: patch.setattr(numtheory, "_libcrypto", None), {"library"}),
    "forked": (fork_every_ceremony, {"degree", "item"}),
    "one-core": (one_core_and_pows, {"walk", "fork"}),
}


class Route(NamedTuple):
    """A route of `ROUTES`, and what this process did while it held."""

    name: str
    seen: set
    unseen: set

    def taken(self) -> None:
        done = sorted(self.seen & self.unseen)
        assert not done, f"on the {self.name} route this process did {done}"


def _record(patch: pytest.MonkeyPatch, seen: set) -> None:
    """Through `patch`, each thing a route may forbid adds its name to
    `seen` when this process does it (set.add holds from any thread)."""

    def noted(name, inner):
        def call(*args, **kwargs):
            seen.add(name)
            return inner(*args, **kwargs)

        return call

    fork, forked = os.fork, numtheory._forked

    def parent_fork():
        pid = fork()
        if pid:
            seen.add("fork")
        return pid

    def recorded_forked(compute, *args, **kwargs):
        return forked(noted("item", compute), *args, **kwargs)

    patch.setattr(numtheory, "_mont_exp", noted("library", numtheory._mont_exp))
    patch.setattr(numtheory, "_limb_comb", noted("walk", numtheory._limb_comb))
    patch.setattr(numtheory, "evaluate_packed", noted("degree", numtheory.evaluate_packed))
    patch.setattr(numtheory, "_forked", recorded_forked)
    patch.setattr(os, "fork", parent_fork)


@pytest.fixture(scope="module", params=list(ROUTES))
def route(request):
    """Each route of `ROUTES` in turn, forced and recorded for the whole
    module: every fixed-seed run must give the same digests on each, and
    `Route.taken` shows that the run did not leave it."""
    force, unseen = ROUTES[request.param]
    with pytest.MonkeyPatch.context() as patch:
        seen: set = set()
        _record(patch, seen)
        force(patch)
        yield Route(request.param, seen, unseen)


def drop_posts(patch: pytest.MonkeyPatch, kind: str, sender: int) -> None:
    """Through `patch`, `Bus.post` loses every message of `kind` from
    `sender`, so no party receives it and no transcript holds it.  Calls
    add up, each dropping one more."""
    post = Bus.post

    def lossy(bus, who, what, body, to=None):
        if (what, who) != (kind, sender):
            post(bus, who, what, body, to)

    patch.setattr(Bus, "post", lossy)


@pytest.fixture
def dropping(monkeypatch):
    """`dropping(kind, sender)`: `drop_posts` until the test ends."""
    return lambda kind, sender: drop_posts(monkeypatch, kind, sender)


# what each fault of `fault_rounds` puts on the wire in place of a message
_FAULTS = {
    "duplicate": lambda msg: [msg, msg],
    "lost+duplicate": lambda msg: [],
    "stray": lambda msg: [msg, msg._replace(kind="noise")],
    "empty": lambda msg: [msg._replace(body=())],
    "longer": lambda msg: [msg._replace(body=(*msg.body, 1))],
}


def fault_rounds(patch: pytest.MonkeyPatch, kind: str, sender: int, fault: str) -> None:
    """Through `patch`, the first message of `kind` from `sender` in each
    round reaches every party with one fault: it arrives twice
    ("duplicate"); it is lost and the round's first other message
    arrives twice ("lost+duplicate"); a copy of kind "noise" arrives too
    ("stray"); or its body is empty ("empty") or one value longer
    ("longer").  The fault is made as the round closes, so the
    transcript holds it."""
    end_round = Bus.end_round

    def faulty_end_round(bus):
        pending = bus._pending
        hits = [k for k, msg in enumerate(pending) if (msg.kind, msg.sender) == (kind, sender)]
        if hits:
            pending[hits[0] : hits[0] + 1] = _FAULTS[fault](pending[hits[0]])
            if fault == "lost+duplicate" and pending:
                pending.append(pending[0])
        return end_round(bus)

    patch.setattr(Bus, "end_round", faulty_end_round)


@pytest.fixture
def faulty(monkeypatch):
    """`faulty(kind, sender, fault)`: `fault_rounds` until the test ends."""
    return lambda kind, sender, fault: fault_rounds(monkeypatch, kind, sender, fault)


@pytest.fixture(scope="session")
def arith_system():
    """Toy arith system with authority (ids 1..7, virtual id 7)."""
    system, result = netsim.build_arith_system(
        kappa=24, n=6, n_min=3, seed=20_240_501, with_authority=True
    )
    return system, result


@pytest.fixture(scope="session")
def plain_arith_system():
    """Toy arith system without authority (ids 1..6)."""
    system, result = netsim.build_arith_system(
        kappa=24, n=6, n_min=3, seed=20_240_502
    )
    return system, result


@pytest.fixture(scope="session")
def pda_system():
    """Toy framework system: kappa=16, six users."""
    system, result = netsim.build_pda_system(
        kappa=16, n=6, theta_min=3, seed=20_240_503, m_max=16
    )
    return system, result
