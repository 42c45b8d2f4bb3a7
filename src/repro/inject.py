"""Deterministic fault injection for containment testing.

A :class:`FaultInjector` perturbs a running machine at three hook
points — the kernel's system-call entry, LitterBox's Prolog, and the
MMU's access path — according to a declarative, seeded specification,
so that the fault-containment layer (``MachineConfig.fault_policy``)
can be exercised reproducibly: the same spec and seed always produce
the same injected events at the same simulated instants.  The MMU hook
is attached only while a fault is armed (see :class:`FaultInjector`).

Spec grammar
------------

::

    SPEC   := CLAUSE (';' CLAUSE)*
    CLAUSE := KIND '@' ENV (':' OPT (',' OPT)*)?
    OPT    := every=N | after=N | count=N | p=F | nr=N
    ENV    := an environment name (e.g. ``main_1``) | '*'

Kinds:

* ``eagain`` / ``eintr`` — transient system-call errors: an eligible
  system call (made while ENV is current; restricted to one number
  with ``nr=``) returns ``-EAGAIN`` / ``-EINTR`` instead of running.
  Models the retryable failures production servers must absorb.
* ``pkey`` / ``page`` — enclosure memory violations: an eligible
  Prolog into ENV arms the injector, and the next data access inside
  that environment raises a :class:`~repro.errors.PkeyFault` /
  :class:`~repro.errors.PageFault`.  Models an adversarial or buggy
  package touching memory outside its view.
* ``sysdeny`` — adversarial-package misbehavior: an eligible Prolog
  arms the injector, and the next access inside ENV raises a
  :class:`~repro.errors.SyscallFault`, as if the package executed a
  filtered SYSCALL instruction at that point.
* ``entry`` — the Prolog itself fails with a ``denied-entry`` fault
  (models an unavailable / administratively revoked enclosure).

Options (all per clause):

* ``every=N`` — fire on every Nth eligible event (default 1);
* ``after=N`` — skip the first N eligible events (default 0);
* ``count=N`` — fire at most N times (default unlimited);
* ``p=F``    — additionally gate each firing on a seeded coin flip
  with probability F (the only stochastic option; draws come from
  ``random.Random(seed)`` in event order, so runs are reproducible);
* ``nr=N``   — ``eagain``/``eintr`` only: restrict to syscall N.

Eligibility counting is per clause: system calls executed while ENV is
current for the transient kinds, Prologs into ENV for the rest.
"""

from __future__ import annotations

import random

from repro.errors import ConfigError, Fault, PageFault, PkeyFault, SyscallFault
from repro.os import errno

_TRANSIENT_KINDS = ("eagain", "eintr")
_ARMED_KINDS = ("pkey", "page", "sysdeny")
KINDS = _TRANSIENT_KINDS + _ARMED_KINDS + ("entry",)

_TRANSIENT_ERRNO = {"eagain": errno.EAGAIN, "eintr": errno.EINTR}


class InjectClause:
    """One parsed clause of an injection spec."""

    __slots__ = ("kind", "env", "every", "after", "count", "p", "nr",
                 "seen", "fired")

    def __init__(self, kind: str, env: str, every: int = 1, after: int = 0,
                 count: int | None = None, p: float | None = None,
                 nr: int | None = None):
        if kind not in KINDS:
            raise ConfigError(f"unknown injection kind {kind!r} "
                              f"(expected one of {', '.join(KINDS)})")
        if every < 1:
            raise ConfigError(f"every={every} must be >= 1")
        if after < 0:
            raise ConfigError(f"after={after} must be >= 0")
        if count is not None and count < 0:
            raise ConfigError(f"count={count} must be >= 0")
        if p is not None and not 0.0 <= p <= 1.0:
            raise ConfigError(f"p={p} must be within [0, 1]")
        if nr is not None and nr < 0:
            raise ConfigError(f"nr={nr} must be >= 0")
        if nr is not None and kind not in _TRANSIENT_KINDS:
            raise ConfigError(f"nr= only applies to eagain/eintr, "
                              f"not {kind!r}")
        self.kind = kind
        self.env = env
        self.every = every
        self.after = after
        self.count = count
        self.p = p
        self.nr = nr
        self.seen = 0       # eligible events observed
        self.fired = 0      # injections performed

    def matches_env(self, env_name: str) -> bool:
        return self.env == "*" or self.env == env_name

    def describe(self) -> str:
        opts = [f"every={self.every}"]
        if self.after:
            opts.append(f"after={self.after}")
        if self.count is not None:
            opts.append(f"count={self.count}")
        if self.p is not None:
            opts.append(f"p={self.p}")
        if self.nr is not None:
            opts.append(f"nr={self.nr}")
        return f"{self.kind}@{self.env}:" + ",".join(opts)


def parse_inject_spec(spec: str) -> list[InjectClause]:
    """Parse ``KIND@ENV[:opt=val,...][;...]`` into clauses."""
    clauses: list[InjectClause] = []
    for raw in spec.split(";"):
        raw = raw.strip()
        if not raw:
            continue
        head, _, opts_text = raw.partition(":")
        kind, sep, env = head.partition("@")
        kind = kind.strip()
        env = env.strip()
        if not sep or not env:
            raise ConfigError(
                f"inject clause {raw!r}: expected KIND@ENV[:opts]")
        kwargs: dict = {}
        if opts_text:
            for opt in opts_text.split(","):
                key, sep, value = opt.partition("=")
                key = key.strip()
                value = value.strip()
                if not sep:
                    raise ConfigError(
                        f"inject clause {raw!r}: bad option {opt!r}")
                try:
                    if key in ("every", "after", "count", "nr"):
                        kwargs[key] = int(value)
                    elif key == "p":
                        kwargs[key] = float(value)
                    else:
                        raise ConfigError(
                            f"inject clause {raw!r}: unknown option {key!r}")
                except ValueError:
                    raise ConfigError(
                        f"inject clause {raw!r}: bad value {value!r} "
                        f"for {key!r}") from None
        try:
            clauses.append(InjectClause(kind, env, **kwargs))
        except ConfigError as err:
            # Name the offending clause: the spec usually arrives on the
            # command line, where "which clause?" is the first question.
            raise ConfigError(f"inject clause {raw!r}: {err}") from None
    if not clauses:
        raise ConfigError(f"inject spec {spec!r} has no clauses")
    return clauses


class FaultInjector:
    """Seeded, deterministic fault injection engine.

    The machine wires ``env_provider`` (a callable returning the name
    of the environment the current goroutine is executing in) and
    ``mmu``, and installs the injector on the kernel and LitterBox hook
    points.  The MMU hook is attached only while a clause is armed:
    :meth:`on_prolog` sets ``mmu.inject`` when it arms one, and
    :meth:`on_access` clears it when the last armed clause fires.  With
    nothing armed the hook would have no effect, so leaving it off
    changes no simulated value and keeps the MMU's TLB fast paths and
    the JIT's traces running.  All hooks are no-ops in machines built
    without ``MachineConfig(inject=...)`` — the attributes stay
    ``None`` and each hook site is one ``is None`` test, so simulated
    time is bit-identical with injection disabled.
    """

    def __init__(self, spec: str | list[InjectClause], seed: int = 0):
        self.clauses = (parse_inject_spec(spec) if isinstance(spec, str)
                        else list(spec))
        self.seed = seed
        self._rng = random.Random(seed)
        #: Callable returning the current environment name; the machine
        #: wires it to the scheduler's current goroutine.
        self.env_provider = None
        #: The MMU whose access hook (``mmu.inject``) this injector
        #: holds while ``_armed`` is non-empty; the machine wires it.
        self.mmu = None
        #: Armed one-shot faults: (clause, env_id, env_name).
        self._armed: list[tuple[InjectClause, int, str]] = []

    # -- firing discipline ---------------------------------------------------

    def _should_fire(self, clause: InjectClause) -> bool:
        clause.seen += 1
        if clause.seen <= clause.after:
            return False
        if (clause.seen - clause.after - 1) % clause.every != 0:
            return False
        if clause.count is not None and clause.fired >= clause.count:
            return False
        if clause.p is not None and self._rng.random() >= clause.p:
            return False
        clause.fired += 1
        return True

    def _current_env(self) -> str:
        provider = self.env_provider
        return provider() if provider is not None else "trusted"

    # -- hook: kernel syscall entry ------------------------------------------

    def on_syscall(self, nr: int) -> int | None:
        """Return a negative errno to force a transient failure, or
        ``None`` to let the call proceed."""
        env = None
        for clause in self.clauses:
            if clause.kind not in _TRANSIENT_KINDS:
                continue
            if clause.nr is not None and clause.nr != nr:
                continue
            if env is None:
                env = self._current_env()
            if not clause.matches_env(env):
                continue
            if self._should_fire(clause):
                return -_TRANSIENT_ERRNO[clause.kind]
        return None

    # -- hook: LitterBox Prolog ----------------------------------------------

    def on_prolog(self, env) -> None:
        """Arm memory/syscall faults for ``env``; raise for ``entry``."""
        for clause in self.clauses:
            if clause.kind in _TRANSIENT_KINDS:
                continue
            if not clause.matches_env(env.name):
                continue
            if not self._should_fire(clause):
                continue
            if clause.kind == "entry":
                fault = Fault("denied-entry",
                              f"injected Prolog denial for enclosure "
                              f"{env.name!r}", env_id=env.id,
                              env_name=env.name, pkg="injected")
                raise fault
            self._armed.append((clause, env.id, env.name))
            if self.mmu is not None:
                self.mmu.inject = self

    # -- hook: MMU access path -----------------------------------------------

    def on_access(self, vaddr: int, kind: str) -> None:
        """Fire an armed fault if the current environment matches.

        ``pkey``/``page`` fire only on data accesses (MPK semantics:
        protection keys never govern instruction fetches); ``sysdeny``
        fires on any access, modelling a filtered SYSCALL instruction
        appearing at that point in the adversarial package's stream.
        """
        env = self._current_env()
        for index, (clause, env_id, env_name) in enumerate(self._armed):
            if env_name != env:
                continue
            if clause.kind in ("pkey", "page") and kind == "x":
                continue
            del self._armed[index]
            if not self._armed and self.mmu is not None:
                self.mmu.inject = None
            if clause.kind == "pkey":
                fault = PkeyFault(
                    f"injected PKRU violation at {vaddr:#x} in "
                    f"enclosure {env_name!r}", addr=vaddr, pkey=0)
            elif clause.kind == "page":
                fault = PageFault(
                    "non-present",
                    f"injected page fault at {vaddr:#x} in enclosure "
                    f"{env_name!r}", addr=vaddr)
            else:  # sysdeny
                fault = SyscallFault(
                    f"injected forbidden syscall attempt in enclosure "
                    f"{env_name!r}", nr=-1)
            fault.env_id = env_id
            fault.env_name = env_name
            fault.pkg = "injected"
            raise fault

    # -- reporting ------------------------------------------------------------

    @property
    def total_fired(self) -> int:
        return sum(clause.fired for clause in self.clauses)

    def report(self) -> dict:
        """Per-clause injection accounting for the containment report."""
        return {
            "seed": self.seed,
            "total_fired": self.total_fired,
            "clauses": [
                {"spec": clause.describe(), "kind": clause.kind,
                 "env": clause.env, "eligible": clause.seen,
                 "fired": clause.fired}
                for clause in self.clauses
            ],
        }
