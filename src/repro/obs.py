"""The observer bus: one typed event per enforcement or propagation point.

Every watched component holds one ``obs`` slot: ``None`` when nothing is
attached, so each emission site costs one ``is None`` test, else the
only subscriber itself or a :class:`FanOut` over several.  Subscribers
(the tracer, metrics, profiler and span recorder) override the events
they record: what gets recorded is decided once, by the subscriber.
"""

from __future__ import annotations


class Observer:
    """Base subscriber: every event is a no-op.

    Events fire where subscribers read the simulated clock, which none
    of them advances.  A ``*_begin`` event opens an enforcement window;
    its ``*_end`` fires in a ``finally`` with the hook's result, ``None``
    (or false) if the hook raised.  ``env`` is an environment name;
    ``current``, ``target``, ``entered`` and ``left`` are environments.
    ``core`` is ``None`` on a one-core machine.  A ``verdict`` is
    ``allow``, ``kill``, ``errno`` or ``inject`` (an injected error).
    VM exits and shootdowns were charged ``cost`` from ``t0``.
    """

    # Environment switches.
    def on_prolog_begin(self, call_site, backend): pass
    def on_prolog(self, current, target): pass
    def on_prolog_end(self, goroutine, entered): pass
    def on_epilog_begin(self, env, call_site, backend): pass
    def on_epilog_end(self, goroutine, left): pass
    def on_execute_begin(self, goroutine, core): pass
    def on_execute_end(self, goroutine): pass
    def on_unwind(self, env): pass
    def on_retag(self, env): pass

    # FilterSyscall.
    def on_verdict(self, mechanism, verdict, nr, env=None, **detail): pass

    # Other enforcement points.
    def on_syscall_begin(self, nr, pkru): pass
    def on_syscall_end(self, nr, ret): pass
    def on_guest_syscall_begin(self, nr): pass
    def on_guest_syscall_end(self, nr, ret): pass
    def on_transfer_begin(self, pkg, base, size, backend): pass
    def on_transfer_end(self, pkg, size, moved): pass
    def on_vm_exit(self, reason, t0, cost, exits): pass
    def on_shootdown(self, name, t0, cost, ipis): pass
    def on_violation(self, kind, vaddr, detail, **extra): pass

    # Containment.
    def on_contain_begin(self, goroutine, env, fault): pass
    def on_contained(self, goroutine, env, fault, unwound, reclaimed): pass
    def on_quarantine(self, env, fault, faults): pass
    def on_revive(self, env): pass
    def on_restart(self, env, goroutine): pass
    def on_quota_exceeded(self, env, resource, limit, used): pass
    def on_abort(self, fault): pass

    # Propagation.
    def on_spawn(self, parent, child): pass
    def on_chan_send(self, handle): pass
    def on_chan_recv(self, handle): pass
    def on_wire_send(self, endpoint): pass
    def on_sock_read(self, endpoint): pass
    def on_accept_queue(self, port, depth): pass
    def on_refused(self, port): pass
    def on_reclaimed(self, pkg, nbytes): pass


class FanOut(Observer):
    """Delivers each event to the subscribers that override it, in
    order; an event only one subscriber handles is bound to it."""

    def __init__(self, subscribers: list[Observer]):
        for name, noop in vars(Observer).items():
            if not name.startswith("on_"):
                continue
            handlers = [getattr(sub, name) for sub in subscribers
                        if getattr(type(sub), name) is not noop]
            if handlers:
                setattr(self, name, handlers[0] if len(handlers) == 1
                        else _deliver_to(handlers))


def _deliver_to(handlers: list):
    def deliver(*args, **kwargs):
        for handler in handlers:
            handler(*args, **kwargs)
    return deliver


def fan_out(*subscribers: Observer | None) -> Observer | None:
    """The value of an ``obs`` slot: ``None`` with no subscriber, the
    subscriber itself when there is one, else a :class:`FanOut`."""
    attached = [sub for sub in subscribers if sub is not None]
    if len(attached) > 1:
        return FanOut(attached)
    return attached[0] if attached else None
