"""The discrete-event fleet engine behind every scenario run.

This package is the event-driven successor of the serial ``_run_period``
loop that used to live in ``repro.scenarios.runner``.  The moving parts:

* :mod:`~repro.scenarios.engine.state` — the mutable :class:`RunState` all
  actors and observers share, plus the per-agent and victim runtimes;
* :mod:`~repro.scenarios.engine.mailbox` — per-agent mailboxes (head
  announcements, client handshake batches) with depth accounting;
* :mod:`~repro.scenarios.engine.actors` — the CA director, RA pull actors,
  and the client-load actor, each scheduling itself on a shared
  :class:`repro.net.EventScheduler`;
* :mod:`~repro.scenarios.engine.observers` — study phases and fault
  injection as ordered engine hooks instead of inline branches;
* :mod:`~repro.scenarios.engine.links` — per-RA uplink shapes drawn from
  :class:`repro.net.Link` profiles;
* :mod:`~repro.scenarios.engine.core` — the :class:`FleetEngine`
  orchestrator and :func:`run_scenario`, the one entry point.

With every concurrency knob at its default the engine reproduces the
serial runner's reports verdict-for-verdict; the knobs
(``fleet_size``, ``pull_stagger_seconds``, ``pull_jitter_seconds``,
``link_profile``, ``client_stream``) unlock the
contention scenarios described in docs/SCENARIOS.md.
"""

from repro.scenarios.engine.core import FleetEngine, run_scenario

__all__ = ["FleetEngine", "run_scenario"]
