"""Per-RA uplink shapes, resolved from the config's link-profile knobs.

A scenario can model each RA's last-mile connectivity with a
:class:`repro.net.Link`: the dissemination client adds one request/response
round trip (sized by the pull's actual bytes) to every pull's recorded
latency.  Profiles:

* ``lan`` / ``metro`` / ``wan`` — the standard shapes from
  :mod:`repro.net.link`;
* ``stalled`` — a pathologically slow uplink (25 s propagation delay at
  256 kbit/s), used by the ``slow-ra-holb`` scenario to push one RA's
  dissemination lag past the 2Δ bound without delaying anyone else;
* ``""`` — no link modelling (the serial runner's behaviour).

``link_overrides`` pins individual agents to a concrete profile on top of
the fleet-wide ``link_profile``.
"""

from __future__ import annotations

from typing import Optional

from repro.net import Link, lan_link, metro_link, wan_link
from repro.scenarios.config import ScenarioConfig

#: One-way delay of the ``stalled`` profile; chosen so a single round trip
#: exceeds one Δ period in every scenario that uses it.
STALLED_LATENCY_SECONDS = 25.0


def stalled_link() -> Link:
    """The pathological uplink: 25 s one-way delay at 256 kbit/s."""
    return Link(
        latency_seconds=STALLED_LATENCY_SECONDS,
        bandwidth_bytes_per_second=32_000.0,
        name="stalled",
    )


def resolve_profile(profile: str) -> Link:
    """The :class:`Link` for one concrete profile name."""
    if profile == "lan":
        return lan_link()
    if profile == "metro":
        return metro_link()
    if profile == "wan":
        return wan_link()
    if profile == "stalled":
        return stalled_link()
    raise ValueError(f"not a concrete link profile: {profile!r}")


def link_for_agent(config: ScenarioConfig, agent_name: str) -> Optional[Link]:
    """The uplink to model for one RA, or ``None`` for no link modelling.

    An entry in :attr:`~repro.scenarios.config.ScenarioConfig.link_overrides`
    wins over the fleet-wide profile.
    """
    profile = config.link_overrides.get(agent_name) or config.link_profile
    return resolve_profile(profile) if profile else None
