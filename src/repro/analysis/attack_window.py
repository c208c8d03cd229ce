"""Fleet-scale simulation: empirical attack-window measurement (§V).

The paper argues that RITM's effective attack window is 2Δ: a CA publishes
within Δ of revoking, RAs pull within another Δ, and clients refuse stale
statuses.  That argument is analytical; this module measures it empirically
by running an event-driven fleet:

* one RITM CA refreshing/publishing on its Δ schedule;
* a configurable number of RAs scattered across CDN regions, each pulling on
  its own Δ-periodic schedule with an independent phase offset (the paper's
  point that CA and RA schedules need not be aligned);
* a stream of client connections (one per RA per Δ) probing a certificate
  that gets revoked mid-simulation.

For every RA the simulation records when the revocation became *enforceable*
at that RA (the first moment a client connecting through it would be refused)
and reports the distribution of ``enforceable_time - revocation_time``, which
the 2Δ bound must dominate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cdn.geography import GeoLocation, Region
from repro.cdn.network import CDNNetwork
from repro.crypto.signing import KeyPair
from repro.net.simulator import EventScheduler
from repro.pki.ca import CertificationAuthority
from repro.ritm.agent import RevocationAgent
from repro.ritm.ca_service import RITMCertificationAuthority
from repro.ritm.config import RITMConfig
from repro.ritm.dissemination import RADisseminationClient, attach_agent_to_cas
from repro.errors import RevokedCertificateError, StaleStatusError


@dataclass
class FleetAgent:
    """One RA in the fleet with its dissemination client and pull phase."""

    agent: RevocationAgent
    dissemination: RADisseminationClient
    phase_offset: float
    enforceable_at: Optional[float] = None


@dataclass
class AttackWindowResult:
    """Propagation lags (seconds) from revocation to enforceability, per RA."""

    delta_seconds: int
    lags: List[float]

    def max_lag(self) -> float:
        return max(self.lags)

    def mean_lag(self) -> float:
        return sum(self.lags) / len(self.lags)

    def fraction_within(self, bound_seconds: float) -> float:
        return sum(1 for lag in self.lags if lag <= bound_seconds) / len(self.lags)

    def within_two_delta(self) -> bool:
        """The paper's claim: every RA enforces the revocation within 2Δ."""
        return self.max_lag() <= 2 * self.delta_seconds


def run_attack_window_simulation(
    delta_seconds: int = 10,
    ra_count: int = 40,
    revocation_after_periods: int = 3,
    horizon_periods: int = 10,
    seed: int = 77,
) -> AttackWindowResult:
    """Run the fleet simulation and measure revocation propagation lags."""
    rng = random.Random(seed)
    config = RITMConfig(delta_seconds=delta_seconds, chain_length=4 * horizon_periods + 16)

    authority = CertificationAuthority("Fleet-CA", key_seed=b"fleet-ca")
    victim_keys = KeyPair.generate(b"fleet-victim")
    chain = authority.issue_chain_for("victim.example", victim_keys.public, now=0)
    serial = chain.leaf.serial

    cdn = CDNNetwork(edges_per_region=1)
    ritm_ca = RITMCertificationAuthority(authority, config, cdn)
    ritm_ca.bootstrap(now=0)

    regions = list(Region)
    fleet: List[FleetAgent] = []
    for index in range(ra_count):
        agent = RevocationAgent(f"fleet-ra-{index}", config)
        location = GeoLocation(region=rng.choice(regions), distance_factor=rng.random())
        dissemination = attach_agent_to_cas(agent, [ritm_ca], cdn, location)
        fleet.append(
            FleetAgent(
                agent=agent,
                dissemination=dissemination,
                phase_offset=rng.uniform(0, delta_seconds),
            )
        )

    scheduler = EventScheduler()
    revocation_time = float(revocation_after_periods * delta_seconds)
    state: Dict[str, float] = {}

    # CA duty: refresh (or publish the revocation) every Δ.
    def ca_tick(now: float) -> None:
        if now >= revocation_time and "revoked" not in state:
            ritm_ca.revoke([serial], now=now)
            state["revoked"] = now
        else:
            ritm_ca.refresh(now=now)

    scheduler.schedule_periodic(delta_seconds, ca_tick, start=0.0)

    # RA duty: pull every Δ (own phase), then check enforceability by proving.
    def make_ra_tick(member: FleetAgent):
        def ra_tick(now: float) -> None:
            member.dissemination.pull(now=now)
            if member.enforceable_at is not None or "revoked" not in state:
                return
            replica = member.agent.replica_for(authority.name)
            status = replica.prove(serial)
            try:
                status.verify(
                    ritm_ca.public_key,
                    now=int(now),
                    delta=delta_seconds,
                )
            except RevokedCertificateError:
                member.enforceable_at = now
            except StaleStatusError:
                # A stale status also means the client refuses the connection,
                # which closes the attack window just the same.
                member.enforceable_at = now

        return ra_tick

    for member in fleet:
        scheduler.schedule_periodic(
            delta_seconds, make_ra_tick(member), start=member.phase_offset
        )

    scheduler.run_until(float(horizon_periods * delta_seconds))

    actual_revocation_time = state.get("revoked", revocation_time)
    lags = [
        (member.enforceable_at - actual_revocation_time)
        for member in fleet
        if member.enforceable_at is not None
    ]
    if len(lags) != len(fleet):
        missing = len(fleet) - len(lags)
        raise RuntimeError(
            f"{missing} RAs never observed the revocation within the simulation horizon"
        )
    return AttackWindowResult(
        delta_seconds=delta_seconds,
        lags=lags,
    )
