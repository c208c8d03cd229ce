"""Deployment models (paper §IV): wiring clients, RAs, and servers into paths.

Two placements are modelled:

* **close to the client** — the RA sits at the gateway of the client's access
  network; all of the client's TLS traffic crosses it, and the network
  operator vouches (out of band, e.g. authenticated DHCP) that RITM is in
  force, so the client sets ``expect_ritm_protection`` and refuses
  connections that arrive without a status;
* **close to the server** — the RA is co-located with the data-center TLS
  terminator; the terminator confirms support inside the ServerHello, which
  the client uses as its downgrade defence.

The builders return a ready-to-run :class:`~repro.net.path.PathEngine`
together with the participating endpoints, so examples, tests, and
benchmarks can set up a full RITM conversation in a couple of lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.net.link import Link, lan_link, metro_link, wan_link
from repro.net.packet import FiveTuple, make_flow
from repro.net.path import NetworkPath, PathEngine
from repro.net.clock import SimulatedClock
from repro.pki.ca import TrustStore
from repro.pki.certificate import CertificateChain
from repro.ritm.agent import RevocationAgent
from repro.ritm.client import RITMClient
from repro.ritm.config import DeploymentModel, RITMConfig
from repro.ritm.server import RITMServer, TLSTerminator


@dataclass
class Deployment:
    """A fully wired client↔RA↔server path."""

    model: DeploymentModel
    client: RITMClient
    server: RITMServer
    agents: List[RevocationAgent]
    engine: PathEngine
    flow: FiveTuple

    def run_handshake(self, now: Optional[float] = None) -> bool:
        """Drive the TLS handshake end to end; returns client acceptance."""
        start = self.engine.clock.now() if now is None else now
        hello = self.client.client_hello_packet(self.flow, start)
        self.engine.send_from_client(hello)
        return self.client.is_connection_usable

    def deliver_from_server(self, payload: bytes) -> None:
        """Push one application-data packet from the server to the client."""
        packet = self.server.send_application_data(self.flow, payload, self.engine.clock.now())
        self.engine.send_from_server(packet)


def _client_for(
    client_ip: str,
    server_chain: CertificateChain,
    trust_store: TrustStore,
    ca_public_keys: Dict[str, object],
    config: RITMConfig,
    root_cache=None,
    validation_cache=None,
) -> RITMClient:
    return RITMClient(
        ip_address=client_ip,
        server_name=server_chain.leaf.subject,
        trust_store=trust_store,
        ca_public_keys=ca_public_keys,
        config=config,
        expect_ritm_protection=True,
        root_cache=root_cache,
        validation_cache=validation_cache,
    )


def _build(
    model: DeploymentModel,
    client: RITMClient,
    server: RITMServer,
    agents: List[RevocationAgent],
    middleboxes: List,
    links: List[Link],
    clock: Optional[SimulatedClock],
) -> Deployment:
    """The one wiring body: path, engine and flow around the given endpoints.

    The public builders differ only in what they pass here — the model, the
    kind of server, their RA, and the middlebox and link order of their topology.
    """
    path = NetworkPath(client=client, server=server, middleboxes=middleboxes, links=links)
    return Deployment(
        model=model,
        client=client,
        server=server,
        agents=agents,
        engine=PathEngine(path, clock=clock),
        flow=make_flow(client.ip_address, 9012, server.ip_address, 443),
    )


def build_close_to_client_deployment(
    server_chain: CertificateChain,
    trust_store: TrustStore,
    ca_public_keys: Dict[str, object],
    config: Optional[RITMConfig] = None,
    agent: Optional[RevocationAgent] = None,
    client_ip: str = "12.34.56.78",
    server_ip: str = "98.76.54.32",
    clock: Optional[SimulatedClock] = None,
    extra_middleboxes: Optional[List] = None,
    root_cache=None,
    validation_cache=None,
) -> Deployment:
    """RA at the access-network gateway (the paper's Fig. 3 topology).

    ``root_cache`` / ``validation_cache`` optionally share the client-side
    hot-path caches across deployments (one household or fleet reconnecting
    to the same sites — see docs/PERFORMANCE.md); by default every
    deployment's client starts cold.
    """
    model = DeploymentModel.CLOSE_TO_CLIENT
    config = config if config is not None else RITMConfig(deployment=model)
    agent = agent if agent is not None else RevocationAgent("gateway-ra", config)
    client = _client_for(
        client_ip, server_chain, trust_store, ca_public_keys, config, root_cache, validation_cache
    )
    middleboxes = [agent, *(extra_middleboxes or ())]
    links = [lan_link()] + [wan_link() for _ in middleboxes]
    server = RITMServer(server_ip, server_chain)
    return _build(model, client, server, [agent], middleboxes, links, clock)


def build_close_to_server_deployment(
    server_chain: CertificateChain,
    trust_store: TrustStore,
    ca_public_keys: Dict[str, object],
    config: Optional[RITMConfig] = None,
    agent: Optional[RevocationAgent] = None,
    client_ip: str = "12.34.56.78",
    server_ip: str = "98.76.54.32",
    clock: Optional[SimulatedClock] = None,
    extra_middleboxes: Optional[List] = None,
    root_cache=None,
    validation_cache=None,
) -> Deployment:
    """RA co-located with a TLS terminator at the data-center ingress."""
    model = DeploymentModel.CLOSE_TO_SERVER
    config = config if config is not None else RITMConfig(deployment=model)
    agent = agent if agent is not None else RevocationAgent("terminator-ra", config)
    client = _client_for(
        client_ip, server_chain, trust_store, ca_public_keys, config, root_cache, validation_cache
    )
    # The RA is the last hop before the terminator.
    middleboxes = [*(extra_middleboxes or ()), agent]
    links = [wan_link() for _ in middleboxes] + [lan_link()]
    server = TLSTerminator(server_ip, server_chain)
    return _build(model, client, server, [agent], middleboxes, links, clock)


def build_unprotected_path(
    server_chain: CertificateChain,
    trust_store: TrustStore,
    ca_public_keys: Dict[str, object],
    config: Optional[RITMConfig] = None,
    client_ip: str = "12.34.56.78",
    server_ip: str = "98.76.54.32",
    clock: Optional[SimulatedClock] = None,
) -> Deployment:
    """A path with *no* RA — used to demonstrate downgrade detection."""
    config = config if config is not None else RITMConfig()
    client = _client_for(client_ip, server_chain, trust_store, ca_public_keys, config)
    server = RITMServer(server_ip, server_chain)
    return _build(DeploymentModel.CLOSE_TO_CLIENT, client, server, [], [], [metro_link()], clock)
