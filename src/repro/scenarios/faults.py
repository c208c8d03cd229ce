"""Fault injectors: the "what goes wrong" half of a scenario.

Each injector manipulates the deployment exactly the way the paper's
adversary (or plain operational failure) would:

* :func:`tamper_latest_batch` rewrites the most recently published issuance
  object on the CDN, substituting a decoy serial while leaving the honest
  signed root in place — the RA's batch verification must reject it, roll the
  replica back, and recover through the sync protocol;
* :func:`replay_captured_head` re-presents a head object captured earlier in
  the run (the §V replay attack) — the RA's replay window must reject it
  without touching its replica;
* :func:`forge_head_with_retired_key` republishes the current head re-signed
  under a rotated-out CA key whose overlap window has expired — the RA's
  time-scoped keyring must refuse the signature;
* :func:`equivocate_at_edges` plants a fully self-consistent forged universe
  (shadow dictionary, parallel signed root of the same size, its own
  freshness chain) at one region's CDN edges, so the targeted RA adopts the
  forged state without a single verification error — only cross-RA gossip
  can expose the conflicting roots (docs/THREATS.md);
Each CDN-object injector aims at one of the CA's dictionary streams, named by
the caller (an unsharded CA has only the one, under its own name).

* CA outages and RA restarts are *scheduling* faults: the runner implements
  them by skipping the CA's publication duty (queueing its revocations) or
  the RA's pulls for the fault window, using :func:`FaultSpec.covers`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.cdn.geography import Region
from repro.cdn.network import CDNNetwork
from repro.dictionary.authdict import CADictionary
from repro.pki.serial import SerialNumber
from repro.ritm.ca_service import (
    RITMCertificationAuthority,
    head_path,
    issuance_path,
)
from repro.ritm.messages import (
    DictionaryHead,
    decode_head,
    decode_issuance,
    encode_head,
    encode_issuance,
)

#: The serial substituted into a tampered batch.
DECOY_SERIAL = 0xDEAD


def tamper_latest_batch(
    ca: RITMCertificationAuthority, stream_name: str, cdn: CDNNetwork, now: float
) -> Optional[str]:
    """Replace a stream's latest published issuance batch with a forged copy.

    The forged batch swaps the first revoked serial for :data:`DECOY_SERIAL`
    but keeps the honest signed root, so the batch decodes cleanly and fails
    only at content verification.  Returns a human-readable description of
    the tampering, or ``None`` when there is no batch to tamper with.
    """
    stream = ca.streams.get(stream_name)
    batch_number = stream.batches if stream is not None else 0
    path = issuance_path(stream_name, batch_number)
    if batch_number == 0 or not cdn.origin.exists(path):
        return None
    honest = decode_issuance(cdn.origin.fetch(path).content)
    if not honest.serials:
        return None
    decoy = SerialNumber(DECOY_SERIAL)
    forged_serials = (decoy,) + tuple(honest.serials[1:])
    forged = replace(honest, serials=forged_serials)
    cdn.publish(path, encode_issuance(forged), now)
    return (
        f"batch {batch_number}: serial {honest.serials[0]} replaced with "
        f"decoy {decoy} on the CDN"
    )


def replay_captured_head(
    ca_name: str, cdn: CDNNetwork, captured: bytes, now: float
) -> str:
    """Re-present a previously published head object on the CDN (§V replay).

    ``captured`` are the raw bytes of a head the CA published earlier in the
    run; the injector simply republishes them over the current head object,
    exactly what a compromised distribution point re-serving stale signed
    state would do.  The replayed copy carries its original publication
    sequence, so an RA whose cursor has moved past the replay window must
    raise :class:`~repro.errors.ReplayError` and leave its replica untouched.
    """
    stale = decode_head(captured)
    cdn.publish(head_path(ca_name), captured, now)
    return (
        f"head for {ca_name!r} rolled back to publication sequence "
        f"{stale.sequence} (dictionary size {stale.size}) on the CDN"
    )


def forge_head_with_retired_key(
    ca: RITMCertificationAuthority, stream_name: str, cdn: CDNNetwork, now: float
) -> Optional[str]:
    """Republish a stream's current head re-signed under a retired CA signing key.

    Models the attack key rotation exists to stop: an attacker who extracts
    an *old* signing key after the CA rotated away from it.  The forged head
    carries the honest dictionary content (same root bytes — so it can never
    double as equivocation evidence), a bumped timestamp so replicas attempt
    to install it, and a far-future publication sequence so it sails through
    the replay window.  With the retired key's overlap window expired, the
    RA's keyring must reject the signature outright.  Returns ``None`` when
    the CA has not rotated yet (no retired key to forge with).
    """
    if not ca._retired_signing_keys:  # noqa: SLF001 - scenario-staged key compromise
        return None
    retired = ca._retired_signing_keys[-1]  # noqa: SLF001
    path = head_path(stream_name)
    if not cdn.origin.exists(path):
        return None
    honest = decode_head(cdn.origin.fetch(path).content)
    forged_root = replace(
        honest.signed_root, timestamp=honest.signed_root.timestamp + 1
    ).sign(retired.private)
    forged = replace(
        honest, signed_root=forged_root, sequence=honest.sequence + 64
    )
    cdn.publish(path, encode_head(forged), now)
    return (
        f"head for {stream_name!r} re-signed with the retired epoch-"
        f"{ca.key_epoch - 1} key and republished "
        f"(sequence {forged.sequence})"
    )


def equivocate_at_edges(
    ca: RITMCertificationAuthority,
    stream_name: str,
    cdn: CDNNetwork,
    region: Region,
    batches: List[List[SerialNumber]],
    now: float,
    ttl_seconds: float,
) -> Optional[Dict[str, object]]:
    """Plant a forged parallel dictionary at one region's CDN edges.

    The equivocating CA rebuilds one stream's entire revocation history
    (``batches``) in a *shadow* dictionary — identical batches, except the most recently revoked serial
    is silently replaced by :data:`DECOY_SERIAL` — and signs the shadow root
    with its real (active) key.  The shadow head and the shadow copy of the
    latest issuance batch are planted only at the targeted region's edges;
    the origin and every other region keep the honest objects.

    Because the shadow universe is internally consistent (matching sizes and
    numbering, a valid freshness chain from its own anchor, a genuine CA
    signature), the targeted RA adopts it without a single verification
    error: the forgery is invisible to every local check and only the
    cross-RA gossip ring can expose the two conflicting same-size roots.

    Returns a summary dict (hidden serial, conflicting size, detail line),
    or ``None`` when nothing has been revoked yet.
    """
    if not batches or not batches[-1]:
        return None
    path = head_path(stream_name)
    if not cdn.origin.exists(path):
        return None
    honest_head = decode_head(cdn.origin.fetch(path).content)
    hidden = batches[-1][-1]
    decoy = SerialNumber(DECOY_SERIAL)

    shadow = CADictionary(
        ca_name=stream_name,
        keys=ca._signing_keys,  # noqa: SLF001 - the CA signs its own forgery
        delta=ca.config.delta_seconds,
        chain_length=honest_head.signed_root.chain_length,
        digest_size=ca.config.digest_size,
    )
    shadow_issuance = None
    for index, batch in enumerate(batches):
        serials = list(batch)
        if index == len(batches) - 1:
            serials[-1] = decoy
        shadow_issuance = shadow.insert(serials, int(now))

    forged_head = DictionaryHead(
        ca_name=stream_name,
        size=shadow.size,
        signed_root=shadow.signed_root,
        freshness=shadow.latest_freshness,
        sequence=honest_head.sequence,
    )
    batch_number = ca.streams[stream_name].batches
    for edge in cdn.edges_in(region):
        edge.plant_object(path, encode_head(forged_head), now, ttl_seconds)
        edge.plant_object(
            issuance_path(stream_name, batch_number),
            encode_issuance(shadow_issuance),
            now,
            ttl_seconds,
        )
    return {
        "hidden_serial": hidden,
        "conflicting_size": shadow.size,
        "forged_root": shadow.signed_root.root.hex(),
        "detail": (
            f"shadow dictionary of size {shadow.size} planted at "
            f"{len(cdn.edges_in(region))} {region.value} edge(s): serial "
            f"{hidden} silently replaced with decoy {decoy}"
        ),
    }
