"""Fault injectors: the "what goes wrong" half of a scenario.

Each injector manipulates the deployment exactly the way the paper's
adversary (or plain operational failure) would:

* :func:`tamper_latest_batch` rewrites the most recently published issuance
  object on the CDN, and the per-Δ object while it carries that batch,
  substituting a decoy serial while leaving the honest signed root in place
  — the RA's batch verification must reject it, roll the replica back, and
  recover through the sync protocol;
* :func:`replay_captured_head` re-presents a head object and freshness
  object captured earlier in the run (the §V replay attack) — the RA must
  reject them without touching its replica;
* :func:`forge_head_with_retired_key` republishes the current head re-signed
  under a rotated-out CA key whose overlap window has expired — the RA's
  time-scoped keyring must refuse the signature;
* :func:`equivocate_at_edges` plants a fully self-consistent forged universe
  (shadow dictionary, parallel signed root of the same size, its own
  freshness chain) at one region's CDN edges, so the targeted RA adopts the
  forged state without a single verification error — only cross-RA gossip
  can expose the conflicting roots (docs/THREATS.md);

An RA reads a stream's freshness object every Δ and its head only when that
statement links to no root it holds, so every injector that forges a head
also plants the freshness object that sends the RA to it.

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
from repro.crypto.hashchain import HashChain
from repro.dictionary.authdict import CADictionary
from repro.dictionary.freshness import FreshnessStatement
from repro.pki.serial import SerialNumber
from repro.ritm.ca_service import (
    RITMCertificationAuthority,
    freshness_path,
    head_path,
    issuance_path,
)
from repro.ritm.messages import (
    DictionaryHead,
    decode_head,
    encode_freshness,
    encode_head,
)
from repro.ritm.replication import decode_segment, encode_segment

#: The serial substituted into a tampered batch.
DECOY_SERIAL = 0xDEAD


def tamper_latest_batch(
    stream_name: str, cdn: CDNNetwork, batches: List[List[SerialNumber]], now: float
) -> Optional[str]:
    """Replace a stream's latest published issuance batch with a forged copy.

    ``batches`` is the stream's revocation history, oldest first: the last
    batch's address, its first serial number, follows the ones before.
    The forged batch swaps the first revoked serial for
    :data:`DECOY_SERIAL` but keeps the honest signed root, so the batch
    decodes cleanly and fails only at content verification.  While the
    stream's per-Δ object is that batch's object, the forgery replaces it
    there too: it is the copy an RA that was current reads.  Returns a
    human-readable description of the tampering, or ``None`` when there is
    no batch to tamper with.
    """
    address = 1 + sum(len(batch) for batch in batches[:-1])
    path = issuance_path(stream_name, address)
    if not batches or not cdn.origin.exists(path):
        return None
    content = cdn.origin.fetch(path).content
    honest = decode_segment(content)
    decoy = SerialNumber(DECOY_SERIAL)
    tampered = encode_segment(replace(honest, serials=(decoy,) + tuple(honest.serials[1:])))
    cdn.publish(path, tampered, now)
    if cdn.origin.fetch(freshness_path(stream_name)).content == content:
        cdn.publish(freshness_path(stream_name), tampered, now)
    return (
        f"batch {len(batches)}: serial {honest.serials[0]} replaced with "
        f"decoy {decoy} on the CDN"
    )


def replay_captured_head(
    ca_name: str,
    cdn: CDNNetwork,
    captured_head: bytes,
    captured_freshness: bytes,
    now: float,
) -> str:
    """Re-present a previously published head on the CDN (§V replay).

    ``captured_head`` and ``captured_freshness`` are the raw bytes of a head
    and the freshness object the CA published beside it earlier in the run;
    the injector simply republishes them over the current objects, exactly
    what a compromised distribution point re-serving stale signed state
    would do.  The old statement links to no root the RA holds, so the RA
    reads the head, whose signed root is older than its replica's (fewer
    revocations, or as many signed earlier): it must raise
    :class:`~repro.errors.ReplayError` and leave its replica untouched.
    """
    stale = decode_head(captured_head).signed_root
    cdn.publish(head_path(ca_name), captured_head, now)
    cdn.publish(freshness_path(ca_name), captured_freshness, now)
    return (
        f"head for {ca_name!r} rolled back to the root signed at "
        f"{stale.timestamp} (dictionary size {stale.size}) on the CDN"
    )


def forge_head_with_retired_key(
    ca: RITMCertificationAuthority, stream_name: str, cdn: CDNNetwork, now: float
) -> Optional[str]:
    """Republish a stream's current head re-signed under a retired CA signing key.

    Models the attack key rotation exists to stop: an attacker who extracts
    an *old* signing key after the CA rotated away from it.  The forged head
    carries the honest dictionary content (same root bytes — so it can never
    double as equivocation evidence), a bumped timestamp so replicas attempt
    to install it, a hash chain of its own whose anchor is published as the
    freshness object (it links to no root an RA holds, which sends the RA
    to the head).  With the retired key's overlap window expired, the RA's
    keyring must reject the signature outright.  Returns ``None`` when
    the CA has not rotated yet (no retired key to forge with).
    """
    if not ca._retired_signing_keys:  # noqa: SLF001 - scenario-staged key compromise
        return None
    retired = ca._retired_signing_keys[-1]  # noqa: SLF001
    path = head_path(stream_name)
    if not cdn.origin.exists(path):
        return None
    honest = decode_head(cdn.origin.fetch(path).content)
    chain = HashChain(
        length=honest.signed_root.chain_length,
        seed=f"retired-key forgery of {stream_name}".encode("utf-8"),
    )
    forged_root = replace(
        honest.signed_root,
        timestamp=honest.signed_root.timestamp + 1,
        anchor=chain.anchor,
    ).sign(retired.private)
    forged = DictionaryHead(forged_root, FreshnessStatement(chain.anchor))
    cdn.publish(path, encode_head(forged), now)
    cdn.publish(freshness_path(stream_name), encode_freshness(forged.freshness), now)
    return (
        f"head for {stream_name!r} re-signed with the retired epoch-"
        f"{ca.key_epoch - 1} key and republished"
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
    The shadow freshness object is planted too: it links to no root the
    targeted RA holds, which sends the RA to the shadow head and from there
    down its catch-up walk to the shadow batch.

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
    )
    shadow_issuance = None
    for index, batch in enumerate(batches):
        serials = list(batch)
        if index == len(batches) - 1:
            serials[-1] = decoy
        shadow_issuance = shadow.insert(serials, int(now))

    forged_head = DictionaryHead(shadow.signed_root, shadow.latest_freshness)
    for edge in cdn.edges_in(region):
        edge.plant_object(path, encode_head(forged_head), now, ttl_seconds)
        edge.plant_object(
            freshness_path(stream_name),
            encode_freshness(forged_head.freshness),
            now,
            ttl_seconds,
        )
        edge.plant_object(
            issuance_path(stream_name, shadow_issuance.first_number),
            encode_segment(shadow_issuance),
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
