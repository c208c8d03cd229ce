"""RA checkpoints: one file, replaced atomically (docs/STORAGE.md).

A checkpoint is everything a :class:`~repro.ritm.agent.RevocationAgent` and
its :class:`~repro.ritm.dissemination.RADisseminationClient` need to resume
serving and delta-pulling after a process restart.  Each replica is stored as
what the paper's recovery exchange would hand it — the sync response to
``have_count = 0`` (:func:`repro.dictionary.sync.held_state`: its serials in
revocation order under its signed root, as one
:class:`~repro.dictionary.authdict.RevocationIssuance`, and its freshness
statement) in the sync protocol's own wire form
(:func:`~repro.ritm.messages.encode_sync_response`: the issuance, then the
statement) — so a restore *is* a sync answered from local disk and goes
through the same ``update_many`` / ``install_root`` checks.

This module alone lays the file out::

    magic "RITMCKPT" | u16 format | name agent
    u32 n | n × (name ca, u64 shard width)
    u32 n | n × (name ca, u32 m, m × (i64 shard index, name replica))
    u32 n | n × (name ca, u32-framed key-announcement chain, u64 keyring clock)
    u32 n | n × (u16-framed trust-anchor key, u32-framed sync response)
    u32 CRC32 of everything before it

(``name`` is a u16-framed UTF-8 string; integers are big-endian.)  The file
is written once, through :func:`~repro.store.base.atomic_write`: a crash
at any instant of any checkpoint leaves the previous complete file or the new
complete one.  The CRC catches corruption; it is not a MAC, and nothing read
here is trusted — replica state is re-verified on restore, keyring chains are
re-validated against their genesis anchor.  Nothing records where a replica
stands in its stream: its size is where the next pull's catch-up walk
starts, so its content and the place it resumes from cannot disagree.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.dictionary.sync import SyncResponse
from repro.errors import StorageError, TLSError
from repro.ritm.messages import decode_sync_response, encode_sync_response
from repro.store.base import atomic_write

#: First bytes of a checkpoint file.
CHECKPOINT_MAGIC = b"RITMCKPT"

#: The one layout this build writes and reads.  Format 1 also stored a
#: per-CA shard-index pull count, format 2 a head replay cursor per replica
#: and a shard-index replay cursor per sharded CA, format 3 a batch
#: count per replica and its key chains as JSON, format 4 each replica's
#: freshness statement with its CA name and dictionary size, format 5 each
#: replica's sync response in issuance-object chunks (format 6: one
#: issuance and its statement); all are rejected as a format mismatch.
CHECKPOINT_FORMAT = 6

#: The one file inside a checkpoint directory.
CHECKPOINT_FILENAME = "checkpoint.bin"


@dataclass
class ReplicaCheckpoint:
    """One replica's persisted state."""

    #: The key the replica's trust is anchored at: its verifier's own bytes,
    #: or a rotating keyring's *genesis* key (the chain in
    #: :attr:`AgentCheckpoint.keyrings` must re-validate against it).
    public_key_bytes: bytes
    #: What the replica held, as the sync response to ``have_count = 0``.
    state: SyncResponse


@dataclass
class AgentCheckpoint:
    """One RA's warm-start state, as handed over by (and back to) the agent
    and its dissemination client."""

    agent_name: str
    shard_widths: Dict[str, int] = field(default_factory=dict)
    #: CA name → shard index → replica name (the explicit shard registry).
    shard_members: Dict[str, Dict[int, str]] = field(default_factory=dict)
    #: CA name → (encoded validated key-announcement chain, keyring clock),
    #: for CAs whose keyring has learned a rotation.
    keyrings: Dict[str, Tuple[bytes, int]] = field(default_factory=dict)
    replicas: List[ReplicaCheckpoint] = field(default_factory=list)


_SHORT = struct.Struct(">H")
_COUNT = struct.Struct(">I")
_LONG = struct.Struct(">Q")
_INDEX = struct.Struct(">q")


def _name(text: str) -> bytes:
    raw = text.encode("utf-8")
    return _SHORT.pack(len(raw)) + raw


def _encode(checkpoint: AgentCheckpoint) -> bytes:
    """The checkpoint file's bytes, trailing CRC included."""
    parts = [CHECKPOINT_MAGIC, _SHORT.pack(CHECKPOINT_FORMAT), _name(checkpoint.agent_name)]
    parts.append(_COUNT.pack(len(checkpoint.shard_widths)))
    for ca_name, width in checkpoint.shard_widths.items():
        parts += [_name(ca_name), _LONG.pack(width)]
    parts.append(_COUNT.pack(len(checkpoint.shard_members)))
    for ca_name, members in checkpoint.shard_members.items():
        parts += [_name(ca_name), _COUNT.pack(len(members))]
        for index, replica_name in members.items():
            parts += [_INDEX.pack(index), _name(replica_name)]
    parts.append(_COUNT.pack(len(checkpoint.keyrings)))
    for ca_name, (chain, clock) in checkpoint.keyrings.items():
        parts += [_name(ca_name), _COUNT.pack(len(chain)), chain, _LONG.pack(clock)]
    parts.append(_COUNT.pack(len(checkpoint.replicas)))
    for replica in checkpoint.replicas:
        state = encode_sync_response(replica.state)
        parts += [_SHORT.pack(len(replica.public_key_bytes)), replica.public_key_bytes]
        parts += [_COUNT.pack(len(state)), state]
    body = b"".join(parts)
    return body + _COUNT.pack(zlib.crc32(body))


def _decode(data: bytes) -> AgentCheckpoint:
    """Parse a checkpoint file, checking magic, CRC, format and framing."""
    header = len(CHECKPOINT_MAGIC)
    if len(data) < header + 2 + _COUNT.size or not data.startswith(CHECKPOINT_MAGIC):
        raise StorageError("not an RA checkpoint file")
    end = len(data) - _COUNT.size
    if zlib.crc32(data[:end]) != _COUNT.unpack_from(data, end)[0]:
        raise StorageError("RA checkpoint failed its checksum")
    offset = header

    def take(length: int) -> bytes:
        nonlocal offset
        if offset + length > end:
            raise StorageError("RA checkpoint is truncated")
        offset += length
        return data[offset - length : offset]

    def unpack(layout: struct.Struct):
        values = layout.unpack(take(layout.size))
        return values[0] if len(values) == 1 else values

    def name() -> str:
        return take(unpack(_SHORT)).decode("utf-8")

    version = unpack(_SHORT)
    if version != CHECKPOINT_FORMAT:
        raise StorageError(
            f"RA checkpoint has format {version}; this build reads format {CHECKPOINT_FORMAT}"
        )
    try:
        checkpoint = AgentCheckpoint(agent_name=name())
        for _ in range(unpack(_COUNT)):
            ca_name = name()
            checkpoint.shard_widths[ca_name] = unpack(_LONG)
        for _ in range(unpack(_COUNT)):
            members = checkpoint.shard_members.setdefault(name(), {})
            for _ in range(unpack(_COUNT)):
                index = unpack(_INDEX)
                members[index] = name()
        for _ in range(unpack(_COUNT)):
            ca_name = name()
            chain = take(unpack(_COUNT))
            checkpoint.keyrings[ca_name] = (chain, unpack(_LONG))
        for _ in range(unpack(_COUNT)):
            key_bytes = take(unpack(_SHORT))
            state = decode_sync_response(take(unpack(_COUNT)))
            checkpoint.replicas.append(ReplicaCheckpoint(key_bytes, state))
    except (UnicodeDecodeError, TLSError) as exc:
        raise StorageError(f"malformed RA checkpoint: {exc}") from None
    if offset != end:
        raise StorageError("RA checkpoint has trailing bytes")
    return checkpoint


def write_checkpoint(checkpoint: AgentCheckpoint, directory: Union[str, Path]) -> None:
    """Replace the checkpoint under ``directory`` with ``checkpoint``.

    One atomic write: whenever the process dies, :func:`load_checkpoint`
    finds the previous checkpoint or this one, complete.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    atomic_write(directory / CHECKPOINT_FILENAME, _encode(checkpoint))


def load_checkpoint(directory: Union[str, Path]) -> AgentCheckpoint:
    """Read the checkpoint :func:`write_checkpoint` left under ``directory``.

    Raises :class:`StorageError` when there is none or it is structurally
    corrupt.  Nothing is verified cryptographically here — that is the
    restore's job, through the sync apply path.
    """
    path = Path(directory) / CHECKPOINT_FILENAME
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise StorageError(f"no RA checkpoint under {directory}: {exc}") from None
    return _decode(data)
