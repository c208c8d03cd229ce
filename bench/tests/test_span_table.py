"""The wrapper table must resolve: a rename in ``src/`` fails here, loudly."""

import pytest

from bench.trace import OP_NAMES, SPAN_TABLE, resolve

TARGETS = [(name, target) for name, targets in SPAN_TABLE for target in targets]


@pytest.mark.parametrize("op, target", TARGETS, ids=[target for _, target in TARGETS])
def test_every_listed_callable_exists_where_the_table_says(op, target):
    owner, attribute, original = resolve(target)
    assert callable(original)
    assert vars(owner)[attribute] is original


def test_a_renamed_target_fails_loudly():
    with pytest.raises(LookupError, match="renamed"):
        resolve("repro.ritm.agent:RevocationAgent.no_such_method")
    with pytest.raises(LookupError):
        # Inherited, not defined there: patching it would hit the wrong class.
        resolve("repro.store.durable:DurableMerkleStore.insert_batch")


def test_table_shape():
    assert len(OP_NAMES) == len(set(OP_NAMES)) == 38
    assert len(set(target for _, target in TARGETS)) == len(TARGETS)
    layers = {name.split(".")[0] for name in OP_NAMES}
    assert layers == {
        "crypto", "store", "dictionary", "messages", "replication", "dpi", "agent", "client",
        "server", "ca_service", "dissemination", "cdn", "tls", "net", "engine", "workloads",
    }  # fmt: skip


def test_every_store_engine_has_its_insert_path_wrapped():
    """A new engine (or a new default) must not run untraced."""
    from repro.store import ENGINES

    wrapped = {resolve(target)[0] for target in dict(SPAN_TABLE)["store.insert_batch"]}
    for engine in ENGINES.values():
        definer = next(cls for cls in engine.__mro__ if "insert_batch" in vars(cls))
        assert definer in wrapped, f"{engine.__name__}.insert_batch resolves to unwrapped {definer}"
