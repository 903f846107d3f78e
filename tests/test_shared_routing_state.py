"""Decode once per flood wave: the members of a DIF share one immutable
object per LSA and per directory record.

The originating member attaches the live object to the RIEP message
(``RiepMessage.decoded``), every per-neighbour flood copy and enrollment
snapshot carries it, and receivers install that object.  Only a message
that came through the codec — across a shard cut or the gateway —
arrives without it and is decoded, once, by its first reader.  The
encoded-size estimate that charges the links is computed by a flat,
type-dispatched walk that must agree with the recursive definition.
"""

from collections import OrderedDict, namedtuple

from hypothesis import given, settings, strategies as st

from repro.core import (Dif, DifPolicies, Orchestrator, add_shims,
                        build_dif_over, codec, make_systems, shim_between)
from repro.core.directory import DIRECTORY_OBJ, DirectoryRecord
from repro.core.names import Address, ApplicationName
from repro.core.pdu import ManagementPdu
from repro.core.riep import M_WRITE, RiepMessage, _estimate_value_size
from repro.core.routing import LSA_OBJ, LinkStateRouting, Lsa
from repro.experiments.e6_scalability import (build_flood_spec,
                                              build_stateful_workload,
                                              flood_assignment)
from repro.shard import RegionPlan, StatefulControlPlane, run_sharded
from repro.shard.engine import BoundaryHalf
from repro.sim.network import Network


# ----------------------------------------------------------------------
# The size estimator against its recursive definition
# ----------------------------------------------------------------------
def recursive_estimate(value):
    """The estimator as it was first written (the oracle)."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value)
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return 2 + sum(recursive_estimate(v) for v in value)
    if isinstance(value, dict):
        return 2 + sum(recursive_estimate(k) + recursive_estimate(v)
                       for k, v in value.items())
    # arbitrary objects: charge a flat record
    return 32


class Label(str):
    pass


class Count(int):
    pass


class Payload:
    pass


Pair = namedtuple("Pair", "left right")

hashable_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8),
    st.binary(max_size=8), st.text(max_size=4).map(Label),
    st.integers().map(Count),
    st.floats(allow_nan=False))
leaves = st.one_of(hashable_leaves, st.floats(), st.builds(Payload))
hashables = st.recursive(
    hashable_leaves,
    lambda inner: st.one_of(st.tuples(inner, inner),
                            st.frozensets(inner, max_size=3)),
    max_leaves=6)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(hashables, inner, max_size=4),
        st.dictionaries(hashables, inner, max_size=4).map(OrderedDict),
        st.sets(hashables, max_size=4),
        st.frozensets(hashables, max_size=4),
        st.builds(Pair, inner, inner)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(values)
def test_flat_estimate_equals_recursive_definition(value):
    assert _estimate_value_size(value) == recursive_estimate(value)


def test_estimate_of_an_lsa_value():
    lsa = Lsa(Address(1, 2), 7, {Address(1, 3): 1.0, Address(2): 2.5})
    value = lsa.to_value()
    assert _estimate_value_size(value) == recursive_estimate(value)


# ----------------------------------------------------------------------
# One object per LSA on a serial flood
# ----------------------------------------------------------------------
def _count_calls(monkeypatch, owner, name):
    """Count the calls of a classmethod/function attribute."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counting)
    return calls


def test_serial_flood_shares_one_lsa_object_per_origin(monkeypatch):
    decodes = _count_calls(monkeypatch, Lsa, "from_value")
    spec = build_flood_spec(3, 2)
    workload = build_stateful_workload(3, 2)
    network = spec.build(seed=0)
    plane = StatefulControlPlane(network, workload)
    network.run(until=workload["until"])
    members = [plane.systems[name].ipcp(plane.dif_name).routing
               for name in sorted(plane.systems)]
    assert plane.summary_extra()["enrolled"] == len(members)
    held = {}
    for routing in members:
        for lsa in routing.lsdb_snapshot():
            held.setdefault(lsa.origin, set()).add(id(lsa))
    assert len(held) == len(members)
    # every member holds the originator's object, and nobody decoded
    assert all(len(ids) == 1 for ids in held.values())
    assert decodes == []


def _chain_dif(names):
    network = Network(seed=1)
    for name in names:
        network.add_node(name)
    for a, b in zip(names, names[1:]):
        network.connect(a, b)
    systems = make_systems(network)
    add_shims(systems, network)
    orchestrator = Orchestrator(network)
    build_dif_over(orchestrator, Dif("d", DifPolicies()), systems,
                   adjacencies=[(a, b, shim_between(network, a, b))
                                for a, b in zip(names, names[1:])])
    orchestrator.run(timeout=30)
    return network, systems


def test_directory_records_are_shared_not_reparsed(monkeypatch):
    names = ["a", "b", "c", "d"]
    network, systems = _chain_dif(names)
    parses = _count_calls(monkeypatch, ApplicationName, "parse")
    for name in names:
        systems[name].register_app(ApplicationName(f"app-{name}"),
                                   lambda flow: None)
    network.run(until=network.engine.now + 2.0)
    directories = [systems[name].ipcp("d").directory for name in names]
    for origin in directories:
        records = {id(directory._remote[origin._local_addr_fn()])
                   for directory in directories if directory is not origin}
        assert len(records) == 1
    for directory in directories:
        assert len(directory.known_names()) == len(names)
    assert parses == []


# ----------------------------------------------------------------------
# The codec boundary: decode at the cut, and only there
# ----------------------------------------------------------------------
def test_codec_round_trip_leaves_the_slot_empty():
    lsa = Lsa(Address(3), 4, {Address(1): 1.0})
    message = RiepMessage(M_WRITE, obj=LSA_OBJ, value=lsa.to_value(),
                          decoded=lsa)
    copy = codec.decode(codec.encode(message))
    assert message.decoded is lsa
    assert copy.decoded is None
    assert codec.encode(copy) == codec.encode(message)
    record = DirectoryRecord(Address(3), 2,
                             frozenset([ApplicationName("x")]))
    pdu = ManagementPdu(Address(3), None, RiepMessage(
        M_WRITE, obj=DIRECTORY_OBJ, value=record.to_value(),
        decoded=record))
    assert codec.decode(codec.encode(pdu)).message.decoded is None


def test_two_region_split_decodes_only_at_the_cut(monkeypatch):
    at_cut = [False]
    decodes = []       # at_cut flag of every Lsa.from_value call
    arrivals = []      # (arrived without the object, at_cut) per LSA
    deliver_inbound = BoundaryHalf.deliver_inbound
    from_value = Lsa.from_value
    handle_lsa = LinkStateRouting.handle_lsa

    def crossing(self, payload, size):
        at_cut[0] = True
        try:
            deliver_inbound(self, payload, size)
        finally:
            at_cut[0] = False

    def decoding(value):
        decodes.append(at_cut[0])
        return from_value(value)

    def handling(self, message, from_neighbor):
        arrivals.append((message.decoded is None, at_cut[0]))
        handle_lsa(self, message, from_neighbor)

    monkeypatch.setattr(BoundaryHalf, "deliver_inbound", crossing)
    monkeypatch.setattr(Lsa, "from_value", decoding)
    monkeypatch.setattr(LinkStateRouting, "handle_lsa", handling)
    spec = build_flood_spec(3, 2)
    workload = build_stateful_workload(3, 2)
    plan = RegionPlan(spec, flood_assignment(3, 2, 2))
    result = run_sharded(plan, workload, seed=0, mode="inline",
                         until=workload["until"])
    assert result.frames_relayed > 0
    assert decodes and all(decodes)
    # a copy arrives without its object exactly when it crossed the cut
    assert all(bare == crossed for bare, crossed in arrivals)
    assert any(not bare for bare, _crossed in arrivals)
    assert any(bare for bare, _crossed in arrivals)
