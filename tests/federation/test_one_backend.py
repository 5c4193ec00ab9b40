"""A lone server is one backend.

The planner, the plan audit and the loose-coupling baseline read backends
through every RDI's ``cost_profile_of``; a lone server answers ``""`` for
every table.  So a lone server and a one-backend federation over the same
tables must plan alike down to the last bit of the price, and loose
coupling over a federation is the same class as over a lone server.
"""

import pytest

from repro.baselines import LooseCoupling
from repro.caql.parser import parse_query
from repro.common.metrics import REMOTE_SEMIJOIN_REQUESTS
from repro.core.cms import CacheManagementSystem
from repro.federation import BackendSpec, build_federation
from repro.relational.relation import relation_from_columns
from repro.remote.server import RemoteDBMS

from tests.federation.conftest import (
    EMPTY,
    LOCAL,
    SPAN2,
    SPAN3,
    make_federation,
    oracle,
    psj,
)

#: Cardinalities 45 and 1: under the default profile the server-work term
#: summed per occurrence (``p·45 + p·1``) is not ``p·46``, and the
#: difference survives the latency added to it (for 1 and 6 it does not).
JOIN = "q(X, Z) :- many(X, Y), one(Y, Z)"


def _tables():
    return (
        relation_from_columns("many", x=list(range(45)), y=list(range(45))),
        relation_from_columns("one", y=[0], z=[7]),
    )


def _lone_server_cms():
    server = RemoteDBMS()
    for relation in _tables():
        server.load_table(relation)
    return CacheManagementSystem(server)


def _one_backend_cms():
    return build_federation([BackendSpec("solo", tables=_tables())]).cms()


def test_lone_server_and_one_backend_federation_plan_bit_equal():
    lone = _lone_server_cms().planner.plan(psj(JOIN))
    solo = _one_backend_cms().planner.plan(psj(JOIN))
    assert lone.strategy == solo.strategy == "remote"
    assert lone.part_labels() == solo.part_labels()
    assert lone.estimated_remote_cost == solo.estimated_remote_cost
    assert lone.estimated_local_cost == solo.estimated_local_cost


def test_lone_server_is_backend_empty_of_every_table():
    cms = _lone_server_cms()
    profile = cms.remote.profile
    assert cms.rdi.cost_profile_of("many") == ("", profile)
    assert cms.rdi.cost_profile_of("one") == ("", profile)


@pytest.mark.parametrize("text", [SPAN3, SPAN2, LOCAL, EMPTY])
def test_loose_coupling_over_a_federation_answers_like_the_oracle(text):
    federation = make_federation()
    loose = LooseCoupling(federation)
    assert set(loose.query(parse_query(text)).fetch_all()) == oracle(text)
    assert federation.metrics.get(REMOTE_SEMIJOIN_REQUESTS) == 0
