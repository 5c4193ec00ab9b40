"""Workloads: genealogy, suppliers, synthetic generators, query streams."""

from repro.workloads.bom import bom
from repro.workloads.genealogy import genealogy
from repro.workloads.multisession import (
    MultiSessionSpec,
    client_streams,
    submit_interleaved,
)
from repro.workloads.queries import (
    StreamSpec,
    range_query_stream,
    repeated_selection_stream,
)
from repro.workloads.suppliers import suppliers
from repro.workloads.synthetic import chain, selection_universe
from repro.workloads.workload import Workload

__all__ = [
    "MultiSessionSpec",
    "StreamSpec",
    "Workload",
    "bom",
    "chain",
    "client_streams",
    "genealogy",
    "range_query_stream",
    "repeated_selection_stream",
    "selection_universe",
    "submit_interleaved",
    "suppliers",
]
