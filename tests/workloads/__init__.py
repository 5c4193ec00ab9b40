"""Tests for the workload generators."""


def table(workload, name):
    """The workload's base table called ``name``."""
    return next(t for t in workload.tables if t.schema.name == name)
