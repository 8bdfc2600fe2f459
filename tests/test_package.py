"""The package's public names: each module's ``__all__`` is re-exported, so
a name dropped from one would vanish from ``powerdom`` without this list."""

import importlib

import pytest

import powerdom

MODULES = ["errors", "graph", "library", "propagation", "reduction", "search"]

PUBLIC_NAMES = [
    "BUILTIN_NAMES",
    "ContractionReport",
    "Diagnostics",
    "DistanceMap",
    "ForcingChain",
    "FormatError",
    "Graph",
    "InternalError",
    "NotFoundError",
    "ObservationState",
    "ParameterError",
    "PipelineReport",
    "PowerDomError",
    "PreconditionError",
    "PreferredReport",
    "ScoredCandidate",
    "SolveResult",
    "SolverConfig",
    "allminpds",
    "articulation_points",
    "bfs_distances",
    "builtin_graph",
    "candidate_list",
    "combination_rank",
    "combination_unrank",
    "connected_components",
    "contract",
    "default_workers",
    "dominate",
    "erdos_renyi_connected",
    "forcing_chains",
    "is_power_dominating_set",
    "parse_edge_list",
    "parse_graph6",
    "power_dominate",
    "preferred_nodes",
    "qualitative_scores",
    "redundant_nodes",
    "solve",
    "subset_counts",
    "write_edge_list",
    "write_graph6",
    "zero_force",
]


def test_the_package_exports_the_public_names():
    assert sorted(powerdom.__all__) == PUBLIC_NAMES


def test_each_name_is_exported_once_as_its_defining_modules_object():
    assert len(set(powerdom.__all__)) == len(powerdom.__all__)
    owners = {}
    for mod in MODULES:
        module = importlib.import_module(f"powerdom.{mod}")
        for name in module.__all__:
            owners[name] = module
    for name in powerdom.__all__:
        obj = getattr(powerdom, name)
        assert obj is getattr(owners[name], name)
        # classes and functions name where they are defined; constants do not
        assert getattr(obj, "__module__", owners[name].__name__) == owners[name].__name__


def test_star_import_binds_exactly_the_public_names():
    ns = {}
    exec("from powerdom import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == PUBLIC_NAMES


@pytest.mark.parametrize("mod", MODULES)
def test_each_module_defines_what_it_lists(mod):
    module = importlib.import_module(f"powerdom.{mod}")
    for name in module.__all__:
        assert hasattr(module, name), name
