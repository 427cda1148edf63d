"""Shortest-path substrate: Dijkstra, Bellman–Ford, exact/approximate RSP."""

from repro.paths.dijkstra import INF, dijkstra, extract_path
from repro.paths.bellman_ford import (
    bellman_ford,
    find_negative_cycle,
    negative_cycle_value,
)
from repro.paths.rsp_exact import rsp_exact
from repro.paths.rsp_fptas import rsp_fptas
from repro.paths.yen import yen_k_shortest_paths
from repro.paths.karp_mmc import minimum_mean_cycle

__all__ = [
    "INF",
    "dijkstra",
    "extract_path",
    "bellman_ford",
    "find_negative_cycle",
    "negative_cycle_value",
    "rsp_exact",
    "rsp_fptas",
    "yen_k_shortest_paths",
    "minimum_mean_cycle",
]
