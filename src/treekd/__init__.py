"""treekd: multiparty key distribution over a minimum spanning security tree.

A deterministic simulator and analysis toolkit: pairwise key distribution
along spanning-tree edges, the randomized-record classical round, code-based
reconciliation, and an eavesdropper-view analyzer that counts the edge
assignments a round's transcript leaves open.
"""

from .bits import BitString
from .graph_core import SecurityGraph, SpanningTree, WeightedEdge
from .rng import SeededRng

__all__ = [
    "BitString",
    "SecurityGraph",
    "SpanningTree",
    "WeightedEdge",
    "SeededRng",
]

__version__ = "0.1.0"
