"""treekd: multiparty key distribution over a minimum spanning security tree.

A deterministic simulator and analysis toolkit: pairwise key distribution
along spanning-tree edges, the randomized-record classical round, code-based
reconciliation, and an eavesdropper-view analyzer that counts the edge
assignments a round's transcript leaves open.
"""
