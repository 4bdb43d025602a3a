"""Line-based graph and run-configuration text format.

One record per line; ``#`` starts a comment.  Graph records:

    node <id>
    source <id>
    edge <a> <b> weight=<w> flip=<p> [anti]

A negative agent id is a line-numbered error in any record, and so are a
source or edge that names an undeclared agent, a self-loop, a repeated
edge and an edge with no endpoint in the source set.
A run config is the same graph format plus ``param key=value`` lines
(keys: leader, code, blocks, delta, epsilon, seed), each optional, so a
graph file with no ``param`` lines is a valid run config.  parse_config
is the one check of the run parameters and of the graph, each record and
then the graph as a whole; only connectivity is left to the tree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

from .graph_core import SecurityGraph, WeightedEdge, validate_graph
from .linear_code import code_by_name
from .protocol import ProtocolConfig

DEFAULTS = {
    "code": "hamming7_4",
    "delta": "0.05",
    "epsilon": "0.05",
    "leader": "0",
    "blocks": "10",
    "seed": "0",
}


class ConfigError(Exception):
    """Itemized parse or validation errors, each with its line number."""

    def __init__(self, errors: List[str]):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


def _number(kind, text: str):
    """kind(text) for ASCII text with no '_', an int only as -?[0-9]+: int(),
    float() and Fraction() alone also read '1_0' as 10 and '١' as 1."""
    plain = text.removeprefix("-").isdigit() if kind is int else "_" not in text
    if not (plain and text.isascii()):
        raise ValueError(f"{text!r} is not a plain ASCII number")
    return kind(text)


def _parse_lines(text: str) -> Tuple[SecurityGraph, Dict[str, Tuple[int, str]], List[str]]:
    nodes: Dict[int, int] = {}  # agent id -> its line
    sources: List[Tuple[int, int]] = []  # (line, agent id)
    edges: Dict[Tuple[int, int], Tuple[int, WeightedEdge]] = {}  # key -> (line, edge)
    params: Dict[str, Tuple[int, str]] = {}
    errors: List[str] = []
    # Each distinct agent id or weight text is parsed once per file; a text
    # that fails to parse is not kept, so each of its lines gets its error.
    ids: Dict[str, int] = {}
    weights: Dict[str, Fraction] = {}

    def agent_id(field: str) -> int:
        agent = ids.get(field)
        if agent is None:
            agent = ids[field] = _number(int, field)
        return agent

    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.partition("#")[0].split()
        if not fields:
            continue
        kind = fields[0]
        try:
            if kind in ("node", "source", "param") and len(fields) > 2:
                raise ValueError(f"unexpected field {fields[2]!r}")
            if kind in ("node", "source"):
                if len(fields) < 2:
                    raise ValueError(f"{kind} needs an agent id")
                agent = agent_id(fields[1])
                if agent < 0:
                    raise ValueError("agent ids must be non-negative")
            if kind == "node":
                if agent in nodes:
                    raise ValueError(f"node {agent} already declared on line {nodes[agent]}")
                nodes[agent] = lineno
            elif kind == "source":
                sources.append((lineno, agent))
            elif kind == "edge":
                if len(fields) < 3:
                    raise ValueError("edge needs two agent ids")
                a, b = agent_id(fields[1]), agent_id(fields[2])
                attrs: Dict[str, str] = {}
                for extra in fields[3:]:
                    name, sep, value = extra.partition("=")
                    # anti is a bare flag; weight and flip take a value.
                    if not (name in ("weight", "flip") if sep else name == "anti"):
                        raise ValueError(f"unknown edge attribute {extra!r}")
                    if name in attrs:
                        raise ValueError(f"repeated edge attribute {name!r}")
                    attrs[name] = value
                # The endpoints correct an anti link, so the flag is dropped.
                weight_text = attrs.get("weight", "1")
                weight = weights.get(weight_text)
                if weight is None:
                    # Fraction() would build 10**exponent: 1e9999999 takes seconds.
                    if "e" in weight_text or "E" in weight_text:
                        raise ValueError(f"weight {weight_text!r} has an exponent")
                    weight = weights[weight_text] = _number(Fraction, weight_text)
                flip = _number(float, attrs.get("flip", "0"))
                edge = WeightedEdge(a, b, weight, flip)
                if a == b:
                    raise ValueError(f"self-loop at agent {a}")
                key = edge.key
                if key in edges:
                    raise ValueError(f"duplicate edge {key}, first on line {edges[key][0]}")
                edges[key] = (lineno, edge)
            elif kind == "param":
                if len(fields) < 2 or "=" not in fields[1]:
                    raise ValueError("param needs key=value")
                key, value = fields[1].split("=", 1)
                if key in params:
                    raise ValueError(f"param {key} already set on line {params[key][0]}")
                params[key] = (lineno, value)
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        except ValueError as exc:
            errors.append(f"line {lineno}: {exc}")
        except ZeroDivisionError:
            errors.append(f"line {lineno}: weight has a zero denominator")

    # Nodes may be declared after the records that name them, so sources
    # and edge endpoints are checked once every line is read.  An edge
    # needs an endpoint among the sources that name declared agents; with
    # none, the error is the undeclared source or the empty source set.
    late = [
        (line, f"source {s} is not a valid agent id")
        for line, s in sources
        if s not in nodes
    ]
    declared = {s for _, s in sources if s in nodes}
    for (a, b), (line, _) in edges.items():
        if b not in nodes or a not in nodes:
            missing = b if b not in nodes else a
            late.append((line, f"edge {(a, b)} references unknown agent {missing}"))
        elif declared and a not in declared and b not in declared:
            late.append((line, f"edge {(a, b)} has no endpoint in the source set"))
    errors.extend(f"line {line}: {message}" for line, message in sorted(late))
    if sorted(nodes) != list(range(len(nodes))):
        errors.append("node ids must be dense 0..n-1, each declared once")
    n = len(nodes)
    graph = SecurityGraph(
        n=n, edges=[e for _, e in edges.values()], sources=[s for _, s in sources]
    )
    return graph, params, errors


def parse_config(text: str) -> ProtocolConfig:
    """The ProtocolConfig that every command runs, parsed from a run config's
    text; collects every line and param error before failing.

    Each source and edge record is checked against the declared nodes, the
    declared sources and the earlier edges here, with its line.  Once those
    and the params are clear, validate_graph's whole-graph rules (agent
    count, an empty source set) are the errors; connectivity is
    mst_kruskal's, when ProtocolConfig.tree builds the tree.
    """
    graph, params, errors = _parse_lines(text)

    def fail(key: str, message: str) -> None:
        """Record an error, naming the line when the file set the param."""
        errors.append(f"line {params[key][0]}: {message}" if key in params else message)

    merged = dict(DEFAULTS)
    for key, (_line, value) in params.items():
        if key not in DEFAULTS:
            fail(key, f"unknown param key {key!r}")
            continue
        merged[key] = value

    def convert(key: str, kind, noun: str):
        """The param as kind, or None (with an error) when it does not convert."""
        try:
            return _number(kind, merged[key])
        except ValueError:
            fail(key, f"param {key} must be {noun}, got {merged[key]!r}")
            return None

    leader = convert("leader", int, "an integer")
    blocks = convert("blocks", int, "an integer")
    seed = convert("seed", int, "an integer")
    delta = convert("delta", float, "a number")
    epsilon = convert("epsilon", float, "a number")
    code = None
    try:
        code = code_by_name(merged["code"])
    except ValueError as exc:
        fail("code", str(exc))
    if delta is not None and not 0.0 < delta < 1.0:
        fail("delta", f"param delta={delta} out of range: delta - delta^2 must be positive")
    if epsilon is not None and not 0.0 < epsilon < math.inf:
        fail("epsilon", f"param epsilon={epsilon} must be finite and positive")
    if blocks is not None and blocks < 1:
        fail("blocks", f"param blocks={blocks} must be >= 1")
    if leader is not None and graph.n and not (0 <= leader < graph.n):
        fail("leader", f"param leader={leader} is not an agent id")

    if not errors:
        errors.extend(validate_graph(graph))
    if errors:
        raise ConfigError(errors)
    return ProtocolConfig(
        graph=graph,
        leader=leader,
        code=code,
        blocks=blocks,
        delta=delta,
        epsilon=epsilon,
        seed=seed,
    )


def load_config(path: Path) -> ProtocolConfig:
    if not path.exists():
        raise ConfigError([f"config file not found: {path}"])
    return parse_config(path.read_text())
