"""Line-based graph and run-configuration text format.

One record per line, a line ended only by LF, CRLF or CR (text_lines);
``#`` starts a comment that runs to the line's end.  Graph records:

    node <id>
    source <id>
    edge <a> <b> weight=<w> flip=<p> [anti]

A negative agent id is a line-numbered error in any record, and so are a
source or edge that names an undeclared agent, a self-loop, a repeated
edge and an edge with no endpoint in the source set.
A run config is the same graph format plus ``param key=value`` lines
(keys: leader, code, blocks, delta, epsilon, seed), each optional, so a
graph file with no ``param`` lines is a valid run config.  parse_config
is the one check of the run parameters and of the graph, in one pass:
each record on its line, a param converted and range-checked like any
other, then the graph as a whole; only connectivity is left to the tree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

from .graph_core import SecurityGraph, WeightedEdge, validate_graph
from .linear_code import code_by_name, hamming_7_4
from .protocol import ProtocolConfig

DEFAULTS = dict(code=hamming_7_4(), delta=0.05, epsilon=0.05, leader=0, blocks=10, seed=0)


class ConfigError(Exception):
    """Itemized parse or validation errors, each with its line number."""

    def __init__(self, errors: List[str]):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


def text_lines(text: str) -> List[str]:
    """The lines of a config or transcript, ended only by LF, CRLF or CR:
    str.splitlines() also ends one at VT, FF, FS, GS, RS, NEL, LS and PS,
    which would end a # comment early and read the record after it."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _number(kind, text: str):
    """kind(text) for ASCII text with no '_', an int only as -?[0-9]+: int(),
    float() and Fraction() alone also read '1_0' as 10 and '١' as 1."""
    plain = text.removeprefix("-").isdigit() if kind is int else "_" not in text
    if not (plain and text.isascii()):
        raise ValueError(f"{text!r} is not a plain ASCII number")
    return kind(text)


def _param(key: str, text: str):
    """The value of ``param key=text``, of its default's type and in range."""
    if key == "code":
        return code_by_name(text)
    if key not in DEFAULTS:
        raise ValueError(f"unknown param key {key!r}")
    kind = type(DEFAULTS[key])
    try:
        value = _number(kind, text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"param {key} must be {noun}, got {text!r}") from None
    if key == "delta" and not 0.0 < value < 1.0:
        raise ValueError(f"param delta={value} out of range: delta - delta^2 must be positive")
    if key == "epsilon" and not 0.0 < value < math.inf:
        raise ValueError(f"param epsilon={value} must be finite and positive")
    if key == "blocks" and value < 1:
        raise ValueError(f"param blocks={value} must be >= 1")
    return value


def parse_config(text: str) -> ProtocolConfig:
    """The ProtocolConfig that every command runs, parsed from a run config's
    text.  Every error is collected before failing: the line-numbered ones
    in line order, then a gap in the node ids; once those are clear,
    validate_graph's whole-graph rules.  Connectivity is mst_kruskal's, when
    ProtocolConfig.tree builds the tree."""
    nodes: Dict[int, int] = {}  # agent id -> its line
    sources: List[Tuple[int, int]] = []  # (line, agent id)
    edges: Dict[Tuple[int, int], Tuple[int, WeightedEdge]] = {}  # key -> (line, edge)
    param_lines: Dict[str, int] = {}
    params: Dict[str, object] = {}  # key -> its checked value
    errors: List[Tuple[int, str]] = []  # (line, message)
    # Each distinct agent id or weight text is parsed once per file; a text
    # that fails to parse is not kept, so each of its lines gets its error.
    ids: Dict[str, int] = {}
    weights: Dict[str, Fraction] = {}

    def agent_id(field: str) -> int:
        agent = ids.get(field)
        if agent is None:
            agent = ids[field] = _number(int, field)
        return agent

    for lineno, raw in enumerate(text_lines(text), start=1):
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
                if key in param_lines:
                    raise ValueError(f"param {key} already set on line {param_lines[key]}")
                param_lines[key] = lineno
                params[key] = _param(key, value)
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        except ValueError as exc:
            errors.append((lineno, str(exc)))
        except ZeroDivisionError:
            errors.append((lineno, "weight has a zero denominator"))

    # Nodes may be declared after the records that name them, so sources
    # and edge endpoints are checked once every line is read.  An edge
    # needs an endpoint among the sources that name declared agents; with
    # none, the error is the undeclared source or the empty source set.
    errors.extend(
        (line, f"source {s} is not a valid agent id") for line, s in sources if s not in nodes
    )
    declared = {s for _, s in sources if s in nodes}
    for (a, b), (line, _) in edges.items():
        if b not in nodes or a not in nodes:
            missing = b if b not in nodes else a
            errors.append((line, f"edge {(a, b)} references unknown agent {missing}"))
        elif declared and a not in declared and b not in declared:
            errors.append((line, f"edge {(a, b)} has no endpoint in the source set"))
    n = len(nodes)
    leader = params.get("leader", 0)
    if n and not 0 <= leader < n:
        errors.append((param_lines["leader"], f"param leader={leader} is not an agent id"))
    messages = [f"line {line}: {message}" for line, message in sorted(errors)]
    if sorted(nodes) != list(range(n)):
        messages.append("node ids must be dense 0..n-1, each declared once")
    graph = SecurityGraph(
        n=n, edges=[e for _, e in edges.values()], sources=[s for _, s in sources]
    )
    if not messages:
        messages.extend(validate_graph(graph))
    if messages:
        raise ConfigError(messages)
    return ProtocolConfig(graph=graph, **{**DEFAULTS, **params})


def read_text(path: Path, line: str = "line") -> str:
    """path's text as UTF-8; a byte that is not is a ConfigError naming its line."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        number = len(text_lines(data[: exc.start].decode() + "x"))
        raise ConfigError([f"{line} {number}: byte 0x{data[exc.start]:02x} is not UTF-8 text"])


def load_config(path: Path) -> ProtocolConfig:
    if not path.exists():
        raise ConfigError([f"config file not found: {path}"])
    return parse_config(read_text(path))
