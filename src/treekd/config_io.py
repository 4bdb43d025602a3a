"""Line-based graph and run-configuration text format.

One record per line; ``#`` starts a comment.  Graph records:

    node <id>
    source <id>
    edge <a> <b> weight=<w> flip=<p> [anti]

A run config is the same graph format plus ``param key=value`` lines
(keys: leader, code, blocks, delta, epsilon, seed), each optional, so a
graph file with no ``param`` lines is a valid run config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

from .graph_core import SecurityGraph, WeightedEdge

DEFAULTS = {
    "code": "hamming7_4",
    "delta": 0.05,
    "epsilon": 0.05,
    "leader": 0,
    "blocks": 10,
    "seed": 0,
}


class ConfigError(Exception):
    """Itemized parse or validation errors, each with its line number."""

    def __init__(self, errors: List[str]):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


@dataclass(frozen=True)
class RunSpec:
    graph: SecurityGraph
    leader: int
    code_name: str
    blocks: int
    delta: float
    epsilon: float
    seed: int


def _parse_lines(text: str) -> Tuple[SecurityGraph, Dict[str, Tuple[int, str]], List[str]]:
    nodes: List[int] = []
    sources: List[int] = []
    edges: List[WeightedEdge] = []
    params: Dict[str, Tuple[int, str]] = {}
    errors: List[str] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind in ("node", "source", "param") and len(fields) > 2:
                raise ValueError(f"unexpected field {fields[2]!r}")
            if kind in ("node", "source") and len(fields) < 2:
                raise ValueError(f"{kind} needs an agent id")
            if kind == "node":
                nodes.append(int(fields[1]))
            elif kind == "source":
                sources.append(int(fields[1]))
            elif kind == "edge":
                if len(fields) < 3:
                    raise ValueError("edge needs two agent ids")
                a, b = int(fields[1]), int(fields[2])
                attrs: Dict[str, str] = {}
                for extra in fields[3:]:
                    name, _, value = extra.partition("=")
                    # anti is a bare flag; weight and flip take a value.
                    if extra not in ("anti", f"weight={value}", f"flip={value}"):
                        raise ValueError(f"unknown edge attribute {extra!r}")
                    if name in attrs:
                        raise ValueError(f"repeated edge attribute {name!r}")
                    attrs[name] = value
                weight = Fraction(attrs.get("weight", 1))
                flip, anti = float(attrs.get("flip", 0.0)), "anti" in attrs
                edges.append(
                    WeightedEdge(a, b, weight=weight, flip_prob=flip, anti_correlated=anti)
                )
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

    if sorted(nodes) != list(range(len(nodes))):
        errors.append("node ids must be dense 0..n-1, each declared once")
    n = len(nodes)
    graph = SecurityGraph(n=n, edges=edges, sources=sources)
    return graph, params, errors


def parse_config(text: str) -> RunSpec:
    """Parse a run config; collects every error before failing."""
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
            return kind(merged[key])
        except ValueError:
            fail(key, f"param {key} must be {noun}, got {merged[key]!r}")
            return None

    leader = convert("leader", int, "an integer")
    blocks = convert("blocks", int, "an integer")
    seed = convert("seed", int, "an integer")
    delta = convert("delta", float, "a number")
    epsilon = convert("epsilon", float, "a number")
    code_name = str(merged["code"])

    from .linear_code import code_by_name

    try:
        code_by_name(code_name)
    except ValueError as exc:
        fail("code", str(exc))
    if delta is not None and (
        not (0.0 < delta < 1.0) or delta - delta * delta <= 0.0
    ):
        fail("delta", f"param delta={delta} out of range: delta - delta^2 must be positive")
    if epsilon is not None and not 0.0 < epsilon < math.inf:
        fail("epsilon", f"param epsilon={epsilon} must be finite and positive")
    if blocks is not None and blocks < 1:
        fail("blocks", f"param blocks={blocks} must be >= 1")
    if leader is not None and graph.n and not (0 <= leader < graph.n):
        fail("leader", f"param leader={leader} is not an agent id")

    if errors:
        raise ConfigError(errors)
    return RunSpec(
        graph=graph,
        leader=leader,
        code_name=code_name,
        blocks=blocks,
        delta=delta,
        epsilon=epsilon,
        seed=seed,
    )


def load_config(path: Path) -> RunSpec:
    if not path.exists():
        raise ConfigError([f"config file not found: {path}"])
    return parse_config(path.read_text())
