"""Graphviz DOT export of routing instance graphs.

Renders the Figure 6 / Figure 9 style pictures: one box per routing
instance (labelled with protocol, AS, and size), a cloud for the external
world, redistribution arrows, and heavy EBGP edges.
"""

from __future__ import annotations

from repro.core.instances import build_instance_graph
from repro.core.process_graph import EXTERNAL_NODE
from repro.model.network import Network


def _quote(text: str) -> str:
    return '"' + text.replace('"', r"\"") + '"'


def instance_graph_to_dot(network: Network) -> str:
    """Render the routing instance graph as Graphviz DOT text."""
    graph = build_instance_graph(network)

    lines = [f"digraph {_quote(network.name)} {{"]
    lines.append("    rankdir=LR;")
    lines.append("    node [shape=box, style=rounded];")
    lines.append(
        f"    {_quote('external')} [label=\"External World\", shape=ellipse, "
        "style=dashed];"
    )
    for instance in network.instances:
        label = f"{instance.label}\\n{instance.size} router(s)"
        lines.append(f"    inst{instance.instance_id} [label={_quote(label)}];")

    seen_bidi = set()
    for u, v, data in graph.edges(data=True):
        kind = data.get("kind")
        if kind == "redistribution":
            label = data.get("route_map") or ""
            attrs = f' [label="{label}"]' if label else ""
            lines.append(f"    {_node_ref(u)} -> {_node_ref(v)}{attrs};")
        elif kind in ("ebgp", "external"):
            pair = frozenset((_node_ref(u), _node_ref(v)))
            if pair in seen_bidi:
                continue
            seen_bidi.add(pair)
            style = "bold" if kind == "ebgp" else "dashed"
            lines.append(
                f"    {_node_ref(u)} -> {_node_ref(v)} "
                f"[dir=both, style={style}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _node_ref(node) -> str:
    if node == EXTERNAL_NODE:
        return '"external"'
    return f"inst{node}"
