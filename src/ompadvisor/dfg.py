"""Data-flow graph over variable occurrences: "value comes from" edges.

Nodes are identifier occurrences (defs and uses) in program order; an edge
(to, from) records that the value at `to` comes from `from`. Defs draw from
the uses on their right-hand side; uses draw from all reaching definitions,
with branch states merged by union. Each loop body is analyzed once, from
the head state that iterating to a fixed point would reach, so back-edges
through the loop are captured in time linear in the nesting depth.
"""

from dataclasses import dataclass


@dataclass
class DfgNode:
    node_id: int
    var_name: str
    code_token_index: int
    occurrence_kind: str  # def | use


@dataclass
class DataFlowGraph:
    nodes: list
    edges: list  # (to_node_id, from_node_id)


def _merge(a, b):
    out = dict(a)
    for name, defs in b.items():
        out[name] = out.get(name, frozenset()) | defs
    return out


class _Builder:
    def __init__(self, slots):
        self.slots = slots  # id(name node) -> token index; None reads token_span
        self.nodes = {}  # token_index -> (var_name, occurrence_kind)
        self.edges = set()  # (to_token, from_token)
        self.recording = True  # False while a loop's generated defs are worked out
        self.loop_gen = {}  # id(loop node) -> its generated defs, see visit_loop

    def occurrence(self, ident, kind):
        tok_idx = ident.token_span[0] if self.slots is None else self.slots[id(ident)]
        if self.recording and tok_idx not in self.nodes:
            self.nodes[tok_idx] = (ident.attrs["name"], kind)
        return tok_idx

    def link(self, to_tok, from_toks):
        if not self.recording:
            return
        for f in from_toks:
            if f != to_tok:
                self.edges.add((to_tok, f))

    # -- expressions: returns the occurrence tokens that act as value sources

    def visit_expr(self, node, env):
        kind = node.kind
        if kind == "Identifier":
            tok = self.occurrence(node, "use")
            self.link(tok, env.get(node.attrs["name"], ()))
            return [tok]
        if kind == "Constant" or kind == "Empty":
            return []
        if kind == "BinaryOp":
            return self.visit_expr(node.children[0], env) + self.visit_expr(node.children[1], env)
        if kind == "UnaryOp":
            op = node.attrs["op"]
            if op in ("++", "--"):
                return self.visit_store(node.children[0], [], True, env)
            return self.visit_expr(node.children[0], env)
        if kind == "Call":
            sources = []
            for arg in node.children:
                sources.extend(self.visit_expr(arg, env))
            return sources
        if kind == "ArrayIndex":
            return self.visit_expr(node.children[0], env) + self.visit_expr(node.children[1], env)
        if kind == "Assign":
            target, value = node.children
            value_sources = self.visit_expr(value, env)
            return self.visit_store(target, value_sources, node.attrs["op"] != "=", env)
        raise ValueError(f"unexpected expression node: {kind}")

    def visit_store(self, target, value_sources, compound, env):
        """A store to target, whose value comes from value_sources and, when
        compound (op=, ++, --), from target's old value. Each subscript is
        read once."""
        base = target
        subscript_sources = []
        while base.kind == "ArrayIndex":
            subscript_sources.extend(self.visit_expr(base.children[1], env))
            base = base.children[0]
        if base.kind != "Identifier":
            # Store through *p, (a + b)[i] or 1[i]: base read, no definition.
            return self.visit_expr(base, env) + subscript_sources + value_sources
        name = base.attrs["name"]
        tok = self.occurrence(base, "def")
        self.link(tok, value_sources)
        if compound:
            self.link(tok, env.get(name, ()))
        env[name] = frozenset([tok])
        return [tok]

    # -- declarations and statements: env is mutated in place

    def visit_declaration(self, node, env):
        declarator = node.children[0]
        init_sources = []
        if declarator.kind == "Assign":
            init_sources = self.visit_expr(declarator.children[1], env)
            declarator = declarator.children[0]
        if declarator.kind == "ArrayIndex":
            self.visit_expr(declarator.children[1], env)
            declarator = declarator.children[0]
        tok = self.occurrence(declarator, "def")
        self.link(tok, init_sources)
        env[declarator.attrs["name"]] = frozenset([tok])

    def visit_stmt(self, node, env):
        kind = node.kind
        if kind == "Declaration":
            self.visit_declaration(node, env)
        elif kind == "ExprStmt":
            self.visit_expr(node.children[0], env)
        elif kind == "ReturnStmt":
            if node.children:
                self.visit_expr(node.children[0], env)
        elif kind == "CompoundStmt":
            for child in node.children:
                self.visit_stmt(child, env)
        elif kind == "IfStmt":
            self.visit_expr(node.children[0], env)
            then_env = dict(env)
            self.visit_stmt(node.children[1], then_env)
            else_env = dict(env)
            if len(node.children) == 3:
                self.visit_stmt(node.children[2], else_env)
            merged = _merge(then_env, else_env)
            env.clear()
            env.update(merged)
        elif kind == "ForStmt":
            self.visit_stmt(node.children[0], env)
            self.visit_loop(node, env)
        elif kind == "WhileStmt":
            self.visit_loop(node, env)
        elif kind in ("Empty", "PragmaDirective"):
            pass
        else:
            raise ValueError(f"unexpected statement node: {kind}")

    def visit_iteration(self, loop, env):
        """One trip through a loop: condition, body and, for a for loop, the
        increment."""
        if loop.kind == "ForStmt":
            _, cond, inc, body = loop.children
        else:
            (cond, body), inc = loop.children, None
        self.visit_expr(cond, env)
        self.visit_stmt(body, env)
        if inc is not None:
            self.visit_expr(inc, env)

    def visit_loop(self, loop, env):
        """Analyze the loop body once from its fixed-point head state.

        Reaching definitions are gen/kill: one iteration maps a state X to
        G ∪ (X ∖ K), with G its defs generated from the empty state. So the
        head state after the back-edge is entry ∪ G, and that is also the
        exit state, since the loop may run zero times (Kildall's fixed
        point). G is worked out once per loop by a walk that records no
        nodes or edges; nested loops inside it contribute their own G the
        same way, so each body is walked at most twice in all.
        """
        gen = self.loop_gen.get(id(loop))
        if gen is None:
            recording, self.recording = self.recording, False
            gen = {}
            self.visit_iteration(loop, gen)
            self.recording = recording
            self.loop_gen[id(loop)] = gen
        for name, defs in gen.items():
            env[name] = env.get(name, frozenset()) | defs
        if self.recording:
            self.visit_iteration(loop, dict(env))


def build_dfg(unit, slots=None):
    """Build the DataFlowGraph of a unit of block items (a parsed snippet).

    Deterministic for identical input. An occurrence's token index is its
    name's token span, or its slot in slots (syntax.emit's map from id(node)
    to token index) when given.
    """
    builder = _Builder(slots)
    env = {}
    for item in unit.children:
        builder.visit_stmt(item, env)

    ordered = sorted(builder.nodes)
    id_of = {tok: i for i, tok in enumerate(ordered)}
    nodes = [
        DfgNode(i, builder.nodes[tok][0], tok, builder.nodes[tok][1])
        for i, tok in enumerate(ordered)
    ]
    edges = sorted((id_of[t], id_of[f]) for t, f in builder.edges)
    return DataFlowGraph(nodes, edges)


def dfg_to_json(graph):
    return {
        "nodes": [[n.var_name, n.code_token_index] for n in graph.nodes],
        "edges": [[t, f] for t, f in graph.edges],
    }

