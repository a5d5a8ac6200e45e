"""Control-flow analyses: reachability, dominators, natural loops, call graph.

These are the "sophisticated online static analysis" building blocks the
paper says Odin's whole-program-IR design enables (§1), and they also feed
the optimizer (simplifycfg, loop unroll) and the verifier.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Set, Tuple, TypeVar

from repro.ir.instructions import BranchInst, CallInst, SwitchInst
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import ConstantInt

T = TypeVar("T")


def _reverse_postorder(
    entry: BasicBlock, successors: Callable[[BasicBlock], List[BasicBlock]]
) -> List[BasicBlock]:
    """Reverse-postorder of the blocks depth-first search reaches from
    *entry* along *successors*, visiting successors in list order.

    An explicit stack, so CFGs of any depth fit.
    """
    seen: Set[int] = {id(entry)}
    order: List[BasicBlock] = []
    stack = [(entry, iter(successors(entry)))]
    while stack:
        block, pending = stack[-1]
        for succ in pending:
            if id(succ) not in seen:
                seen.add(id(succ))
                stack.append((succ, iter(successors(succ))))
                break
        else:
            stack.pop()
            order.append(block)
    order.reverse()
    return order


def reachable_blocks(fn: Function) -> List[BasicBlock]:
    """Blocks reachable from the entry, in reverse-postorder."""
    return _reverse_postorder(fn.entry, BasicBlock.successors)


def feasible_successors(block: BasicBlock) -> List[BasicBlock]:
    """Successors that can actually be taken: a conditional branch or a
    switch on a constant scrutinee only ever follows its decided edge."""
    term = block.terminator
    if term is None:
        return []
    if (
        isinstance(term, BranchInst)
        and term.is_conditional
        and isinstance(term.cond, ConstantInt)
    ):
        return [term.targets[0] if term.cond.value else term.targets[1]]
    if isinstance(term, SwitchInst) and isinstance(term.value, ConstantInt):
        for const, target in term.cases:
            if const.value == term.value.value:
                return [target]
        return [term.default]
    return term.successors()


def executable_blocks(fn: Function) -> List[BasicBlock]:
    """Blocks reachable from the entry along *feasible* edges only.

    A strict refinement of :func:`reachable_blocks`: the never-taken arm
    of a constant-folded branch is reachable by CFG edges but can never
    execute.  The probe-integrity sanitizer keys on this — deleting a
    probe there is a legitimate optimization, not a distortion.
    """
    return _reverse_postorder(fn.entry, feasible_successors)


def predecessor_map(fn: Function) -> Dict[BasicBlock, List[BasicBlock]]:
    """Every block's predecessors, each listed once, in the order
    :meth:`BasicBlock.predecessors` returns them, from one pass over the
    terminators."""
    preds: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in fn.blocks}
    for block in fn.blocks:
        for succ in block.successors():
            entry = preds[succ]
            if not entry or entry[-1] is not block:
                entry.append(block)
    return preds


def dominates(
    idom: Dict[BasicBlock, Optional[BasicBlock]], a: BasicBlock, b: BasicBlock
) -> bool:
    """Whether *a* dominates *b* under the idom tree."""
    node: Optional[BasicBlock] = b
    while node is not None:
        if node is a:
            return True
        node = idom.get(node)
    return False


class DominatorTree:
    """Every dominance fact of one function, from one CFG walk and one
    predecessor map.

    * ``rpo``: the blocks reachable from the entry, in reverse postorder;
    * ``preds``: :func:`predecessor_map` of the function;
    * ``idom``: ``{block: idom}`` for the reachable blocks, the entry
      mapping to None (Cooper-Harvey-Kennedy over ``rpo`` and ``preds``);
    * ``children``: each block's children in the tree, in ``idom``
      insertion order;
    * :meth:`frontiers` and the scoped preorder :meth:`walk`;
    * :meth:`dominates`, O(1) per query from a pre/post numbering of the
      tree that the first query builds (a walk up the idom chain is
      quadratic over a deep CFG's many queries).
    """

    def __init__(self, fn: Function):
        self.rpo = rpo = reachable_blocks(fn)
        self.preds = preds = predecessor_map(fn)
        index = {id(b): i for i, b in enumerate(rpo)}
        idom: Dict[BasicBlock, Optional[BasicBlock]] = {fn.entry: None}

        def intersect(a: BasicBlock, b: BasicBlock) -> BasicBlock:
            while a is not b:
                while index[id(a)] > index[id(b)]:
                    a = idom[a]
                while index[id(b)] > index[id(a)]:
                    b = idom[b]
            return a

        changed = True
        while changed:
            changed = False
            for block in rpo[1:]:
                candidates = [p for p in preds[block] if p in idom]
                if not candidates:
                    continue
                new_idom = candidates[0]
                for p in candidates[1:]:
                    new_idom = intersect(new_idom, p)
                if idom.get(block) is not new_idom:
                    idom[block] = new_idom
                    changed = True
        self.idom = idom
        self.children: Dict[BasicBlock, List[BasicBlock]] = {}
        for block, parent in idom.items():
            if parent is not None:
                self.children.setdefault(parent, []).append(block)
        self._span: Optional[Dict[BasicBlock, Tuple[int, int]]] = None

    def frontiers(self) -> Dict[BasicBlock, Dict[BasicBlock, None]]:
        """Each reachable block's dominance frontier, as an
        insertion-ordered set filled in reverse postorder."""
        idom = self.idom
        frontiers: Dict[BasicBlock, Dict[BasicBlock, None]] = {b: {} for b in self.rpo}
        for block in self.rpo:
            preds = self.preds[block]
            if len(preds) < 2:
                continue
            for pred in preds:
                if pred not in idom:
                    continue  # unreachable predecessor
                runner: Optional[BasicBlock] = pred
                while runner is not None and runner is not idom[block]:
                    frontiers[runner][block] = None
                    runner = idom[runner]
        return frontiers

    def walk(self, enter: Callable[[BasicBlock], T], leave: Callable[[T], None]) -> None:
        """Preorder over the tree from the entry, children in list order:
        ``leave(enter(block))`` runs once *block*'s whole subtree is
        walked.  An explicit stack, so trees of any depth fit."""
        children = self.children
        entry = self.rpo[0]
        stack = [(enter(entry), iter(children.get(entry, ())))]
        while stack:
            scope, pending = stack[-1]
            child = next(pending, None)
            if child is None:
                stack.pop()
                leave(scope)
            else:
                stack.append((enter(child), iter(children.get(child, ()))))

    def _numbering(self) -> Dict[BasicBlock, Tuple[int, int]]:
        """``{block: (pre, post)}``: *a* dominates *b* iff *a*'s interval
        encloses *b*'s."""
        span: Dict[BasicBlock, Tuple[int, int]] = {}
        clock = itertools.count()

        def enter(block: BasicBlock) -> Tuple[BasicBlock, int]:
            return block, next(clock)

        def leave(scope: Tuple[BasicBlock, int]) -> None:
            span[scope[0]] = (scope[1], next(clock))

        self.walk(enter, leave)
        return span

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Whether *a* dominates *b*; an unreachable block dominates
        only itself, as under :func:`dominates`."""
        if a is b:
            return True
        if self._span is None:
            self._span = self._numbering()
        span_a = self._span.get(a)
        span_b = self._span.get(b)
        if span_a is None or span_b is None:
            return False
        return span_a[0] < span_b[0] and span_b[1] < span_a[1]


class NaturalLoop:
    """A natural loop: header plus the body blocks of one back edge."""

    def __init__(self, header: BasicBlock, blocks: Set[BasicBlock], latch: BasicBlock):
        self.header = header
        self.blocks = blocks
        self.latch = latch

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Loop header={self.header.name} size={len(self.blocks)}>"


def find_loops(fn: Function) -> List[NaturalLoop]:
    """Find natural loops from back edges (latch -> header with header dom latch)."""
    dom = DominatorTree(fn)
    loops: List[NaturalLoop] = []
    for block in dom.rpo:
        for succ in block.successors():
            if dom.dominates(succ, block):
                body: Set[BasicBlock] = {succ, block}
                stack = [block]
                while stack:
                    node = stack.pop()
                    if node is succ:
                        continue
                    for pred in dom.preds[node]:
                        # An unreachable predecessor can never execute;
                        # letting it leak into the body would poison
                        # loop-local transforms (e.g. unroll cloning).
                        if pred not in body and pred in dom.idom:
                            body.add(pred)
                            stack.append(pred)
                loops.append(NaturalLoop(succ, body, block))
    return loops


def call_graph(module: Module) -> Dict[str, Set[str]]:
    """Direct-call graph: caller name -> set of callee names."""
    graph: Dict[str, Set[str]] = {}
    for fn in module.defined_functions():
        callees: Set[str] = set()
        for inst in fn.instructions():
            if isinstance(inst, CallInst):
                name = inst.called_function_name()
                if name is not None:
                    callees.add(name)
        graph[fn.name] = callees
    return graph


def bottom_up_sccs(module: Module) -> List[List[str]]:
    """Strongly-connected components of the call graph in bottom-up order.

    The inliner visits callees before callers, mirroring LLVM's bottom-up
    inlining over call-graph SCCs (§2.2: "the classic Inline pass also
    clones basic blocks, but in a bottom-up fashion along the call graph").
    Tarjan's algorithm, iterative to survive deep graphs.
    """
    graph = call_graph(module)
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work: List[Tuple[str, List[str]]] = [(root, list(sorted(graph.get(root, ()))))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            while children:
                child = children.pop(0)
                if child not in graph:
                    continue  # declaration or external
                if child not in index:
                    index[child] = lowlink[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, list(sorted(graph.get(child, ())))))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                scc: List[str] = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    scc.append(top)
                    if top == node:
                        break
                sccs.append(sorted(scc))

    for name in sorted(graph):
        if name not in index:
            strongconnect(name)
    return sccs
