"""Per-function control-flow graphs for the dataflow engine.

A :class:`Cfg` decomposes one function body into basic blocks of
*simple* statements connected by directed edges.  Compound statements
are not stored whole: an ``if`` contributes its test to the block that
ends with it, and its branches become separate block chains.  The
taint solver in :mod:`repro.analysis.taint` only ever sees straight-line
statement runs plus an edge relation, which keeps transfer functions
trivial.

Approximations (deliberate, and documented here because every client
inherits them):

* Exception edges are coarse: each block created inside a ``try`` body
  gets an edge to every handler, as does the block preceding the
  ``try``.  This over-approximates which statements can raise, which is
  the safe direction for taint (more paths → more flows seen).
* ``finally`` bodies are sequenced after the protected region and its
  handlers; early exits (``return``/``break``) jump to the function
  exit directly rather than detouring through ``finally``.
* ``match`` statements fan out one edge per case, all rejoining below.

Every CFG has exactly one entry block and one synthetic exit block;
``return`` and ``raise`` statements edge to the exit.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


@dataclass
class Block:
    """A maximal run of simple statements with a single entry."""

    bid: int
    stmts: List[ast.stmt] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)

    def add_succ(self, bid: int) -> None:
        if bid not in self.succs:
            self.succs.append(bid)


@dataclass
class Cfg:
    """Control-flow graph of one function body."""

    blocks: Dict[int, Block]
    entry: int
    exit: int

    def preds(self) -> Dict[int, List[int]]:
        """Predecessor map, derived from the successor lists."""
        preds: Dict[int, List[int]] = {bid: [] for bid in self.blocks}
        for block in self.blocks.values():
            for succ in block.succs:
                preds[succ].append(block.bid)
        return preds

    def rpo(self) -> List[int]:
        """Reverse post-order from the entry (good worklist seed)."""
        seen: set[int] = set()
        order: List[int] = []

        def visit(bid: int) -> None:
            stack: List[Tuple[int, int]] = [(bid, 0)]
            seen.add(bid)
            while stack:
                current, child = stack[-1]
                succs = self.blocks[current].succs
                if child < len(succs):
                    stack[-1] = (current, child + 1)
                    nxt = succs[child]
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append((nxt, 0))
                else:
                    stack.pop()
                    order.append(current)

        visit(self.entry)
        order.reverse()
        return order


class _Builder:
    """Recursive-descent CFG construction over one statement list."""

    def __init__(self) -> None:
        self.blocks: Dict[int, Block] = {}
        self._next = 0
        # (break target, continue target) stack for loops.
        self._loops: List[Tuple[int, int]] = []
        # Handler-entry blocks of every enclosing try; blocks created
        # while inside the try body edge to all of them.
        self._handlers: List[List[int]] = []
        self.exit = self._new().bid

    def _new(self) -> Block:
        block = Block(self._next)
        self._next += 1
        self.blocks[block.bid] = block
        for handlers in self._handlers:
            for handler in handlers:
                block.add_succ(handler)
        return block

    def build(self, body: List[ast.stmt]) -> Cfg:
        entry = self._new()
        last = self._run(body, entry)
        if last is not None:
            last.add_succ(self.exit)
        return Cfg(blocks=self.blocks, entry=entry.bid, exit=self.exit)

    def _run(self, body: List[ast.stmt],
             current: Optional[Block]) -> Optional[Block]:
        """Thread ``body`` onto ``current``; return the fall-through
        block, or None when every path left (return/raise/…)."""
        for stmt in body:
            if current is None:
                # Unreachable code after a terminator still gets a
                # block so its statements are analyzed (rules may want
                # to flag them), but nothing edges into it.
                current = self._new()
            current = self._stmt(stmt, current)
        return current

    def _stmt(self, stmt: ast.stmt, current: Block) -> Optional[Block]:
        if isinstance(stmt, (ast.If,)):
            return self._if(stmt, current)
        if isinstance(stmt, (ast.While,)):
            return self._while(stmt, current)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, current)
        if isinstance(stmt, (ast.Try,)):
            return self._try(stmt, current)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, current)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, current)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            current.stmts.append(stmt)
            current.add_succ(self.exit)
            return None
        if isinstance(stmt, ast.Break):
            current.stmts.append(stmt)
            if self._loops:
                current.add_succ(self._loops[-1][0])
            return None
        if isinstance(stmt, ast.Continue):
            current.stmts.append(stmt)
            if self._loops:
                current.add_succ(self._loops[-1][1])
            return None
        # Nested defs/classes are opaque simple statements here; the
        # interprocedural layer analyzes their bodies separately.
        current.stmts.append(stmt)
        return current

    def _if(self, stmt: ast.If, current: Block) -> Optional[Block]:
        current.stmts.append(stmt)  # transfer reads stmt.test only
        then_entry = self._new()
        current.add_succ(then_entry.bid)
        then_exit = self._run(stmt.body, then_entry)
        if stmt.orelse:
            else_entry = self._new()
            current.add_succ(else_entry.bid)
            else_exit = self._run(stmt.orelse, else_entry)
        else:
            else_exit = current
        if then_exit is None and else_exit is None:
            return None
        join = self._new()
        if then_exit is not None:
            then_exit.add_succ(join.bid)
        if else_exit is not None:
            else_exit.add_succ(join.bid)
        return join

    def _while(self, stmt: ast.While, current: Block) -> Block:
        head = self._new()
        current.add_succ(head.bid)
        head.stmts.append(stmt)  # transfer reads stmt.test only
        after = self._new()
        body_entry = self._new()
        head.add_succ(body_entry.bid)
        is_infinite = (isinstance(stmt.test, ast.Constant)
                       and bool(stmt.test.value))
        if not is_infinite:
            head.add_succ(after.bid)
        self._loops.append((after.bid, head.bid))
        body_exit = self._run(stmt.body, body_entry)
        self._loops.pop()
        if body_exit is not None:
            body_exit.add_succ(head.bid)
        if stmt.orelse:
            else_exit = self._run(stmt.orelse, after)
            if else_exit is not None and else_exit is not after:
                after = else_exit
        return after

    def _for(self, stmt: ast.For | ast.AsyncFor, current: Block) -> Block:
        head = self._new()
        current.add_succ(head.bid)
        head.stmts.append(stmt)  # transfer binds target from iter
        after = self._new()
        body_entry = self._new()
        head.add_succ(body_entry.bid)
        head.add_succ(after.bid)
        self._loops.append((after.bid, head.bid))
        body_exit = self._run(stmt.body, body_entry)
        self._loops.pop()
        if body_exit is not None:
            body_exit.add_succ(head.bid)
        if stmt.orelse:
            else_exit = self._run(stmt.orelse, after)
            if else_exit is not None and else_exit is not after:
                after = else_exit
        return after

    def _with(self, stmt: ast.With | ast.AsyncWith,
              current: Block) -> Optional[Block]:
        current.stmts.append(stmt)  # transfer binds `as` names
        return self._run(stmt.body, current)

    def _try(self, stmt: ast.Try, current: Block) -> Optional[Block]:
        handler_entries: List[int] = []
        handler_blocks: List[Block] = []
        for _handler in stmt.handlers:
            block = self._new()
            handler_entries.append(block.bid)
            handler_blocks.append(block)
        # The block before the try may raise into any handler too.
        for hid in handler_entries:
            current.add_succ(hid)
        self._handlers.append(handler_entries)
        body_entry = self._new()
        current.add_succ(body_entry.bid)
        body_exit = self._run(stmt.body, body_entry)
        if stmt.orelse and body_exit is not None:
            body_exit = self._run(stmt.orelse, body_exit)
        self._handlers.pop()
        exits: List[Block] = []
        if body_exit is not None:
            exits.append(body_exit)
        for handler, block in zip(stmt.handlers, handler_blocks):
            if handler.name:
                block.stmts.append(handler)  # transfer binds the name
            handler_exit = self._run(handler.body, block)
            if handler_exit is not None:
                exits.append(handler_exit)
        if stmt.finalbody:
            final_entry = self._new()
            for block in exits:
                block.add_succ(final_entry.bid)
            return self._run(stmt.finalbody,
                             final_entry if exits else final_entry)
        if not exits:
            return None
        join = self._new()
        for block in exits:
            block.add_succ(join.bid)
        return join

    def _match(self, stmt: ast.Match, current: Block) -> Optional[Block]:
        current.stmts.append(stmt)  # transfer reads stmt.subject only
        exits: List[Block] = []
        for case in stmt.cases:
            case_entry = self._new()
            current.add_succ(case_entry.bid)
            case_exit = self._run(case.body, case_entry)
            if case_exit is not None:
                exits.append(case_exit)
        # No case may match: fall through past the whole statement.
        join = self._new()
        current.add_succ(join.bid)
        for block in exits:
            block.add_succ(join.bid)
        return join


def build_cfg(fn: FunctionNode) -> Cfg:
    """Build the CFG of one function definition's body."""
    return _Builder().build(fn.body)


def build_cfg_for_body(body: List[ast.stmt]) -> Cfg:
    """Build a CFG for a bare statement list (module level, tests)."""
    return _Builder().build(body)
