"""Line-oriented readers and writers for the five artifact file formats.

All formats are plain UTF-8 text with LF newlines and are written in a
canonical form (nodes in topological order, single spaces, no trailing
whitespace) so that write -> read -> write is byte-identical.  Floats are
rendered with ``repr``: the shortest decimal that round-trips exactly.
Readers end a line at ``\n`` only, so a CR before it is trailing
whitespace and the other breaks of ``str.splitlines`` stay inside a line.

vtree    ``c`` comments, ``vtree <count>``, then ``L <id> <var>`` and
         ``I <id> <left> <right>`` with children before parents.
sdd      ``sdd <count>``; ``F <id>``, ``T <id>``,
         ``L <id> <vtree> <literal>`` (negative literal = negation),
         ``D <id> <vtree> <k> <p1> <s1> ...``.
psdd     like sdd but ``T <id> <vtree> <var> <theta>`` and decision
         elements ``<p> <s> <theta>``.
csdd     like psdd with interval pairs ``<l> <u>`` instead of ``<theta>``.
dataset  CSV: header of variable names plus optional ``count`` column,
         0/1 cells.

A circuit file loads in one pass, each line split once.  A decision line
of one or two elements is read by fixed indices, a wider one a column at a
time, and a reference by its node's id token; a line that fails is read
again token by token to word the fault.  ``Circuit.add_decision``, with
all its checks, builds each decision node; line ``i``'s node is node ``i``.
A bare ``F``/``T`` is a node of vtree ``-1`` until its first use pins it.
After the last line come the node count, the partitions (one shared pass,
at the root's line) and the parameters in file order, each node's by
``check_local``; the first fault met is the ``ParseError``.

A psdd can also be read onto a circuit already loaded over the same
vtree (``read_psdd(path, vtree, onto=circuit)``): each line is read by the
same grammar and must then describe the circuit's node at its position,
so the file's structure is that circuit's and is neither built nor
partition-checked again; only its parameters are.

The three circuit files are written by one line writer, which reads the
parameter table of a psdd or csdd; an sdd has none.
"""

from __future__ import annotations

import math
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

from .circuit import (
    Circuit,
    FALSE,
    LITERAL,
    TRUE,
    SddNode,
    Vtree,
    validate_partitions,
)
from .learn import Dataset
from .params import CsddParams, PsddParams, check_local

__all__ = [
    "ParseError", "read_header",
    "read_vtree", "write_vtree", "loads_vtree", "dumps_vtree",
    "read_sdd", "write_sdd", "loads_sdd", "dumps_sdd",
    "read_psdd", "write_psdd", "loads_psdd", "dumps_psdd",
    "read_csdd", "write_csdd", "loads_csdd", "dumps_csdd",
    "read_dataset", "write_dataset", "loads_dataset", "dumps_dataset",
]


class ParseError(ValueError):
    """Malformed input; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def _fmt(x: float) -> str:
    return repr(float(x))


def _lines(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        yield lineno, line.split()


def _int(tok: str, lineno: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(lineno, f"{what}: expected an integer, got {tok!r}") from None


def _float(tok: str, lineno: int, what: str) -> float:
    try:
        value = float(tok)
    except ValueError:
        raise ParseError(lineno, f"{what}: expected a number, got {tok!r}") from None
    if math.isnan(value) or math.isinf(value):
        raise ParseError(lineno, f"{what}: {tok!r} is not finite")
    return value


# ---------------------------------------------------------------------------
# vtree


def dumps_vtree(vtree: Vtree) -> str:
    lines = [f"vtree {vtree.node_count}"]
    for vid in vtree.post_order():
        if vtree.is_leaf(vid):
            lines.append(f"L {vid} {vtree.var(vid)}")
        else:
            lines.append(f"I {vid} {vtree.left(vid)} {vtree.right(vid)}")
    return "\n".join(lines) + "\n"


def loads_vtree(text: str) -> Vtree:
    count = header = None
    entries: dict[int, tuple] = {}
    referenced: set[int] = set()
    for lineno, toks in _lines(text.split("\n")):
        if toks[0] == "vtree":
            if count is not None:
                raise ParseError(lineno, "duplicate vtree header")
            if len(toks) != 2:
                raise ParseError(lineno, "header is 'vtree <count>'")
            count = _int(toks[1], lineno, "node count")
            header = lineno
        elif toks[0] == "L":
            if count is None:
                raise ParseError(lineno, "missing 'vtree <count>' header")
            if len(toks) != 3:
                raise ParseError(lineno, "leaf line is 'L <id> <var>'")
            vid = _int(toks[1], lineno, "node id")
            if vid in entries:
                raise ParseError(lineno, f"duplicate vtree node id {vid}")
            entries[vid] = ("L", _int(toks[2], lineno, "variable"), lineno)
        elif toks[0] == "I":
            if count is None:
                raise ParseError(lineno, "missing 'vtree <count>' header")
            if len(toks) != 4:
                raise ParseError(lineno, "internal line is 'I <id> <left> <right>'")
            vid = _int(toks[1], lineno, "node id")
            if vid in entries:
                raise ParseError(lineno, f"duplicate vtree node id {vid}")
            left = _int(toks[2], lineno, "left child")
            right = _int(toks[3], lineno, "right child")
            for child in (left, right):
                if child not in entries:
                    raise ParseError(lineno, f"child {child} not defined yet (children precede parents)")
                if child in referenced:
                    raise ParseError(lineno, f"node {child} already has a parent")
                referenced.add(child)
            entries[vid] = ("I", left, right, lineno)
        else:
            raise ParseError(lineno, f"unknown vtree line {toks[0]!r}")
    if count is None:
        raise ParseError(1, "missing 'vtree <count>' header")
    if len(entries) != count:
        raise ParseError(header, f"header declares {count} nodes, found {len(entries)}")
    roots = [vid for vid in entries if vid not in referenced]  # file order
    if len(roots) != 1:
        line = entries[roots[1]][-1] if roots else header
        raise ParseError(line, f"expected a single root, found {len(roots)}")
    n = sum(1 for entry in entries.values() if entry[0] == "L")
    leaf_vars: set[int] = set()
    for entry in entries.values():  # file order: a fault names the first leaf that shows it
        if entry[0] == "L":
            var = entry[1]
            if var in leaf_vars:
                raise ParseError(entry[-1], f"variable {var} appears twice in the vtree")
            if not 1 <= var <= n:
                raise ParseError(entry[-1], f"vtree variables must be exactly 1..{n}, got {var}")
            leaf_vars.add(var)

    # children precede parents in the file, so one pass in file order builds every shape
    shapes: dict[int, object] = {}
    for vid, entry in entries.items():
        shapes[vid] = entry[1] if entry[0] == "L" else (shapes.pop(entry[1]), shapes.pop(entry[2]))
    vtree = Vtree(shapes[roots[0]])  # the checks above leave it no fault to raise
    # ids are in-order positions; another numbering would come back renamed
    for vid, entry in entries.items():  # file order, so each child is checked first
        loaded = vtree.leaf_of(entry[1]) if entry[0] == "L" else vtree.parent(entry[1])
        if vid != loaded:
            raise ParseError(entry[-1], f"vtree id {vid} is not its in-order position {loaded}")
    return vtree


# ---------------------------------------------------------------------------
# sdd / psdd / csdd cores

_MODE_SDD, _MODE_PSDD, _MODE_CSDD = "sdd", "psdd", "csdd"


def _node_lines(circuit: Circuit, mode: str, table=None) -> list[str]:
    """The lines of a ``mode`` file; ``table`` is the psdd or csdd parameter table."""
    cone = circuit.cone()
    remap = {nid: i for i, nid in enumerate(cone)}
    lines = [f"{mode} {len(cone)}"]
    for nid in cone:
        node = circuit.nodes[nid]
        i = remap[nid]
        if node.kind == FALSE:
            lines.append(f"F {i}")
        elif node.kind == LITERAL:
            lit = node.var if node.polarity else -node.var
            lines.append(f"L {i} {node.vtree} {lit}")
        elif node.kind == TRUE:
            if mode == _MODE_SDD:
                lines.append(f"T {i}")
            elif mode == _MODE_PSDD:
                lines.append(f"T {i} {node.vtree} {node.var} {_fmt(table[nid][0])}")
            else:
                cs = table[nid]
                lines.append(f"T {i} {node.vtree} {node.var} {_fmt(cs.lower[0])} {_fmt(cs.upper[0])}")
        else:
            parts = [f"D {i} {node.vtree} {len(node.elements)}"]
            # unsatisfiable decision nodes carry no distribution: all-zero slots
            entry = None if table is None else table.get(nid)
            for idx, (p, s) in enumerate(node.elements):
                parts.append(f"{remap[p]} {remap[s]}")
                if mode == _MODE_PSDD:
                    parts.append(_fmt(entry[idx] if entry is not None else 0.0))
                elif mode == _MODE_CSDD:
                    if entry is not None:
                        parts.append(f"{_fmt(entry.lower[idx])} {_fmt(entry.upper[idx])}")
                    else:
                        parts.append("0.0 0.0")
            lines.append(" ".join(parts))
    return lines


def dumps_sdd(circuit: Circuit) -> str:
    return "\n".join(_node_lines(circuit, _MODE_SDD)) + "\n"


def dumps_psdd(circuit: Circuit, params: PsddParams) -> str:
    params.validate(circuit)
    return "\n".join(_node_lines(circuit, _MODE_PSDD, params.table)) + "\n"


def dumps_csdd(circuit: Circuit, params: CsddParams) -> str:
    params.validate(circuit)
    return "\n".join(_node_lines(circuit, _MODE_CSDD, params.table)) + "\n"


def _decision_fault(toks: list[str], lineno: int, step: int, remap: dict[int, int]) -> ParseError:
    """The first fault of a decision line that failed bulk conversion, read
    token by token in the order of the grammar (``_int``/``_float`` raise theirs)."""
    if len(toks) < 4:
        return ParseError(lineno, "decision line is 'D <id> <vtree> <k> ...'")
    _int(toks[2], lineno, "vtree id")
    k = _int(toks[3], lineno, "element count")
    if k < 1:
        return ParseError(lineno, "decision nodes need at least one element")
    if len(toks) - 4 != k * step:
        return ParseError(lineno, f"expected {k * step} element fields, got {len(toks) - 4}")
    for e in range(4, len(toks), step):
        for ref in (_int(toks[e], lineno, "prime id"), _int(toks[e + 1], lineno, "sub id")):
            if ref not in remap:
                return ParseError(lineno, f"forward reference to node {ref}")
        for tok in toks[e + 2:e + step]:
            _float(tok, lineno, "parameter")
    return ParseError(lineno, "malformed decision line")  # not reached: a token above failed


def _pin_constants(nodes: list[SddNode], vtree: Vtree, vid: int, elements, bare: dict, unpinned: set) -> None:
    """Pin each unpinned bare constant among the primes, then the subs, to
    its side's leaf; a pinned one under another leaf is a fault."""
    for i, side in enumerate((vtree.left(vid), vtree.right(vid))):
        if not vtree.is_leaf(side):
            continue
        for element in elements:
            cid = element[i]
            if cid in bare:
                c = nodes[cid]
                if c.vtree < 0:
                    nodes[cid] = SddNode(c.kind, side, vtree.var(side))
                    unpinned.discard(cid)
                elif c.vtree != side:
                    fid, line = bare[cid]
                    raise ParseError(line, f"constant node {fid} used under two different leaves")


def _differs(lineno: int, nid: int, nodes: list[SddNode]) -> ParseError:
    if nid >= len(nodes):
        return ParseError(lineno, f"the circuit read onto has only {len(nodes)} nodes")
    return ParseError(lineno, f"node line does not match node {nid} of the circuit read onto")


class _Names(dict):
    """A line's id token -> its node id; any other token (``05`` for ``5``)
    reads ``remap[int(token)]``, so each resolves as that does, faults included."""

    def __init__(self, remap: dict[int, int]) -> None:
        self.remap = remap

    def __missing__(self, token: str) -> int:
        return self.remap[int(token)]


def _loads_circuit(text: str, vtree: Vtree, mode: str, onto: Circuit | None = None):
    """Load a circuit file, or with ``onto`` read it against that circuit:
    line ``i``'s node must be ``onto.nodes[i]`` and the last one its root."""
    step = {_MODE_SDD: 2, _MODE_PSDD: 3, _MODE_CSDD: 4}[mode]  # fields per decision element
    columns = range(6, 4 + step)              # per-state number columns of a D line
    if onto is not None and onto.vtree != vtree:
        raise ValueError("the circuit read onto is over another vtree")
    if onto is not None and onto.root is None:
        raise ValueError("the circuit read onto has no root")
    circuit = Circuit(vtree) if onto is None else onto
    nodes = circuit.nodes
    vleft, vtree_count = vtree._left, vtree.node_count
    count = None
    remap: dict[int, int] = {}                # file id -> node id, one node per line
    bare: dict[int, tuple[int, int]] = {}     # bare F/T node -> (file id, line)
    unpinned: set[int] = set()                # bare nodes no decision line has pinned yet
    pending: dict[int, tuple[int, list]] = {}  # node -> (line, per-state number columns)
    named = _Names(remap)
    ref = named.__getitem__
    for lineno, raw in enumerate(text.split("\n"), start=1):
        toks = raw.split()
        if not toks or toks[0] == "c" and (len(toks) == 1 or raw.strip().startswith("c ")):
            continue  # a blank line or a comment
        kind = toks[0]
        if kind == mode:
            if count is not None:
                raise ParseError(lineno, "duplicate header")
            if len(toks) != 2:
                raise ParseError(lineno, f"header is '{mode} <count>'")
            count = _int(toks[1], lineno, "node count")
            continue
        if count is None:
            raise ParseError(lineno, f"missing '{mode} <count>' header")
        if kind not in ("F", "T", "L", "D"):
            raise ParseError(lineno, f"unknown node line {kind!r}")
        if len(toks) < 2:
            raise ParseError(lineno, f"node line {kind!r} has no id")
        fid = _int(toks[1], lineno, "node id")
        if fid in remap:
            raise ParseError(lineno, f"duplicate node id {fid}")
        nid = len(remap)
        node = nodes[nid] if onto is not None and nid < len(nodes) else None  # the node to match
        if kind == "D":
            # one- and two-element lines, most of a file, by fixed indices;
            # wider ones by one conversion per column; _decision_fault words any fault
            try:
                vid, k = int(toks[2]), int(toks[3])
                if k < 1 or len(toks) != 4 + k * step:
                    raise ValueError
                numbers = []
                if k <= 2:  # [:k] keeps the first of two fields read from one element
                    e = 4 + step * (k - 1)  # the last element's prime column
                    elements = ((named[toks[4]], named[toks[5]]), (named[toks[e]], named[toks[e + 1]]))[:k]
                    for c in columns:
                        x, y = float(toks[c]), float(toks[c + e - 4])
                        if x - x or y - y:  # nan unless both are finite
                            raise ValueError
                        numbers.append((x, y)[:k])
                else:
                    elements = tuple(zip(map(ref, toks[4::step]), map(ref, toks[5::step])))
                    for c in columns:
                        numbers.append(tuple(map(float, toks[c::step])))
                        if not all(map(math.isfinite, numbers[-1])):
                            raise ValueError
            except (IndexError, KeyError, ValueError):
                raise _decision_fault(toks, lineno, step, remap) from None
            if not 0 <= vid < vtree_count or vleft[vid] < 0:
                raise ParseError(lineno, f"vtree node {vid} is not internal")
            if onto is not None:
                # a match passes every check add_decision and the partitions make
                if node is None or node.vtree != vid or node.elements != elements:
                    raise _differs(lineno, nid, nodes)
            else:
                if unpinned and not unpinned.isdisjoint(chain.from_iterable(elements)):
                    _pin_constants(nodes, vtree, vid, elements, bare, unpinned)
                try:
                    added = circuit.add_decision(vid, elements)
                except ValueError as exc:
                    if bare:  # a pinned constant under another leaf is worded as such
                        _pin_constants(nodes, vtree, vid, elements, bare, unpinned)
                    raise ParseError(lineno, str(exc)) from None
                if added != nid:
                    raise ParseError(lineno, "duplicate decision node (same vtree and elements)")
            pending[nid] = (lineno, numbers)
        elif kind == "L":
            if len(toks) != 4:
                raise ParseError(lineno, "literal line is 'L <id> <vtree> <literal>'")
            vid = _int(toks[2], lineno, "vtree id")
            lit = _int(toks[3], lineno, "literal")
            if lit == 0:
                raise ParseError(lineno, "literal 0 is invalid")
            var = abs(lit)
            if var > vtree.var_count:
                raise ParseError(lineno, f"literal variable {var} outside the vtree")
            if vtree.leaf_of(var) != vid:
                raise ParseError(lineno, f"variable {var} lives at leaf {vtree.leaf_of(var)}, not {vid}")
            if onto is None:
                circuit.add_literal(var, lit > 0)
            elif node is None or node.kind != LITERAL or node.var != var or node.polarity != (lit > 0):
                raise _differs(lineno, nid, nodes)
        elif kind == "F" or mode == _MODE_SDD:
            if len(toks) != 2:
                raise ParseError(lineno, "false line is 'F <id>'" if kind == "F" else "true line is 'T <id>'")
            if onto is not None:
                # a bare constant's leaf is its use's, which the decision lines match
                if node is None or node.kind != (FALSE if kind == "F" else TRUE):
                    raise _differs(lineno, nid, nodes)
            elif vtree.var_count == 1:
                (circuit.add_false if kind == "F" else circuit.add_true)(vtree.root)
            else:  # a placeholder until a decision line pins its leaf
                nodes.append(SddNode(FALSE if kind == "F" else TRUE, -1))
                bare[nid] = (fid, lineno)
                unpinned.add(nid)
        else:
            want = 5 if mode == _MODE_PSDD else 6
            if len(toks) != want:
                raise ParseError(lineno, f"true line has {want} fields in a {mode} file")
            vid = _int(toks[2], lineno, "vtree id")
            var = _int(toks[3], lineno, "variable")
            numbers = [_float(t, lineno, "parameter") for t in toks[4:]]
            if not 0 <= vid < vtree_count or vleft[vid] >= 0:
                raise ParseError(lineno, f"vtree node {vid} is not a leaf")
            if vtree.var(vid) != var:
                raise ParseError(lineno, f"leaf {vid} holds variable {vtree.var(vid)}, not {var}")
            if onto is None:
                circuit.add_true(vid)
            elif node is None or node.kind != TRUE or node.vtree != vid:
                raise _differs(lineno, nid, nodes)
            # columns over the states (var true, var false): lower, upper, or a psdd's one
            lo, up = numbers[0], numbers[-1]
            pending[nid] = (lineno, [(lo, 1.0 - up), (up, 1.0 - lo)][:len(columns)])
        remap[fid] = named[toks[1]] = nid
        last = lineno
    if count is None:
        raise ParseError(1, f"missing '{mode} <count>' header")
    if len(remap) != count:
        raise ParseError(1, f"header declares {count} nodes, found {len(remap)}")
    if not remap:
        raise ParseError(1, "a circuit needs at least one node")
    # the last node line is the root's
    if onto is not None:
        if onto.root != len(remap) - 1:
            raise ParseError(last, f"the circuit read onto has its root at node {onto.root}")
    else:
        if unpinned:  # the first in file order
            fid, line = bare[min(unpinned)]
            raise ParseError(line, f"cannot infer the leaf of constant node {fid}")
        circuit.set_root(len(nodes) - 1)
        try:
            validate_partitions(circuit)
        except ValueError as exc:
            raise ParseError(last, str(exc)) from None
    if mode == _MODE_SDD:
        return circuit
    # each node's table entry by check_local, plus the file's own rule for
    # the slots of unsatisfiable nodes
    false = circuit.false_ids()
    table = {}
    for nid, (line, numbers) in pending.items():
        if nid in false:
            if any(map(any, numbers)):
                raise ParseError(line, "unsatisfiable node must carry all-zero parameters")
            continue
        try:
            table[nid] = check_local(circuit, nid, *numbers)
        except ValueError as exc:
            raise ParseError(line, str(exc)) from None
    return circuit, PsddParams(table) if mode == _MODE_PSDD else CsddParams(table)


def loads_sdd(text: str, vtree: Vtree) -> Circuit:
    return _loads_circuit(text, vtree, _MODE_SDD)


def loads_psdd(text: str, vtree: Vtree, *, onto: Circuit | None = None) -> tuple[Circuit, PsddParams]:
    """The circuit and point table of a psdd file; with ``onto``, the table
    of a file that describes that circuit, node for node, and the circuit."""
    return _loads_circuit(text, vtree, _MODE_PSDD, onto)


def loads_csdd(text: str, vtree: Vtree) -> tuple[Circuit, CsddParams]:
    return _loads_circuit(text, vtree, _MODE_CSDD)


# ---------------------------------------------------------------------------
# dataset


def dumps_dataset(dataset: Dataset) -> str:
    lines = [",".join(list(dataset.variables) + ["count"])]
    for values, count in dataset.rows:
        lines.append(",".join("1" if v else "0" for v in values) + f",{count}")
    return "\n".join(lines) + "\n"


def loads_dataset(text: str) -> Dataset:
    lines = text.split("\n")
    if not lines or not lines[0].strip():
        raise ParseError(1, "missing header row")
    header = [h.strip() for h in lines[0].split(",")]
    has_count = header and header[-1] == "count"
    names = tuple(header[:-1] if has_count else header)
    if not names:
        raise ParseError(1, "no variable columns")
    if len(set(names)) != len(names):
        raise ParseError(1, "duplicate variable names")
    rows: list[tuple[tuple[bool, ...], int]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise ParseError(lineno, f"expected {len(header)} cells, got {len(cells)}")
        values = []
        for name, cell in zip(names, cells):
            if cell not in ("0", "1"):
                raise ParseError(lineno, f"column {name}: expected 0 or 1, got {cell!r}")
            values.append(cell == "1")
        if has_count:
            count = _int(cells[-1], lineno, "count")
            if count < 1:
                raise ParseError(lineno, f"count must be >= 1, got {count}")
        else:
            count = 1
        rows.append((tuple(values), count))
    return Dataset(names, rows)


# ---------------------------------------------------------------------------
# path wrappers


def _read(path) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def read_header(path) -> str:
    """The first token of the file's first line that is neither blank nor a
    comment (``""`` if there is none); it reads no further than that line."""
    with open(path, encoding="utf-8") as f:
        return next((toks[0] for _, toks in _lines(f)), "")


def read_vtree(path) -> Vtree:
    return loads_vtree(_read(path))


def write_vtree(vtree: Vtree, path) -> None:
    _write(path, dumps_vtree(vtree))


def read_sdd(path, vtree: Vtree) -> Circuit:
    return loads_sdd(_read(path), vtree)


def write_sdd(circuit: Circuit, path) -> None:
    _write(path, dumps_sdd(circuit))


def read_psdd(path, vtree: Vtree, *, onto: Circuit | None = None) -> tuple[Circuit, PsddParams]:
    return loads_psdd(_read(path), vtree, onto=onto)


def write_psdd(circuit: Circuit, params: PsddParams, path) -> None:
    _write(path, dumps_psdd(circuit, params))


def read_csdd(path, vtree: Vtree) -> tuple[Circuit, CsddParams]:
    return loads_csdd(_read(path), vtree)


def write_csdd(circuit: Circuit, params: CsddParams, path) -> None:
    _write(path, dumps_csdd(circuit, params))


def read_dataset(path) -> Dataset:
    return loads_dataset(_read(path))


def write_dataset(dataset: Dataset, path) -> None:
    _write(path, dumps_dataset(dataset))
