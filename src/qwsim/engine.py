"""The state-vector gate kernel.

A gate on ``m`` wires of an ``n``-qubit register mixes each group of
``2**m`` amplitudes that differ only in those wires' bits, so it touches
each amplitude once, O(2**n) work, and no operator matrix is ever built.
:func:`apply_multi_qubit_gate` is the one kernel, for every gate.  It
reads the state as a tensor with one length-2 axis per target or control
wire, so each group member is a strided view and the per-amplitude work
stays inside numpy.  A control never enlarges the matrix: it fixes its
axis to the wanted bit, which is what its ``ControlSpec`` bitmasks mean.

A gate's plan has two parts.  Its template (the blocks it uses with
their target bits, the blocks to copy, each written row's terms) comes
from the matrix alone; every catalog gate's is derived once, at import.
Its placement (the view shape and each block's index) comes from the
wires alone, in one pass over them from the top.  :func:`compile_circuit`
lowers a checked circuit's ops, on the slots their wires hold when each
runs, to a list of two kinds of step: run a plan, or split on a wire.
It takes each plan from :func:`_placed`, a memo of the last 1024 distinct
placements, keyed by the register size, the template's value, the target
slots and the control entries (about 1.7 MB at the bound on 12- to
18-wire registers), so a process places each distinct gate once.  A hit
costs about 0.4 us, most of it hashing the key.  A one-shot ``qwsim``
process starts with the memo empty, and gains only where a gate repeats
within its circuit; a miss costs about 0.8 us more than a bare placement.
:func:`_walk` is the one loop over those steps, for :func:`run_circuit`,
``measurement`` and ``qwsim simulate``.  It builds the run's start, runs
each plan once on the prefix of a ``(B, W)`` stack's rows that the plan's
register fills, the whole rows unless the register grows, splits every row
at once on a MEASURE (:func:`_split`), and checks nothing per gate.  A walk that ends
on a gate tests the norm of each row it ends on; one that ends on a
split ends on rows the split made unit.  :func:`_lower` checks a ``psi0`` once, and each walk copies
it.  A plan accepts leading batch axes: on a stack it makes each numpy
call once for all rows, with the same arithmetic per amplitude as on one
state.

Started at |00...0>, a circuit's early gates meet wires that no gate has
yet moved off 0, and like a control, such a wire confines the state to
the amplitudes where it reads 0.  :func:`compile_circuit` tracks these
wires.  A gate with a control that wants 1 on one of them, or whose
targets are all such wires and whose template fixes block 0 (writes no
row 0 and reads block 0 in no row it writes), places no plan.  The
amplitudes this skips are exact zeros, and each other amplitude meets
the same numpy operations, so results equal (``np.array_equal``) those
of plans that take no wire as known; a skipped zero may keep a sign that
a full run would flip.

The compile places the gates it keeps in one loop over slots, the state's
wires from bit 0 up, from one of two starts, by the layout rule: a run
from |00...0> grows its register unless it moves every wire with
``2**n`` past ``2 * _SLICE``, and a ``psi0`` run starts in wire order.  A grown
register starts with no slot: a wire takes the next slot at the first
gate that moves it, and each gate runs on the ``2**k`` amplitudes of the
k wires slotted so far, where every wire not yet slotted reads 0, so it
needs no anticontrol.  A MEASURE drops its wire's slot, and the slots
above shift down; a wire that no gate moved takes the next slot first,
and splits as outcome 0 with p = 1.  In wire order every wire starts in
its own slot, and a gate also takes an anticontrol on each slotted wire
still 0 that it does not name.  That start serves a ``psi0``, which
takes no wire as known, and a register of every wire past ``2 * _SLICE``
amplitudes, which first-move order could only put back into wire order
in a second state of all n wires.  :func:`_lower` compiles for every
runner into one record, :class:`Lowered`, which the runners read by
field name, and the walk works out its start from it: the register of
its first split, or else of its end, ``2**n`` amplitudes in wire order.
:func:`run_circuit` scatters the ``2**K`` amplitudes, whose norm the
walk tests, once into a zeroed state of every wire, from a transposed
view that puts them back into wire order (:func:`_scatter`); the scatter
moves no value, so the test holds for the result.  ``run_with_branches`` scatters its leaves
the same way, over the unmeasured wires.  The CLI reads the walk's rows
in slot order and never builds the ``2**n`` state or a wire-order copy.
By the slot-to-bit rule, every reader places slot ``s`` of the
register at the one bit that ``Lowered.bits`` gives it: the rank of the
slot's wire among the unmeasured wires, which is the wire itself when
nothing is measured.

A state of at most ``2 * _SLICE`` amplitudes, over all rows, runs a
plan's steps on the whole view and nothing else.  A bigger one takes
three rules, each bit-identical: every step is elementwise, the pieces
are disjoint, and buffering only moves data.  (1) A plan that makes more
than one pass over its blocks (H, X, Y, the swaps) runs slice by slice
once a block holds more than ``_SLICE`` = 2**15 amplitudes: every step on
one slice of the outermost free axis before the next, so a slice, its
copies and its temporaries stay in a core's L2 cache.  (2) Its steps run
with numpy's ufunc buffer at ``_BUFSIZE`` = 256 elements, restored on the
way out, also when a step raises: numpy copies contiguous runs shorter
than its buffer (8192 by default), such as a block on a mid wire, through
it and back.  (3) A plan whose lowest named wire is 1, with wire 0 and
another axis free, runs each piece as its two wire-0 halves, so numpy's
inner loop runs along a long axis rather than once per run of 2.  Without
the other free axis a half would be one amplitude, which numpy rounds
unlike a stack's rows (see :func:`_place`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .circuit import check_circuit, check_targets
from .errors import ContractError
from .gates import MEASURE, gate_def, gate_names
from .linalg import check_matrix, check_state, check_unit_norms, check_unit_state


def _template(u: np.ndarray) -> tuple:
    """Work out, unchecked, what the kernel does with the matrix ``u``.

    The template is ``(labels, copies, steps, multi_pass)``: per block
    ``c`` a row write reads or writes, ``(c, bits)`` with the bits of ``c``
    from the highest target down, the blocks to copy before any write,
    per written row ``r`` its ``(r, ((c, u[r, c]), ...))`` terms, own
    block first, and whether the plan makes more than one pass over its
    blocks (it copies a block, writes more than one row, or writes a row
    of more than one term).  Rows equal to the identity's are not written.
    """
    rows = u.tolist()
    reads = [[c for c, x in enumerate(row) if x] for row in rows]
    writes = [r for r in range(len(rows)) if reads[r] != [r] or rows[r][r] != 1]
    used = sorted({*writes, *(c for r in writes for c in reads[r])})
    ranks = range(len(rows).bit_length() - 2, -1, -1)  # highest target first
    labels = tuple((c, tuple((c >> k) & 1 for k in ranks)) for c in used)
    copies = tuple(c for c in writes if any(c in reads[r] for r in writes if r > c))
    # own block first; a zero row scales its own block by 0
    steps = tuple(
        (r, tuple((c, rows[r][c]) for c in sorted(reads[r], key=lambda c: c != r) or [r]))
        for r in writes
    )
    multi_pass = bool(copies) or len(steps) > 1 or any(len(terms) > 1 for _, terms in steps)
    return labels, copies, steps, multi_pass


# Amplitudes, over all stacked rows, in one slice of a sliced plan: its
# blocks, their copies and term temporaries then stay in a core's L2.
_SLICE = 1 << 15

# numpy's ufunc buffer, in elements, while a big state runs a plan: below
# numpy's default of 8192, contiguous runs shorter than the buffer are no
# longer copied through it and back.  Of 64 to 1024, 256 ran 18-qubit
# circuits fastest.
_BUFSIZE = 256

_ALL = slice(None)

# A split prunes each outcome of lower probability: it carries no residual.
PRUNE_EPS = 1e-14

# Every catalog gate's template, derived once here rather than per gate applied.
_TEMPLATES = {name: _template(gate_def(name).matrix) for name in gate_names()}

# The catalog gates whose template fixes block 0: row 0 is not written and
# no written row reads block 0, so on targets all still |0> they do nothing.
_FIXES_ZERO = frozenset(
    name
    for name, (_, _, steps, _) in _TEMPLATES.items()
    if not any(r == 0 or any(c == 0 for c, _ in terms) for r, terms in steps)
)


class Plan(NamedTuple):
    """A template of :func:`_template` placed on the wires of one state."""

    shape: tuple[int, ...]  # the view shape of one state, highest wire first
    keys: tuple  # ``(c, index)`` of each block ``block_c`` the template uses
    copies: tuple  # the blocks to copy before any write
    steps: tuple  # the template's row writes
    # (outermost free axis, number of fixed axes) of a multi-pass template
    # placed with a free axis, else None
    cut: tuple[int, int] | None
    # whether a big state runs the plan as its two wire-0 halves: wire 0 is
    # the only wire below the lowest named wire, and another axis is free
    halves: bool


def _place(n: int, template: tuple, targets, entries) -> Plan:
    """Place, unchecked, a template of :func:`_template` on wires of ``n``.

    ``entries`` are the controls' ``(wire, is_control)`` pairs.  One pass
    over the named wires, from the top, builds the view shape and an index
    holding each control's bit; each block's key sets the block's target
    bits, from the template, on the target axes.  See :class:`Plan`.
    """
    labels, copies, steps, multi_pass = template
    bit_of = dict(entries)
    # C order puts the highest wire on axis 0.
    shape: list[int] = []
    index: list = []  # a run of other wires, which no key fixes, is indexed by _ALL
    target_axes: list[int] = []  # highest target first, as the template's bits
    above = n
    for w in sorted((*targets, *bit_of), reverse=True):
        if above - w > 1:
            shape.append(1 << (above - w - 1))
            index.append(_ALL)
        if w in bit_of:
            index.append(int(bit_of[w]))
        else:
            target_axes.append(len(index))
            index.append(0)
        shape.append(2)
        above = w
    if above:
        shape.append(1 << above)
        index.append(_ALL)
    keys = []
    for c, bits in labels:
        for axis, bit in zip(target_axes, bits):
            index[axis] = bit
        # the ... keeps a block a view (0-d when every axis is fixed) and takes
        # any leading batch axes of a stack of states
        keys.append((c, (..., *index)))
    named = len(targets) + len(bit_of)
    free = len(shape) - named
    if not free:
        # A block of one state is one amplitude, which numpy scales in place
        # in a scalar loop that rounds unlike the vector loop a stack's rows
        # take; reading from copies keeps those rows bit-equal to lone states.
        copies = tuple([c for c, _ in labels])
    cut = (index.index(_ALL), named) if multi_pass and free else None
    # a half keeps another free axis, so its blocks never shrink to one
    # amplitude (see above)
    return Plan(tuple(shape), tuple(keys), copies, steps, cut, above == 1 and free > 1)


@lru_cache(maxsize=1024)
def _placed(n: int, template: tuple, targets: tuple, entries: tuple) -> Plan:
    """The plan of :func:`_place`, from a memo of the last 1024 distinct
    placements.  Every argument is a tuple, and the key holds the template's
    value, not a gate name, so a plan is only ever shared by equal
    templates.  A plan is immutable, so a shared one runs as a fresh one."""
    return _place(n, template, targets, entries)


def _run_steps(view: np.ndarray, keys: tuple, copies: tuple, steps: tuple) -> None:
    """Run a plan's steps on ``view``, a view of the plan's shape or a piece of one."""
    blocks = {}
    for c, key in keys:
        blocks[c] = view[key]
    sources = blocks
    if copies:  # only blocks that a later row still reads
        sources = dict(blocks)
        for c in copies:
            sources[c] = blocks[c].copy()
    for r, ((first, scale), *rest) in steps:
        dst = blocks[r]
        if scale != 1:
            np.multiply(sources[first], scale, out=dst)
        elif first != r:
            dst[...] = sources[first]
        for c, x in rest:
            dst += x * sources[c]


def _run_plan(plan: Plan, state: np.ndarray) -> np.ndarray:
    """Run a plan of :func:`_place` in ``state``, a vector or a stack of
    them along leading axes, every row alike, whose last axis is
    contiguous: the reshape to the plan's shape is then a view, also of
    the prefix of wider rows, so the plan writes the rows.

    A state of at most ``2 * _SLICE`` amplitudes, over all rows, runs the
    steps on the whole view.  A bigger one runs them under a ``_BUFSIZE``
    ufunc buffer, on slices of about ``_SLICE`` amplitudes of the ``cut``
    axis once a block outgrows one, and on wire-0 ``halves`` (see above).
    """
    shape, keys, copies, steps, cut, halves = plan
    view = state.reshape(state.shape[:-1] + shape)
    if state.size <= 2 * _SLICE:
        _run_steps(view, keys, copies, steps)
        return state
    parts = (view,)
    if cut is not None and state.size >> cut[1] > _SLICE:  # a block outgrows a slice
        axis, length = cut[0], shape[cut[0]]
        width = max(1, _SLICE // (state.size // length))
        head = (slice(None),) * (view.ndim - len(shape) + axis)
        parts = (view[(*head, slice(lo, lo + width))] for lo in range(0, length, width))
    if halves:  # wire 0 is the last axis, so drop its index from the keys
        keys = [(c, key[:-1]) for c, key in keys]
        parts = (part[..., bit] for part in parts for bit in (0, 1))
    bufsize = np.setbufsize(_BUFSIZE)
    try:
        for part in parts:
            _run_steps(part, keys, copies, steps)
    finally:
        np.setbufsize(bufsize)
    return state


def apply_multi_qubit_gate(n: int, u, targets, a, controls=None) -> np.ndarray:
    """Apply a ``2**m x 2**m`` matrix ``u`` to ``m`` target wires.

    Bit ``k`` of a row/column index of ``u`` addresses the ``k``-th
    smallest target wire.  The state is viewed with one length-2 axis per
    target or control wire and one merged axis per run of other wires.
    Fixing each control axis to its wanted bit and the target axes to a
    pattern ``c`` gives ``block_c``, a strided view of every amplitude
    whose target bits read ``c`` and that passes the controls.  Row ``r``
    then writes ``block_r = sum_c u[r, c] * block_c``, skipping zero
    entries and identity rows; only the blocks a later row still reads
    are copied first.

    The checked entry point for any matrix: it validates its arguments,
    derives the template of ``u``, places it and runs the plan on a fresh
    copy of ``a``.  ``u`` is applied as given, unitary or not: the tests
    hold every catalog gate unitary (``test_every_entry_is_unitary``) and
    ``run_circuit`` checks the norm of its result.
    """
    out, n = check_state(a, n)
    targets, spec = check_targets(n, targets, controls)
    if not targets:
        raise ContractError("multi-qubit gate needs at least one target")
    u = check_matrix(u, 1 << len(targets))
    return _run_plan(_place(n, _template(u), targets, spec.entries), out.copy())


def compile_circuit(n: int, ops, psi0=None) -> tuple[list, tuple[int, ...], dict[int, int | None]]:
    """Lower ``ops``, the ops of an ``n``-qubit ``Circuit`` or a prefix of
    them, to kernel plans over the slotted wires.

    Returns ``(steps, measured, wire_map)``.  Which wire sits in which slot
    does not depend on outcomes, so each step is fixed in advance:
    ``(plan, None)`` runs a gate's plan on the whole stack, ``(plan,
    size)`` on the first ``size`` amplitudes of each of its rows, and
    ``(None, (slot, size, width))`` measures the wire in ``slot`` of the
    register of the rows' first ``size`` amplitudes, into rows ``width``
    amplitudes wide: those of the widest register before the next split,
    or at the end.  The measured wire's slot goes, so the slots above it
    shift down.  ``measured`` lists the measured wires in op order;
    ``wire_map`` sends each wire to its slot in the state the steps end
    on, or None when that state does not hold it.  ``Circuit``
    checks its ops and refuses any reuse of a measured wire, so a compile
    checks nothing, only places templates, and cannot fail.  Each plan
    comes from the memo of :func:`_placed`.

    From |00...0> (``psi0`` None) the compile tracks, as a bitmask, the
    wires still 0, and drops each gate they leave nothing to do (see the
    module docstring).  One loop then places the rest from one of two
    starts.  From |00...0>, unless it moves every wire and ``2**n > 2 *
    _SLICE``, it starts with no slot: a gate gives each unslotted target
    the next slot and is step ``(plan, 2**k)`` on the k wires slotted so
    far, and a MEASURE of an unslotted wire slots it first.  Otherwise it
    starts with every wire in wire order, and a gate takes an anticontrol
    on each wire still 0 that it does not name, as step ``(plan, None)``.
    """
    zero = (1 << n) - 1 if psi0 is None else 0  # a bit per wire still 0 in every amplitude
    kept = []  # each placed gate with the zero mask it met; each MEASURE with None
    measured: list[int] = []
    for op in ops:
        if op.gate == MEASURE:
            measured.append(op.targets[0])
            zero &= ~(1 << measured[-1])
            kept.append((op, None))
            continue
        if op.controls.desired_value_mask & zero:
            continue  # a control that wants 1 on a wire still 0 never fires
        targets = op.target_mask
        if op.gate in _FIXES_ZERO and not targets & ~zero:
            continue  # only block 0 is nonzero, and the gate fixes it
        kept.append((op, zero & ~(targets | op.controls.inclusion_mask)))
        zero &= ~targets
    # a register of every wire (none left 0) past 2 * _SLICE stays in wire
    # order, which first-move order could only restore in a second state
    grow = psi0 is None and (zero != 0 or 1 << n <= 2 * _SLICE)
    # each slotted wire's slot, in slot order: every wire, or none yet
    slot_of = {} if grow else {w: w for w in range(n)}
    steps: list[tuple] = []
    for op, zero in kept:
        if zero is None:
            # a wire that no gate moved takes the next slot, and splits as 0
            slot = slot_of.setdefault(op.targets[0], len(slot_of))
            steps.append((None, (slot, 1 << len(slot_of))))
            del slot_of[op.targets[0]]
            slot_of = {w: s for s, w in enumerate(slot_of)}
            continue
        slots = tuple(slot_of.setdefault(w, len(slot_of)) for w in op.targets)
        # a wire not yet slotted reads 0 all over the register: a control of
        # the gate's own on it is an anticontrol, which always passes
        entries = [(slot_of[w], f) for w, f in op.controls.entries if w in slot_of]
        if zero and not grow:
            entries += [(s, False) for w, s in slot_of.items() if zero >> w & 1]
        plan = _placed(len(slot_of), _TEMPLATES[op.gate], slots, tuple(entries))
        steps.append((plan, 1 << len(slot_of) if grow else None))
    # a split's children are rows as wide as the register before the next
    # split, or at the end, the widest of the steps up to there
    if measured:
        widths = iter([at[1] for plan, at in steps if plan is None][1:] + [1 << len(slot_of)])
        steps = [(plan, at if plan is not None else (*at, next(widths))) for plan, at in steps]
    return steps, tuple(measured), {w: slot_of.get(w) for w in range(n)}


def _split(stack: np.ndarray, slot: int, width=None, rows=None, draws=None, residuals=True) -> tuple:
    """Split each row of a ``(B, 2**k)`` stack of states on wire ``slot``.

    ``stack`` may be the prefix view of wider rows.  Each row's ``Pr[0]``
    and ``Pr[1]`` are the sums of ``|row|**2`` over their own halves, and
    must add up to 1 (``check_unit_norms``); an outcome below ``PRUNE_EPS``
    is pruned.  Returns ``(nodes, bits, p, children, rows)``: child ``k``
    is outcome ``bits[k]`` of row ``nodes[k]``, of probability ``p[k]``,
    with the renormalized residual ``children[k]``, in order of ``2 * node
    + bit``.  A residual is written straight into the first ``2**(k-1)``
    amplitudes of a zeroed row ``width`` amplitudes wide, when ``width`` is
    given and wider.  With ``residuals`` false no residual is built, and
    ``children`` is None.

    With ``rows`` given, shot ``s`` sits at row ``rows[s]`` and takes
    outcome 1 when ``draws[s]`` is below that row's ``Pr[1]``.  A pruned
    outcome takes no shot and its sibling takes them all; only children
    that some shot takes are kept, and the returned ``rows`` index them.
    """
    b = stack.shape[0]
    halves = stack.reshape(b, -1, 2, 1 << slot)  # axis 2 is bit ``slot``
    p = np.empty((2, b))  # row ``bit`` holds each stacked row's Pr[bit]
    probs = np.abs(halves)  # rows are unit vectors, so no square overflows
    np.square(probs, out=probs)
    # one sum per outcome adds up each row exactly as on a lone state
    np.add.reduce(probs[:, :, 0, :], axis=(1, 2), out=p[0])
    np.add.reduce(probs[:, :, 1, :], axis=(1, 2), out=p[1])
    norms = p[0] + p[1]
    del probs
    check_unit_norms(stack, norms)
    p[p < PRUNE_EPS] = 0.0
    if rows is None:
        kept = p.T > 0.0
    else:
        # a pruned Pr[1] is 0 and takes no draw; every draw is below 1.0
        child = rows * 2
        child += draws < np.where(p[0] > 0.0, p[1], 1.0)[rows]
        kept = np.bincount(child, minlength=2 * b).reshape(b, 2) > 0
        rows = np.cumsum(kept)[child]
        rows -= 1
    nodes, bits = kept.nonzero()
    p = p[bits, nodes]
    if not residuals:
        return nodes, bits, p, None, rows
    residual = children = halves[nodes, :, bits, :]  # a fresh array
    half = stack.shape[1] // 2
    if width is not None and width > half:
        children = np.zeros((len(nodes), width), dtype=complex)
    # a view of the residuals' place in each row, in the shape of the halves
    out = children.reshape(len(nodes), -1)[:, :half].reshape(residual.shape)
    np.divide(residual, np.sqrt(p)[:, None, None], out=out)
    return nodes, bits, p, children.reshape(len(nodes), -1), rows


def _walk(low: Lowered, draws=None) -> tuple:
    """Run the steps of a lowering (:func:`_lower`) breadth-first over a
    stack of outcome prefixes.

    The walk starts from a fresh ``(1, W)`` stack: a copy of ``low.psi0``,
    or |00...0> in the register of the first split or else of the end,
    ``2**len(low.bits)`` amplitudes, 1 included.  It then holds one
    ``(B, W)`` stack with a row per live outcome prefix.  Each gate plan runs once, in place, on
    the prefix view ``stack[:, :size]`` of its rows: the whole rows when
    ``size`` is None, and on a register grown in first-move order the
    amplitudes it has grown to.  Each MEASURE splits the
    register's prefix of every row at once (:func:`_split`) into the next
    stack, of rows as wide as the step gives, in sorted outcome order, and
    frees the one before.  A walk that ends on a gate tests the norm of
    each row it ends on; a split's children are unit to rounding, since
    each row was tested before it split.

    Returns ``(outcomes, probs, stack, rows)``: leaf ``k`` has the outcome
    record ``outcomes[k]``, probability ``probs[k]`` and state ``stack[k]``.

    With ``draws`` None every non-pruned branch is followed and ``rows`` is
    None.  Otherwise shot ``s`` takes outcome 1 at the ``d``-th MEASURE
    when ``draws[s, d]`` is below its probability, a child that no shot
    takes is dropped, and ``rows[s]`` is the leaf that shot ``s`` reached.
    Only the rows are read then, so a walk that ends on a split builds no
    residuals there, and its ``stack`` is None.
    """
    if low.psi0 is None:
        width = next((at[1] for plan, at in low.steps if plan is None), 1 << len(low.bits))
        stack = np.zeros((1, width), dtype=complex)
        stack[0, 0] = 1.0
    else:
        stack = low.psi0[None].copy()
    outcomes = np.zeros((1, 0), dtype=np.intp)
    probs = np.ones(1)
    rows = None if draws is None else np.zeros(len(draws), dtype=np.intp)
    for i, (plan, at) in enumerate(low.steps):
        if plan is not None:
            # a prefix of the rows is a view of them, so the plan writes the
            # rows; a bound of None takes the whole rows
            _run_plan(plan, stack[:, :at])
            continue
        slot, size, next_width = at
        column = None if draws is None else draws[:, outcomes.shape[1]]
        # a sampler's last split hands on only its rows
        residuals = draws is None or i < len(low.steps) - 1
        nodes, bits, p, stack, rows = _split(stack[:, :size], slot, next_width, rows, column, residuals)
        outcomes = np.concatenate((outcomes[nodes], bits[:, None]), axis=1)
        probs = probs[nodes] * p
    if low.steps and low.steps[-1][0] is not None:
        check_unit_norms(stack, np.array([np.vdot(row, row).real for row in stack]))
    return outcomes, probs, stack, rows


class Lowered(NamedTuple):
    """What every runner reads of a compile: see :func:`_lower`."""

    steps: list  # the compile's steps
    measured: tuple[int, ...]  # the measured wires, in op order
    psi0: np.ndarray | None  # the start state as checked, or None for |00...0>
    kept: list[int]  # the unmeasured wires, in wire order
    bits: list[int]  # each register slot's bit in an index over ``kept``


def _lower(circuit, ops, psi0=None) -> Lowered:
    """Compile ``ops``, those of the checked ``circuit`` or a prefix of
    them, and check ``psi0`` once, for every runner, into one record that
    the runners read by field name.

    Every reader places slot ``s`` of the walk's register at bit
    ``bits[s]`` of an index over the unmeasured wires ``kept``: the rank in
    ``kept`` of the wire in slot ``s``, which with nothing measured is that
    wire.  ``run_circuit``, ``run_with_branches``, ``qwsim simulate`` and
    ``qwsim stats`` place a row's bits by this one list.
    """
    steps, measured, wire_map = compile_circuit(circuit.n, ops, psi0)
    if psi0 is not None:
        psi0 = check_unit_state(psi0, circuit.n)[0]
    kept = [w for w in wire_map if w not in measured]
    wires = sorted((w for w in kept if wire_map[w] is not None), key=wire_map.get)
    return Lowered(steps, measured, psi0, kept, [kept.index(w) for w in wires] if measured else wires)


def _scatter(rows: np.ndarray, bits: list, width: int) -> np.ndarray:
    """The ``(B, 2**width)`` states of the walk's ``(B, 2**k)`` rows, whose
    bit ``s`` lands at bit ``bits[s]``; every other bit reads 0.

    ``rows`` comes back as it is when ``bits`` is ``0, 1, ..., width - 1``.
    Otherwise the rows are scattered once into zeroed states, by one
    assignment from a transposed view, which moves no value.
    """
    if bits == list(range(width)):
        return rows
    b, k = len(rows), len(bits)
    full = np.zeros((b,) + (2,) * width, dtype=complex)
    # each bit's axis in the register's tensor, whose axis 1 + a holds slot
    # k - 1 - a, highest bit first; 0 for a bit off the register, which reads 0
    axis = [0] * width
    for s, bit in enumerate(bits):
        axis[width - 1 - bit] = k - s
    index = (_ALL, *[_ALL if a else 0 for a in axis])
    full[index] = rows.reshape((b,) + (2,) * k).transpose([0, *filter(None, axis)])
    return full.reshape(b, -1)


def _walk_register(circuit, psi0=None) -> tuple[np.ndarray, list[int]]:
    """Check a measurement-free circuit, compile it and walk its register.

    Returns ``(state, wires)``: the walk's one row of ``2**K`` amplitudes,
    whose norm the walk tests when a gate wrote it, and the register's K
    wires by slot, so bit ``s`` of a register index is wire ``wires[s]``.
    Every other wire is still |0> at the end.
    """
    circuit = check_circuit(circuit)
    for k, op in enumerate(circuit.ops):
        if op.gate == MEASURE:
            raise ContractError(f"op {k} ({op}) is a measurement; use the measurement module")
    low = _lower(circuit, circuit.ops, psi0)
    return _walk(low)[2][0], low.bits


def run_circuit(circuit, psi0=None) -> np.ndarray:
    """Run every gate of a measurement-free circuit over ``psi0``.

    ``psi0`` defaults to |00...0>.  A MEASURE is refused before anything
    is compiled.  The compiled plans run, by :func:`_walk`, in one working
    copy of ``psi0`` or of |00...0> on the register's K wires.  Unless that
    register is every wire in wire order, it is then scattered once into a
    zeroed state of all ``n`` wires, by one assignment from a transposed
    view of it, which also restores wire order to a register walked in
    first-move order.  The walk tests the run's norm before that scatter,
    which moves no value, so the test reads ``2**K`` amplitudes and a norm
    drift beyond ``STATE_ATOL``, which would mean a kernel bug, raises.
    The CLI reads the walk's rows as walked and skips the scatter.
    """
    state, wires = _walk_register(circuit, psi0)
    return _scatter(state[None], wires, circuit.n)[0]
