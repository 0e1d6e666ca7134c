"""Vectorized packed-trace replay: column-speed precompute, one exact spine.

:func:`replay_packed_vector` replays a :class:`~repro.sim.packed.PackedTrace`
on a :class:`~repro.sim.engine.TimingEngine` and produces
:class:`~repro.sim.engine.TimingStats` **bit-identical** to
``TimingEngine.run_packed`` — same integer counters, same event stream,
same :class:`~repro.insight.InsightCollector` feed. There is no
float-batching tolerance to document: every quantity the kernel computes
is integer arithmetic, so equality with the scalar replayer is exact,
not approximate (enforced by differential tests against ``run_packed``).

The replay splits into two halves:

* **timing-independent precompute**, vectorized over whole columns and
  held in a :class:`ReplayPrep` that the sweep owns: dependence columns
  decoded once into per-op tuples, :func:`span_lines` expands the
  icache line spans into the flat access stream, hit/miss outcomes per
  cache geometry come from saturating :func:`stack_distances` (cache
  behaviour is a pure function of the access *sequence*, and one
  traversal per ``(line_bytes, num_sets)`` group decides every
  associativity), per-unit fetch costs and effective op latencies with
  dcache-miss penalties folded in;
* **one exact serial timing spine per ISA**: :func:`_conv_window_pass`
  for the conventional ISA (op-window slots, the unit-checkpoint window,
  the FU busy table and in-order retirement carried inline) and
  :func:`_block_pass` for the block-structured ISA (the atomic-window
  release heap, the FU busy table and an O(1) closed form for atomic
  block retirement). Each spine models every resource the engine
  models on every run, so there is no optimistic pass to prove and no
  re-run when an assumption fails.

The spine's result is memoized in the prep under a content key — the
config fields it reads plus the content keys of its fetch and latency
preps — so sweep geometries whose per-unit miss vectors coincide share
one spine run. A memo entry (:class:`SpineRun`) keeps the scalars, the
per-unit lists only when insight or events read them, and the per-op
completion list only when events are emitted.

The prep lives as long as its owner keeps it: the experiment engine, a
pool worker and :func:`repro.sim.run.replay_sweep` each hold one per
trace group and drop it when the group ends; a replay handed none
builds a throwaway one. Nothing is cached on the trace itself.

Shapes the kernel does not model (malformed resolve indices, mixed
atomic/non-atomic block streams, conventional streams with atomic,
squashed, empty or over-window units) make :func:`replay_packed_vector`
return ``None`` and the caller falls back to the scalar replayer —
never silently wrong. Each decline counts in :data:`FALLBACKS` and, with
telemetry enabled, in ``sim.kernel_fallbacks{reason=...}``; each replay
the kernel serves counts in :data:`KERNEL_RUNS` and ``sim.kernel_runs``.

``numpy`` is optional everywhere: when absent ``HAVE_NUMPY`` is False,
:func:`replay_packed_vector` returns ``None``, and
:func:`repro.sim.run.replay_captured` keeps using the scalar loop (see
docs/performance.md).
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from repro.errors import SimulationError
from repro.obs.events import (
    EV_FAULT_SQUASH,
    EV_FETCH,
    EV_ICACHE_MISS,
    EV_REDIRECT,
    EV_RETIRE,
)
from repro.obs.telemetry import get_telemetry
from repro.sim.cache import PerfectCache
from repro.sim.packed import F_ATOMIC, F_MISPREDICT, F_SQUASHED, PackedTrace

try:  # pragma: no cover - exercised via the monkeypatched-import tests
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: True when the vectorized kernel can run at all.
HAVE_NUMPY = _np is not None

#: Replays served by the vectorized kernel (tests assert it actually ran).
KERNEL_RUNS = 0
#: Replays the kernel declined (unsupported shape / numpy absent); the
#: caller falls back to ``TimingEngine.run_packed``.
FALLBACKS = 0


# ---------------------------------------------------------------------------
# Primitives (property-tested against scalar references)
# ---------------------------------------------------------------------------


def span_lines(first, last):
    """Expand per-unit icache line spans ``[first, last]`` into the flat
    per-line access sequence the engine performs.

    Returns ``(flat, starts)``: ``flat`` holds every accessed line in
    stream order; unit *u* accesses ``flat[starts[u]:starts[u] +
    (last[u] - first[u] + 1)]``.
    """
    first = _np.asarray(first, dtype=_np.int64)
    last = _np.asarray(last, dtype=_np.int64)
    nlines = last - first + 1
    total = int(nlines.sum())
    starts = _np.cumsum(nlines) - nlines
    offsets = _np.arange(total, dtype=_np.int64) - _np.repeat(starts, nlines)
    return _np.repeat(first, nlines) + offsets, starts


def stack_distances(lines, num_sets, max_assoc):
    """Saturating Mattson stack distance per access for set-indexed LRU.

    ``dist[t]`` is the number of *distinct* same-set lines touched since
    the previous access to ``lines[t]`` (its depth in the per-set LRU
    stack), clipped at *max_assoc*; cold misses report *max_assoc*. The
    classic all-associativity property: access *t* hits an ``assoc``-way
    LRU cache **iff** ``dist[t] < assoc``, so ONE traversal decides the
    exact hit/miss vector for every associativity up to the saturation
    cap — a whole sweep's geometries sharing ``num_sets`` are priced by
    a single pass at the group's maximum associativity.

    Exactness of the clip: the truncated move-to-front stacks kept here
    are the top-``max_assoc`` prefix of the full LRU stacks (LRU stack
    inclusion), so positions below the cap are exact and anything
    deeper is correctly ≥ cap — a miss for every ``assoc <= max_assoc``.
    Consecutive accesses to the same line have distance 0 and never
    disturb LRU order, which removes ~30-55% of a real stream before
    the residual move-to-front pass.
    """
    lines = _np.asarray(lines, dtype=_np.int64)
    n = len(lines)
    dist = _np.zeros(n, dtype=_np.int64)
    if n == 0:
        return dist
    keep = _np.empty(n, dtype=bool)
    keep[0] = True
    _np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    idx = _np.flatnonzero(keep)
    dist[idx] = _mtf_distances(lines[idx].tolist(), num_sets, int(max_assoc))
    return dist


def _mtf_distances(sub, num_sets, cap):
    """The residual move-to-front pass over a deduplicated stream."""
    out = [cap] * len(sub)
    sets: dict = {}
    for k, line in enumerate(sub):
        s = line % num_sets
        ways = sets.get(s)
        if ways is None:
            sets[s] = [line]
            continue
        try:
            depth = ways.index(line)
        except ValueError:
            if len(ways) >= cap:
                ways.pop()
        else:
            out[k] = depth
            del ways[depth]
        ways.insert(0, line)
    return out


def lru_hits_listwise(lines, num_sets, assoc):
    """The original per-geometry move-to-front LRU pass.

    Kept as the property-test oracle for :func:`stack_distances`
    (tests/test_vector_kernel.py cross-checks both against the real
    :class:`~repro.sim.cache.Cache`). Not used on any replay path.
    """
    lines = _np.asarray(lines, dtype=_np.int64)
    n = len(lines)
    hits = _np.zeros(n, dtype=bool)
    if n == 0:
        return hits
    keep = _np.empty(n, dtype=bool)
    keep[0] = True
    _np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    hits[~keep] = True  # consecutive duplicates always hit
    idx = _np.flatnonzero(keep)
    sub = lines[idx].tolist()
    out = [False] * len(sub)
    sets: dict = {}
    for k, line in enumerate(sub):
        s = line % num_sets
        ways = sets.get(s)
        if ways is None:
            ways = sets[s] = []
        try:
            ways.remove(line)
        except ValueError:
            if len(ways) >= assoc:
                ways.pop()
        else:
            out[k] = True
        ways.insert(0, line)
    hits[idx] = out
    return hits


# ---------------------------------------------------------------------------
# Per-trace / per-geometry precompute (held by the sweep's ReplayPrep)
# ---------------------------------------------------------------------------


class ReplayPrep:
    """The kernel's precompute for one trace, owned by one sweep.

    ``memo`` holds the config-independent column decodings, the
    per-geometry cache-outcome vectors and the fetch/latency preps;
    ``runs`` is the content-keyed spine memo of :class:`SpineRun`
    entries. The prep is bound to the trace it was built for: handing
    it to a replay of any other trace raises :class:`SimulationError`,
    so a memo can never answer for the wrong trace.
    """

    __slots__ = ("trace", "memo", "runs")

    def __init__(self, trace: PackedTrace):
        self.trace = trace
        self.memo: dict = {}
        self.runs: dict = {}

    def check(self, trace: PackedTrace) -> "ReplayPrep":
        """This prep, if it was built for *trace*; raises otherwise."""
        if trace is not self.trace:
            raise SimulationError(
                "replay prep was built for another trace; build one "
                "ReplayPrep per trace"
            )
        return self


def _bound(prep: ReplayPrep | None, trace: PackedTrace) -> ReplayPrep:
    """*prep* checked against *trace*, or a throwaway prep for it."""
    return ReplayPrep(trace) if prep is None else prep.check(trace)


class SpineRun(NamedTuple):
    """One memoized spine result: only what a later replay reads.

    ``completes`` (per op) and ``unit_retire_l`` (per unit) are kept
    only when events are emitted; ``gap_l``/``wd_l`` (per unit) only
    when insight or events read them. Otherwise they are ``None``.
    """

    completes: list | None
    unit_retire_l: list | None
    wstall: int
    rstall: int
    next_fetch: int
    max_cycle: int
    gap_l: list | None
    wd_l: list | None


def _base_prep(rp: ReplayPrep) -> dict:
    """Config-independent column decodings, cached in *rp*."""
    prep = rp.memo.get("base")
    if prep is not None:
        return prep
    trace = rp.trace
    n = trace.num_ops
    uos = _np.frombuffer(trace.unit_op_start, dtype=_np.int64)
    uflags = _np.frombuffer(trace.unit_flags, dtype=_np.uint8)
    resolve = _np.frombuffer(trace.unit_resolve, dtype=_np.int64)
    lat = _np.frombuffer(trace.op_lat, dtype=_np.int64)
    mem = _np.frombuffer(trace.op_mem, dtype=_np.int64)
    oflags = _np.frombuffer(trace.op_flags, dtype=_np.uint8)
    dep_start = _np.frombuffer(trace.op_dep_start, dtype=_np.int64)
    dep_col = _np.frombuffer(trace.deps, dtype=_np.int64)

    squashed = (uflags & F_SQUASHED) != 0
    mispredict = (uflags & F_MISPREDICT) != 0
    atomic = (uflags & F_ATOMIC) != 0
    nops = _np.diff(uos)

    dep_count = _np.diff(dep_start)
    dbase = dep_start[:-1]

    def nth_dep(k):
        out = _np.full(n, -1, dtype=_np.int64)
        mask = dep_count > k
        out[mask] = dep_col[dbase[mask] + k]
        return out

    # The spine's per-op record: up to three producers plus the base
    # latency in one tuple — a single list index in the hot loop.
    ops = list(
        zip(
            nth_dep(0).tolist(),
            nth_dep(1).tolist(),
            nth_dep(2).tolist(),
            lat.tolist(),
        )
    )
    extras = {
        int(i): dep_col[dbase[i] + 3:dep_start[i + 1]].tolist()
        for i in _np.flatnonzero(dep_count > 3)
    }
    dmask = mem >= 0
    prep = {
        "uos_l": uos.tolist(),
        "nops": nops,
        "squashed": squashed,
        "mispredict": mispredict,
        "atomic": atomic,
        "sq_l": squashed.tolist(),
        "mis_l": mispredict.tolist(),
        "at_l": atomic.tolist(),
        "res_l": resolve.tolist(),
        "resolve": resolve,
        "ops": ops,
        "extras": extras,
        "dmask": dmask,
        "dacc": int(dmask.sum()),
        "dmem": mem[dmask],
        "dload": (oflags[dmask] & 1) != 0,
        "redirects": int((squashed | mispredict).sum()),
        "squashed_ops": int(nops[squashed].sum()),
    }
    rp.memo["base"] = prep
    return prep


def _geom_distances(rp, kind, lines, line_bytes, num_sets, assoc):
    """Saturating stack distances for one access stream, cached in *rp*.

    Keyed by ``(kind, line_bytes, num_sets)`` only — NOT by
    associativity — because a distance vector saturated at cap ``C``
    decides hits exactly for every ``assoc <= C`` (``dist < assoc``).
    A sweep whose geometries share a set count therefore pays one
    traversal at the group's maximum associativity; later requests with
    a larger associativity recompute and widen the cached cap.

    When the whole run's busiest set holds at most ``floor`` distinct
    lines and ``floor <= assoc``, LRU never evicts: every miss is a
    cold first reference and every warm access sits at depth
    ``< floor``. The cached vector is then synthesized vectorized
    (``cap`` for first references, ``floor - 1`` otherwise) instead of
    walked — classification-exact for any associativity in
    ``[floor, cap]``, which the cached ``floor`` records so a smaller
    associativity recomputes via the move-to-front walk.
    """
    key = (kind, line_bytes, num_sets)
    cached = rp.memo.get(key)
    if cached is None or cached[1] < assoc or cached[2] > assoc:
        idx, sub, n, sub_arr = _dedup_stream(rp, kind, lines, line_bytes)
        cap = int(assoc)
        dist = _np.zeros(n, dtype=_np.int64)
        floor = 0
        if n:
            uniq = _np.unique(sub_arr)
            floor = int(_np.bincount(uniq % num_sets).max())
            if floor <= cap:
                order = _np.argsort(sub_arr, kind="stable")
                sv = sub_arr[order]
                lead = _np.empty(len(sv), dtype=bool)
                lead[0] = True
                _np.not_equal(sv[1:], sv[:-1], out=lead[1:])
                first = _np.zeros(len(sub_arr), dtype=bool)
                first[order[lead]] = True
                dist[idx] = _np.where(first, cap, floor - 1)
            else:
                floor = 0
                dist[idx] = _mtf_distances(sub, num_sets, cap)
        cached = (dist, cap, floor)
        rp.memo[key] = cached
    return cached[0]


def _dedup_stream(rp, kind, lines, line_bytes):
    """Consecutive-duplicate dedup of one access stream, cached in
    *rp*. Duplicates always hit at stack depth 0 whatever the set
    count, so only the deduplicated stream needs the move-to-front
    walk — and every set count in a sweep shares this one dedup."""
    key = (kind, line_bytes, "dedup")
    cached = rp.memo.get(key)
    if cached is None:
        lines = _np.asarray(lines, dtype=_np.int64)
        n = len(lines)
        if n == 0:
            cached = (None, [], 0, None)
        else:
            keep = _np.empty(n, dtype=bool)
            keep[0] = True
            _np.not_equal(lines[1:], lines[:-1], out=keep[1:])
            idx = _np.flatnonzero(keep)
            sub_arr = lines[idx]
            cached = (idx, sub_arr.tolist(), n, sub_arr)
        rp.memo[key] = cached
    return cached


def _icache_spans(rp, line_bytes):
    """Per-unit first/last line spans, shared by every icache geometry."""
    key = ("icspan", line_bytes)
    prep = rp.memo.get(key)
    if prep is None:
        first, last = rp.trace.line_spans(line_bytes)
        first = _np.frombuffer(first, dtype=_np.int64)
        last = _np.frombuffer(last, dtype=_np.int64)
        nlines = last - first + 1
        prep = (first, last, nlines, int(nlines.sum()))
        rp.memo[key] = prep
    return prep


def _icache_flat(rp, line_bytes):
    """Flat line-access stream + span starts, shared across geometries."""
    key = ("icflat", line_bytes)
    prep = rp.memo.get(key)
    if prep is None:
        first, last, _, _ = _icache_spans(rp, line_bytes)
        prep = span_lines(first, last)
        rp.memo[key] = prep
    return prep


def _icache_prep(rp, cache, line_bytes, want_flat):
    """Per-unit icache access counts and miss outcomes for a geometry."""
    perfect = isinstance(cache, PerfectCache)
    key = (
        ("ic", line_bytes)
        if perfect
        else ("ic", line_bytes, cache.num_sets, cache.config.assoc)
    )
    prep = rp.memo.get(key)
    if prep is None:
        first, last, nlines, accesses = _icache_spans(rp, line_bytes)
        prep = {
            "first": first,
            "last": last,
            "nlines": nlines,
            "accesses": accesses,
        }
        if perfect:
            prep["unit_miss"] = _np.zeros(len(nlines), dtype=_np.int64)
            prep["misses"] = 0
        else:
            flat, starts = _icache_flat(rp, line_bytes)
            assoc = cache.config.assoc
            dist = _geom_distances(
                rp, "icdist", flat, line_bytes, cache.num_sets, assoc
            )
            miss = dist >= assoc
            prep["flat"] = flat
            prep["starts"] = starts
            prep["miss_flags"] = miss
            prep["unit_miss"] = (
                _np.add.reduceat(miss.astype(_np.int64), starts)
                if len(flat)
                else _np.zeros(len(nlines), dtype=_np.int64)
            )
            prep["misses"] = int(miss.sum())
        # Content key for fetch-prep / spine sharing across geometries
        # with identical per-unit miss counts (see _fetch_prep).
        prep["miss_key"] = prep["unit_miss"].tobytes()
        rp.memo[key] = prep
    if want_flat and "flat" not in prep:
        flat, starts = _icache_flat(rp, line_bytes)
        prep["flat"] = flat
        prep["starts"] = starts
        prep["miss_flags"] = _np.zeros(len(flat), dtype=bool)
    return prep


def _dcache_prep(rp, base, cache, line_bytes):
    """Dcache miss outcomes (and which loads miss) for one geometry."""
    perfect = isinstance(cache, PerfectCache)
    key = (
        ("dc",)
        if perfect
        else ("dc", line_bytes, cache.num_sets, cache.config.assoc)
    )
    prep = rp.memo.get(key)
    if prep is None:
        if perfect:
            prep = {"misses": 0, "miss_load_idx": ()}
        else:
            dlines = base["dmem"] // line_bytes
            assoc = cache.config.assoc
            dist = _geom_distances(
                rp, "dcdist", dlines, line_bytes, cache.num_sets, assoc
            )
            miss = dist >= assoc
            miss_load = _np.zeros(rp.trace.num_ops, dtype=bool)
            miss_load[base["dmask"]] = miss & base["dload"]
            prep = {
                "misses": int(miss.sum()),
                "miss_load_idx": tuple(
                    int(i) for i in _np.flatnonzero(miss_load)
                ),
            }
        rp.memo[key] = prep
    return prep


def prepare_sweep(
    trace: PackedTrace, configs, prep: ReplayPrep | None = None
) -> int:
    """One-pass multi-geometry precompute for a config sweep.

    Groups the sweep's icache and dcache geometries by
    ``(line_bytes, num_sets)`` and runs ONE saturating stack-distance
    traversal per group at the group's maximum associativity, filling
    *prep* (the caller's :class:`ReplayPrep` for *trace*) so every
    subsequent :func:`replay_packed_vector` call handed the same prep
    derives its hit/miss vectors by a vectorized comparison instead of
    re-walking the access stream. Also fills the shared
    config-independent preps (base columns, line spans).

    It only precomputes: a filled prep replays through the same spine
    as a cold one, so the results cannot depend on whether it ran.

    Returns the number of geometry groups traversed (0 when numpy is
    unavailable — the scalar fallback has no shared precompute).
    """
    rp = _bound(prep, trace)
    if _np is None:
        return 0
    base = _base_prep(rp)
    ic_groups: dict = {}
    dc_groups: dict = {}
    for config in configs:
        ic = config.icache
        if ic is not None:
            k = (ic.line_bytes, ic.num_sets)
            ic_groups[k] = max(ic_groups.get(k, 0), ic.assoc)
        dc = config.dcache
        if dc is not None:
            k = (dc.line_bytes, dc.num_sets)
            dc_groups[k] = max(dc_groups.get(k, 0), dc.assoc)
    for (line_bytes, num_sets), assoc in ic_groups.items():
        flat, _ = _icache_flat(rp, line_bytes)
        _geom_distances(rp, "icdist", flat, line_bytes, num_sets, assoc)
    for (line_bytes, num_sets), assoc in dc_groups.items():
        dlines = base["dmem"] // line_bytes
        _geom_distances(rp, "dcdist", dlines, line_bytes, num_sets, assoc)
    return len(ic_groups) + len(dc_groups)


def _fetch_prep(rp, ic, line_bytes, l2, fetch_lines):
    """Per-unit fetch-cycle counts and stalls for (geometry, l2, width).

    Keyed by the geometry's per-unit miss *content* — not its identity —
    so sweep geometries whose miss vectors coincide (e.g. every size a
    benchmark's code fits in sees the same compulsory misses) share one
    prep dict, and through its ``key`` one memoized timing spine: the
    same line size (hence the same per-unit line counts) and identical
    per-unit miss counts mean identical fetch schedules, hence identical
    replay timing, by construction.
    """
    key = ("fetch", line_bytes, l2, fetch_lines, ic["miss_key"])
    prep = rp.memo.get(key)
    if prep is None:
        nlines = ic["nlines"]
        fc = (nlines + fetch_lines - 1) // fetch_lines
        stall = _np.where(ic["unit_miss"] > 0, l2, 0)
        adv = fc - 1 + stall  # fetch_end - fetch, per unit
        prep = {
            "key": key,
            "fc_l": fc.tolist(),
            "stall_l": stall.tolist(),
            "adv_l": adv.tolist(),
            "fetch_stall": int(stall.sum() + (fc - 1).sum()),
        }
        rp.memo[key] = prep
    return prep


def _lat_prep(rp, base, dc, l2):
    """Spine op tuples with dcache-miss l2 folded into the latencies."""
    key = ("lat", l2, dc["miss_load_idx"])
    prep = rp.memo.get(key)
    if prep is None:
        ops = base["ops"]
        if dc["miss_load_idx"]:
            ops = list(ops)
            for i in dc["miss_load_idx"]:
                p1, p2, p3, lt = ops[i]
                ops[i] = (p1, p2, p3, lt + l2)
        prep = {"key": key, "ops": ops}
        rp.memo[key] = prep
    return prep


# ---------------------------------------------------------------------------
# The replay kernel
# ---------------------------------------------------------------------------


#: the ``isa`` label of the spine counters, by ``engine.atomic_window``
_ISA = {False: "conventional", True: "block"}


def _decline(tel, reason):
    """Count one replay handed back to the scalar path; returns None."""
    global FALLBACKS
    FALLBACKS += 1
    tel.count("sim.kernel_fallbacks", reason=reason)
    return None


def replay_packed_vector(
    engine, trace: PackedTrace, prep: ReplayPrep | None = None
):
    """Replay *trace* on *engine* at column speed.

    *prep* is the caller's :class:`ReplayPrep` for *trace*, shared
    across a sweep's replays (a prep built for another trace raises
    :class:`SimulationError`); without one the replay builds a
    throwaway prep.

    On success: fills ``engine.stats``, mirrors cache counters onto
    ``engine.icache``/``engine.dcache``, feeds the engine's insight
    collector and telemetry event trace exactly as ``run_packed`` would,
    and returns the stats object. Returns ``None`` when the kernel
    cannot guarantee bit-exactness for this trace/config shape — the
    caller must then run ``engine.run_packed`` on the (untouched)
    engine. Each decline is counted under one reason: ``no_numpy``,
    ``bad_resolve``, ``mixed_atomic`` or ``conventional_shape``.
    """
    global KERNEL_RUNS
    rp = _bound(prep, trace)
    tel = engine.telemetry if engine.telemetry is not None else get_telemetry()
    if _np is None:
        return _decline(tel, "no_numpy")

    config = engine.config
    atomic_window = engine.atomic_window
    events = tel.trace if tel.enabled else None
    ins = engine.insight
    stats = engine.stats

    nu = trace.num_units
    if nu == 0:
        stats.cycles = 1
        if ins is not None:
            ins.finish(1, 0)
        KERNEL_RUNS += 1
        tel.count("sim.kernel_runs")
        return stats

    base = _base_prep(rp)
    squashed = base["squashed"]
    mispredict = base["mispredict"]
    atomic = base["atomic"]
    nops_v = base["nops"]
    resolve = base["resolve"]

    # Shapes the kernel does not model: fall back (exactness first).
    flagged = squashed | mispredict
    if bool(_np.any(flagged & ((resolve < 0) | (resolve >= nops_v)))):
        return _decline(tel, "bad_resolve")  # the scalar path raises
    if atomic_window:
        if bool(_np.any(~atomic & ~squashed)):
            return _decline(tel, "mixed_atomic")
    elif (
        bool(_np.any(atomic | squashed))
        or bool(_np.any(nops_v == 0))
        or int(nops_v.max()) > config.window_ops
    ):
        return _decline(tel, "conventional_shape")

    line_bytes = (
        config.icache.line_bytes if config.icache is not None else 64
    )
    dline_bytes = (
        config.dcache.line_bytes if config.dcache is not None else 64
    )
    l2 = config.l2_latency
    need_events = events is not None
    need_aux = need_events or ins is not None
    ic = _icache_prep(rp, engine.icache, line_bytes, need_events)
    dc = _dcache_prep(rp, base, engine.dcache, dline_bytes)
    fetch = _fetch_prep(rp, ic, line_bytes, l2, config.fetch_lines)
    lat = _lat_prep(rp, base, dc, l2)

    # Spine memo: the config fields the spine reads plus the content
    # keys of the fetch/lat preps (per-unit miss bytes, dcache miss-load
    # indices), so sweep geometries whose miss vectors coincide share
    # one spine run outright.
    run_key = (
        atomic_window, need_aux, need_events,
        config.fu_count, config.window_ops, config.window_blocks,
        config.retire_width, config.frontend_depth,
        config.mispredict_penalty, fetch["key"], lat["key"],
    )
    run = rp.runs.get(run_key)
    if run is None:
        spine = _block_pass if atomic_window else _conv_window_pass
        run = rp.runs[run_key] = spine(
            base, fetch, lat, config, need_aux, need_events
        )
        if tel.enabled:
            tel.count("sim.spine_runs", isa=_ISA[atomic_window])
    elif tel.enabled:
        tel.count("sim.spine_memo_hits", isa=_ISA[atomic_window])
    (completes, unit_retire_l, wstall, rstall, next_fetch, max_cycle,
     gap_l, wd_l) = run

    n = trace.num_ops
    sq_ops = base["squashed_ops"]
    unit0 = stats.fetched_units  # events number units from prior state
    stats.fetched_units += nu
    stats.fetched_ops += n
    stats.retired_ops += n - sq_ops
    stats.squashed_ops += sq_ops
    stats.redirects += base["redirects"]
    stats.icache_accesses += ic["accesses"]
    stats.icache_misses += ic["misses"]
    stats.dcache_accesses += base["dacc"]
    stats.dcache_misses += dc["misses"]
    stats.fetch_stall_cycles += fetch["fetch_stall"]
    stats.window_stall_cycles += wstall
    stats.redirect_stall_cycles += rstall
    stats.cycles = max_cycle + 1
    engine.icache.accesses += ic["accesses"]
    engine.icache.misses += ic["misses"]
    engine.dcache.accesses += base["dacc"]
    engine.dcache.misses += dc["misses"]

    if ins is not None:
        unit = ins.unit
        fc_l = fetch["fc_l"]
        stall_l = fetch["stall_l"]
        nops_l = nops_v.tolist()
        sq_l = base["sq_l"]
        mis_l = base["mis_l"]
        for u in range(nu):
            unit(gap_l[u], fc_l[u], stall_l[u], nops_l[u], wd_l[u],
                 sq_l[u], mis_l[u])
        ins.finish(stats.cycles, next_fetch)
    if need_events:
        _emit_events(
            config, trace, base, ic, fetch, completes, unit_retire_l,
            gap_l, events, unit0,
        )
    KERNEL_RUNS += 1
    tel.count("sim.kernel_runs")
    return stats


# ---------------------------------------------------------------------------
# Conventional-ISA spine
# ---------------------------------------------------------------------------


def _conv_window_pass(base, fetch, lat, config, need_aux, need_events):
    """Exact serial conventional spine: op-window slots, the
    unit-checkpoint window, the FU busy table and in-order retirement
    carried inline.

    Returns a :class:`SpineRun`; ``gap_l``/``wd_l`` are ``None`` unless
    *need_aux*, ``completes``/``unit_retire_l`` unless *need_events*.
    """
    uos_l = base["uos_l"]
    adv_l = fetch["adv_l"]
    mis_l = base["mis_l"]
    res_l = base["res_l"]
    ops = lat["ops"]
    extras = base["extras"]
    ex_get = extras.get
    has_ex = bool(extras)
    depth = config.frontend_depth
    penalty = config.mispredict_penalty
    cap_ops = config.window_ops
    cap_units = config.window_blocks
    width = config.retire_width
    fu_count = config.fu_count
    nu = len(uos_l) - 1
    c = [0] * uos_l[-1]
    # Zero-padded FIFO views of the window heaps: every pushed release
    # is a retire cycle (monotone non-decreasing here), so heap-pop
    # order equals push order and the pop before op g / unit u reads
    # exactly element g - cap_ops / u - cap_units (zeros never gate).
    op_release = [0] * cap_ops
    ora = op_release.append
    unit_release = [0] * cap_units
    ur_append = unit_release.append
    gap_l = [0] * nu if need_aux else None
    wd_l = [0] * nu if need_aux else None
    nf = 0
    ra = 0
    rstall = 0
    wstall = 0
    rc = 0  # retire cycle
    rcnt = 0  # ops retired at rc
    # Busy FUs per cycle, list-indexed (cheaper than a dict in the hot
    # loop); grown on demand.
    fu = [0] * 4096
    fulen = 4096
    for u in range(nu):
        lo = uos_l[u]
        hi = uos_l[u + 1]
        if ra > nf:
            if need_aux:
                gap_l[u] = ra - nf
            rstall += ra - nf
            f0 = ra
        else:
            f0 = nf
        fe = f0 + adv_l[u]
        nf = fe + 1
        d = fe + depth
        rel = unit_release[u]
        if rel > d:
            wstall += rel - d
            d = rel
        for i in range(lo, hi):
            v = op_release[i]
            if v > d:
                d = v
            p1, p2, p3, lt = ops[i]
            ready = d + 1
            if p1 >= 0:
                t = c[p1]
                if t > ready:
                    ready = t
                if p2 >= 0:
                    t = c[p2]
                    if t > ready:
                        ready = t
                    if p3 >= 0:
                        t = c[p3]
                        if t > ready:
                            ready = t
                        if has_ex:
                            e = ex_get(i)
                            if e is not None:
                                for q in e:
                                    t = c[q]
                                    if t > ready:
                                        ready = t
            if ready >= fulen:
                fu += [0] * (ready - fulen + 4096)
                fulen = ready + 4096
            busy = fu[ready]
            while busy >= fu_count:
                ready += 1
                if ready >= fulen:
                    fu += [0] * 4096
                    fulen += 4096
                busy = fu[ready]
            fu[ready] = busy + 1
            ci = ready + lt
            c[i] = ci
            if ci >= rc:
                rc = ci + 1
                rcnt = 1
            elif rcnt >= width:
                rc += 1
                rcnt = 1
            else:
                rcnt += 1
            ora(rc)
        if mis_l[u]:
            ra = c[lo + res_l[u]] + 1 + penalty
        if need_aux:
            wd_l[u] = d - fe - depth
        ur_append(rc)
    return SpineRun(
        c if need_events else None,
        unit_release[cap_units:] if need_events else None,
        wstall, rstall, nf, max(rc, nf - 1), gap_l, wd_l,
    )


# ---------------------------------------------------------------------------
# Block-structured spine (atomic window)
# ---------------------------------------------------------------------------


def _block_pass(base, fetch, lat, config, need_aux, need_events):
    """Exact serial block-structured spine: a real (tiny) release heap
    per unit, the FU busy table and O(1) closed-form block retirement.
    Returns a :class:`SpineRun` like :func:`_conv_window_pass`."""
    uos_l = base["uos_l"]
    adv_l = fetch["adv_l"]
    sq_l = base["sq_l"]
    mis_l = base["mis_l"]
    res_l = base["res_l"]
    ops = lat["ops"]
    extras = base["extras"]
    ex_get = extras.get
    has_ex = bool(extras)
    depth = config.frontend_depth
    penalty = config.mispredict_penalty
    cap = config.window_blocks
    width = config.retire_width
    fu_count = config.fu_count
    nu = len(uos_l) - 1
    c = [0] * uos_l[-1]
    # Real min-heap: squash releases are not monotone with retire
    # cycles, so FIFO order is not guaranteed here (unlike the
    # conventional windows).
    window: list = []
    wsize = 0
    hpush = heapq.heappush
    hpop = heapq.heappop
    rc = 0  # retire cycle
    rcnt = 0  # ops already retired at rc
    fu = [0] * 4096
    fulen = 4096
    maxrel = 0
    nf = 0
    ra = 0
    lnf = 0  # next_fetch after the last non-squashed unit
    rstall = 0
    wstall = 0
    rc_l = [0] * nu if need_events else None
    gap_l = [0] * nu if need_aux else None
    wd_l = [0] * nu if need_aux else None
    for u in range(nu):
        lo = uos_l[u]
        hi = uos_l[u + 1]
        if ra > nf:
            if need_aux:
                gap_l[u] = ra - nf
            rstall += ra - nf
            f0 = ra
        else:
            f0 = nf
        fe = f0 + adv_l[u]
        nf = fe + 1
        d0 = fe + depth
        if wsize >= cap:
            rel = hpop(window)
            if rel > d0:
                wstall += rel - d0
                d0 = rel
        else:
            wsize += 1
        if need_aux:
            wd_l[u] = d0 - fe - depth
        d01 = d0 + 1
        bl = 0
        for i in range(lo, hi):
            p1, p2, p3, lt = ops[i]
            ready = d01
            if p1 >= 0:
                t = c[p1]
                if t > ready:
                    ready = t
                if p2 >= 0:
                    t = c[p2]
                    if t > ready:
                        ready = t
                    if p3 >= 0:
                        t = c[p3]
                        if t > ready:
                            ready = t
                        if has_ex:
                            e = ex_get(i)
                            if e is not None:
                                for q in e:
                                    t = c[q]
                                    if t > ready:
                                        ready = t
            if ready >= fulen:
                fu += [0] * (ready - fulen + 4096)
                fulen = ready + 4096
            busy = fu[ready]
            while busy >= fu_count:
                ready += 1
                if ready >= fulen:
                    fu += [0] * 4096
                    fulen += 4096
                busy = fu[ready]
            fu[ready] = busy + 1
            ci = ready + lt
            c[i] = ci
            if ci > bl:
                bl = ci
        if sq_l[u]:
            release = c[lo + res_l[u]] + 1
            ra = release
            hpush(window, release)
            if release > maxrel:
                maxrel = release
            if need_events:
                rc_l[u] = rc
            continue
        if mis_l[u]:
            ra = c[lo + res_l[u]] + 1 + penalty
        k = hi - lo
        if k:
            # O(1) closed form of the engine's per-op atomic retire
            # loop: all k ops become eligible at block_done and drain
            # `width` per cycle from the current (rc, rcnt) state.
            block_done = bl + 1
            if block_done > rc:
                q = (k - 1) // width
                rc = block_done + q
                rcnt = k - width * q
            else:
                free = width - rcnt
                if k <= free:
                    rcnt += k
                else:
                    k2 = k - free
                    q = (k2 - 1) // width
                    rc += 1 + q
                    rcnt = k2 - width * q
        hpush(window, rc)
        lnf = nf
        if need_events:
            rc_l[u] = rc
    max_cycle = rc
    if maxrel > max_cycle:
        max_cycle = maxrel
    if lnf - 1 > max_cycle:
        max_cycle = lnf - 1
    return SpineRun(
        c if need_events else None, rc_l,
        wstall, rstall, nf, max_cycle, gap_l, wd_l,
    )


# ---------------------------------------------------------------------------
# Post-hoc event emission (telemetry-on replays)
# ---------------------------------------------------------------------------


def _emit_events(config, trace, base, ic, fetch, completes, unit_retire_l,
                 gap_l, events, unit0):
    """Emit the engine's event stream in its exact order: per unit, the
    icache misses of its lines, the fetch, then squash OR (optional
    redirect and) retire."""
    emit = events.emit
    uos_l = base["uos_l"]
    adv_l = fetch["adv_l"]
    sq_l = base["sq_l"]
    mis_l = base["mis_l"]
    at_l = base["at_l"]
    res_l = base["res_l"]
    addr_l = base.get("addr_l")
    if addr_l is None:
        addr_l = base["addr_l"] = _np.frombuffer(
            trace.unit_addr, dtype=_np.int64
        ).tolist()
    nlines_l = ic["nlines"].tolist()
    starts_l = ic["starts"].tolist() if "starts" in ic else None
    flat_l = ic["flat"].tolist() if "flat" in ic else None
    miss_l = ic["miss_flags"].tolist() if "miss_flags" in ic else None
    any_miss = ic["misses"] > 0
    penalty = config.mispredict_penalty
    nf = 0
    for u in range(len(uos_l) - 1):
        uid = unit0 + u + 1
        f0 = nf + gap_l[u]
        nf = f0 + adv_l[u] + 1
        lo = uos_l[u]
        hi = uos_l[u + 1]
        k = hi - lo
        addr = addr_l[u]
        if any_miss:
            s = starts_l[u]
            for j in range(s, s + nlines_l[u]):
                if miss_l[j]:
                    emit(EV_ICACHE_MISS, f0, line=flat_l[j])
        emit(EV_FETCH, f0, addr=addr, ops=k, lines=nlines_l[u], unit=uid)
        if sq_l[u]:
            emit(
                EV_FAULT_SQUASH,
                completes[lo + res_l[u]] + 1,
                addr=addr,
                ops=k,
                unit=uid,
            )
            continue
        if mis_l[u]:
            emit(
                EV_REDIRECT,
                completes[lo + res_l[u]] + 1 + penalty,
                addr=addr,
                penalty=penalty,
                unit=uid,
            )
        emit(
            EV_RETIRE,
            unit_retire_l[u],
            addr=addr,
            ops=k,
            atomic=at_l[u],
            unit=uid,
        )
