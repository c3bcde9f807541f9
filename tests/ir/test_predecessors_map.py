"""The IR's one predecessor query, and the walks that patch it.

``predecessors_map`` must list, for each block, exactly what a scan of
every block's successors finds: distinct predecessors in block order.
The CFG walks in ``simplify_cfg`` build the map once and patch it as
they reroute edges; after each walk the patched map must equal a fresh
one.
"""

from __future__ import annotations

import importlib

import pytest

import repro
from repro.analysis import predecessors_map as analysis_predecessors_map
from repro.frontend import compile_source
from repro.fuzz.generator import generate_program
from repro.ir import (
    BOOL,
    I64,
    VOID,
    Constant,
    Function,
    IRBuilder,
    predecessors_map,
)
from repro.workloads import workload_by_name

# The package re-exports the pass under the module's own name.
simplify_module = importlib.import_module("repro.transform.simplify_cfg")


def _scan(func: Function) -> dict:
    """Predecessors as a per-block scan of every successor list."""
    return {block: [b for b in func.blocks if block in b.successors()]
            for block in func.blocks}


def _diamond():
    func = Function("d", [BOOL], ["c"], VOID)
    entry, left, right, merge = (func.add_block(n) for n in
                                 ("entry", "left", "right", "merge"))
    IRBuilder(entry).condbr(func.args[0], left, right)
    IRBuilder(left).jump(merge)
    IRBuilder(right).jump(merge)
    IRBuilder(merge).ret()
    return func


def _loop():
    func = Function("l", [I64], ["n"], VOID)
    entry, header, body, exit_block = (func.add_block(n) for n in
                                       ("entry", "header", "body", "exit"))
    IRBuilder(entry).jump(header)
    b = IRBuilder(header)
    i = b.phi(I64, name="i")
    b.condbr(b.cmp("slt", i, func.args[0]), body, exit_block)
    b.set_block(body)
    step = b.add(i, Constant(I64, 1))
    b.jump(header)
    i.add_incoming(Constant(I64, 0), entry)
    i.add_incoming(step, body)
    IRBuilder(exit_block).ret()
    return func


def _both_arms_to_one_target():
    func = Function("t", [BOOL], ["c"], VOID)
    entry, target = func.add_block("entry"), func.add_block("target")
    IRBuilder(entry).condbr(func.args[0], target, target)
    IRBuilder(target).ret()
    return func


@pytest.mark.parametrize("build", [_diamond, _loop, _both_arms_to_one_target])
def test_map_equals_the_scan(build):
    func = build()
    assert predecessors_map(func) == _scan(func)


def test_analysis_reexports_the_ir_map():
    assert analysis_predecessors_map is predecessors_map


def test_paper_sources_match_the_scan():
    for app in ("cg", "fft", "lu"):
        module = compile_source(workload_by_name(app).source())
        repro.optimize_module(module)
        repro.generate_module_access_phases(module)
        for func in module.functions.values():
            assert predecessors_map(func) == _scan(func)


def test_patched_maps_equal_fresh_maps(monkeypatch):
    """Every map a simplify_cfg walk built, as it stands once the walk
    returns, equals a fresh scan: the edge edits were patched in."""
    built = []
    real_map = simplify_module.predecessors_map

    def recording_map(func):
        preds = real_map(func)
        built.append((func, preds))
        return preds

    walks = ("_merge_straightline_blocks", "_skip_forwarding_blocks")
    edits = dict.fromkeys(walks, 0)

    def checking(name, walk):
        def run(func):
            del built[:]
            count = walk(func)
            for owner, preds in built:
                assert preds == _scan(owner), name
            edits[name] += count
            return count
        return run

    monkeypatch.setattr(simplify_module, "predecessors_map", recording_map)
    for name in walks:
        monkeypatch.setattr(simplify_module, name,
                            checking(name, getattr(simplify_module, name)))
    for seed in range(40):
        module = compile_source(generate_program(seed).source)
        repro.optimize_module(module)
        repro.generate_module_access_phases(module)
    assert all(edits.values()), edits
