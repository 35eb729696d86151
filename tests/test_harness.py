"""Simulated-network determinism, cost-model orderings, and exact counters."""

import ast
import importlib.util
import pathlib

import pytest

from sshaf import persist
from sshaf.harness.scenarios import (
    PASSWORD,
    TABLE1_ROWS,
    TABLE2_ROWS,
    UID,
    build_cost_table,
    cost_table_to_csv,
    run_scenario,
    seeded_gateway,
)
from sshaf.harness.simnet import LINK_INTERNET, LINK_LOCAL, SimConfig, SimLink

CONFIG = SimConfig(seed=b"\x42" * 32)

# The option counter lives in the paired benchmark tool, which reports it.
TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py"
_spec = importlib.util.spec_from_file_location("paired_bench", TOOL)
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)


def test_same_seed_gives_identical_reports():
    _, r1 = run_scenario(SimConfig(seed=b"\x42" * 32), "mht", ["bluetooth"], LINK_LOCAL)
    _, r2 = run_scenario(SimConfig(seed=b"\x42" * 32), "mht", ["bluetooth"], LINK_LOCAL)
    assert r1 == r2


@pytest.mark.parametrize("scheme", ["mht", "dors", "dhs"])
def test_the_scenario_world_depends_on_its_seed(scheme):
    """The reports are seed-free, but the world behind them is not: another
    seed gives another master secret and another session key, and the same
    seed gives the same key and the same persisted gateway."""

    def world(seed):
        gw = seeded_gateway(seed, "scenario:x", scheme)
        keys = gw.run_scheme(scheme, UID, PASSWORD, SimLink(LINK_LOCAL))
        return gw, keys

    (gw1, keys1), (gw2, keys2) = world(b"\x42" * 32), world(b"\x43" * 32)
    assert gw1.master_secret != gw2.master_secret
    assert keys1 != keys2
    gw3, keys3 = world(b"\x42" * 32)
    assert keys3 == keys1
    assert persist.dumps(persist.gateway_state_to_dict(gw3)) == persist.dumps(
        persist.gateway_state_to_dict(gw1)
    )


def test_no_auth_scenario_minimal_in_every_column():
    for link in (LINK_INTERNET, LINK_LOCAL):
        table = build_cost_table(TABLE1_ROWS, CONFIG)
        column = "internet_access_ms" if link == LINK_INTERNET else "local_access_ms"
        no_auth = next(r for r in table if r["parameter"] == "No authentication")
        for row in table:
            assert no_auth[column] <= row[column]


def test_integrated_factors_cost_at_most_sum_of_parts():
    table1 = build_cost_table(TABLE1_ROWS, CONFIG)
    table2 = build_cost_table(TABLE2_ROWS, CONFIG)
    singles = {tuple(r["factors"]): r for r in table1 if r["factors"]}
    for row in table2:
        if not row["factors"]:
            continue
        for column in ("internet_access_ms", "local_access_ms"):
            parts = sum(singles[(f,)][column] for f in row["factors"])
            assert row[column] <= parts


def test_integrated_scenario_costs_at_least_no_auth():
    table2 = build_cost_table(TABLE2_ROWS, CONFIG)
    no_auth = next(r for r in table2 if not r["factors"])
    for row in table2:
        for column in ("internet_access_ms", "local_access_ms"):
            assert row[column] >= no_auth[column]


def test_no_auth_runs_zero_hash_invocations():
    _, report = run_scenario(CONFIG, "none", [], LINK_LOCAL)
    assert report.hash_count == 0
    assert report.mac_count == 0
    assert report.messages == 2  # bare request/reply


def test_storage_bits_exactly_eight_per_byte():
    for scheme in ("mht", "dors", "dhs"):
        _, report = run_scenario(CONFIG, scheme, [], LINK_LOCAL)
        assert report.storage_bits % 8 == 0
        assert report.storage_bits > 0
    assert run_scenario(CONFIG, "none", [], LINK_LOCAL)[1].storage_bits == 0


def test_dors_signature_dominates_dors_wire_bytes():
    _, report = run_scenario(CONFIG, "dors", [], LINK_LOCAL)
    # challenge(16) + signature(546) + service request/reply framing
    assert report.wire_bytes >= 16 + 546


def test_csv_has_table_layout():
    csv_text = cost_table_to_csv(build_cost_table(TABLE1_ROWS, CONFIG))
    lines = csv_text.strip().splitlines()
    assert lines[0] == "Utilized parameter,Internet access time (ms),Local access time (ms)"
    assert len(lines) == 1 + len(TABLE1_ROWS)
    assert lines[-1].startswith("No authentication,")


def test_elapsed_reflects_link_latency_ordering():
    for scheme in ("mht", "dors", "dhs"):
        _, local = run_scenario(CONFIG, scheme, [], LINK_LOCAL)
        _, remote = run_scenario(CONFIG, scheme, [], LINK_INTERNET)
        assert remote.elapsed_ms > local.elapsed_ms


# Every cell of Tables 1 and 2 as (elapsed_ms, hash_count, mac_count,
# wire_bytes, messages), row by row, internet cell then local cell, as the
# tables read before they ran on the seeded gateway. No seed moves them.
TABLE_CELLS = {
    "1": [
        ((111, 8, 8, 202, 6), (15, 4, 10, 218, 6)),
        ((116, 8, 8, 202, 6), (20, 4, 10, 218, 6)),
        ((113, 8, 8, 202, 6), (17, 4, 10, 218, 6)),
        ((115, 8, 8, 205, 6), (19, 4, 10, 221, 6)),
        ((36, 0, 0, 34, 2), (4, 0, 0, 34, 2)),
    ],
    "2": [
        ((116, 8, 8, 202, 6), (20, 4, 10, 221, 6)),
        ((124, 8, 8, 202, 6), (28, 4, 10, 219, 6)),
        ((131, 8, 8, 203, 6), (35, 4, 10, 219, 6)),
        ((36, 0, 0, 34, 2), (4, 0, 0, 34, 2)),
    ],
}
# Persisted gateway-side state of each cell's scheme, in bits.
STORAGE_BITS = {"dhs": 1752, "mht": 2048, "none": 0}
TABLE_SEEDS = (b"\x11" * 32, b"\x05" * 32, b"\x42" * 32, bytes(range(32)))


@pytest.mark.parametrize("seed", TABLE_SEEDS, ids=lambda seed: seed[:2].hex())
def test_table_cells_are_pinned_and_their_storage_is_seed_independent(seed):
    for name, rows in (("1", TABLE1_ROWS), ("2", TABLE2_ROWS)):
        table = build_cost_table(rows, SimConfig(seed=seed))
        for row, cells in zip(table, TABLE_CELLS[name], strict=True):
            for report, cell in zip((row["internet_report"], row["local_report"]), cells):
                counters = (report.elapsed_ms, report.hash_count, report.mac_count)
                assert counters + (report.wire_bytes, report.messages) == cell, report
                assert (report.outcome, report.storage_bits) == ("completed", STORAGE_BITS[report.scheme])


def test_cost_tables_never_expand_a_dors_forest(monkeypatch):
    # Tables 1/2 run no DORS session, so they must not pay for a forest.
    from sshaf import dors_auth

    def refuse(*args, **kwargs):
        raise AssertionError("a cost-table scenario provisioned DORS")

    monkeypatch.setattr(dors_auth, "dors_provision", refuse)
    assert len(build_cost_table(TABLE1_ROWS + TABLE2_ROWS, CONFIG)) == 9


def _hashing_uses(node, func=None):
    """(enclosing function, use) for each hashlib use, and each HMAC built
    other than by compare_digest, under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ImportFrom) and child.module in ("hashlib", "hmac"):
            names = {alias.name for alias in child.names}
            if child.module == "hashlib" or names - {"compare_digest"}:
                yield func, f"from {child.module} import {sorted(names)}"
        if isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
            module, attr = child.value.id, child.attr
            if module == "hashlib" or (module in ("hmac", "_hmac") and attr in ("new", "digest", "HMAC")):
                yield func, f"{module}.{attr}"
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
        yield from _hashing_uses(child, inner)


def test_protocol_hashing_goes_through_primitives():
    # Every protocol hash and mac must land on METER, so only primitives
    # may call hashlib or build an HMAC. The DB keystream stays off METER
    # by design and is the one exception.
    import sshaf

    root = pathlib.Path(sshaf.__file__).parent
    for path in root.rglob("*.py"):
        rel = path.relative_to(root).as_posix()
        if rel == "primitives.py":
            continue
        for func, use in _hashing_uses(ast.parse(path.read_text())):
            assert (rel, func) == ("gateway.py", "_keystream"), f"{rel} ({func}) uses {use}"


def test_unchecked_construction_stays_in_primitives():
    # Fixed-width values skip their length check only where primitives
    # builds them from outputs of known length; every decoder keeps it.
    import sshaf

    root = pathlib.Path(sshaf.__file__).parent
    for path in root.rglob("*.py"):
        rel = path.relative_to(root).as_posix()
        if rel == "primitives.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            # A name read, an attribute, or a name in an import.
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            assert name != "_unchecked", f"{rel}:{node.lineno} uses primitives._unchecked"


# Module-level symbols of src/sshaf that nothing in src/ or perfbench's
# non-test files uses yet, each with the reason it stays.
UNREFERENCED_ALLOWED = {
    ("context_engine.py", "load_access_records"): "the planned `sshaf train` command reads its corpus with it",
}


def _names_used(node):
    """Every name ``node`` reads, takes as an attribute or imports, and every
    identifier-shaped string in it (perfbench names what it wraps by string)."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name.rpartition(".")[2]
        elif isinstance(child, ast.Constant) and isinstance(child.value, str) and child.value.isidentifier():
            yield child.value


def test_every_module_level_symbol_has_a_caller():
    # A symbol that only its own tests reach is dead code: delete it, or
    # list it above with the reason it stays. Matching is by name, so a
    # name that also means something else elsewhere always passes.
    root = pathlib.Path(__file__).resolve().parent.parent
    package = root / "src" / "sshaf"
    perfbench = [p for p in (root / "perfbench").glob("*.py") if not p.name.startswith(("test_", "conftest"))]
    trees = {path: ast.parse(path.read_text()) for path in [*package.rglob("*.py"), *perfbench]}
    users: dict[str, set] = {}
    for path, tree in trees.items():
        for index, stmt in enumerate(tree.body):
            for name in _names_used(stmt):
                users.setdefault(name, set()).add((path, index))
    unused = set()
    for path in package.rglob("*.py"):
        for index, name in paired_bench.top_level_definitions(trees[path]):
            if not users.get(name, set()) - {(path, index)}:
                unused.add((path.relative_to(package).as_posix(), name))
    assert unused == set(UNREFERENCED_ALLOWED)


# Settable options in src/sshaf. Raise it only with a CHANGES.md line that
# names the two callers that need different values. A change that lowers
# the count lowers the ceiling with it, so the ceiling never sits above it.
OPTION_CEILING = 32


def test_settable_options_stay_under_their_ceiling():
    import sshaf

    count = paired_bench.settable_options(pathlib.Path(sshaf.__file__).parent)
    assert count == OPTION_CEILING, f"{count} settable options, not the ceiling of {OPTION_CEILING}"


def test_no_wall_clock_in_source_tree():
    # Freshness comes from counters, chains and identifiers, never clocks.
    import sshaf

    root = pathlib.Path(sshaf.__file__).parent
    banned = ("time.time(", "datetime.now(", "time.monotonic(", "perf_counter", "utcnow(")
    for path in root.rglob("*.py"):
        text = path.read_text()
        for token in banned:
            assert token not in text, f"{path.name} reads a wall clock via {token}"
