"""Simulated-network determinism, cost-model orderings, and exact counters."""

import ast
import pathlib

import pytest

from sshaf.errors import ScriptError
from sshaf.harness.scenarios import (
    TABLE1_ROWS,
    TABLE2_ROWS,
    build_cost_table,
    cost_table_to_csv,
    measure_costs,
    run_scenario,
)
from sshaf.harness.simnet import (
    LINK_INTERNET,
    LINK_LOCAL,
    SimConfig,
    Transcript,
    TranscriptEvent,
)

CONFIG = SimConfig(seed=b"\x42" * 32)


def test_same_seed_gives_byte_identical_transcripts():
    script = {"name": "det", "scheme": "mht", "factors": ["bluetooth"], "link": "local"}
    t1, r1 = run_scenario(SimConfig(seed=b"\x42" * 32), script)
    t2, r2 = run_scenario(SimConfig(seed=b"\x42" * 32), script)
    assert t1.to_bytes() == t2.to_bytes()
    assert r1 == r2


def test_different_seed_changes_transcript():
    script = {"name": "det", "scheme": "mht", "factors": [], "link": "local"}
    t1, _ = run_scenario(SimConfig(seed=b"\x42" * 32), script)
    t2, _ = run_scenario(SimConfig(seed=b"\x43" * 32), script)
    assert t1.to_bytes() != t2.to_bytes()


@pytest.mark.parametrize(
    "script",
    [
        {"scheme": "mht"},  # no name
        {"name": "x", "scheme": "quantum"},
        {"name": "x", "factors": ["astrology"]},
        {"name": "x", "link": "carrier-pigeon"},
        {"name": "x", "sessions": 0},
        {"name": "x", "bogus_field": 1},
        "not-an-object",
    ],
)
def test_malformed_scripts_rejected(script):
    with pytest.raises(ScriptError):
        run_scenario(CONFIG, script)


def test_transcript_time_nondecreasing():
    script = {"name": "times", "scheme": "dhs", "factors": ["credentials", "calendar"]}
    transcript, _ = run_scenario(CONFIG, script)
    times = [e.time_ms for e in transcript.events]
    assert times == sorted(times)
    assert len(times) > 0


def test_transcript_rejects_time_reversal():
    transcript = Transcript()
    transcript.add(TranscriptEvent(5, "a", "b", b"x", "delivered"))
    with pytest.raises(ValueError):
        transcript.add(TranscriptEvent(4, "a", "b", b"y", "delivered"))


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
    report = measure_costs("none", [], CONFIG, LINK_LOCAL)
    assert report.hash_count == 0
    assert report.mac_count == 0
    assert report.messages == 2  # bare request/reply


def test_storage_bits_exactly_eight_per_byte():
    for scheme in ("mht", "dors", "dhs"):
        report = measure_costs(scheme, [], CONFIG, LINK_LOCAL)
        assert report.storage_bits % 8 == 0
        assert report.storage_bits > 0
    assert measure_costs("none", [], CONFIG, LINK_LOCAL).storage_bits == 0


def test_dors_signature_dominates_dors_wire_bytes():
    report = measure_costs("dors", [], CONFIG, LINK_LOCAL)
    # challenge(16) + signature(546) + service request/reply framing
    assert report.wire_bytes >= 16 + 546


def test_drop_rate_one_aborts_handshake():
    config = SimConfig(seed=b"\x42" * 32, drop_rate=1.0)
    transcript, report = run_scenario(
        config, {"name": "lossy", "scheme": "mht", "factors": [], "link": "local"}
    )
    assert report.outcome == "aborted:drop"
    assert any(e.outcome == "dropped" for e in transcript.events)
    assert report.messages == 0


def test_csv_has_table_layout():
    csv_text = cost_table_to_csv(build_cost_table(TABLE1_ROWS, CONFIG))
    lines = csv_text.strip().splitlines()
    assert lines[0] == "Utilized parameter,Internet access time (ms),Local access time (ms)"
    assert len(lines) == 1 + len(TABLE1_ROWS)
    assert lines[-1].startswith("No authentication,")


def test_elapsed_reflects_link_latency_ordering():
    for scheme in ("mht", "dors", "dhs"):
        local = measure_costs(scheme, [], CONFIG, LINK_LOCAL)
        remote = measure_costs(scheme, [], CONFIG, LINK_INTERNET)
        assert remote.elapsed_ms > local.elapsed_ms


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


def _top_level_definitions(tree):
    """(statement index, name) of each module-level function, class and
    assigned name, dunders aside."""
    for index, stmt in enumerate(tree.body):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield index, stmt.name
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield index, target.id


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
        for index, name in _top_level_definitions(trees[path]):
            if not users.get(name, set()) - {(path, index)}:
                unused.add((path.relative_to(package).as_posix(), name))
    assert unused == set(UNREFERENCED_ALLOWED)


def test_no_wall_clock_in_source_tree():
    # Freshness comes from counters, chains and identifiers, never clocks.
    import sshaf

    root = pathlib.Path(sshaf.__file__).parent
    banned = ("time.time(", "datetime.now(", "time.monotonic(", "perf_counter", "utcnow(")
    for path in root.rglob("*.py"):
        text = path.read_text()
        for token in banned:
            assert token not in text, f"{path.name} reads a wall clock via {token}"
