"""Scenario execution and cost metering.

A scenario is one session of a scheme over a link, with a list of
contextual factors collected before it. Runs are fully deterministic in the
config seed; reports carry exact hash/mac/byte
counters plus the modelled elapsed milliseconds. The generated tables
reproduce the structural orderings of the evaluation (no-authentication
row minimal, integrated factor sets no costlier than the sum of their
parts) rather than any hardware-bound absolute numbers.
"""

from __future__ import annotations

import csv
import io

from .. import dhs_auth, dors_auth, merkle_auth, persist
from ..context_engine import (
    IP_HOME,
    IP_KNOWN,
    ORIGIN_INTERNET,
    ORIGIN_LOCAL,
    SCHEME_DHS,
    SCHEME_DORS,
    SCHEME_MHT,
    ContextSnapshot,
    decide_access,
    evaluate_factor,
    score_confidence,
)
from ..gateway import LOGIN_POLICY, WEIGHTS
from ..link import GATEWAY, USER
from ..primitives import METER, Key256, RandomSource
from .simnet import (
    DEFAULT_FACTOR_COST_MS,
    LINK_INTERNET,
    LINK_LOCAL,
    MessageDropped,
    MetricsReport,
    SimClock,
    SimConfig,
    SimLink,
    Transcript,
    TranscriptEvent,
)

SCHEME_NONE = "none"


# --- scenario world -----------------------------------------------------------

class ScenarioWorld:
    """One user provisioned for the scenario's scheme, built fresh per
    scenario from a forked seed.

    MHT and DHS are always provisioned, so the seeded stream is read the
    same way whatever the scheme. The DORS forest reads no randomness and
    is by far the costliest to expand, so only a DORS scenario builds it.
    """

    UID = "alice"
    PASSWORD = "scenario-pass"

    def __init__(self, src: RandomSource, scheme: str):
        self.src = src
        self.master = Key256(src.read(32))
        self.mht_registry: dict[str, merkle_auth.MhtGatewayState] = {}
        self.mht_user, _ = merkle_auth.mht_register(self.mht_registry, self.UID, self.master)
        if scheme == SCHEME_DORS:
            self.dors_user, self.dors_gateway = dors_auth.dors_provision(self.UID, self.master)
        self.home = dhs_auth.dhs_initialize(src)
        self.edge = dhs_auth.EdgeServer()
        self.card = dhs_auth.dhs_register(self.home, self.edge, self.UID, self.PASSWORD, src)

    def run_scheme(self, scheme: str, link) -> None:
        if scheme == SCHEME_MHT:
            merkle_auth.mht_handshake(link, self.mht_user, self.mht_registry, self.src)
        elif scheme == SCHEME_DORS:
            dors_auth.dors_handshake(link, self.dors_user, self.dors_gateway, self.src)
        elif scheme == SCHEME_DHS:
            dhs_auth.dhs_handshake(link, self.card, self.edge, self.PASSWORD, self.src)

    def persisted_state_bytes(self, scheme: str) -> bytes:
        """Gateway-side long-term state for the scheme, as persisted."""
        if scheme == SCHEME_MHT:
            return persist.dumps(persist.mht_state_to_dict(self.mht_registry[self.UID]))
        if scheme == SCHEME_DORS:
            return persist.dumps(persist.dors_gateway_to_dict(self.dors_gateway))
        if scheme == SCHEME_DHS:
            return persist.dumps(persist.edge_server_to_dict(self.edge))
        return b""


# --- scenarios --------------------------------------------------------------------

def _scenario_snapshot(factors: list[str], link: str) -> ContextSnapshot:
    """The context the collected factors would report when satisfied."""
    remote = link == LINK_INTERNET
    return ContextSnapshot(
        uid=ScenarioWorld.UID,
        origin=ORIGIN_INTERNET if remote else ORIGIN_LOCAL,
        ip_class=IP_KNOWN if remote else IP_HOME,
        bluetooth_present="bluetooth" in factors and not remote,
        timestamp=10 * 60,
        calendar_claims_present="calendar" in factors,
        credentials_ok="credentials" in factors,
    )


def run_scenario(
    config: SimConfig, scheme: str, factors: list[str], link_name: str
) -> tuple[Transcript, MetricsReport]:
    """Execute one session of ``scheme`` with ``factors`` over the link
    named ``link_name``, deterministically, and meter it. The scenario's
    name, which labels its seed forks and its report, is derived from the
    scheme and factors."""
    name = f"{scheme}-{'+'.join(factors) or 'none'}"
    scenario_src = RandomSource.seeded(config.seed).fork(f"scenario:{name}:{link_name}")
    drop_stream = RandomSource.seeded(config.seed).fork(f"drops:{name}:{link_name}")
    world = ScenarioWorld(scenario_src.fork("world"), scheme)
    clock = SimClock()
    transcript = Transcript()
    link = SimLink(config, link_name, clock, transcript, drop_stream)

    METER.reset()
    outcome = "completed"
    try:
        # Base service exchange: the request that authentication gates.
        link.send(USER, GATEWAY, b"service-request")
        for factor in factors:
            clock.advance(DEFAULT_FACTOR_COST_MS[factor])
            transcript.add(
                TranscriptEvent(
                    clock.now_ms, GATEWAY, "context", f"collect:{factor}".encode(), "collected"
                )
            )
        world.run_scheme(scheme, link)
        if scheme == SCHEME_NONE:
            decision = "grant"
        else:
            snapshot = _scenario_snapshot(factors, link_name)
            scores = {f: evaluate_factor(snapshot, f) for f in factors}
            confidence = score_confidence(scores, WEIGHTS)
            decision = decide_access(confidence, LOGIN_POLICY)
        link.send(GATEWAY, USER, f"service-reply:{decision}".encode())
    except MessageDropped:
        outcome = "aborted:drop"

    hashes, macs = METER.snapshot()
    report = MetricsReport(
        scenario=name,
        link=link_name,
        scheme=scheme,
        factors=tuple(factors),
        elapsed_ms=clock.now_ms,
        hash_count=hashes,
        mac_count=macs,
        wire_bytes=link.wire_bytes,
        messages=link.messages,
        storage_bits=len(world.persisted_state_bytes(scheme)) * 8,
        outcome=outcome,
    )
    return transcript, report


# --- evaluation tables -------------------------------------------------------------

TABLE1_ROWS = [
    ("Proximity (Bluetooth-based location)", ["bluetooth"]),
    ("Access of Calendar", ["calendar"]),
    ("Network (IP address-based location)", ["ip_location"]),
    ("Username and password (knowledge-based credentials)", ["credentials"]),
    ("No authentication", []),
]

TABLE2_ROWS = [
    ("Bluetooth and IP Address-based location", ["bluetooth", "ip_location"]),
    (
        "Bluetooth and IP Address-based location with access of Calendar",
        ["bluetooth", "ip_location", "calendar"],
    ),
    (
        "Bluetooth and IP Address-based location with access of Calendar and "
        "knowledge-based credentials",
        ["bluetooth", "ip_location", "calendar", "credentials"],
    ),
    ("No authentication", []),
]


def _row_scheme(factors: list[str], link: str) -> str:
    if not factors:
        return SCHEME_NONE
    return SCHEME_DHS if link == LINK_INTERNET else SCHEME_MHT


def build_cost_table(rows, config: SimConfig) -> list[dict]:
    """Internet and local access columns for each factor row, in the
    two-column layout of the evaluation tables, plus the exact counters."""
    table = []
    for label, factors in rows:
        cells = {
            link: run_scenario(config, _row_scheme(factors, link), factors, link)[1]
            for link in (LINK_INTERNET, LINK_LOCAL)
        }
        table.append(
            {
                "parameter": label,
                "factors": list(factors),
                "internet_access_ms": cells[LINK_INTERNET].elapsed_ms,
                "local_access_ms": cells[LINK_LOCAL].elapsed_ms,
                "internet_report": cells[LINK_INTERNET],
                "local_report": cells[LINK_LOCAL],
            }
        )
    return table


def cost_table_to_csv(table: list[dict]) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["Utilized parameter", "Internet access time (ms)", "Local access time (ms)"])
    for row in table:
        writer.writerow([row["parameter"], row["internet_access_ms"], row["local_access_ms"]])
    return out.getvalue()


def metrics_to_csv(reports: list[MetricsReport]) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(MetricsReport.COLUMNS)
    for report in reports:
        writer.writerow(report.as_row())
    return out.getvalue()
