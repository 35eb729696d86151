"""Scenario execution and cost metering.

A scenario is one session of a scheme over a link, with a list of
contextual factors collected before it. Its world is the seeded one-user
``Gateway`` the attack matrix also attacks: ``seeded_gateway`` registers
``UID`` with the scheme's capability and the owner activates it, and the
session runs through ``Gateway.run_scheme`` over the simulated link. The
``none`` scheme builds no world and runs no handshake.

Runs are fully deterministic in the config seed; reports carry exact
hash/mac/byte counters plus the modelled elapsed milliseconds. A cost
table is the same for every seed: the seed picks the world's secrets and
nonces, and no count depends on them. The generated tables reproduce the
structural orderings of the evaluation (no-authentication row minimal,
integrated factor sets no costlier than the sum of their parts) rather
than any hardware-bound absolute numbers.
"""

from __future__ import annotations

import csv
import io

from .. import persist
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
from ..gateway import CAP_CARD, CAP_DORS, LOGIN_POLICY, OWNER_UID, ROLE_RESIDENT, WEIGHTS, Gateway
from ..link import GATEWAY, USER
from ..primitives import METER, RandomSource, random_key
from .simnet import (
    DEFAULT_FACTOR_COST_MS,
    LINK_INTERNET,
    LINK_LOCAL,
    MetricsReport,
    SimConfig,
    SimLink,
)

SCHEME_NONE = "none"


# --- the seeded one-user gateway ---------------------------------------------

UID = "alice"
PASSWORD = "harness-pass"
# The capability each scheme needs on top of the MHT state every user gets.
_CAPABILITIES = {SCHEME_MHT: (), SCHEME_DORS: (CAP_DORS,), SCHEME_DHS: (CAP_CARD,)}


def seeded_gateway(seed: bytes, label: str, scheme: str) -> Gateway:
    """A gateway on the stream ``label`` forks from ``seed``, whose one user,
    ``UID``, is registered with the scheme's capability and activated by the
    owner. Only a DORS user gets a forest, the costliest state to build."""
    if scheme not in _CAPABILITIES:
        raise ValueError(f"unknown scheme {scheme!r}")
    src = RandomSource.seeded(seed).fork(label)
    gw = Gateway(src, random_key(src))
    gw.register_user(UID, "Alice", 30, ROLE_RESIDENT, PASSWORD, capabilities=_CAPABILITIES[scheme])
    gw.owner_verify(OWNER_UID, UID, "activate")
    return gw


def _storage(gw: Gateway | None, scheme: str) -> bytes:
    """The gateway-side long-term state of ``UID`` for the scheme, as
    persisted; the DHS edge server counts with its keystore."""
    if scheme == SCHEME_MHT:
        return persist.dumps(persist.mht_state_to_dict(gw.mht_registry[UID]))
    if scheme == SCHEME_DORS:
        return persist.dumps(persist.dors_gateway_to_dict(gw.dors_registry[UID]))
    if scheme == SCHEME_DHS:
        return persist.dumps(persist.edge_server_to_dict(gw.edge))
    return b""


# --- scenarios --------------------------------------------------------------------

def _scenario_snapshot(factors: list[str], link: str) -> ContextSnapshot:
    """The context the collected factors would report when satisfied."""
    remote = link == LINK_INTERNET
    return ContextSnapshot(
        uid=UID,
        origin=ORIGIN_INTERNET if remote else ORIGIN_LOCAL,
        ip_class=IP_KNOWN if remote else IP_HOME,
        bluetooth_present="bluetooth" in factors and not remote,
        timestamp=10 * 60,
        calendar_claims_present="calendar" in factors,
        credentials_ok="credentials" in factors,
    )


def run_scenario(
    config: SimConfig, scheme: str, factors: list[str], link_name: str
) -> tuple[SimLink, MetricsReport]:
    """Execute one session of ``scheme`` with ``factors`` over the link
    named ``link_name``, deterministically, and meter it. The scenario's
    name, which labels its seed forks and its report, is derived from the
    scheme and factors. The simulated link delivers every message, so the
    report's outcome is ``completed``.

    It returns the spent link with the report. Every count is in the
    report; the pair stays because perfbench's span hook for this function
    unpacks the result as ``_, report``."""
    name = f"{scheme}-{'+'.join(factors) or 'none'}"
    gw = None
    if scheme != SCHEME_NONE:
        gw = seeded_gateway(config.seed, f"scenario:{name}:{link_name}", scheme)
    link = SimLink(link_name)

    start = METER.snapshot()  # the counts exclude building the world
    # Base service exchange: the request that authentication gates.
    link.send(USER, GATEWAY, b"service-request")
    # Collecting the factors takes their modelled time.
    link.elapsed_ms += sum(DEFAULT_FACTOR_COST_MS[factor] for factor in factors)
    if gw is None:
        decision = "grant"
    else:
        gw.run_scheme(scheme, UID, PASSWORD, link)
        snapshot = _scenario_snapshot(factors, link_name)
        scores = {f: evaluate_factor(snapshot, f) for f in factors}
        confidence = score_confidence(scores, WEIGHTS)
        decision = decide_access(confidence, LOGIN_POLICY)
    link.send(GATEWAY, USER, f"service-reply:{decision}".encode())

    hashes, macs = (now - then for now, then in zip(METER.snapshot(), start))
    report = MetricsReport(
        scenario=name,
        link=link_name,
        scheme=scheme,
        factors=tuple(factors),
        elapsed_ms=link.elapsed_ms,
        hash_count=hashes,
        mac_count=macs,
        wire_bytes=link.wire_bytes,
        messages=link.messages,
        storage_bits=len(_storage(gw, scheme)) * 8,
        outcome="completed",
    )
    return link, report


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
