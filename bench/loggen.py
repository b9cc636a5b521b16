"""Seeded BPIC-2013-shaped XES log generator with an independent ground truth.

The log imitates the BPIC 2013 incidents log: BPIC-style case ids
(`1-<9 digits>`), a lognormal number of events per case (mean 8.5, tail
capped at 120, the total fixed at 8.5 per case), 650 support teams with Zipf-skewed popularity of which
each case sees a few, CET/CEST offsets, and gzip compression.  Three edge
cases appear in fixed small shares: equal timestamps within a case, bursts
where several teams act at one instant, and events without `org:group`.

The ground truth is computed here, from the generator's own records, and
never from oced-forge: per-case team timelines, the ping-pong rows, the team
ranking (by pairwise brute force), and the counts `stats`, `event-objects`
and `export-dot` must report.  The program under test sees only the log.

Usage: python3 bench/loggen.py --seed 1 --cases 1900 --out DIR
"""

import argparse
import gzip
import json
import math
import os
import random
from datetime import datetime, timedelta, timezone

N_TEAMS = 650
MEAN_EVENTS = 8.5
MAX_EVENTS = 120
SIGMA_EVENTS = 0.8
EQUAL_TIME_SHARE = 0.03  # same team, same instant as the previous event
BURST_SHARE = 0.03  # another team, same instant as the previous event
NO_GROUP_SHARE = 0.02  # event without org:group

EX = "http://example.org/oced/"

# (concept:name, lifecycle:transition) pairs, as in the BPIC 2013 log
ACTIVITIES = [
    ("Accepted", "In Progress"),
    ("Accepted", "Assigned"),
    ("Accepted", "Wait"),
    ("Accepted", "Wait - User"),
    ("Accepted", "Wait - Implementation"),
    ("Accepted", "Wait - Customer"),
    ("Accepted", "Wait - Vendor"),
    ("Queued", "Awaiting Assignment"),
    ("Completed", "In Call"),
    ("Completed", "Resolved"),
    ("Completed", "Closed"),
    ("Completed", "Cancelled"),
    ("Unmatched", "Unmatched"),
]
IMPACTS = ["Low", "Medium", "High", "Major"]
COUNTRIES = ["Sweden", "Belgium", "Netherlands", "Brazil", "India", "USA", "China", "Poland"]
START = datetime(2010, 3, 31, tzinfo=timezone.utc)
SPAN_MS = 2 * 365 * 24 * 3600 * 1000
MEAN_GAP_MS = 6 * 3600 * 1000


def team_names(rng: random.Random) -> list[str]:
    """650 distinct BPIC-style group names, some with spaces or suffixes."""
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < N_TEAMS:
        name = f"{rng.choice('GVSNAOD')}{rng.randint(1, 99)}"
        roll = rng.random()
        if roll < 0.15:
            name += rng.choice([" 2nd", " 3rd"])
        elif roll < 0.4:
            name += f"_{rng.randint(1, 9)}"
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def _cet_offset_hours(utc_ms: int) -> int:
    # CEST from the last Sunday of March to the last Sunday of October, roughly
    month = (START + timedelta(milliseconds=utc_ms)).month
    return 2 if 4 <= month <= 10 else 1


def _xes_date(utc_ms: int) -> str:
    hours = _cet_offset_hours(utc_ms)
    local = START + timedelta(milliseconds=utc_ms, hours=hours)
    return local.strftime("%Y-%m-%dT%H:%M:%S.") + f"{local.microsecond // 1000:03d}+0{hours}:00"


def utc_text(utc_ms: int) -> str:
    t = START + timedelta(milliseconds=utc_ms)
    return t.strftime("%Y-%m-%dT%H:%M:%S.") + f"{t.microsecond // 1000:03d}Z"


def generate(seed: int, cases: int) -> list[dict]:
    """The log as plain records: one dict per case with its event list."""
    rng = random.Random(seed)
    teams = team_names(rng)
    weights = [1.0 / (rank + 1) for rank in range(N_TEAMS)]
    mu = math.log(MEAN_EVENTS) - SIGMA_EVENTS**2 / 2
    lengths = [min(MAX_EVENTS, max(1, round(rng.lognormvariate(mu, SIGMA_EVENTS)))) for _ in range(cases)]
    # every seed gets the same event total, so run time does not follow the seed
    excess = sum(lengths) - round(cases * MEAN_EVENTS)
    while excess:
        i = rng.randrange(cases)
        if excess < 0 and lengths[i] < MAX_EVENTS:
            lengths[i] += 1
            excess += 1
        elif excess > 0 and lengths[i] > 1:
            lengths[i] -= 1
            excess -= 1
    case_no = 364285768 + rng.randint(0, 10**6)
    log = []
    for n_events in lengths:
        case_no += rng.randint(1, 400)
        n_teams = rng.choices([1, 2, 3, 4], weights=[35, 35, 20, 10])[0]
        handlers: list[str] = []
        while len(handlers) < n_teams:
            team = rng.choices(teams, weights=weights)[0]
            if team not in handlers:
                handlers.append(team)
        t = rng.randrange(SPAN_MS)
        team = handlers[0]
        events = []
        for i in range(n_events):
            roll = rng.random()
            if i and roll < EQUAL_TIME_SHARE:
                pass  # same team, same instant
            elif i and roll < EQUAL_TIME_SHARE + BURST_SHARE and n_teams > 1:
                team = rng.choice([h for h in handlers if h != team])
            else:
                if i:
                    t += max(1, int(rng.expovariate(1.0 / MEAN_GAP_MS)))
                if rng.random() < 0.4:
                    team = rng.choice(handlers)
            activity, transition = rng.choice(ACTIVITIES)
            events.append(
                {
                    "activity": activity,
                    "transition": transition,
                    "utc_ms": t,
                    "team": None if rng.random() < NO_GROUP_SHARE else team,
                    "resource": f"R{rng.randint(1, 1400)}",
                    "impact": rng.choice(IMPACTS),
                    "product": f"PROD{rng.randint(1, 700)}",
                    "country": rng.choice(COUNTRIES),
                }
            )
        log.append({"case": f"1-{case_no}", "events": events})
    return log


def _xml_attr(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")


def to_xes(log: list[dict]) -> str:
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>\n<log xes.version="1.0" xes.features="nested-attributes">\n',
        '  <extension name="Concept" prefix="concept" uri="http://www.xes-standard.org/concept.xesext"/>\n',
        '  <extension name="Time" prefix="time" uri="http://www.xes-standard.org/time.xesext"/>\n',
        '  <extension name="Organizational" prefix="org" uri="http://www.xes-standard.org/org.xesext"/>\n',
        '  <extension name="Lifecycle" prefix="lifecycle" uri="http://www.xes-standard.org/lifecycle.xesext"/>\n',
        '  <global scope="trace">\n    <string key="concept:name" value="UNKNOWN"/>\n  </global>\n',
        '  <global scope="event">\n    <string key="concept:name" value="UNKNOWN"/>\n'
        '    <date key="time:timestamp" value="1970-01-01T00:00:00.000+01:00"/>\n  </global>\n',
        '  <classifier name="Activity" keys="concept:name lifecycle:transition"/>\n',
        '  <string key="concept:name" value="BPIC 2013 shaped synthetic incidents"/>\n',
    ]
    for case in log:
        out.append(f'  <trace>\n    <string key="concept:name" value="{case["case"]}"/>\n')
        for ev in case["events"]:
            out.append("    <event>\n")
            out.append(f'      <string key="concept:name" value="{_xml_attr(ev["activity"])}"/>\n')
            out.append(f'      <string key="lifecycle:transition" value="{_xml_attr(ev["transition"])}"/>\n')
            out.append(f'      <date key="time:timestamp" value="{_xes_date(ev["utc_ms"])}"/>\n')
            if ev["team"] is not None:
                out.append(f'      <string key="org:group" value="{_xml_attr(ev["team"])}"/>\n')
            out.append(f'      <string key="org:resource" value="{ev["resource"]}"/>\n')
            out.append(f'      <string key="impact" value="{ev["impact"]}"/>\n')
            out.append(f'      <string key="product" value="{ev["product"]}"/>\n')
            out.append(f'      <string key="resource country" value="{ev["country"]}"/>\n')
            out.append("    </event>\n")
        out.append("  </trace>\n")
    out.append("</log>\n")
    return "".join(out)


def escape_id(raw: str) -> str:
    """Percent-encoding of everything outside [A-Za-z0-9_-], as ids appear in IRIs."""
    safe = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-")
    return "".join(ch if ch in safe else "".join(f"%{b:02X}" for b in ch.encode()) for ch in raw)


def team_iri(team: str) -> str:
    return EX + "support_team_" + escape_id(team)


def witness_counts(timeline: list[tuple[int, str]]) -> dict[str, int]:
    """Per-team witness count of one case, by brute force over event pairs.

    A witness is an event triple (a, b, c) with team(a) == team(c) !=
    team(b) and time(a) < time(b) < time(c); it counts once for each of its
    two teams.  For each same-team pair (a, c) every other-team event
    strictly inside their interval is counted directly.
    """
    counts: dict[str, int] = {}
    for a_time, a_team in timeline:
        for c_time, c_team in timeline:
            if c_team != a_team or not a_time < c_time:
                continue
            for b_time, b_team in timeline:
                if b_team != a_team and a_time < b_time < c_time:
                    counts[a_team] = counts.get(a_team, 0) + 1
                    counts[b_team] = counts.get(b_team, 0) + 1
    return counts


def ground_truth(log: list[dict]) -> dict:
    """Expected outputs and counts, derived from the records alone."""
    timelines: dict[str, list[tuple[int, str]]] = {}
    ping_pong_rows = []
    team_cases: dict[str, int] = {}
    team_witnesses: dict[str, int] = {}
    teams_used: set[str] = set()
    oo_pairs: set[tuple[str, str]] = set()
    event_types: set[str] = set()
    events = eo = 0
    for case in log:
        timeline = sorted((ev["utc_ms"], ev["team"]) for ev in case["events"] if ev["team"] is not None)
        timelines[case["case"]] = timeline
        for ev in case["events"]:
            events += 1
            eo += 1 if ev["team"] is None else 2
            event_types.add(f'{ev["activity"]}+{ev["transition"]}')
            if ev["team"] is not None:
                teams_used.add(ev["team"])
                oo_pairs.add((case["case"], ev["team"]))
        if not timeline:
            continue
        counts = witness_counts(timeline)
        for team, count in counts.items():
            team_cases[team] = team_cases.get(team, 0) + 1
            team_witnesses[team] = team_witnesses.get(team, 0) + count
        ping_pong_rows.append(
            [EX + escape_id(case["case"]), bool(counts), utc_text(timeline[0][0]), utc_text(timeline[-1][0])]
        )
    ping_pong_rows.sort(key=lambda row: (row[1], row[0]))
    team_rows = sorted(
        ([team_iri(t), team_cases[t], team_witnesses[t]] for t in team_cases),
        key=lambda row: (-row[1], row[0]),
    )
    objects = len(log) + len(teams_used)
    oo = len(oo_pairs)
    return {
        "cases": len(log),
        "events": events,
        "teams": len(teams_used),
        "objects": objects,
        "eo_relations": eo,
        "oo_relations": oo,
        "event_types": len(event_types),
        "object_types": 2,
        # 3 per event, 2 per object, 5 per qualified event-object relation, 1 per oo
        "triples": 3 * events + 2 * objects + 5 * eo + oo,
        "timelines": timelines,
        "ping_pong_rows": ping_pong_rows,
        "ping_pong_true": [row[0] for row in ping_pong_rows if row[1]],
        "team_rows": team_rows,
    }


def write(seed: int, cases: int, out_dir: str) -> tuple[str, dict]:
    """Write log.xes.gz and ground_truth.json into out_dir; return the log path and truth."""
    log = generate(seed, cases)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "log.xes.gz")
    with open(path, "wb") as fh:
        fh.write(gzip.compress(to_xes(log).encode("utf-8"), compresslevel=6, mtime=0))
    truth = ground_truth(log)
    with open(os.path.join(out_dir, "ground_truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, sort_keys=True)
    return path, truth


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cases", type=int, default=1900)
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args()
    path, truth = write(args.seed, args.cases, args.out)
    print(f"{path}: {truth['cases']} cases, {truth['events']} events, {truth['teams']} teams, "
          f"{truth['triples']} triples, {len(truth['ping_pong_true'])} ping-pong cases")


if __name__ == "__main__":
    main()
