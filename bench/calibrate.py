"""Fixed calibration job: the machine's current speed for CLI-shaped work.

    python3 bench/calibrate.py

On a shared host the speed of a core changes from one second to the next, by
half and more, with the load of other tenants.  `run.py` runs this script,
in its own process like each timed command, between every two commands, and
divides each command's time by the mean of the calibration times just before
and just after it.  The work here is of the same kind as the commands' (a
Python start-up, then tokenizing Turtle-like lines with a regex and filling
dicts of sets) so that it slows down as they do; it never imports oced-forge,
so a change to the program does not move it.  The input is built in memory
and is the same on every run.
"""

import re

LINES = 20_000
EXPECTED = 2 * LINES  # every triple is distinct and is indexed both ways
TOKEN = re.compile(r'<[^>]*>|"(?:[^"\\]|\\.)*"(?:\^\^\S+)?|[^\s"]+')


def text() -> str:
    rows = []
    for i in range(LINES):
        subject = f"ex:e{i // 9}"
        if i % 9 == 0:
            rows.append(f"{subject} rdf:type ex:Event{i % 13} .")
        elif i % 3 == 0:
            rows.append(f'{subject} ex:time "2012-{1 + i % 12:02d}-{1 + i % 28:02d}T10:{i % 60:02d}:00"^^xsd:dateTime .')
        else:
            rows.append(f"{subject} ex:object <http://example.org/oced/o{i % 701}> .")
    return "\n".join(rows) + "\n"


def work(data: str) -> int:
    index: dict[str, dict[str, set[str]]] = {}
    for line in data.splitlines():
        s, p, o = TOKEN.findall(line)[:3]
        index.setdefault(s, {}).setdefault(p, set()).add(o)
        index.setdefault(o, {}).setdefault(p, set()).add(s)
    return sum(len(objects) for preds in index.values() for objects in preds.values())


if __name__ == "__main__":
    print(work(text()))
