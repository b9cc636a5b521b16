"""Rewrite canonical oced-forge Turtle in the subject-grouped layout.

`convert` writes one `S P O .` triple per line.  General RDF tools write
one block per subject instead: `a` for rdf:type, `;` between predicates,
`,` between objects of one predicate, blank lines between blocks and
comments.  The `explore` workload feeds this layout to the readers so that
parsing goes through the general tokenizer, not a line fast path.  The
triples are the same, so every analysis output must be byte-identical.
"""

RDF_TYPE_TOKEN = "rdf:type"


def _split(line: str) -> tuple[str, str, str]:
    # subjects and predicates render without spaces; the object may hold some
    subject, predicate, rest = line.split(" ", 2)
    if not rest.endswith(" ."):
        raise ValueError(f"not a canonical triple line: {line!r}")
    return subject, predicate, rest[:-2]


def group_turtle(text: str) -> str:
    """Canonical Turtle text in, subject-grouped Turtle text out."""
    lines = text.split("\n")
    header = [line for line in lines if line.startswith("@prefix ")]
    body = [line for line in lines if line and not line.startswith("@prefix ")]
    out = header + ["", "# subject-grouped layout: one block per subject"]
    block: list[str] = []
    subject = predicate = None
    for line in body:
        s, p, o = _split(line)
        verb = "a" if p == RDF_TYPE_TOKEN else p
        if s != subject:
            if block:
                out.append("".join(block) + " .")
                out.append("")
            block = [f"{s} {verb} {o}"]
        elif p != predicate:
            block.append(f" ;\n    {verb} {o}")
        else:
            block.append(f" ,\n        {o}")
        subject, predicate = s, p
    if block:
        out.append("".join(block) + " .")
    return "\n".join(out) + "\n"
