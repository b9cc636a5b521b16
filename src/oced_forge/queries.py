"""The paper's two queries over a serialized OCED graph, each written once.

TEAM_TIMES is the ping-pong and team-involvement query; EVENT_OBJECTS is the
EventObject query, a required block and its OPTIONAL groups.  The analyses
run both, store_to_dot the EventObject query's required block with its
classifier group, and the CLI keeps, for each analysis, the triples of its
query's predicates (cli._keep_rule).  Readers look the queries up here when
they run, so a query replaced on this module reaches every one of them.

Joins run in the order written, which decides only speed; each block reads
its smallest partitions first.
"""

from .terms import (
    EXT_CLASSIFIER,
    EXT_EVENT,
    EXT_EVENT_CASE,
    EXT_EVENT_OBJECT_CLASS,
    EXT_EVENT_TYPE,
    EXT_HANDLED_BY_TEAM,
    EXT_OBJECT,
    EXT_OBJECT_TYPE,
    OBSERVED_AT,
    RDF_TYPE,
)
from .triple_query import TriplePattern, Var

_EVENT, _OBJECT, _NODE = Var("event"), Var("object"), Var("node")

# ?event ext:handled_by_support_team ?team; ext:event_case ?case; ocedo:observed_at ?time
TEAM_TIMES = [
    TriplePattern(_EVENT, EXT_HANDLED_BY_TEAM, Var("team")),
    TriplePattern(_EVENT, EXT_EVENT_CASE, Var("case")),
    TriplePattern(_EVENT, OBSERVED_AT, Var("time")),
]
_IS_EVENT_OBJECT = TriplePattern(_NODE, RDF_TYPE, EXT_EVENT_OBJECT_CLASS)
# The EventObject query: its required block and OPTIONAL groups, one pattern
# each, the classifier first (store_to_dot reads only that group).
# ?node ext:event ?event; ext:object ?object; a ext:EventObject
EVENT_OBJECTS = (
    [TriplePattern(_NODE, EXT_EVENT, _EVENT), TriplePattern(_NODE, EXT_OBJECT, _OBJECT), _IS_EVENT_OBJECT],
    [
        [TriplePattern(_NODE, EXT_CLASSIFIER, Var("classifier"))],
        [TriplePattern(_EVENT, EXT_EVENT_TYPE, Var("event_type"))],
        [TriplePattern(_EVENT, OBSERVED_AT, Var("time"))],
        [TriplePattern(_OBJECT, EXT_OBJECT_TYPE, Var("object_type"))],
    ],
)
