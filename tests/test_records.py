"""The package's records: the import cost they leave out, and what the
hand-written slotted classes promise.

Plain value records are NamedTuples, ``BParams`` and ``SparsifierParams``
among them: they check nothing, because each knob's range is checked
once, where it enters, by ``cli.ExperimentConfig`` (``tests/test_cli.py``
holds those cases).  The records whose equality or hash carries meaning
are ``__slots__`` classes with explicit methods; these tests pin those
methods to what the records promised when they were dataclasses: which
fields equality and hash leave out, and that such a record equals no
tuple.  They also pin each record's ``repr`` (strings taken from the
dataclass versions) and a pickle round trip for what ``verify --threads
2`` sends through its process pool.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import stochmatch
from oracles import gnp_graph
from stochmatch.analysis import _trial_block, prepare_pipeline
from stochmatch.graph import Graph, SeedContext
from stochmatch.hyperwalk import BParams
from stochmatch.lca import ProbeTrace, QueryLedger, Site
from stochmatch.sparsifier import SparsifierParams


def test_cli_import_leaves_out_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize, and each
    # @dataclass generates code through exec: together about a third of
    # the command line's start-up
    src = str(Path(stochmatch.__file__).resolve().parent.parent)
    script = (
        "import sys\n"
        "import stochmatch.cli\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


V0, V1, E1 = Site("vertex", 0), Site("vertex", 1), Site("edge", 1)


def _ledger(site_kind="vertex", sites=(V0,), swept=True) -> QueryLedger:
    ledger = QueryLedger(site_kind, sites)
    if swept:
        ledger.add_sweep({s: frozenset({s}) for s in sites})
    return ledger


class TestEquality:
    # (record, a record equal to it, records that differ from it in one field)
    CASES = {
        "SeedContext": (
            lambda: SeedContext(7, ("a", 3)),
            # a wrong encoding changes the key, which equality leaves out
            lambda: SeedContext(7, ("a", 3), b"other"),
            [lambda: SeedContext(8, ("a", 3)), lambda: SeedContext(7, ("a", 4))],
        ),
        "Graph": (
            lambda: Graph.build(3, [(0, 1, 0.5), (1, 2, 1.0)]),
            lambda: Graph(3, ((0, 1, 0.5), (1, 2, 1.0)), ()),
            [
                lambda: Graph.build(4, [(0, 1, 0.5), (1, 2, 1.0)]),
                lambda: Graph.build(3, [(0, 1, 0.5), (1, 2, 0.9)]),
            ],
        ),
        "ProbeTrace": (
            lambda: ProbeTrace(V0, (V0, E1), {"calls": 2}),
            lambda: ProbeTrace(V0, (V0, E1), {}),
            [lambda: ProbeTrace(V1, (V0, E1), {"calls": 2}), lambda: ProbeTrace(V0, (V0,), {"calls": 2})],
        ),
        "BParams": (
            lambda: BParams(1, 2, 3, 0.5, None),
            lambda: BParams(alpha=1, walk_len=2, depth=3, margin=0.5, mis_budget=None),
            [
                lambda: BParams(0, 2, 3, 0.5, None),
                lambda: BParams(1, 3, 3, 0.5, None),
                lambda: BParams(1, 2, 4, 0.5, None),
                lambda: BParams(1, 2, 3, 0.25, None),
                lambda: BParams(1, 2, 3, 0.5, 7),
            ],
        ),
        "SparsifierParams": (
            lambda: SparsifierParams(4, 0.2, 9),
            lambda: SparsifierParams(R=4, eps=0.2, seed=9),
            [
                lambda: SparsifierParams(5, 0.2, 9),
                lambda: SparsifierParams(4, 0.3, 9),
                lambda: SparsifierParams(4, 0.2, 8),
            ],
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_equality_and_hash_cover_exactly_the_compared_fields(self, name):
        make, same, others = self.CASES[name]
        record = make()
        assert record == same() and hash(record) == hash(same())
        for other in others:
            assert record != other()
        if not isinstance(record, tuple):
            # a slotted record equals only its own class, not a tuple of its
            # fields; a NamedTuple is the tuple of its fields
            fields = [f for f in type(record).__slots__ if not f.startswith("_")]
            assert record != tuple(getattr(record, f) for f in fields)

    def test_hashes_are_those_of_the_compared_fields(self):
        assert hash(SeedContext(7, ("a",))) == hash((7, ("a",)))
        assert hash(Graph.build(2, [(0, 1, 0.5)])) == hash((2, ((0, 1, 0.5),)))
        assert hash(ProbeTrace(V0, (V0,), {"x": 1})) == hash((V0, (V0,)))
        assert hash(BParams(1, 2, 3, 0.5, None)) == hash((1, 2, 3, 0.5, None))
        assert hash(SparsifierParams(4, 0.2, 9)) == hash((4, 0.2, 9))

    def test_ledger_compares_every_field_and_is_unhashable(self):
        assert _ledger() == _ledger()
        assert _ledger() != _ledger(swept=False)
        assert _ledger() != _ledger(site_kind="edge")
        assert _ledger() != _ledger(sites=(V0, V1))
        ledger = _ledger()
        ledger.psi_rows[0][V0] = 5  # rows are mutable, and equality reads them
        assert ledger != _ledger()
        with pytest.raises(TypeError, match="unhashable type: 'QueryLedger'"):
            hash(ledger)


@pytest.mark.parametrize("record,expected", [
    (lambda: SeedContext(7), "SeedContext(seed=7, path=())"),
    (lambda: SeedContext(7).child("a", 3), "SeedContext(seed=7, path=('a', 3))"),
    (
        lambda: Graph.build(3, [(0, 1, 0.5), (1, 2, 1.0)]),
        "Graph(n=3, edges=((0, 1, 0.5), (1, 2, 1.0)), adjacency=((0,), (0, 1), (1,)))",
    ),
    (
        lambda: ProbeTrace(V0, (V0, E1), {"calls": 2}),
        "ProbeTrace(root=Site(kind='vertex', id=0), probed=(Site(kind='vertex', id=0), "
        "Site(kind='edge', id=1)), meta={'calls': 2})",
    ),
    (
        _ledger,
        "QueryLedger(site_kind='vertex', sites=(Site(kind='vertex', id=0),), "
        "qplus_rows=[{Site(kind='vertex', id=0): 1}], qminus_rows=[{Site(kind='vertex', id=0): 1}], "
        "psi_rows=[{Site(kind='vertex', id=0): 1}])",
    ),
    (
        lambda: _ledger("edge", (), swept=False),
        "QueryLedger(site_kind='edge', sites=(), qplus_rows=[], qminus_rows=[], psi_rows=[])",
    ),
    (
        lambda: BParams(alpha=1, walk_len=2, depth=3, margin=0.08, mis_budget=None),
        "BParams(alpha=1, walk_len=2, depth=3, margin=0.08, mis_budget=None)",
    ),
    (lambda: SparsifierParams(R=4, eps=0.2, seed=9), "SparsifierParams(R=4, eps=0.2, seed=9)"),
], ids=[
    "SeedContext", "SeedContext-child", "Graph", "ProbeTrace", "QueryLedger",
    "QueryLedger-empty", "BParams", "SparsifierParams",
])
def test_repr_is_the_dataclass_repr(record, expected):
    assert repr(record()) == expected


class TestPoolRoundTrip:
    """``verify --threads 2`` pickles the pipeline set-up into each worker
    and the trial stats back."""

    @pytest.fixture(scope="class")
    def setup(self):
        g = gnp_graph(8, 0.3, 0.5, SeedContext(0).child("g"))
        return prepare_pipeline(
            g, eps=0.3, seed=7, bparams=BParams(1, 2, 2, 0.18, None), q_samples=10_000,
            table_samples=5, match_prob_trials=8, delta_trials=5, delta_exponent=15,
            R=None, exact=None, thresholds=(0.2, 0.4),
        )

    def test_setup_survives_pickling(self, setup):
        # f is empty here, so the set-up builds no probability table; the
        # trials fill the exact pipeline's one tape table before it travels
        trials = _trial_block(setup, range(3))
        clone = pickle.loads(pickle.dumps(setup))
        # the walk index and a table's tapes compare by identity; every other
        # field by value
        for name in setup._fields:
            if name not in ("crucial", "tapes"):
                assert getattr(clone, name) == getattr(setup, name), name
        assert clone.crucial.from_sub == setup.crucial.from_sub
        rec, twin = setup.crucial.rec, clone.crucial.rec
        assert (twin.gates, twin.budget, twin.walks.g) == (rec.gates, rec.budget, rec.walks.g)
        # the exact pipeline's one table travels with the setup, on the
        # clone's subgraph and keyed by the clone's recursion
        tapes, copy = setup.tapes, clone.tapes
        assert (copy.ctx, copy.keys()) == (tapes.ctx, tapes.keys())
        assert copy.graph is twin.walks.g
        assert len(copy.derived) == len(tapes.derived) > 0
        assert all(key[1] is twin for key in copy.derived)
        assert clone.ctx._key == setup.ctx._key
        assert clone.g.adjacency == setup.g.adjacency
        assert _trial_block(clone, range(3)) == trials == _trial_block(setup, range(3))

    def test_slotted_records_survive_pickling(self):
        g = Graph.build(3, [(0, 1, 0.5), (1, 2, 1.0)])
        g.neighbors(1)  # fills the cached neighbor table, kept in __dict__
        records = [
            g,
            SeedContext(7).child("a", 3),
            ProbeTrace(V0, (V0, E1), {"calls": 2}),
            _ledger(),
            BParams(1, 2, 3, 0.5, None),
            SparsifierParams(4, 0.2, 9),
        ]
        for record in records:
            clone = pickle.loads(pickle.dumps(record))
            assert clone == record and repr(clone) == repr(record)
        assert pickle.loads(pickle.dumps(g)).neighbors(1) == (0, 2)
