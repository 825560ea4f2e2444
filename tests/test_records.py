"""The library's records are immutable named tuples.  The three that check
their input (RdpPair, BlowupContext, StciParams) do it in ``__new__``,
which ``_replace`` and ``_make`` skip, so the library never calls those
two on them.  Their fields are their constructor's arguments and what
derives from them is a property, so ``_replace`` still skips the checks
but leaves no derived field stale."""

import ast
import copy
import inspect
import pickle
from pathlib import Path

import pytest

from oracles import context_alpha
from stci import chow, cli, degrees, graphs, rdp, theorems
from stci.errors import DomainError

SRC = Path(__file__).resolve().parent.parent / "src" / "stci"
MODULES = (chow, cli, degrees, graphs, rdp, theorems)


def one_of_each():
    """An instance of every record type the library returns or takes."""
    ctx = chow.make_context(4, 0, (1, 2))
    return [
        rdp.pair_a(3, 2),
        rdp.scalar_invariants(rdp.E6),
        ctx,
        chow.st_expansion(4, 4, ctx),
        graphs.replay(1, ("+", 1)),
        graphs.snort_check((1, 2)),
        degrees.enumerate_pairs(4, 0)[0],
        theorems.StciParams(4, 4, 4, 0),
        theorems.thm1_value(theorems.StciParams(4, 4, 4, 0)),
        theorems.thm3_check(4, 4, 0, (9, 9)),
        theorems.thmA_verdict(4, 4, 4, 0),
        cli.record({"s": 4}),
    ]


def test_every_record_type_is_covered():
    defined = {
        value
        for module in MODULES
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, tuple) and value.__module__ == module.__name__
    }
    assert {type(record) for record in one_of_each()} == defined


def test_fields_cannot_be_assigned():
    for record in one_of_each():
        assert record == tuple(record)
        for name in type(record)._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 0


def test_validating_records_refuse_bad_input_when_built_directly():
    for species, n, k in [("A", 3, 3), ("A", 0, 1), ("D1", 3, 0), ("Dn", 5, 1), ("E6", 6, 1), ("Q", 1, 0)]:
        with pytest.raises(DomainError):
            rdp.RdpPair(species, n, k)
    with pytest.raises(DomainError):
        chow.BlowupContext(0, 0, (1,))
    with pytest.raises(DomainError):
        chow.BlowupContext(1, -1, ())
    with pytest.raises(DomainError):
        theorems.StciParams(3, 3, 4, 0)
    assert context_alpha(chow.BlowupContext(4, 0, (-6, -6, -6))) == (-14, -8, -2, 4)


def test_validating_records_copy_through_new():
    for record in (rdp.E7, chow.BlowupContext(4, 0, [1, 2]), theorems.StciParams(4, 4, 4, 0)):
        assert copy.copy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


def test_validating_records_store_only_their_arguments():
    for cls in (rdp.RdpPair, chow.BlowupContext, theorems.StciParams):
        assert cls._fields == tuple(inspect.signature(cls.__new__).parameters)[1:], cls


def test_library_never_replaces_or_makes_a_validating_record():
    # every _replace in the library is on a fresh Document (record());
    # _make is never called
    receivers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("_replace", "_make"):
                assert node.attr == "_replace", path.name
                call = node.value
                assert isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute))
                receivers.append(getattr(call.func, "id", getattr(call.func, "attr", None)))
    assert set(receivers) == {"record"}
    assert type(cli.record({})) is cli.Document
