"""The pAVF set algebra: union, TOP absorption, environment lookup."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pavf import (
    READ,
    TOP,
    TOP_SET,
    WRITE,
    Atom,
    PavfEnv,
    format_set,
    union,
    value_of,
)

A = Atom(READ, "S1", 0)
B = Atom(READ, "S2", 0)
C = Atom(WRITE, "S3", 1)


def _env(**kv):
    env = PavfEnv(unbound_default=1.0)
    for atom, v in kv.pop("binds", []):
        env.bind(atom, v)
    return env


def test_union_is_idempotent():
    # The Figure 7 simplification: pAVF_1 U (pAVF_1 U pAVF_2) = pAVF_1 U pAVF_2
    s1 = frozenset((A,))
    s12 = union(s1, frozenset((B,)))
    assert union(s1, s12) == s12


def test_union_absorbs_top():
    assert union(frozenset((A,)), TOP_SET) == TOP_SET
    assert union(TOP_SET) == TOP_SET


def test_value_of_sums_and_caps():
    env = PavfEnv()
    env.bind(A, 0.10)
    env.bind(B, 0.02)
    env.bind(C, 0.95)
    assert value_of(frozenset((A, B)), env) == pytest.approx(0.12)
    assert value_of(frozenset((A, B, C)), env) == 1.0
    assert value_of(TOP_SET, env) == 1.0
    assert value_of(frozenset(), env) == 0.0


def test_env_lookup_precedence():
    env = PavfEnv(unbound_default=0.7)
    env.bind_kind(READ, 0.5)
    env.bind(A, 0.1)
    assert env.lookup(A) == 0.1           # exact binding
    assert env.lookup(B) == 0.5           # kind default
    assert env.lookup(C) == 0.7           # global default
    assert env.lookup(TOP) == 1.0         # TOP is always 1


def test_env_rejects_out_of_range():
    env = PavfEnv()
    with pytest.raises(ValueError):
        env.bind(A, 1.5)
    with pytest.raises(ValueError):
        env.bind_kind(READ, -0.1)


def test_env_copy_is_independent():
    env = PavfEnv()
    env.bind(A, 0.2)
    clone = env.copy()
    clone.bind(A, 0.9)
    assert env.lookup(A) == 0.2


def test_format_set_stable():
    assert format_set(frozenset()) == "0"
    text = format_set(frozenset((B, A)))
    assert text == "pR(S1.0) + pR(S2.0)"
    assert format_set(TOP_SET) == "TOP"


atoms_strategy = st.sets(
    st.builds(
        Atom,
        kind=st.sampled_from([READ, WRITE]),
        name=st.sampled_from(["S1", "S2", "S3"]),
        bit=st.integers(0, 3),
    ),
    max_size=6,
).map(frozenset)


@settings(max_examples=100)
@given(atoms_strategy, atoms_strategy, atoms_strategy)
def test_union_laws(x, y, z):
    # commutative, associative, idempotent
    assert union(x, y) == union(y, x)
    assert union(union(x, y), z) == union(x, union(y, z))
    assert union(x, x) == x


@settings(max_examples=100)
@given(atoms_strategy, atoms_strategy)
def test_value_monotone_in_union(x, y):
    env = PavfEnv(unbound_default=0.3)
    merged = union(x, y)
    assert value_of(merged, env) >= value_of(x, env) - 1e-12
    assert value_of(merged, env) >= value_of(y, env) - 1e-12
    assert 0.0 <= value_of(merged, env) <= 1.0


@settings(max_examples=100)
@given(atoms_strategy)
def test_value_bounded(x):
    env = PavfEnv(unbound_default=0.9)
    assert 0.0 <= value_of(x, env) <= 1.0
