"""The product-graph indexes OneWayTransducer.tuple_succ and tuple_pred:
agreement with a per-letter reference, one pair search per machine,
normal forms that do not depend on the hash seed, and the wide replace_k
machines it speeds up."""

import itertools
import json
import os
import subprocess
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from omegastream import nft
from omegastream.analysis import is_continuous

from machines import (HASH_ORDER_MACHINE, deterministic_machines,
                      lasso_branch_machines, replace_k, small_machines)


def reference_succ(T, t):
    """tuple_succ(t) spelled out: every letter of the alphabet, sorted by
    str, then the product of the components' succ lists."""
    rows = []
    for a in sorted(T.input_alphabet, key=str):
        per = [T.succ(q, a) for q in t]
        for combo in itertools.product(*per):
            rows.append((a, tuple(c[0] for c in combo),
                         tuple(c[1] for c in combo)))
    return rows


def reference_pred(T, t):
    """tuple_pred(t) spelled out: every letter of the alphabet, sorted by
    str, then the product of the components' sorted (source, output)
    lists."""
    rows = []
    for a in sorted(T.input_alphabet, key=str):
        per = [sorted((p, out) for (p, b, p2), out in T.transitions.items()
                      if b == a and p2 == q) for q in t]
        for combo in itertools.product(*per):
            rows.append((a, tuple(c[0] for c in combo),
                         tuple(c[1] for c in combo)))
    return rows


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(small_machines(), lasso_branch_machines(),
                 deterministic_machines()))
def test_index_matches_per_letter_reference(T):
    states = sorted(T.states)
    edges = sorted(T.transitions.items(),
                   key=lambda kv: (str(kv[0][1]), kv[0][2]))
    for q in states:
        assert T.out_edges(q) == [(a, q2, out) for (p, a, q2), out in edges
                                  if p == q]
        for a in T.input_alphabet:
            assert T.succ(q, a) == sorted(
                (q2, out) for (p, b, q2), out in T.transitions.items()
                if p == q and b == a)
    for width in (1, 2, 3):
        for t in itertools.product(states, repeat=width):
            assert T.tuple_succ(t) == reference_succ(T, t)
            assert T.tuple_succ(t) is T.tuple_succ(t)  # built once
            assert T.tuple_pred(t) == reference_pred(T, t)
            assert T.tuple_pred(t) is T.tuple_pred(t)


def constant_state_machine() -> nft.OneWayTransducer:
    """The constant function x^w on a^w and a+ b {a,b}^w.  q is a constant
    state: it loops silently on a while the final f, read on the same
    a's, emits x each time."""
    edges = [("i", "a", "f", "x"), ("f", "a", "f", "x"), ("i", "a", "q", ""),
             ("q", "a", "q", ""), ("q", "b", "g", "x"), ("g", "a", "g", "x"),
             ("g", "b", "g", "x")]
    return nft.from_dict({
        "input_alphabet": ["a", "b"],
        "output_alphabet": ["x"],
        "states": ["f", "g", "i", "q"],
        "initial": ["i"],
        "final": ["f", "g"],
        "transitions": [{"from": p, "letter": a, "to": p2, "out": o}
                        for p, a, p2, o in edges],
    })


def test_normalize_searches_the_pair_graph_once(monkeypatch):
    """Pair reachability from I x I does not depend on the state being
    tested, so one search serves every state, not one per non-final
    state; the continuity check shares it through T.square()."""
    calls = []
    product_between = nft.product_between

    def counting(T, starts, goals):
        calls.append(starts)
        return product_between(T, starts, goals)

    monkeypatch.setattr(nft, "product_between", counting)
    T = replace_k(5)
    assert len(T.states - T.final) == 5
    assert nft.is_productive(T)
    assert calls == [[("q0", "q0")]]
    calls.clear()
    T = constant_state_machine()
    assert is_continuous(T)[0] and not nft.is_productive(T)
    Tn = nft.normalize(T)
    assert sorted(q for q in Tn.states if "!" in q) == ["g!q", "q!q"]
    # is_continuous, is_productive and normalize share one search
    assert calls.count([("i", "i")]) == 1


def test_replace_k_is_continuous_and_already_normal():
    for k in range(2, 13):
        T = replace_k(k)
        assert is_continuous(T) == (True, None)
        assert nft.to_dict(nft.normalize(T)) == nft.to_dict(T)


def test_normalize_independent_of_hash_seed(tmp_path):
    import omegastream

    path = tmp_path / "machine.json"
    path.write_text(json.dumps(HASH_ORDER_MACHINE))
    root = os.path.dirname(os.path.dirname(os.path.abspath(omegastream.__file__)))
    script = ("import json, sys; from omegastream import nft; "
              "print(json.dumps(nft.to_dict(nft.normalize(nft.load(sys.argv[1])))))")
    outs = []
    for seed in ("1", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (root, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", script, str(path)],
                              capture_output=True, text=True, env=env,
                              check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
