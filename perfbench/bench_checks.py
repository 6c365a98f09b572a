"""Output checks for benchmark calls, run after the timed passes.

``check_call`` returns None when a call's output is right and a one-line
reason when it is not.  A verify report must say it passed; zagreb rows
must agree between definition and closed form and cover exactly the
composite n asked for; a dim witness must resolve the essential graph
under ``is_resolving`` on BFS distances, with its size equal to
``dim_formula`` where that is exact; every single-n command must report
the expected vertex count T.
"""

from __future__ import annotations

import json

from bench_inputs import Call, factorize, signature, vertex_count


def _is_composite(n: int) -> bool:
    return n >= 4 and factorize(n) != ((n, 1),)


def _expected_t(n: int) -> int:
    return vertex_count(signature(n))


def _key_values(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def _bfs_row(adjacency, source: int) -> list[int]:
    dist = [-1] * len(adjacency)
    dist[source] = 0
    seen = frontier = 1 << source
    d = 0
    while frontier:
        d += 1
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= adjacency[low.bit_length() - 1]
        frontier = nxt & ~seen
        seen |= frontier
        rest = frontier
        while rest:
            low = rest & -rest
            rest ^= low
            dist[low.bit_length() - 1] = d
    return dist


def _check_verify(call: Call, out: str) -> str | None:
    if "--format" in call.argv:
        payload = json.loads(out)
        if [payload["start"], payload["end"]] != list(call.window):
            return f"verify reports range {payload['start']}..{payload['end']}"
        return None if payload["passed"] is True else "verify reports failures"
    lines = out.splitlines()
    if not lines or lines[-1] != "result = PASS" or any(line.startswith("FAIL") for line in lines):
        return "verify does not report PASS"
    return None


def _check_zagreb(call: Call, out: str) -> str | None:
    lo, hi = call.window
    if "csv" in call.argv:
        lines = out.splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        ns = [int(r["n"]) for r in rows]
        if ns != [n for n in range(lo, hi + 1) if _is_composite(n)]:
            return "zagreb rows do not cover exactly the composite n of the window"
        pairs = [(r["M1_def"], r["M1_closed"], r["M2_def"], r["M2_closed"], r["flags"]) for r in rows]
    else:
        kv = _key_values(out)
        if int(kv["T"]) != _expected_t(lo):
            return f"zagreb reports T = {kv['T']}"
        pairs = [(kv["M1_definition"], kv["M1_closed"], kv["M2_definition"], kv["M2_closed"], "")]
    for m1_def, m1_closed, m2_def, m2_closed, flags in pairs:
        if m1_def != m1_closed or m2_def != m2_closed or "_agree=false" in flags:
            return "zagreb definition and closed form disagree"
    return None


def _check_dim(call: Call, out: str) -> str | None:
    from eigraph.arithmetic import factor
    from eigraph.graph import build_essential_graph
    from eigraph.metricdim import dim_formula, is_resolving

    n = call.window[0]
    if "json" in call.argv:
        payload = json.loads(out)
        dim, witness, t = payload["dim"], payload["witness"], payload["T"]
    else:
        kv = _key_values(out)
        dim, t = int(kv["dim"]), int(kv["T"])
        witness = [int(d) for d in kv["witness"].split()] if "witness" in kv else None
    if t != _expected_t(n):
        return f"dim reports T = {t}"
    if witness is None or len(witness) != dim:
        return "dim reports no witness of its size"
    f = factor(n)
    formula = dim_formula(f)
    if formula.is_exact and dim != formula.dim_value:
        return f"dim {dim} differs from the closed form {formula.dim_value}"
    g = build_essential_graph(f)
    witness_idx = {g.index_of(d) for d in witness}
    # is_resolving reads distances[v][w] only for v outside the witness.
    distances = [None if v in witness_idx else _bfs_row(g.adjacency, v) for v in range(g.order)]
    if not is_resolving(g, witness, distances).resolves:
        return "dim witness does not resolve"
    return None


def _check_vertex_count(call: Call, out: str) -> str | None:
    want = _expected_t(call.window[0])
    if "json" in call.argv:
        payload = json.loads(out)
        got = len(payload["vertices"])
        if "distances" in payload and (
            len(payload["distances"]) != got or any(len(row) != got for row in payload["distances"])
        ):
            return "distance matrix is not T x T"
    else:
        got = int(_key_values(out)["T"])
    return None if got == want else f"{call.argv[0]} reports T = {got}, expected {want}"


_CHECKS = {
    "verify": _check_verify,
    "zagreb": _check_zagreb,
    "dim": _check_dim,
    "graph": _check_vertex_count,
    "aig": _check_vertex_count,
    "classes": _check_vertex_count,
    "distances": _check_vertex_count,
}


def check_call(call: Call, out: str) -> str | None:
    """None when the output of a call that exited 0 is right, else why not."""
    try:
        return _CHECKS[call.argv[0]](call, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable {call.argv[0]} output: {exc!r}"
