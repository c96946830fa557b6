"""Fuzz of the command-line entry point with random argv and config JSON.

Whatever the input, ``heckelab.cli.main`` must end with exit code 0, 1 or
2 (argparse usage errors exit 2 through SystemExit) and print no
traceback.  Most drawn invocations are valid, with a part now and then
replaced by junk, so the commands run as well as fail.  Every config has
a small enumeration budget, so each example either runs on a small algebra
or stops at BudgetExceeded.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heckelab.cli import main

JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(-5, 5),
    st.text(max_size=4), st.lists(st.integers(-2, 2), max_size=2), st.just({}),
    st.integers(-3, 5), st.integers(-3, 5).map(str),
)
# Q_2(2^(1/e)) draws its e from 1 to 6; Q_2(2^(1/e)) ~ F_2((t)) is e-close
# (the flagship pair at e = 5), so each of the two is the other's partner
Q2E, F2 = {"kind": "mixed", "p": 2}, {"kind": "equal", "p": 2}
FIELDS = [Q2E, {"kind": "mixed", "p": 3}, F2, {"kind": "equal", "p": 3},
          {"kind": "equal", "p": 2, "f": 2}]
GROUPS = [("GL", 1), ("GL", 2), ("GL", 3), ("SL", 2), ("SL", 3)]
# level, window, closeness and the field's e and f: mostly small, at times up
# to 10^9, which the budget must refuse before anything of that size is built
SIZE = st.one_of(st.integers(0, 2), st.integers(0, 10**9))
CONFIG = st.fixed_dictionaries(
    {
        "level": SIZE,
        "window": SIZE,
        "budget": st.integers(1, 3000),
        "seed": st.integers(0, 99),
    },
    optional={"ring": st.sampled_from(["Z", "Q", "F3", "F2", "Z/9", "Z/3^2", "Q@3",
                                       "Z/1000003", "Z/10000019"])},
)
KEYS = ["field", "field2", "closeness", "group", "level", "window", "ring", "budget", "seed",
        "kind", "p", "e", "f", "family", "n"]
ENTRIES = {
    "mixed": st.one_of(st.integers(-8, 8), st.sampled_from(["pi", "1/2*pi^3", "pi^-1", "1 + pi"])),
    "equal": st.one_of(st.integers(-8, 8), st.sampled_from(["t", "1 + t^2", "(1 + t)/(1 + t^2)"])),
}
BAD_ENTRY = st.one_of(st.sampled_from(["1/0", "x", "", "(", "pi^", "1//2", "2*", "t"]), JUNK)


def rows(n, entry):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


def bad(draw):
    """True for one draw in eight: replace this part by junk."""
    return draw(st.sampled_from([False] * 7 + [True]))


@st.composite
def invocations(draw):
    """(config text, argv) for one call of main.  Paths after --config,
    --out and --csv are relative; the test joins them to a temporary
    directory, where the config text is written as cfg.json."""
    config = draw(CONFIG)
    q2e = dict(Q2E, e=draw(st.integers(1, 6)))
    field = draw(st.sampled_from(FIELDS))
    field = q2e if field is Q2E else field
    config["field"] = field
    if draw(st.booleans()):
        # e (mixed) or f (equal) up to 10^9, charged before the field is built
        size_key = "e" if field["kind"] == "mixed" else "f"
        config["field"] = dict(field, **{size_key: draw(SIZE)})
    if draw(st.booleans()):
        partner = F2 if field is q2e else q2e if field is F2 else field
        config["field2"] = draw(st.sampled_from([field, partner]))
        config["closeness"] = draw(SIZE)
    family, n = draw(st.sampled_from(GROUPS))
    config["group"] = {"family": family, "n": n}
    if bad(draw):
        key, value = draw(st.sampled_from(KEYS)), draw(JUNK)
        where = ("field" if key in ("kind", "p", "e", "f")
                 else "group" if key in ("family", "n") else None)
        if where is None:
            config[key] = value
        else:
            config[where] = dict(config[where], **{key: value})
    text = json.dumps(draw(JUNK) if bad(draw) else config)
    if bad(draw):
        text = draw(st.text(max_size=8))

    argv = ["--config", draw(st.sampled_from(["absent.json", "", "bad\0name"]))
            if bad(draw) else "cfg.json"]
    for flag, good in (("--seed", st.integers(-5, 10**6).map(str)),
                       ("--budget", st.integers(-1, 3000).map(str)),
                       ("--out", st.just("out.json")),
                       ("--csv", st.just("out.csv"))):
        if draw(st.booleans()):
            junk = st.sampled_from(["x", "1e3", "", os.path.join("missing", "file")])
            argv += [flag, draw(junk if bad(draw) else good)]

    entry = ENTRIES[field["kind"]]
    if bad(draw):
        matrix = draw(st.one_of(
            rows(n, BAD_ENTRY), st.integers(1, 3).flatmap(lambda k: rows(k, entry)), JUNK,
        ))
    else:
        matrix = draw(rows(n, entry))
    tau = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    tau_text = ",".join(map(str, tau)) if draw(st.booleans()) else json.dumps(tau)
    if bad(draw):
        tau_text = draw(st.one_of(st.text(max_size=6), JUNK.map(json.dumps)))
    term = st.one_of(
        st.fixed_dictionaries({"tau": st.lists(st.integers(-2, 2), min_size=n, max_size=n)}),
        st.fixed_dictionaries({"k": rows(n, entry)}),
    )
    hecke = [json.dumps({"terms": draw(st.lists(term, max_size=2))}) for _ in range(2)]
    if bad(draw):
        hecke[draw(st.integers(0, 1))] = draw(st.one_of(
            st.text(max_size=6), JUNK.map(json.dumps),
            JUNK.map(lambda j: json.dumps({"terms": [{"tau": j}]})),
        ))
    command = draw(st.sampled_from([
        ["cartan", json.dumps(matrix)], ["dcosets", json.dumps(matrix)],
        ["transport", json.dumps(matrix)], ["orbits", tau_text], ["convolve"] + hecke,
        ["verify"], ["verify", "--suite", "field"], ["verify", "--suite", "hecke"],
        ["verify", "--suite", "kazhdan"],
    ]))
    if bad(draw):
        command = draw(st.lists(
            st.sampled_from(["verify", "--suite", "all", "none", "cartan", "--help", "-x", ""]),
            max_size=3,
        ))
    return text, argv + command


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(invocation=invocations())
def test_main_ends_in_an_exit_code_never_a_traceback(invocation):
    text, argv = invocation
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "cfg.json"), "w") as fh:
            fh.write(text)
        for i in range(1, len(argv)):
            if argv[i - 1] in ("--config", "--out", "--csv") and argv[i] and "\0" not in argv[i]:
                argv[i] = os.path.join(tmp, argv[i])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors and --help
                code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
