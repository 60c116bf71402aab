"""The CLI contract as a property: mutated docs configs through ``cli.main``.

Each example takes one ``docs/configs`` file, with ``trials`` set to 2, sets
one or two of its numeric leaves (in an array of more than two entries, only
the first or the last) to an extreme number or a ``hypothesis`` float, runs
the command in-process and checks what every run must give, whatever the
input:

* ``main`` returns 0, 1, 2 or 3, raises nothing and lets no warning escape;
* a nonzero exit prints one error line and leaves no output file;
* every JSON output is standard JSON (no ``NaN`` or ``Infinity`` token);
* every ``thm2`` CSV cell is finite; in ``thm1`` only ``shrinkage_term``,
  ``noise_bound`` and a flagged row's ``h_distance`` may be nan;
* ``fit`` and ``interpolate`` residuals are finite.

The examples are derandomized, so tier-1 runs the same ones every time.
The example count comes from the loaded ``hypothesis`` profile: tier-1 runs
the default profile, and CI reruns this file with ``--hypothesis-profile=ci``
(registered in ``conftest.py``) for a wider search.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from krstab.cli import _COMMANDS, main

DOCS = Path(__file__).resolve().parent.parent / "docs" / "configs"
COMMANDS = ("bounds", "fit", "interpolate", "spectrum", "thm1", "thm2")
EXTREMES = (0, -1, 1e-310, 1e-300, 1e-30, 1e30, 1e300, 1.7e308, 0.5, 2, 3)
ERROR_PREFIXES = ("config error: ", "io error: ", "numerical diagnostics failure: ")


def _docs_config(command: str) -> dict:
    cfg = json.loads((DOCS / f"{command}.json").read_text(encoding="utf-8"))
    if "trials" in cfg:
        cfg["trials"] = 2
    return cfg


def _leaves(obj, path=()):
    """Key paths of the numeric leaves; of a longer array, its first and last entries."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(obj, list):
        ends = range(len(obj)) if len(obj) <= 2 else (0, len(obj) - 1)
        for i in ends:
            yield from _leaves(obj[i], path + (i,))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool) and path != ("trials",):
        yield path


LEAVES = {command: list(_leaves(_docs_config(command))) for command in COMMANDS}


@st.composite
def mutated_configs(draw):
    command = draw(st.sampled_from(COMMANDS))
    leaf = st.sampled_from(LEAVES[command])
    paths = {draw(leaf), draw(st.none() | leaf)} - {None}
    cfg = _docs_config(command)
    for path in sorted(paths):
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(st.one_of(st.sampled_from(EXTREMES), st.floats()))
    return command, cfg


def _standard_json(text: str):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def _check_outputs(command: str, out: str) -> None:
    _, suffixes, _, _ = _COMMANDS[command]
    texts = {s: Path(out + s).read_text(encoding="utf-8") for s in suffixes}
    parsed = {s: _standard_json(t) for s, t in texts.items() if s.endswith(".json")}
    if command in ("fit", "interpolate"):
        rows = csv.DictReader(io.StringIO(texts[".residuals.csv"]))
        residuals = [float(row["residual"]) for row in rows]
        assert all(math.isfinite(r) for r in residuals), residuals
    if command in ("thm1", "thm2"):
        flagged = {(r["index_var"], r["trial"]) for r in parsed[".summary.json"]["flagged_rows"]}
        for row in csv.DictReader(io.StringIO(texts[".csv"])):
            may_be_nan = set()
            if command == "thm1":
                may_be_nan = {"shrinkage_term", "noise_bound"}
                if (int(row["index_var"]), int(row["trial"])) in flagged:
                    may_be_nan.add("h_distance")
            for key, cell in row.items():
                value = float(cell)
                assert math.isfinite(value) or (key in may_be_nan and math.isnan(value)), row


@settings(
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=mutated_configs())
def test_mutated_docs_configs_keep_the_cli_contract(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out")
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([command, "--config", str(config), "--out", out])
        assert [str(w.message) for w in caught] == []
        assert code in (0, 1, 2, 3)
        err = stderr.getvalue()
        if code:
            assert err.startswith(ERROR_PREFIXES) and err.count("\n") == 1, err
            assert sorted(p.name for p in Path(tmp).iterdir()) == ["config.json"]
        else:
            assert err == ""
            _check_outputs(command, out)
