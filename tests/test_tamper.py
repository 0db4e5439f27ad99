"""Every leaf of one report of each kind, edited one at a time, must fail
verify-certificate, unless ALLOWED names the leaf with the reason it
verifies.

The edits: a float is scaled by 1 + 1e-6 and moved by 1e-9, a boolean is
flipped, an integer gets +1 and a string a suffix; a list longer than four
is edited at four of its indices.  Each config also gets one key more, and
loses each of its keys in turn.  A new report field therefore needs either
a rebuild that catches its edits or a line in ALLOWED.
"""
import copy
import json
import math
import re

import pytest

from randcorr.cli import main
from randcorr.linalg import write_matrix_csv
from randcorr.sampling import SeedSpec, gaussian
from randcorr.verify import verify_report

# (report name, leaf path, why an edit there verifies), both as regexes
ALLOWED = [
    (r".*", r"config\.matrix",
     "the CSV path the matrix was read from is a label: the matrix itself is embedded"),
    (r"threshold", r"results\.alpha0|config\.(gap_constant|tol)",
     "by design any alpha0 verifies across which the objective changes sign within "
     "tol + BRENT_RTOL alpha0, and these small edits keep that sign change"),
    (r"classical.*", r"config\.tol",
     "tol fixes only the flags, upper - lower <= tol, and a small edit leaves them as they are"),
    (r"gamma2-oracle", r"results\.oracle",
     "the oracle is an estimate, checked only to lie inside the re-evaluated bracket "
     "(ROADMAP item 6)"),
    (r"experiment-orthogonal_norm_band", r"config\.thresholds\.band_slack",
     "only the trials read band_slack, and trials are not re-run (ROADMAP item 9)"),
    (r"experiment-nonlocality_sweep", r"config\.params\.alphas\[\d+\]",
     "the grid rounds alpha n to the integer m, so a small edit of alpha lays out the "
     "same trials"),
]

# name: argv after the matrix CSV paths are filled in ({m6}, {m26})
SINGLE = {
    "norm-exact": "norm --matrix {m6}",
    "norm-heuristic": "norm --which infty-to-one-heuristic --restarts 2 --matrix {m6}",
    "norm-trace": "norm --which trace --matrix {m6}",
    "norm-operator": "norm --which operator --matrix {m6}",
    "norm-flatness": "norm --which flatness --matrix {m6}",
    "gamma2": "gamma2 --matrix {m6}",
    "gamma2-psd": "gamma2 --matrix {psd6}",
    "gamma2-zero-lines": "gamma2 --matrix {z6}",
    "gamma2-oracle": "gamma2 --oracle --matrix {m6}",
    "classical": "classical --matrix {m6}",
    "classical-max-atoms-2": "classical --max-atoms 2 --matrix {m6}",
    "gap-n6": "gap --matrix {m6}",
    "gap-n26": "gap --matrix {m26}",
    "spectral-ks": "spectral --alpha 0.5 --grid-points 500 --ks-n 40 --ks-m 20 --seed 3",
    "threshold": "threshold --gap sqrt(16/15)",
}
EXPERIMENTS = {
    "orthogonal_norm_band": ["--n", "6", "--trials", "3"],
    "qc_gap": ["--n", "6", "--trials", "3"],
    "nonlocality_sweep": ["--n", "6", "--trials", "2"],
}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tamper")
    paths = {name: tmp / f"{name}.csv" for name in ("m6", "m26", "psd6", "z6")}
    g6 = gaussian(6, 6, SeedSpec(17, 0)) / math.sqrt(6)
    write_matrix_csv(paths["m6"], g6)
    write_matrix_csv(paths["m26"], gaussian(26, 26, SeedSpec(17, 1)) / math.sqrt(26))
    # gamma2's lower witness is the coordinate one of the largest diagonal
    # entry on a PSD matrix, and an iterate's with zero scalings on the zero
    # row and column
    write_matrix_csv(paths["psd6"], g6 @ g6.T)
    z6 = g6.copy()
    z6[0], z6[:, -1] = 0.0, 0.0
    write_matrix_csv(paths["z6"], z6)
    argvs = {name: argv.format(**paths).split() for name, argv in SINGLE.items()}
    argvs.update((f"experiment-{scenario}",
                  ["experiment", "--scenario", scenario, *extra, "--threads", "1"])
                 for scenario, extra in EXPERIMENTS.items())
    docs = {}
    for name, argv in argvs.items():
        out = tmp / f"{name}.json"
        assert main(argv + ["--out", str(out)]) in (0, 3), name  # 3: a verdict
        docs[name] = json.loads(out.read_text())
        assert verify_report(docs[name]) == [], name
    return docs


def _sampled(seq: list) -> list[int]:
    if len(seq) <= 4:
        return list(range(len(seq)))
    return sorted({0, len(seq) // 3, 2 * len(seq) // 3, len(seq) - 1})


def _leaves(node, path=()):
    """Paths to the leaves an edit can change, long lists sampled."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaves(child, path + (key,))
    elif isinstance(node, list):
        for i in _sampled(node):
            yield from _leaves(node[i], path + (i,))
    elif node is not None:
        yield path


def _edited(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * (1.0 + 1e-6) + 1e-9
    return value + "-edited"


def _label(path) -> str:
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:]


def _edits(doc):
    """(label, edited copy of doc), one per leaf and config key."""
    for path in _leaves(doc):
        edited = copy.deepcopy(doc)
        parent = edited
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = _edited(parent[path[-1]])
        yield _label(path), edited
    edited = copy.deepcopy(doc)
    edited["config"]["note"] = 1
    yield "config.note added", edited
    for key in doc["config"]:
        edited = copy.deepcopy(doc)
        del edited["config"][key]
        yield f"config.{key} removed", edited


def _allowed(name: str, label: str) -> bool:
    return any(re.fullmatch(kinds, name) and re.fullmatch(paths, label)
               for kinds, paths, _ in ALLOWED)


@pytest.fixture(scope="module")
def verified(reports):
    """The edits of each report that still verify, by label."""
    return {name: [label for label, doc in _edits(report) if not verify_report(doc)]
            for name, report in reports.items()}


@pytest.mark.parametrize("name", [*SINGLE, *(f"experiment-{s}" for s in EXPERIMENTS)])
def test_every_edit_fails_or_is_allowed(verified, name):
    assert [label for label in verified[name] if not _allowed(name, label)] == []


def test_the_allowlist_is_short_and_every_entry_is_used(verified):
    assert len(ALLOWED) <= 6
    used = {i for name, labels in verified.items() for label in labels
            for i, (kinds, paths, _) in enumerate(ALLOWED)
            if re.fullmatch(kinds, name) and re.fullmatch(paths, label)}
    assert used == set(range(len(ALLOWED)))
