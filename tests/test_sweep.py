"""The byte-exact outputs of the tree commands on the six test machines.

Each command of the sweep (``verify-claims`` as a table and as JSON,
``simulate --decode`` as JSON and DOT, at eight depths) is pinned by the
sha256 of its exit code, standard output and standard error, recorded
in ``sweep_digests.json``.  An optimisation of the simulation tree or the
construction checks must leave every one of them unchanged.

Record the digests again, after a change meant to alter the outputs, with::

    PYTHONPATH=src python3 tests/test_sweep.py
"""

import hashlib
import json
import sys
from pathlib import Path

from machines import SIX_MACHINES
from oracles import run_cli

from atlir.cli import main
from atlir.turing import save_tm

DIGESTS = Path(__file__).with_name("sweep_digests.json")
DEPTHS = (3, 4, 5, 8, 13, 21, 31, 41)
FORMS = {
    "claims-table": ["verify-claims", "--format", "table"],
    "claims-json": ["verify-claims", "--format", "json"],
    "simulate-json": ["simulate", "--decode", "--format", "json"],
    "simulate-dot": ["simulate", "--decode", "--format", "dot"],
}


def sweep(folder: Path) -> dict[str, str]:
    """The digest of every command of the sweep, by ``machine/form/depth``."""
    out = {}
    for name, m in sorted(SIX_MACHINES.items()):
        path = folder / f"{name}.json"
        save_tm(m, path)
        for form, argv in FORMS.items():
            cmd, *opts = argv
            for d in DEPTHS:
                code, stdout, stderr = run_cli(main, [cmd, str(path), "-d", str(d), *opts])
                shown = json.dumps([code, stdout, stderr]).encode()
                out[f"{name}/{form}/{d}"] = hashlib.sha256(shown).hexdigest()
    return out


def test_sweep_outputs_are_unchanged(tmp_path):
    want = json.loads(DIGESTS.read_text())
    assert len(want) == len(SIX_MACHINES) * len(FORMS) * len(DEPTHS) == 192
    got = sweep(tmp_path)
    assert [k for k in want if got[k] != want[k]] == []
    assert got == want


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        DIGESTS.write_text(json.dumps(sweep(Path(tmp)), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
