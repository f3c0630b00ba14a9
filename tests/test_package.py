"""What a bare `import latkit` loads: the routes' modules, not the
two-arm experiment (bench), basis-file I/O (basisio) or the CLI, whose
names are imported from their own modules; and what it builds: almost no
Fraction, so no table of numbers is made at import."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# package-level names that are no longer exported
REMOVED = (
    "frac_str", "parse_basis_file", "parse_basis_text", "serialize_matrix",
    "write_basis_file", "BenchReport", "bench_compare", "generate_random_basis",
    "report_to_json", "gram_schmidt", "GramSchmidtResult", "Rational",
    "minkowski_bound_sq", "ShiftVector", "projection_length_sq",
)

PROBE = """
import json, sys
import latkit
loaded = sorted(m for m in sys.modules if m.startswith("latkit."))
present = []
for name in sys.argv[1:]:
    try:
        getattr(latkit, name)
    except AttributeError:
        continue
    present.append(name)
import latkit.cli
print(json.dumps({"loaded": loaded, "present": present, "cli": latkit.cli.main.__module__}))
"""


def test_bare_import_loads_only_the_routes():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE, *REMOVED], env=env,
                         capture_output=True, text=True, check=True).stdout
    got = json.loads(out)
    assert "latkit.lll" in got["loaded"]
    assert not {"latkit.bench", "latkit.basisio", "latkit.cli"} & set(got["loaded"])
    assert got["present"] == []
    assert got["cli"] == "latkit.cli"


# counts every Fraction built, through Fraction.__new__, during the import
FRACTION_PROBE = """
import fractions
new, built = fractions.Fraction.__new__, []
def counting(cls, *args, **kwargs):
    built.append(cls)
    return new(cls, *args, **kwargs)
fractions.Fraction.__new__ = counting
import latkit
print(len(built))
"""


def test_bare_import_builds_almost_no_fraction():
    # a module constant such as lll's delta = 1/4 is one Fraction; a table
    # of small numbers built at import is hundreds
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", FRACTION_PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert int(out) <= 4
